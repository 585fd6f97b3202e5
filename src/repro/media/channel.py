"""The loss/jitter channel a frame crosses on its way to the receiver.

A :class:`Channel` turns one :class:`SentFrame` into one
:class:`ReceivedFrame` over a path of a given RTT and loss rate.  Loss
is either i.i.d. per frame or bursty through a Gilbert channel (a
two-state Gilbert–Elliott chain whose good state never drops and whose
bad state always drops); every surviving frame gains an exponential
jitter on top of the one-way delay ``rtt_ms / 2``.

Draw budget (the media plane's determinism contract): one uniform per
frame for i.i.d. loss, two uniforms per frame for Gilbert loss, then one
exponential per surviving frame when jitter is on.  A forced ``outage``
drops the frame after its loss draws are taken, so with jitter off an
outage never shifts the channel for the frames around it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.media.frames import ReceivedFrame, SentFrame


class Channel:
    """One direction of a path: rng, jitter mean, burst length and the
    Gilbert state, carried across frames (and path segments).

    ``burst_frames=None`` drops frames i.i.d.; :class:`MediaPlaneConfig
    <repro.media.session.MediaPlaneConfig>` validates both knobs.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        jitter_mean_ms: float,
        burst_frames: Optional[float] = None,
    ) -> None:
        self._rng = rng
        self.jitter_mean_ms = jitter_mean_ms
        self.burst_frames = burst_frames
        self._bad = False

    def _gilbert_lost(self, loss_rate: float) -> bool:
        # Per-frame transition probabilities matching ``loss_rate`` at
        # the configured mean burst length.
        r = 1.0 / self.burst_frames
        if 0.0 < loss_rate < 1.0:
            p = min(1.0, r * loss_rate / (1.0 - loss_rate))
        else:
            p = 1.0 if loss_rate >= 1.0 else 0.0
        transition = self._rng.random()
        # The emission draw decides nothing (the bad state drops every
        # frame) but is still taken: it keeps the fixed two-draw budget
        # of the determinism contract.
        self._rng.random()
        if self._bad:
            if transition < r:
                self._bad = False
        elif transition < p:
            self._bad = True
        return self._bad

    def send(
        self, frame: SentFrame, rtt_ms: float, loss_rate: float, outage: bool = False
    ) -> ReceivedFrame:
        """Carry ``frame`` across the path; ``outage`` forces a loss."""
        if self.burst_frames is None:
            lost = bool(self._rng.random() < loss_rate)
        else:
            lost = self._gilbert_lost(loss_rate)
        if lost or outage:
            return ReceivedFrame(frame.sequence, frame.sent_ms, None, frame.codec.name)
        arrival = frame.sent_ms + rtt_ms / 2.0
        if self.jitter_mean_ms > 0:
            arrival += float(self._rng.exponential(self.jitter_mean_ms))
        return ReceivedFrame(
            frame.sequence, frame.sent_ms, round(arrival, 3), frame.codec.name
        )
