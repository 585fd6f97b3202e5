"""Adaptive playout jitter buffer.

Tracks smoothed one-way delay and delay variation with the classic
RFC 3550-style EWMA estimators and derives a per-frame playout
deadline.  A frame that arrives after its deadline is *late* —
reclassified as effective loss for the PLC and scoring stages — so
buffer depth trades delay against loss exactly as in deployed stacks.  Pure function of the input trace: no RNG, no
wall clock, deterministic replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import ConfigurationError
from repro.media.frames import ReceivedTrace


@dataclass(frozen=True)
class JitterBufferConfig:
    """Playout policy knobs.

    ``min_depth_ms`` defaults to 20 ms — deliberately equal to
    :class:`repro.voip.emodel.EModelConfig`'s closed-form jitter-buffer
    allowance, so on a jitter-free path the measured mouth-to-ear delay
    matches what the analytic score already charges for.
    """

    alpha: float = 0.998          # delay EWMA retention
    factor: float = 4.0           # deadline = depth = factor * v_hat
    min_depth_ms: float = 20.0
    max_depth_ms: float = 200.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError("alpha must be in (0, 1)")
        if self.factor <= 0:
            raise ConfigurationError("factor must be positive")
        if self.min_depth_ms < 0 or self.max_depth_ms < self.min_depth_ms:
            raise ConfigurationError(
                "need 0 <= min_depth_ms <= max_depth_ms"
            )


@dataclass(frozen=True)
class PlayedFrame:
    """Playout outcome of one frame."""

    sequence: int
    status: str                   # "played" | "late" | "lost"
    playout_ms: float             # scheduled playout time (sim ms)
    depth_ms: float               # buffer depth in force at this frame


@dataclass(frozen=True)
class PlayoutResult:
    frames: Tuple[PlayedFrame, ...]

    @property
    def played(self) -> int:
        return sum(1 for f in self.frames if f.status == "played")

    @property
    def late(self) -> int:
        return sum(1 for f in self.frames if f.status == "late")

    @property
    def lost(self) -> int:
        return sum(1 for f in self.frames if f.status == "lost")

    @property
    def effective_loss_flags(self) -> Tuple[bool, ...]:
        """Per-frame loss after reclassification (late counts as lost)."""
        return tuple(f.status != "played" for f in self.frames)

    @property
    def mean_depth_ms(self) -> float:
        if not self.frames:
            return 0.0
        return sum(f.depth_ms for f in self.frames) / len(self.frames)


class AdaptiveJitterBuffer:
    """Streamed playout over a received trace.

    The delay estimate seeds from the first arriving frame, then
    follows the EWMA; the deadline for frame *i* is
    ``sent_i + d_hat + depth`` with ``depth = clamp(factor * v_hat,
    min_depth_ms, max_depth_ms)``.  Estimator state advances on every
    *arriving* frame (late ones included — the receiver still observes
    them), never on losses.
    """

    def __init__(self, config: JitterBufferConfig = JitterBufferConfig()) -> None:
        self.config = config
        self._d_hat: float = 0.0
        self._v_hat: float = 0.0
        self._seeded = False

    def _depth_ms(self) -> float:
        cfg = self.config
        return min(max(cfg.factor * self._v_hat, cfg.min_depth_ms), cfg.max_depth_ms)

    def _observe(self, delay_ms: float) -> None:
        a = self.config.alpha
        if not self._seeded:
            self._d_hat, self._v_hat, self._seeded = delay_ms, 0.0, True
            return
        deviation = abs(delay_ms - self._d_hat)
        self._d_hat = a * self._d_hat + (1.0 - a) * delay_ms
        self._v_hat = a * self._v_hat + (1.0 - a) * deviation

    def play(self, trace: ReceivedTrace) -> PlayoutResult:
        """Run the whole trace through the buffer."""
        out: List[PlayedFrame] = []
        for frame in trace.frames:
            depth = self._depth_ms()
            deadline = frame.sent_ms + self._d_hat + depth
            if frame.arrival_ms is None:
                # Nothing to observe; playout slot elapses silently.
                status = "lost"
                playout = deadline if self._seeded else frame.sent_ms + depth
            else:
                delay = frame.arrival_ms - frame.sent_ms
                if not self._seeded:
                    # First arrival defines the delay baseline; it always
                    # plays, at its own arrival plus the minimum depth.
                    self._observe(delay)
                    status = "played"
                    playout = frame.arrival_ms + depth
                else:
                    status = "played" if frame.arrival_ms <= deadline else "late"
                    playout = deadline
                    self._observe(delay)
            out.append(
                PlayedFrame(frame.sequence, status, round(playout, 3), round(depth, 3))
            )
        return PlayoutResult(frames=tuple(out))
