"""One end-to-end media session: frames → channel → buffer → PLC → MOS.

:func:`run_media_session` is the media plane's single entry point for
the sim runtime, the conference scenario and the CLI.  The caller
describes the *path* as a piecewise-constant sequence of
:class:`PathWindow` segments (RTT + loss per segment, session-relative
times) plus optional hard outage windows (failovers: nothing flows);
the session deterministically synthesizes the frame arrival process,
plays it through the adaptive jitter buffer, applies PLC accounting,
drives the codec adapter, and scores the received trace.

Determinism contract: everything derives from ``derive_rng(seed,
"media", str(call_id))`` and the configuration — same inputs, byte-
identical :class:`ReceivedTrace`, telemetry samples and MOS.  The
:class:`~repro.media.channel.Channel` fixes the RNG draw pattern per
loss mode, so with jitter off adding an outage does not perturb the
channel elsewhere.

The adapter sees loss feedback with zero delay (the receiver's view,
not a delayed RTCP-style report) — a documented idealization that
keeps switch timing deterministic and easy to assert on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.media.adapt import AdaptationPolicy, CodecAdapter, CodecSwitch
from repro.media.channel import Channel
from repro.media.frames import FrameSource, ReceivedFrame, ReceivedTrace
from repro.media.jitterbuf import AdaptiveJitterBuffer, JitterBufferConfig, PlayoutResult
from repro.media.plc import PLCConfig, conceal
from repro.media.score import DEFAULT_WINDOW_MS, MeasuredScore, score_trace
from repro.obs.timeseries import NULL_TIMELINE
from repro.obs.trace import NULL_TRACE_SPAN
from repro.util.rng import derive_rng
from repro.voip.codecs import Codec, G729A_VAD
from repro.voip.outage import OutageWindow


@dataclass(frozen=True)
class PathWindow:
    """Path conditions from ``start_ms`` (session-relative) onward."""

    start_ms: float
    rtt_ms: float
    loss_rate: float

    def __post_init__(self) -> None:
        if self.start_ms < 0 or self.rtt_ms < 0:
            raise ConfigurationError("start_ms and rtt_ms must be non-negative")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ConfigurationError("loss_rate must be in [0, 1]")


@dataclass(frozen=True)
class MediaPlaneConfig:
    """Everything the media plane needs beyond the path itself."""

    codec: Codec = G729A_VAD
    jitter_mean_ms: float = 6.0
    # Mean loss-burst length in frames for the Gilbert–Elliott channel;
    # ``None`` drops losses i.i.d. at each segment's rate instead.
    burst_frames: Optional[float] = None
    jitterbuf: JitterBufferConfig = field(default_factory=JitterBufferConfig)
    plc: PLCConfig = field(default_factory=PLCConfig)
    # ``None`` disables codec switching entirely.
    adaptation: Optional[AdaptationPolicy] = field(default_factory=AdaptationPolicy)
    window_ms: float = DEFAULT_WINDOW_MS
    payload_bytes: int = 20

    def __post_init__(self) -> None:
        if self.jitter_mean_ms < 0:
            raise ConfigurationError("jitter_mean_ms must be non-negative")
        if self.burst_frames is not None and self.burst_frames < 1.0:
            raise ConfigurationError("burst_frames must be >= 1")
        if self.window_ms <= 0:
            raise ConfigurationError("window_ms must be positive")
        if self.payload_bytes < 0:
            raise ConfigurationError("payload_bytes must be non-negative")


@dataclass(frozen=True)
class MediaResult:
    """Everything one media session produced."""

    call_id: int
    duration_ms: float
    trace: ReceivedTrace
    playout: PlayoutResult
    score: MeasuredScore
    switches: Tuple[CodecSwitch, ...]

    @property
    def mos(self) -> float:
        return self.score.mos

    def to_dict(self) -> dict:
        """Stable summary dict (CI byte-diffs JSON dumps of this)."""
        return {
            "call_id": self.call_id,
            "duration_ms": round(self.duration_ms, 3),
            "frames": len(self.trace.frames),
            "mos": round(self.score.mos, 6),
            "base_mos": round(self.score.base_mos, 6),
            "effective_loss": round(self.score.effective_loss, 6),
            "concealed_rate": round(self.score.concealed_rate, 6),
            "late_frames": self.score.late_frames,
            "lost_frames": self.score.lost_frames,
            "switches": [
                {
                    "at_ms": s.at_ms,
                    "seq": s.sequence,
                    "from": s.from_codec,
                    "to": s.to_codec,
                    "window_loss": s.window_loss,
                }
                for s in self.switches
            ],
        }


def _segment_at(path: Sequence[PathWindow], t_ms: float) -> PathWindow:
    active = path[0]
    for seg in path:
        if seg.start_ms <= t_ms:
            active = seg
        else:
            break
    return active


def _in_outage(outages: Sequence[OutageWindow], t_ms: float) -> bool:
    return any(w.start_ms <= t_ms < w.end_ms for w in outages)


def run_media_session(
    call_id: int,
    duration_ms: float,
    path: Sequence[PathWindow],
    outages: Sequence[OutageWindow] = (),
    config: MediaPlaneConfig = MediaPlaneConfig(),
    seed: int = 0,
    start_ms: float = 0.0,
    timeline=NULL_TIMELINE,
    span=NULL_TRACE_SPAN,
    **tags: str,
) -> MediaResult:
    """Run one direction of a call's media over a described path.

    ``path`` segments and ``outages`` use session-relative times;
    ``start_ms`` only offsets telemetry timestamps and trace points so
    they land at the right absolute sim time.  ``tags`` label every
    telemetry sample (e.g. ``leg="a-b"``).
    """
    if duration_ms <= 0:
        raise ConfigurationError("duration_ms must be positive")
    if not path:
        raise ConfigurationError("need at least one PathWindow")
    if sorted(path, key=lambda s: s.start_ms) != list(path):
        raise ConfigurationError("path segments must be sorted by start_ms")

    adapter = CodecAdapter(config.adaptation) if config.adaptation else None
    # With adaptation on, the policy's primary codec governs pacing;
    # ``config.codec`` applies only to fixed-codec sessions.
    source = FrameSource(adapter.codec if adapter is not None else config.codec)

    channel = Channel(
        derive_rng(seed, "media", str(call_id)),
        config.jitter_mean_ms,
        config.burst_frames,
    )
    received: List[ReceivedFrame] = []
    switches: List[CodecSwitch] = []
    for frame in source.frames_until(duration_ms):
        seg = _segment_at(path, frame.sent_ms)
        got = channel.send(
            frame, seg.rtt_ms, seg.loss_rate, _in_outage(outages, frame.sent_ms)
        )
        received.append(got)
        if adapter is not None:
            switch = adapter.observe(frame.sequence, frame.sent_ms, got.lost)
            if switch is not None:
                switches.append(switch)
                source.switch(adapter.codec)
                span.point(
                    "media.codec_switch",
                    at_ms=start_ms + switch.at_ms,
                    seq=switch.sequence,
                    from_codec=switch.from_codec,
                    to_codec=switch.to_codec,
                    window_loss=switch.window_loss,
                )

    trace = ReceivedTrace(call_id=call_id, frames=tuple(received))
    playout = AdaptiveJitterBuffer(config.jitterbuf).play(trace)
    score = score_trace(
        trace, jitterbuf=config.jitterbuf, plc=config.plc,
        window_ms=config.window_ms, playout=playout,
    )

    if timeline:
        report = conceal(playout.effective_loss_flags, config.plc)
        window_count = max(1, int(-(-trace.duration_ms // config.window_ms)))
        buckets: Dict[int, List[int]] = {}
        for i, f in enumerate(trace.frames):
            idx = min(int(f.sent_ms // config.window_ms), window_count - 1)
            buckets.setdefault(idx, []).append(i)
        switch_iter = iter(switches)
        pending = next(switch_iter, None)
        cumulative_switches = 0
        for idx in range(window_count):
            members = buckets.get(idx, [])
            if not members:
                continue
            end = start_ms + min((idx + 1) * config.window_ms, trace.duration_ms)
            depth = sum(playout.frames[i].depth_ms for i in members) / len(members)
            concealed = sum(1 for i in members if report.statuses[i] == "concealed")
            while pending is not None and pending.at_ms < (idx + 1) * config.window_ms:
                cumulative_switches += 1
                pending = next(switch_iter, None)
            timeline.sample("media.jitterbuf_depth_ms", end, depth, **tags)
            timeline.sample(
                "media.concealed_loss_rate", end, concealed / len(members), **tags
            )
            timeline.sample("media.codec_switches", end, cumulative_switches, **tags)
        for w in score.windows:
            if not w.is_outage:
                timeline.sample("media.window_mos", start_ms + w.end_ms, w.mos, **tags)

    return MediaResult(
        call_id=call_id,
        duration_ms=trace.duration_ms,
        trace=trace,
        playout=playout,
        score=score,
        switches=tuple(switches),
    )
