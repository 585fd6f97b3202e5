"""``repro.media`` — a deterministic audio media plane.

The evaluation layer scores relay paths with closed-form E-model math
over (RTT, loss); this package goes the last mile and *measures*
quality from actual received frames, the way deployed VoIP stacks do.
Six stages, each its own module:

- :mod:`frames <repro.media.frames>` — sequence-numbered, sim-timestamped
  codec frame generation and canonical received-frame traces;
- :mod:`channel <repro.media.channel>` — the per-frame loss (i.i.d. or
  Gilbert–Elliott) and jitter model, the repo's one packet-level channel;
- :mod:`jitterbuf <repro.media.jitterbuf>` — adaptive playout buffering
  (late frames become effective loss);
- :mod:`plc <repro.media.plc>` — packet-loss concealment accounting
  (concealed vs revealed loss, burst-aware);
- :mod:`adapt <repro.media.adapt>` — sliding-window codec switching
  with hysteresis (G.729A+VAD ↔ iLBC);
- :mod:`score <repro.media.score>` — ReceivedTrace → per-window
  measured MOS through :mod:`repro.voip.emodel` and outage accounting.

:mod:`session <repro.media.session>` wires the stages into one
seed-deterministic in-call media session, consumable by the sim
runtime, the conference scenario and the CLI; :mod:`repro.voip.call`
runs path switching, diversity and FEC over the same channel and scorer.
"""

from repro.media.adapt import AdaptationPolicy, CodecAdapter, CodecSwitch
from repro.media.channel import Channel
from repro.media.frames import (
    CODEC_WIRE_IDS,
    FrameSource,
    ReceivedFrame,
    ReceivedTrace,
    SentFrame,
    codec_by_wire_id,
    trace_from_wire,
)
from repro.media.jitterbuf import (
    AdaptiveJitterBuffer,
    JitterBufferConfig,
    PlayedFrame,
    PlayoutResult,
)
from repro.media.plc import ConcealmentReport, PLCConfig, conceal
from repro.media.score import (
    MEASURED_MOS_TOLERANCE,
    MeasuredScore,
    WindowScore,
    score_trace,
)
from repro.media.session import (
    MediaPlaneConfig,
    MediaResult,
    PathWindow,
    run_media_session,
)

__all__ = [
    "AdaptationPolicy",
    "AdaptiveJitterBuffer",
    "CODEC_WIRE_IDS",
    "Channel",
    "CodecAdapter",
    "CodecSwitch",
    "ConcealmentReport",
    "FrameSource",
    "JitterBufferConfig",
    "MEASURED_MOS_TOLERANCE",
    "MeasuredScore",
    "MediaPlaneConfig",
    "MediaResult",
    "PLCConfig",
    "PathWindow",
    "PlayedFrame",
    "PlayoutResult",
    "ReceivedFrame",
    "ReceivedTrace",
    "SentFrame",
    "WindowScore",
    "codec_by_wire_id",
    "conceal",
    "run_media_session",
    "score_trace",
    "trace_from_wire",
]
