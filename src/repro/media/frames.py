"""Media frame generation and received-frame traces.

A sender paces :class:`SentFrame` records at the codec's packetization
interval in *simulated* time; the receiving side reconstructs a
:class:`ReceivedTrace` — one :class:`ReceivedFrame` per sequence
number, lost frames included — which is the unit every downstream
stage (jitter buffer, PLC, scorer) consumes and the unit written to
disk for byte-diff determinism checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.voip.codecs import ALL_CODECS, Codec

#: Stable codec → wire-id table (u8 on the MediaFrame message).  Ids
#: are positional in ``ALL_CODECS``; append-only by construction.
CODEC_WIRE_IDS: Dict[str, int] = {c.name: i for i, c in enumerate(ALL_CODECS)}

_CODECS_BY_ID: Dict[int, Codec] = {i: c for i, c in enumerate(ALL_CODECS)}


def codec_by_wire_id(wire_id: int) -> Codec:
    try:
        return _CODECS_BY_ID[wire_id]
    except KeyError:
        raise ConfigurationError(f"unknown codec wire id {wire_id}") from None


@dataclass(frozen=True)
class SentFrame:
    """One codec frame as emitted by the sender."""

    sequence: int
    sent_ms: float
    codec: Codec


class FrameSource:
    """Paced frame generator with mid-stream codec switching.

    Frames advance a private clock by the *current* codec's
    packetization interval, so an adaptation decision changes the
    pacing of every subsequent frame — exactly what a real sender
    does when it renegotiates the codec.
    """

    def __init__(self, codec: Codec, start_ms: float = 0.0) -> None:
        self.codec = codec
        self._next_ms = float(start_ms)
        self._next_seq = 0

    @property
    def next_ms(self) -> float:
        """Send time of the next frame (sim ms)."""
        return self._next_ms

    def switch(self, codec: Codec) -> None:
        """Use ``codec`` for all frames from the next one onward."""
        self.codec = codec

    def next_frame(self) -> SentFrame:
        frame = SentFrame(self._next_seq, round(self._next_ms, 3), self.codec)
        self._next_seq += 1
        self._next_ms += self.codec.packet_interval_ms()
        return frame

    def frames_until(self, end_ms: float) -> Iterable[SentFrame]:
        """Generate every frame with a send time strictly before ``end_ms``."""
        while self._next_ms < end_ms:
            yield self.next_frame()


@dataclass(frozen=True)
class ReceivedFrame:
    """One frame as seen at the receiver; ``arrival_ms is None`` = lost."""

    sequence: int
    sent_ms: float
    arrival_ms: Optional[float]
    codec: str

    @property
    def lost(self) -> bool:
        return self.arrival_ms is None


@dataclass(frozen=True)
class ReceivedTrace:
    """A complete, gap-free received-frame record of one media leg."""

    call_id: int
    frames: Tuple[ReceivedFrame, ...]

    def __post_init__(self) -> None:
        for i, f in enumerate(self.frames):
            if f.sequence != i:
                raise ConfigurationError(
                    f"trace frame {i} carries sequence {f.sequence}; "
                    "traces must be gap-free and ordered"
                )

    @property
    def duration_ms(self) -> float:
        if not self.frames:
            return 0.0
        last = self.frames[-1]
        codec = _codec_by_name(last.codec)
        return last.sent_ms + codec.packet_interval_ms()

    @property
    def loss_rate(self) -> float:
        if not self.frames:
            return 0.0
        return sum(1 for f in self.frames if f.lost) / len(self.frames)

    def to_jsonl(self) -> str:
        """Canonical byte-stable serialization (one frame per line)."""
        lines = [
            json.dumps(
                {"schema": 1, "call_id": self.call_id, "frames": len(self.frames)},
                sort_keys=True,
                separators=(",", ":"),
            )
        ]
        for f in self.frames:
            record = {
                "seq": f.sequence,
                "sent_ms": round(f.sent_ms, 3),
                "arrival_ms": None if f.arrival_ms is None else round(f.arrival_ms, 3),
                "codec": f.codec,
            }
            lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + "\n"

    def write(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_jsonl(), encoding="utf-8")

    @classmethod
    def from_jsonl(cls, text: str) -> "ReceivedTrace":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ConfigurationError("empty trace file")
        header = json.loads(lines[0])
        frames = []
        for ln in lines[1:]:
            rec = json.loads(ln)
            frames.append(
                ReceivedFrame(
                    sequence=rec["seq"],
                    sent_ms=rec["sent_ms"],
                    arrival_ms=rec["arrival_ms"],
                    codec=rec["codec"],
                )
            )
        trace = cls(call_id=header["call_id"], frames=tuple(frames))
        if len(trace.frames) != header["frames"]:
            raise ConfigurationError("trace header frame count mismatch")
        return trace

    @classmethod
    def read(cls, path: Union[str, Path]) -> "ReceivedTrace":
        return cls.from_jsonl(Path(path).read_text(encoding="utf-8"))


def _codec_by_name(name: str) -> Codec:
    for c in ALL_CODECS:
        if c.name == name:
            return c
    raise ConfigurationError(f"unknown codec {name!r}")


def trace_from_wire(
    call_id: int,
    received: Sequence[Tuple[int, float, float, int]],
    expected_frames: Optional[int] = None,
) -> ReceivedTrace:
    """Build a gap-free, session-relative trace from ``MediaFrame`` receipts.

    ``received`` holds ``(seq, timestamp_ms, arrival_ms, codec_wire_id)``
    tuples in any order; sequence numbers the sender emitted but the
    receiver never saw become lost frames.  Every time is measured from
    the send time of sequence 0, as in :func:`run_media_session`'s
    traces, so the score does not depend on when the call started.  When
    sequence 0 is lost, that origin is back-filled from the first
    received frame as ``ts − seq × interval``.  A lost frame's send time
    is interpolated from its neighbours' pacing (last known codec), since
    the wire carries send times only on frames that arrived.
    """
    by_seq: Dict[int, Tuple[float, float, int]] = {}
    for seq, ts, arr, wire_id in received:
        # Duplicates (relay re-forwarding): keep the earliest arrival.
        if seq not in by_seq or arr < by_seq[seq][1]:
            by_seq[seq] = (ts, arr, wire_id)
    if expected_frames is None:
        expected_frames = max(by_seq) + 1 if by_seq else 0
    last_codec: Codec = ALL_CODECS[0]
    origin = 0.0
    if by_seq:
        first = min(by_seq)
        first_ts, _, first_id = by_seq[first]
        last_codec = codec_by_wire_id(first_id)
        origin = first_ts - first * last_codec.packet_interval_ms()
    frames: List[ReceivedFrame] = []
    last_sent = 0.0
    for seq in range(expected_frames):
        if seq in by_seq:
            ts, arr, wire_id = by_seq[seq]
            codec = codec_by_wire_id(wire_id)
            last_codec, last_sent = codec, ts - origin
            frames.append(
                ReceivedFrame(seq, round(last_sent, 3), round(arr - origin, 3), codec.name)
            )
        else:
            last_sent = last_sent + last_codec.packet_interval_ms() if frames else 0.0
            frames.append(
                ReceivedFrame(seq, round(last_sent, 3), None, last_codec.name)
            )
    return ReceivedTrace(call_id=call_id, frames=tuple(frames))
