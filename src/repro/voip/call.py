"""Voice-call runtime: path switching and path diversity over ASAP relays.

Section 6.2 of the paper: "Techniques such as path diversity ([15, 19])
and path switching [20] can be used in combination with ASAP to
transmit voice packets."  This module implements both on top of the
relay candidates select-close-relay returns:

- **path switching** [Tao et al.]: monitor the active path's quality in
  windows; when its windowed MOS falls below a threshold, switch to the
  best alternate candidate;
- **path diversity** [Liang et al.]: transmit every frame over the two
  best candidate paths and keep the earlier surviving copy.

Paths degrade over time through an on/off congestion process
(:class:`PathQualityProcess`), so a call that starts on a good relay
can sour mid-call — the scenario switching exists for.  Each window's
frames cross a per-path :class:`repro.media.channel.Channel` and are
scored with :func:`repro.media.score.score_trace`, the same packet-level
model the runtime and the wire path use.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.media.channel import Channel
from repro.media.frames import FrameSource, ReceivedFrame, ReceivedTrace, SentFrame
from repro.media.score import score_trace
from repro.media.session import MediaPlaneConfig
from repro.util.rng import derive_rng
from repro.voip.codecs import Codec, G729A_VAD


@dataclass(frozen=True)
class PathState:
    """Quality of one candidate path during one time window."""

    one_way_delay_ms: float
    loss_rate: float


class PathQualityProcess:
    """Two-state (clear/congested) Markov process per path, per window.

    In the congested state the path gains extra one-way delay and loss.
    Transitions are sampled independently per window with the given
    probabilities, seeded deterministically per path.
    """

    def __init__(
        self,
        base_one_way_ms: float,
        base_loss: float,
        congest_probability: float = 0.05,
        recover_probability: float = 0.5,
        congestion_delay_ms: float = 120.0,
        congestion_loss: float = 0.05,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= congest_probability <= 1.0 or not 0.0 <= recover_probability <= 1.0:
            raise ConfigurationError("transition probabilities must be in [0, 1]")
        if base_one_way_ms < 0 or congestion_delay_ms < 0:
            raise ConfigurationError("delays must be non-negative")
        self._base_delay = base_one_way_ms
        self._base_loss = min(max(base_loss, 0.0), 1.0)
        self._p_congest = congest_probability
        self._p_recover = recover_probability
        self._extra_delay = congestion_delay_ms
        self._extra_loss = congestion_loss
        self._rng = derive_rng(seed, "path-quality")
        self._congested = False

    def step(self) -> PathState:
        """Advance one window and return the path's state for it."""
        if self._congested:
            if self._rng.random() < self._p_recover:
                self._congested = False
        else:
            if self._rng.random() < self._p_congest:
                self._congested = True
        if self._congested:
            return PathState(
                one_way_delay_ms=self._base_delay + self._extra_delay,
                loss_rate=min(self._base_loss + self._extra_loss, 1.0),
            )
        return PathState(one_way_delay_ms=self._base_delay, loss_rate=self._base_loss)


@dataclass(frozen=True)
class CallConfig:
    """Knobs of the call runtime."""

    codec: Codec = G729A_VAD
    window_ms: float = 2_000.0
    windows: int = 30
    # Path switching: switch when the active window's MOS dips below.
    switch_mos_threshold: float = 3.2
    use_switching: bool = True
    use_diversity: bool = False
    # FEC over the secondary path [Nguyen & Zakhor]: one XOR parity per
    # ``fec_group_size`` voice packets; mutually exclusive with full
    # duplication (use_diversity).
    use_fec: bool = False
    fec_group_size: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.window_ms <= 0 or self.windows < 1:
            raise ConfigurationError("window_ms and windows must be positive")
        if not 1.0 <= self.switch_mos_threshold <= 4.5:
            raise ConfigurationError("switch_mos_threshold must be a MOS value")
        if self.use_fec and self.use_diversity:
            raise ConfigurationError("use_fec and use_diversity are exclusive")
        if self.fec_group_size < 2:
            raise ConfigurationError("fec_group_size must be >= 2")


@dataclass
class WindowOutcome:
    """Per-window record of a running call."""

    window: int
    active_path: int
    mos: float
    switched: bool
    effective_loss: float         # PLC-weighted, late frames count as lost


@dataclass
class CallOutcome:
    """Full result of one simulated call."""

    windows: List[WindowOutcome] = field(default_factory=list)

    @property
    def mean_mos(self) -> float:
        return float(np.mean([w.mos for w in self.windows])) if self.windows else 1.0

    @property
    def min_mos(self) -> float:
        return float(min((w.mos for w in self.windows), default=1.0))

    @property
    def switches(self) -> int:
        return sum(1 for w in self.windows if w.switched)

    @property
    def satisfied_fraction(self) -> float:
        """Fraction of call time above the 3.6 MOS satisfaction bound."""
        if not self.windows:
            return 0.0
        return float(np.mean([w.mos > 3.6 for w in self.windows]))


class VoiceCall:
    """One call over a ranked list of candidate paths.

    ``paths`` supplies (one-way delay ms, loss rate) per candidate, best
    first — in practice the relay paths select-close-relay returned,
    each wrapped in a :class:`PathQualityProcess` for dynamics.
    """

    def __init__(
        self,
        paths: Sequence[PathQualityProcess],
        config: CallConfig = CallConfig(),
    ) -> None:
        if not paths:
            raise ConfigurationError("a call needs at least one candidate path")
        self._paths = list(paths)
        self._config = config
        jitter_mean_ms = MediaPlaneConfig().jitter_mean_ms
        self._channels = [
            Channel(derive_rng(config.seed, "voice-call", str(index)), jitter_mean_ms)
            for index in range(len(self._paths))
        ]

    def run(self) -> CallOutcome:
        """Simulate the whole call window by window."""
        config = self._config
        frames = list(FrameSource(config.codec).frames_until(config.window_ms))
        # Parity frame g leaves with the last voice frame of its group.
        k = config.fec_group_size
        parity = [
            SentFrame(g, frames[min((g + 1) * k, len(frames)) - 1].sent_ms, config.codec)
            for g in range(-(-len(frames) // k))
        ]
        outcome = CallOutcome()
        active = 0
        for window in range(config.windows):
            states = [p.step() for p in self._paths]
            received = self._carry(frames, states, active)
            if (config.use_diversity or config.use_fec) and len(states) > 1:
                backup = self._best_alternate(states, active)
                if config.use_diversity:
                    received = _merge_diverse(
                        received, self._carry(frames, states, backup)
                    )
                else:
                    received = _recover_fec(
                        received, self._carry(parity, states, backup), k
                    )
            score = score_trace(ReceivedTrace(call_id=window, frames=tuple(received)))
            switched = False
            if (
                config.use_switching
                and score.mos < config.switch_mos_threshold
                and len(self._paths) > 1
            ):
                active = self._best_alternate(states, active)
                switched = True
            outcome.windows.append(
                WindowOutcome(
                    window=window,
                    active_path=active,
                    mos=score.mos,
                    switched=switched,
                    effective_loss=score.effective_loss,
                )
            )
        return outcome

    def _carry(
        self, frames: Sequence[SentFrame], states: Sequence[PathState], index: int
    ) -> List[ReceivedFrame]:
        """Send ``frames`` over candidate path ``index`` in its current state."""
        state = states[index]
        channel = self._channels[index]
        return [
            channel.send(f, 2.0 * state.one_way_delay_ms, state.loss_rate)
            for f in frames
        ]

    def _best_alternate(self, states: Sequence[PathState], active: int) -> int:
        """The non-active path with the best instantaneous quality."""
        best_index = active
        best_score = float("inf")
        for index, state in enumerate(states):
            if index == active:
                continue
            score = state.one_way_delay_ms + 2_000.0 * state.loss_rate
            if score < best_score:
                best_score = score
                best_index = index
        return best_index


def _merge_diverse(
    primary: Sequence[ReceivedFrame], secondary: Sequence[ReceivedFrame]
) -> List[ReceivedFrame]:
    """Path diversity [Liang/Steinbach/Girod]: each frame is sent on two
    paths; the receiver keeps the earlier surviving copy."""
    if len(primary) != len(secondary):
        raise ConfigurationError("diverse streams must carry the same frames")
    merged: List[ReceivedFrame] = []
    for a, b in zip(primary, secondary):
        if a.sequence != b.sequence:
            raise ConfigurationError("sequence mismatch between diverse streams")
        arrivals = [f.arrival_ms for f in (a, b) if not f.lost]
        merged.append(replace(a, arrival_ms=min(arrivals, default=None)))
    return merged


def _recover_fec(
    frames: Sequence[ReceivedFrame],
    parity: Sequence[ReceivedFrame],
    group_size: int,
) -> List[ReceivedFrame]:
    """FEC over a diverse path [Nguyen & Zakhor]: one XOR parity frame
    per ``group_size`` voice frames travels the secondary path; a group
    missing exactly one voice frame recovers it when its parity arrived.

    ``parity[g]`` covers voice frames ``[g·k, (g+1)·k)``.  A recovered
    frame arrives at the later of the parity's arrival and the group's
    last surviving arrival — reconstruction needs every piece.
    """
    groups = -(-len(frames) // group_size)
    if len(parity) < groups:
        raise ConfigurationError(
            f"need {groups} parity frames for {len(frames)} voice frames"
        )
    recovered = list(frames)
    for g in range(groups):
        lo = g * group_size
        group = frames[lo:lo + group_size]
        missing = [i for i, f in enumerate(group) if f.lost]
        if len(missing) != 1 or parity[g].lost:
            continue
        ready = max([f.arrival_ms for f in group if not f.lost] + [parity[g].arrival_ms])
        recovered[lo + missing[0]] = replace(group[missing[0]], arrival_ms=ready)
    return recovered


def call_paths_from_selection(
    selection,
    matrices,
    caller_cluster: int,
    callee_cluster: int,
    max_paths: int = 4,
    seed: int = 0,
) -> List[PathQualityProcess]:
    """Wrap a RelaySelection's best one-hop candidates (plus the direct
    path) into quality processes for a :class:`VoiceCall`."""
    candidates: List[Tuple[float, float]] = []
    direct_rtt = float(matrices.rtt_ms[caller_cluster, callee_cluster])
    if np.isfinite(direct_rtt):
        candidates.append(
            (direct_rtt / 2.0, float(matrices.loss[caller_cluster, callee_cluster]))
        )
    for cand in sorted(selection.one_hop, key=lambda c: c.relay_rtt_ms)[:max_paths]:
        loss = matrices.one_hop_path_loss(caller_cluster, cand.cluster, callee_cluster)
        candidates.append((cand.relay_rtt_ms / 2.0, loss))
    candidates.sort(key=lambda c: c[0] + 2_000.0 * c[1])
    return [
        PathQualityProcess(
            base_one_way_ms=delay,
            base_loss=loss,
            seed=seed + index,
        )
        for index, (delay, loss) in enumerate(candidates[:max_paths])
    ]
