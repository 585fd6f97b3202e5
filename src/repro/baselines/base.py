"""Shared machinery for relay-selection baselines.

The single batch-evaluation signature every policy implements:

    evaluate_sessions(world, sessions, *, session_ids=None)

``world`` is the matrix read surface — dense
:class:`~repro.measurement.matrix.DelegateMatrices` or the streamed
:class:`~repro.worldarrays.virtual.VirtualMatrices` view, both exposing
the same cell/gather/block protocol.  ``sessions`` accepts plain
``(caller_cluster, callee_cluster)`` tuples or
:class:`~repro.evaluation.sessions.Session` objects (whose
``session_id`` then namespaces per-session RNG draws).  Methods are
constructed *without* a world: the same policy instance evaluates any
world at any scale, which is what lets one experiment engine serve
every tier.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.errors import ConfigurationError
from repro.util.rng import derive_rng


@dataclass(frozen=True, kw_only=True)
class BaselineConfig:
    """Probe budgets of the baseline methods — the paper's Section 7.1
    values: DEDI probes 80 dedicated nodes, RAND 200 random nodes, MIX
    40 dedicated + 120 random."""

    dedicated_count: int = 80
    random_probes: int = 200
    mix_dedicated: int = 40
    mix_random: int = 120
    relay_delay_rtt_ms: float = 40.0
    lat_threshold_ms: float = 300.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("dedicated_count", "random_probes", "mix_dedicated", "mix_random"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if self.lat_threshold_ms <= 0:
            raise ConfigurationError("lat_threshold_ms must be positive")


@dataclass(frozen=True)
class MethodResult:
    """One method's outcome on one session.

    ``one_hop_quality_paths`` is filled only by methods that distinguish
    one-hop relay IPs from two-hop IP *pairs* (ASAP); for pure probing
    baselines it stays ``None`` and consumers fall back to
    ``quality_paths``.
    """

    method: str
    quality_paths: int
    best_rtt_ms: Optional[float]
    messages: int
    probed_nodes: int
    one_hop_quality_paths: Optional[int] = None


def session_batch(
    sessions: Sequence, session_ids: Optional[Sequence[int]] = None
) -> Tuple[List[Tuple[int, int]], List[int]]:
    """Normalize a session batch to ``(pairs, ids)``.

    ``sessions`` may mix ``(a, b)`` tuples with ``Session`` objects; ids
    come from the objects' ``session_id``, the explicit ``session_ids``
    sequence, or enumeration order, in that priority.
    """
    pairs: List[Tuple[int, int]] = []
    ids: List[int] = []
    for index, item in enumerate(sessions):
        if hasattr(item, "caller_cluster"):
            pairs.append((int(item.caller_cluster), int(item.callee_cluster)))
            ids.append(int(item.session_id))
        else:
            a, b = item
            pairs.append((int(a), int(b)))
            ids.append(int(session_ids[index]) if session_ids is not None else index)
    if session_ids is not None and len(session_ids) != len(pairs):
        raise ConfigurationError("session_ids must match sessions in length")
    return pairs, ids


@runtime_checkable
class RelayPolicy(Protocol):
    """Anything Section 7 can evaluate over a batch of sessions.

    A policy has a ``name`` (the method label in records and tables) and
    one primitive, ``evaluate_sessions``: given a world view and the
    session batch, return one :class:`MethodResult` per session, in
    order.  The probing baselines (:class:`RelayMethod` subclasses) and
    the ASAP adapter (:class:`repro.evaluation.policies.ASAPPolicy`)
    both satisfy it, so experiment runners iterate an arbitrary policy
    list instead of hard-coding per-method branches.
    """

    name: str

    def evaluate_sessions(
        self,
        world,
        sessions: Sequence,
        *,
        session_ids: Optional[Sequence[int]] = None,
    ) -> List[MethodResult]:
        """One result per session of the batch."""
        ...


class RelayMethod(ABC):
    """A relay node selection method evaluated at cluster granularity.

    The batch :meth:`evaluate_sessions` is the abstract primitive —
    subclasses implement it (vectorized where possible); the per-session
    :meth:`evaluate_session` is a thin delegating wrapper over it.
    """

    name: str = "abstract"

    def __init__(self, config: Optional[BaselineConfig] = None) -> None:
        self._config = config if config is not None else BaselineConfig()

    @property
    def config(self) -> BaselineConfig:
        return self._config

    def evaluate_session(
        self, world, a: int, b: int, session_id: int = 0
    ) -> MethodResult:
        """Evaluate one calling session between clusters ``a`` and ``b``
        (delegates to the batch primitive)."""
        return self.evaluate_sessions(
            world, [(int(a), int(b))], session_ids=[int(session_id)]
        )[0]

    @abstractmethod
    def evaluate_sessions(
        self,
        world,
        sessions: Sequence,
        *,
        session_ids: Optional[Sequence[int]] = None,
    ) -> List[MethodResult]:
        """Evaluate a batch of sessions, one result per session."""

    @staticmethod
    def _pair_arrays(pairs: Sequence[Tuple[int, int]]) -> Tuple[np.ndarray, np.ndarray]:
        """Caller/callee cluster index arrays of a session batch."""
        a = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=len(pairs))
        b = np.fromiter((p[1] for p in pairs), dtype=np.int64, count=len(pairs))
        return a, b

    def _session_rng(self, session_id: int) -> np.random.Generator:
        return derive_rng(self._config.seed, self.name, str(session_id))
