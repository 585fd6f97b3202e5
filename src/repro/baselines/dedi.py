"""DEDI — RON-like dedicated relay nodes.

One dedicated relay node is provisioned in each of the N clusters whose
ASes have the largest connection degrees (infrastructure goes where the
network is best connected).  Every session probes the whole fleet —
RON's all-pairs maintenance makes this its per-session equivalent — so
the overhead is fixed and the candidate set never grows with the peer
population, which is exactly why DEDI fails the paper's scalability test
(Fig. 17).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.baselines.base import BaselineConfig, MethodResult, RelayMethod, session_batch
from repro.bgp.asgraph import ASGraph


class DEDIMethod(RelayMethod):
    """Dedicated-relay selection (paper's RON-like baseline)."""

    name = "DEDI"

    def __init__(
        self,
        graph: ASGraph,
        config: Optional[BaselineConfig] = None,
        fleet_size: Optional[int] = None,
    ) -> None:
        super().__init__(config)
        self._graph = graph
        self._fleet_size = (
            self._config.dedicated_count if fleet_size is None else fleet_size
        )
        # The fleet depends on the evaluated world's cluster headers, so
        # it is ranked lazily on first use and cached per world identity.
        self._fleet_world: Optional[int] = None
        self._fleet: List[int] = []

    def fleet_for(self, world) -> List[int]:
        """Cluster indices hosting the dedicated relay nodes in ``world``."""
        if self._fleet_world != id(world):
            self._fleet = _top_degree_clusters(world, self._graph, self._fleet_size)
            self._fleet_world = id(world)
        return list(self._fleet)

    def evaluate_sessions(
        self,
        world,
        sessions: Sequence,
        *,
        session_ids: Optional[Sequence[int]] = None,
    ) -> List[MethodResult]:
        """Vectorized batch evaluation: the fixed fleet makes all
        sessions' probe scores one pair of gather operations."""
        pairs, _ = session_batch(sessions, session_ids)
        if len(pairs) == 0:
            return []
        fleet = np.asarray(self.fleet_for(world), dtype=np.int64)
        if fleet.size == 0:
            return [
                MethodResult(self.name, 0, None, 0, 0) for _ in range(len(pairs))
            ]
        a_arr, b_arr = self._pair_arrays(pairs)
        path = (
            world.gather_rtt(a_arr[:, None], fleet[None, :])
            + world.gather_rtt(fleet[None, :], b_arr[:, None])
            + self._config.relay_delay_rtt_ms
        )
        excluded = (fleet[None, :] == a_arr[:, None]) | (fleet[None, :] == b_arr[:, None])
        path[excluded] = np.inf
        finite = np.isfinite(path)
        quality = (finite & (path < self._config.lat_threshold_ms)).sum(axis=1)
        has_finite = finite.any(axis=1)
        best = np.min(path, axis=1)
        probed = fleet.size - excluded.sum(axis=1)
        return [
            MethodResult(
                method=self.name,
                quality_paths=int(quality[k]),
                best_rtt_ms=float(best[k]) if has_finite[k] else None,
                messages=int(2 * probed[k]),
                probed_nodes=int(probed[k]),
            )
            for k in range(len(pairs))
        ]


def _top_degree_clusters(world, graph: ASGraph, count: int) -> List[int]:
    """Clusters ranked by their AS's connection degree, highest first."""

    def degree_of(idx: int) -> int:
        asn = int(world.asn_of[idx])
        return graph.degree(asn) if asn in graph else 0

    ranked = sorted(range(world.count), key=lambda i: (-degree_of(i), i))
    return ranked[:count]
