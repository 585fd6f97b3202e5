"""RAND — SOSR-like random relay probing.

Each session probes a fixed number of peers drawn uniformly from the
online population (per-session deterministic RNG).  SOSR showed random
one-hop intermediaries recover many *failures*; for VoIP latency the
random draw rarely lands in the sweet spot, and the probe budget is pure
per-session overhead.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.baselines.base import BaselineConfig, MethodResult, RelayMethod, session_batch


class RANDMethod(RelayMethod):
    """Random-probing selection (paper's SOSR-like baseline)."""

    name = "RAND"

    def __init__(
        self,
        config: Optional[BaselineConfig] = None,
        probes: Optional[int] = None,
    ) -> None:
        super().__init__(config)
        self._probes = self._config.random_probes if probes is None else probes

    def evaluate_sessions(
        self,
        world,
        sessions: Sequence,
        *,
        session_ids: Optional[Sequence[int]] = None,
    ) -> List[MethodResult]:
        """Vectorized batch evaluation.

        The per-session RNG draws are kept in a (cheap) Python loop so
        each session's probe set matches :meth:`evaluate_session` draw
        for draw; all scoring is then two gather operations.
        """
        pairs, ids = session_batch(sessions, session_ids)
        if len(pairs) == 0:
            return []
        n = world.count
        # Node draws are weighted by cluster occupancy: probing a random
        # *peer* lands in a cluster with probability ∝ its population.
        sizes = world.sizes.astype(float)
        total = sizes.sum()
        weights = sizes / total if total > 0 else None
        if weights is None or n == 0 or self._probes == 0:
            return [
                MethodResult(self.name, 0, None, 0, 0) for _ in range(len(pairs))
            ]
        draws = np.empty((len(pairs), self._probes), dtype=np.int64)
        for k, sid in zip(range(len(pairs)), ids):
            rng = self._session_rng(int(sid))
            draws[k] = rng.choice(n, size=self._probes, replace=True, p=weights)
        a_arr, b_arr = self._pair_arrays(pairs)
        valid = (draws != a_arr[:, None]) & (draws != b_arr[:, None])
        path = (
            world.gather_rtt(a_arr[:, None], draws)
            + world.gather_rtt(draws, b_arr[:, None])
            + self._config.relay_delay_rtt_ms
        )
        path[~valid] = np.inf
        finite = np.isfinite(path)
        quality = (finite & (path < self._config.lat_threshold_ms)).sum(axis=1)
        has_finite = finite.any(axis=1)
        best = np.min(path, axis=1)
        probed = valid.sum(axis=1)
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
