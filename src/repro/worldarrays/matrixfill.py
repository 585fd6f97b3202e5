"""Vectorized delegate-matrix assembly over :class:`WorldArrays`.

The object reference (``repro.measurement.reference._fill_destinations``)
walks each destination's routing tree with a python memo and then runs a
python loop over source rows per column.  This module computes the same
numbers as array passes:

- the memoized next-hop chain walk becomes an iterative *resolution
  sweep*: each round vectorizes over every AS whose next hop is already
  resolved, so the whole tree costs O(depth) numpy calls;
- the per-row fill becomes one broadcast assignment per destination AS,
  covering every (source row × destination column) cell of that AS at
  once.

Bit-identical guarantee: every arithmetic step reproduces the scalar
reference's operation order on the same float inputs —
``(link + transit) + interior`` for path cost, ``(1 - loss) * survive``
for loss, ``2*one_way + 2*(access_i + access_j)`` for RTT — and IEEE 754
elementwise ops are value-identical to their scalar counterparts.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.measurement.latency import LatencyModel
from repro.worldarrays.arrays import WorldArrays

_UNREACHABLE = np.inf


class FlatMatrixAssembler:
    """Fills destination columns of the delegate matrices from flat arrays.

    One-way results are memoized per destination AS, so columns sharing
    an AS cost one tree resolution total (the object path re-walks the
    memo per column).  Instances are safe to fork: workers inherit the
    arrays copy-on-write and only append to their private memo.

    ``memo_limit`` bounds the memo to an LRU of that many destination
    ASes (each entry holds four V-length arrays ≈ 25·V bytes); the
    streaming view sets it so 100k-tier worlds never accumulate the full
    per-AS table.  Unbounded (the batch-assembly default) when ``None``.
    """

    def __init__(
        self,
        model: LatencyModel,
        world: WorldArrays,
        memo_limit: Optional[int] = None,
    ) -> None:
        self._model = model
        self._world = world
        self._memo_limit = memo_limit
        # dest ASN -> (one_way, loss, hops, reach) over the AS universe,
        # or None when the destination is unreachable (failed / unknown).
        self._oneway: "OrderedDict[int, Optional[Tuple]]" = OrderedDict()

    def memoized(self, dest_as: int) -> bool:
        """Whether ``dest_as``'s tree is currently resolved in the memo."""
        return dest_as in self._oneway

    def resolve(self, dest_as: int) -> Optional[Tuple]:
        """Resolved ``(one_way, loss, hops, reach)`` arrays toward one
        destination AS (memoized), or ``None`` when unreachable."""
        return self._one_way(dest_as)

    @property
    def world(self) -> WorldArrays:
        return self._world

    def fill_columns(
        self,
        columns: Sequence[int],
        rtt: np.ndarray,
        loss: np.ndarray,
        hops: np.ndarray,
        positions: Optional[Sequence[int]] = None,
    ) -> None:
        """Fill the given destination columns (grouped by destination AS).

        ``columns`` are global cluster indices; ``positions`` are the
        matching column positions in the output arrays (defaults to the
        enumeration order, matching the object worker's block layout).
        """
        from repro import obs

        obs.counter("matrix.columns").inc(len(columns))
        world = self._world
        columns = np.asarray(columns, dtype=np.int64)
        if positions is None:
            positions = np.arange(len(columns), dtype=np.int64)
        else:
            positions = np.asarray(positions, dtype=np.int64)

        dest_as_idx = world.cluster_as_idx[columns]
        for as_idx in np.unique(dest_as_idx):
            member = dest_as_idx == as_idx
            self._fill_as_group(
                int(as_idx), columns[member], positions[member], rtt, loss, hops
            )

    def _fill_as_group(
        self,
        dest_as_idx: int,
        columns: np.ndarray,
        positions: np.ndarray,
        rtt: np.ndarray,
        loss: np.ndarray,
        hops: np.ndarray,
    ) -> None:
        world = self._world
        resolved = self._one_way(int(world.as_ids[dest_as_idx]))
        if resolved is None:
            return  # destination unreachable: columns stay at their fill values
        one_way, loss_to, hops_to, reach = resolved

        rows = np.nonzero(reach[world.cluster_as_idx])[0]
        if len(rows) == 0:
            return
        row_as = world.cluster_as_idx[rows]
        ow_rows = one_way[row_as]
        access_rows = world.access_ms[rows]
        access_cols = world.access_ms[columns]
        # Same op order as the scalar reference:
        #   rtt = 2.0 * one_way + 2.0 * (access[i] + access[j])
        rtt[np.ix_(rows, positions)] = 2.0 * ow_rows[:, None] + 2.0 * (
            access_rows[:, None] + access_cols[None, :]
        )
        loss[np.ix_(rows, positions)] = np.broadcast_to(
            loss_to[row_as][:, None], (len(rows), len(positions))
        )
        hops[np.ix_(rows, positions)] = np.broadcast_to(
            hops_to[row_as][:, None], (len(rows), len(positions))
        )

    def _one_way(self, dest_as: int) -> Optional[Tuple]:
        """(one_way, loss, hops, reach) arrays toward one destination AS."""
        if dest_as in self._oneway:
            if self._memo_limit is not None:
                self._oneway.move_to_end(dest_as)
            return self._oneway[dest_as]
        tree = self._model.routing_tree(dest_as)
        result = None if tree is None else self._resolve_tree(tree)
        self._oneway[dest_as] = result
        if self._memo_limit is not None:
            while len(self._oneway) > self._memo_limit:
                self._oneway.popitem(last=False)
        return result

    def _resolve_tree(self, tree) -> Tuple:
        """Vectorized equivalent of the reference memo walk.

        Rounds of resolution: a source resolves once its next hop has;
        each round handles every ready source in one set of array ops
        with the reference's exact expression order.
        """
        world = self._world
        count = world.as_count
        as_ids = world.as_ids
        dest_idx = world.as_index_of[tree.destination]

        src = np.fromiter(tree.next_hop.keys(), dtype=np.int64, count=len(tree.next_hop))
        nh = np.fromiter(tree.next_hop.values(), dtype=np.int64, count=len(tree.next_hop))
        src_idx = np.searchsorted(as_ids, src)
        nh_idx = np.searchsorted(as_ids, nh)
        edge = world.edge_cost_of(src_idx, nh_idx)
        transit = np.where(nh_idx == dest_idx, 0.0, world.node_cost[nh_idx])

        interior = np.zeros(count, dtype=float)
        survive = np.zeros(count, dtype=float)
        hops = np.zeros(count, dtype=np.int64)
        resolved = np.zeros(count, dtype=bool)
        resolved[dest_idx] = True
        survive[dest_idx] = 1.0 - world.loss_of[dest_idx]

        pending = np.ones(len(src_idx), dtype=bool)
        while pending.any():
            ready = pending & resolved[nh_idx]
            if not ready.any():
                break  # remaining sources chain through ASes outside the tree
            s = src_idx[ready]
            h = nh_idx[ready]
            # reference: interior[src] = link + transit + interior[nh]
            interior[s] = (edge[ready] + transit[ready]) + interior[h]
            # reference: survive[src] = (1 - loss(src)) * survive[nh]
            survive[s] = (1.0 - world.loss_of[s]) * survive[h]
            hops[s] = hops[h] + 1
            resolved[s] = True
            pending[ready] = False

        reach = resolved.copy()
        # reference: one_way = endpoint(src) + interior[src] + endpoint(dest)
        # (the destination itself only pays its own endpoint cost).
        dest_endpoint = world.endpoint_cost[dest_idx]
        one_way = (world.endpoint_cost + interior) + dest_endpoint
        one_way[dest_idx] = world.endpoint_cost[dest_idx]
        loss_to = 1.0 - survive
        return one_way, loss_to, hops, reach
