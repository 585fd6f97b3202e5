"""Flat, int-indexed world representation for the substrate hot paths.

The object world (:class:`~repro.topology.clustering.ClusterIndex`,
:class:`~repro.bgp.asgraph.ASGraph`, per-pair python walks) is exported
once into contiguous numpy arrays, and the two hottest computations run
against them:

- :mod:`repro.worldarrays.matrixfill` — delegate-matrix assembly as
  vectorized per-destination column fills (the memoized next-hop chain
  walk becomes a level-ordered array scan, the per-row python loop a
  single gather);
- :mod:`repro.worldarrays.closesets` — ``construct-close-cluster-set``
  as a vectorized valley-free BFS over int frontiers, with a batch API
  that builds the sets of many source clusters in one sweep.

These are the only production paths.  Parity tests hold them
**bit-identical** to the object references they replaced — the matrix
walk in :mod:`repro.measurement.reference` and
:func:`repro.core.close_cluster.construct_close_cluster_set` (same
matrices, same close sets, same ``traces.jsonl``).
"""

from __future__ import annotations

from repro.worldarrays.arrays import GraphCSR, WorldArrays, csr_gather
from repro.worldarrays.closesets import FlatCloseSetBuilder
from repro.worldarrays.matrixfill import FlatMatrixAssembler
from repro.worldarrays.virtual import VirtualMatrices

__all__ = [
    "FlatCloseSetBuilder",
    "FlatMatrixAssembler",
    "GraphCSR",
    "VirtualMatrices",
    "WorldArrays",
    "csr_gather",
]
