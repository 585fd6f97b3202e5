"""Scalar reference assembly of the delegate matrices (test oracle).

Production assembles the matrices with the vectorized flat fill
(:class:`repro.worldarrays.FlatMatrixAssembler`).  This module keeps the
paper-literal object path beside it — memoized python walks of each
policy-routing tree and a per-row loop per destination column — for the
parity suite and :mod:`repro.evaluation.matrixbench` to compare the flat
fill against, cell for cell.  Nothing in the production paths imports it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MeasurementError
from repro.measurement.latency import LatencyModel
from repro.measurement.matrix import (
    UNREACHABLE,
    DelegateMatrices,
    cluster_headers,
    fill_diagonal,
)
from repro.topology.clustering import ClusterIndex


def reference_delegate_matrices(
    model: LatencyModel, clusters: ClusterIndex
) -> DelegateMatrices:
    """The matrices :func:`~repro.measurement.matrix.compute_delegate_matrices`
    returns, assembled serially by the object path."""
    cluster_list = clusters.all_clusters()
    if not cluster_list:
        raise MeasurementError("no clusters to measure")
    n = len(cluster_list)
    prefixes, index_of, asn_of, sizes, access = cluster_headers(cluster_list)
    rtt = np.full((n, n), UNREACHABLE, dtype=float)
    loss = np.full((n, n), 1.0, dtype=float)
    hops = np.full((n, n), -1, dtype=np.int64)
    unique_ases, rows_of_as = source_tables(asn_of)
    _fill_destinations(
        range(n), model, unique_ases, rows_of_as, access, asn_of, rtt, loss, hops
    )
    fill_diagonal(model, asn_of, access, rtt, loss, hops)
    return DelegateMatrices(
        prefixes=prefixes,
        index_of=index_of,
        asn_of=asn_of,
        sizes=sizes,
        rtt_ms=rtt,
        loss=loss,
        as_hops=hops,
    )


def source_tables(asn_of: np.ndarray) -> Tuple[List[int], Dict[int, List[int]]]:
    """The sorted source ASes and, per AS, the matrix rows it hosts."""
    unique_ases = sorted(set(int(a) for a in asn_of))
    rows_of_as: Dict[int, List[int]] = {}
    for i, asn in enumerate(asn_of):
        rows_of_as.setdefault(int(asn), []).append(i)
    return unique_ases, rows_of_as


def _fill_destinations(
    columns: Sequence[int],
    model: LatencyModel,
    unique_ases: List[int],
    rows_of_as: Dict[int, List[int]],
    access: np.ndarray,
    asn_of: np.ndarray,
    rtt: np.ndarray,
    loss: np.ndarray,
    hops: np.ndarray,
    positions: Optional[Sequence[int]] = None,
) -> None:
    """Fill the given destination columns of the matrices (object path).

    ``positions`` are the output column positions matching ``columns``
    (defaults to enumeration order); the shared-memory workers pass the
    global indices so they write the full matrices in place.  The serial
    path and every pool worker run exactly this routine, which is what
    makes parallel assembly bit-for-bit reproducible.
    """
    from repro import obs

    obs.counter("matrix.columns").inc(len(columns))
    if positions is None:
        positions = range(len(columns))
    for col, j in zip(positions, columns):
        dest_as = int(asn_of[j])
        tree = model.routing_tree(dest_as)
        if tree is None:
            continue
        lat_to, loss_to, hops_to = _walk_tree(model, tree, unique_ases)
        for src_as in unique_ases:
            one_way = lat_to.get(src_as)
            if one_way is None:
                continue
            for i in rows_of_as[src_as]:
                rtt[i, col] = 2.0 * one_way + 2.0 * (access[i] + access[j])
                loss[i, col] = loss_to[src_as]
                hops[i, col] = hops_to[src_as]


def _walk_tree(model: LatencyModel, tree, source_ases: List[int]):
    """Memoized walk of a routing tree: per-AS one-way latency / loss / hops.

    The memo stores *interior* path cost (links plus transit node costs,
    excluding both endpoints); endpoint processing is added per source so
    the result matches :meth:`LatencyModel.path_one_way_ms` exactly.
    """
    dest = tree.destination
    interior: Dict[int, float] = {dest: 0.0}
    survive: Dict[int, float] = {dest: 1.0 - model.conditions.loss_of(dest)}
    hops: Dict[int, int] = {dest: 0}

    def resolve(asn: int) -> bool:
        """Fill memo entries along the next-hop chain from ``asn``."""
        chain: List[int] = []
        node = asn
        while node not in interior:
            if not tree.reaches(node):
                return False
            chain.append(node)
            node = tree.next_hop[node]
        for source in reversed(chain):
            nh = tree.next_hop[source]
            transit = model.node_cost_ms(nh) if nh != dest else 0.0
            interior[source] = model.link_delay_ms(source, nh) + transit + interior[nh]
            survive[source] = (1.0 - model.conditions.loss_of(source)) * survive[nh]
            hops[source] = hops[nh] + 1
        return True

    lat_out: Dict[int, float] = {}
    loss_out: Dict[int, float] = {}
    hops_out: Dict[int, int] = {}
    dest_endpoint = model.endpoint_cost_ms(dest)
    for asn in source_ases:
        if asn in interior or resolve(asn):
            if asn == dest:
                lat_out[asn] = model.endpoint_cost_ms(asn)
            else:
                lat_out[asn] = (
                    model.endpoint_cost_ms(asn) + interior[asn] + dest_endpoint
                )
            loss_out[asn] = 1.0 - survive[asn]
            hops_out[asn] = hops[asn]
    return lat_out, loss_out, hops_out
