"""Scale benchmark of delegate-matrix assembly: 10k → 1M clusters.

The full N×N matrix is quadratic in memory, so beyond the unit-test
worlds the benchmark measures what actually scales — *per-destination
column assembly* over synthetic cluster populations laid over the small
topology.  Each tier draws ``cluster_count`` synthetic clusters
(``derive_rng``-deterministic ASN / access-delay / size arrays), exports
them once through :meth:`repro.worldarrays.WorldArrays.from_arrays`,
then fills a sample of destination columns through both assembly
methods:

- ``object`` — the scalar reference
  (:mod:`repro.measurement.reference`), a python row loop per column;
- ``flat`` — :class:`repro.worldarrays.FlatMatrixAssembler`, vectorized
  per-destination-AS broadcasts.

Both paths fill the same ``(n, k)`` output block, so parity is checked
bit-for-bit at every tier.  On multi-CPU machines the object path is
additionally run through the shared-memory fork pool (cost-balanced
chunks, workers writing columns in place) to demonstrate that parallel
assembly now *beats* serial — the regression recorded by earlier
baselines.  Results land in ``benchmarks/BENCH_matrix.json`` whose
legacy keys (``serial_seconds`` et al.) are preserved for the
obs-smoke CI job.

Run directly for the CI perf-smoke job::

    python -m repro.evaluation.matrixbench --scales 10k --check \
        --out benchmarks/BENCH_matrix.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import EvaluationError
from repro.measurement.conditions import ConditionsConfig, generate_conditions
from repro.measurement.latency import LatencyModel
from repro.measurement.reference import _fill_destinations, source_tables
from repro.topology.generator import TopologyConfig, generate_topology
from repro.util.parallel import (
    fork_available,
    plan_chunks,
    resolve_workers,
    run_forked,
    shared_ndarray,
)
from repro.util.rng import derive_rng
from repro.worldarrays import FlatMatrixAssembler, WorldArrays

#: Cluster counts per scale tier.
SCALES: Dict[str, int] = {"10k": 10_000, "100k": 100_000, "1m": 1_000_000}

#: Destination columns sampled per tier (object-path cost is linear in
#: rows × columns, so samples shrink as tiers grow).
COLUMN_SAMPLES: Dict[str, int] = {"10k": 64, "100k": 16, "1m": 4}

BENCH_SCHEMA = 2


def bench_model(seed: int = 0) -> LatencyModel:
    """The small-topology latency model every tier is laid over.

    Only the topology, conditions, and router are needed — cluster
    populations are synthetic arrays, so BGP table and host generation
    are skipped entirely.
    """
    topology = generate_topology(
        TopologyConfig(tier1_count=3, tier2_count=10, tier3_count=40, seed=seed)
    )
    conditions = generate_conditions(topology, ConditionsConfig(seed=seed))
    return LatencyModel(topology, conditions, seed=seed)


def synthetic_clusters(
    model: LatencyModel, cluster_count: int, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic synthetic cluster arrays: (asns, access_ms, sizes)."""
    rng = derive_rng(seed, "matrixbench", f"n{cluster_count}")
    ases = np.array(sorted(model.router.graph.ases()), dtype=np.int64)
    cluster_asns = ases[rng.integers(0, len(ases), cluster_count)]
    access_ms = np.round(rng.uniform(2.0, 30.0, cluster_count), 3)
    sizes = rng.integers(1, 64, cluster_count, dtype=np.int64)
    return cluster_asns, access_ms, sizes


def _sample_columns(cluster_count: int, sample: int, seed: int) -> List[int]:
    rng = derive_rng(seed, "matrixbench-columns", f"n{cluster_count}")
    sample = min(sample, cluster_count)
    picks = rng.choice(cluster_count, size=sample, replace=False)
    return [int(c) for c in np.sort(picks)]


#: Fork-inherited state for the parallel column-fill workers.
_BENCH_STATE: Optional[tuple] = None


def _bench_fill_chunk(positions: List[int]) -> Tuple[int, float]:
    """Pool worker: fill one chunk of sampled columns into shared memory."""
    state = _BENCH_STATE
    started = time.perf_counter()
    if state[0] == "flat":
        _, assembler, columns, rtt, loss, hops = state
        assembler.fill_columns(
            [columns[p] for p in positions], rtt, loss, hops, positions=positions
        )
    else:
        _, model, unique_ases, rows_of_as, access, asn_of, columns, rtt, loss, hops = state
        _fill_destinations(
            [columns[p] for p in positions],
            model,
            unique_ases,
            rows_of_as,
            access,
            asn_of,
            rtt,
            loss,
            hops,
            positions=positions,
        )
    return len(positions), time.perf_counter() - started


def _grouped_position_chunks(
    columns: Sequence[int],
    cluster_asns: np.ndarray,
    chunk_count: int,
    tree_cost: float,
    row_count: int,
) -> List[List[int]]:
    """Cost-balanced chunks of sampled-column *positions*, grouped by
    destination AS so each routing tree is resolved by one worker."""
    groups: Dict[int, List[int]] = {}
    for position, column in enumerate(columns):
        groups.setdefault(int(cluster_asns[column]), []).append(position)
    ordered = [groups[asn] for asn in sorted(groups)]
    costs = [tree_cost + len(positions) * row_count for positions in ordered]
    plan = plan_chunks(costs, chunk_count)
    return [
        [p for group_index in chunk for p in ordered[group_index]] for chunk in plan
    ]


def _run_parallel(
    kind: str,
    state_tail: tuple,
    columns: Sequence[int],
    cluster_asns: np.ndarray,
    row_count: int,
    workers: int,
    tree_cost: float,
) -> Tuple[float, dict, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """One fork-pool column fill; returns (seconds, chunk stats, outputs)."""
    k = len(columns)
    rtt = shared_ndarray((row_count, k), float, fill=np.inf)
    loss = shared_ndarray((row_count, k), float, fill=1.0)
    hops = shared_ndarray((row_count, k), np.int64, fill=-1)
    chunks = _grouped_position_chunks(
        columns, cluster_asns, workers * 4, tree_cost, row_count
    )
    global _BENCH_STATE
    _BENCH_STATE = (kind, *state_tail, columns, rtt, loss, hops)
    started = time.perf_counter()
    try:
        timings = run_forked(_bench_fill_chunk, chunks, processes=workers)
    finally:
        _BENCH_STATE = None
    elapsed = time.perf_counter() - started
    chunk_seconds = sorted(seconds for _, seconds in timings)
    stats = {
        "chunk_sizes": [len(c) for c in chunks],
        "p50_chunk_seconds": round(float(np.percentile(chunk_seconds, 50)), 4),
        "p95_chunk_seconds": round(float(np.percentile(chunk_seconds, 95)), 4),
    }
    return elapsed, stats, (rtt, loss, hops)


def bench_tier(
    model: LatencyModel,
    scale: str,
    cluster_count: int,
    workers: int,
    seed: int = 0,
) -> dict:
    """Benchmark one scale tier; returns its result document."""
    cluster_asns, access_ms, sizes = synthetic_clusters(model, cluster_count, seed)
    columns = _sample_columns(cluster_count, COLUMN_SAMPLES[scale], seed)
    k = len(columns)
    n = cluster_count
    cells = n * k

    world = WorldArrays.from_arrays(model, cluster_asns, access_ms, sizes)
    assembler = FlatMatrixAssembler(model, world)
    unique_ases, rows_of_as = source_tables(cluster_asns)

    def blank():
        return (
            np.full((n, k), np.inf, dtype=float),
            np.full((n, k), 1.0, dtype=float),
            np.full((n, k), -1, dtype=np.int64),
        )

    # Warm the policy-tree memos so both timed paths see the same state.
    warm = blank()
    _fill_destinations(
        columns[:1], model, unique_ases, rows_of_as, access_ms, cluster_asns, *warm
    )
    assembler.fill_columns(columns[:1], *blank())

    obj = blank()
    t0 = time.perf_counter()
    _fill_destinations(
        columns, model, unique_ases, rows_of_as, access_ms, cluster_asns, *obj
    )
    object_s = time.perf_counter() - t0

    flat = blank()
    t0 = time.perf_counter()
    assembler.fill_columns(columns, *flat)
    flat_s = time.perf_counter() - t0

    bit_identical = all(np.array_equal(a, b) for a, b in zip(obj, flat))

    tier = {
        "scale": scale,
        "clusters": cluster_count,
        "columns_sampled": k,
        "object_seconds": round(object_s, 4),
        "flat_seconds": round(flat_s, 4),
        "flat_speedup_vs_object": round(object_s / flat_s, 2) if flat_s > 0 else None,
        "cells_per_sec_object": int(cells / object_s) if object_s > 0 else None,
        "cells_per_sec_flat": int(cells / flat_s) if flat_s > 0 else None,
        "bit_identical": bit_identical,
        "parallel": None,
    }

    if workers >= 2 and fork_available():
        tree_cost = float(len(model.router.graph))
        par_s, stats, outputs = _run_parallel(
            "object",
            (model, unique_ases, rows_of_as, access_ms, cluster_asns),
            columns,
            cluster_asns,
            n,
            workers,
            tree_cost,
        )
        parallel_identical = all(
            np.array_equal(a, b) for a, b in zip(obj, outputs)
        )
        flat_par_s, _, flat_outputs = _run_parallel(
            "flat",
            (assembler,),
            columns,
            cluster_asns,
            n,
            workers,
            tree_cost,
        )
        parallel_identical &= all(
            np.array_equal(a, b) for a, b in zip(obj, flat_outputs)
        )
        tier["parallel"] = {
            "workers": workers,
            "object_parallel_seconds": round(par_s, 4),
            "object_speedup": round(object_s / par_s, 3) if par_s > 0 else None,
            "flat_parallel_seconds": round(flat_par_s, 4),
            "bit_identical": parallel_identical,
            **stats,
        }
        tier["bit_identical"] = bit_identical and parallel_identical
    return tier


def run_bench(
    scales: Sequence[str] = ("10k",),
    workers: Optional[int] = 0,
    seed: int = 0,
) -> dict:
    """Run the requested tiers and build the full benchmark document.

    The legacy top-level keys (``clusters``, ``cpu_count``,
    ``serial_seconds``, ``parallel_seconds``, ``speedup``,
    ``bit_identical``) mirror the first tier's object-path numbers —
    the obs-smoke CI job reads ``serial_seconds`` by name.
    """
    for scale in scales:
        if scale not in SCALES:
            raise EvaluationError(
                f"unknown scale {scale!r}; choose from {sorted(SCALES)}"
            )
    worker_count = resolve_workers(workers)
    model = bench_model(seed)
    tiers = [
        bench_tier(model, scale, SCALES[scale], worker_count, seed)
        for scale in scales
    ]
    first = tiers[0]
    parallel = first["parallel"]
    document = {
        "bench_schema": BENCH_SCHEMA,
        "clusters": first["clusters"],
        "cpu_count": os.cpu_count() or 1,
        "workers": worker_count,
        "serial_seconds": first["object_seconds"],
        "parallel_seconds": (
            parallel["object_parallel_seconds"] if parallel else None
        ),
        "speedup": parallel["object_speedup"] if parallel else None,
        "bit_identical": all(tier["bit_identical"] for tier in tiers),
        "chunk_plan": (
            {
                "chunk_sizes": parallel["chunk_sizes"],
                "p50_chunk_seconds": parallel["p50_chunk_seconds"],
                "p95_chunk_seconds": parallel["p95_chunk_seconds"],
            }
            if parallel
            else None
        ),
        "scales": tiers,
    }
    return document


def validate_bench_document(document: dict) -> List[str]:
    """Schema problems of a BENCH_matrix.json document ([] = valid)."""
    problems: List[str] = []

    def need(mapping, key, kinds, where):
        if key not in mapping:
            problems.append(f"{where}: missing key {key!r}")
        elif mapping[key] is not None and not isinstance(mapping[key], kinds):
            problems.append(
                f"{where}: {key!r} has type {type(mapping[key]).__name__}"
            )

    for key, kinds in (
        ("bench_schema", int),
        ("clusters", int),
        ("cpu_count", int),
        ("workers", int),
        ("serial_seconds", (int, float)),
        ("parallel_seconds", (int, float)),
        ("speedup", (int, float)),
        ("bit_identical", bool),
        ("scales", list),
    ):
        need(document, key, kinds, "document")
    if document.get("serial_seconds") is None:
        problems.append("document: serial_seconds must not be null")
    for index, tier in enumerate(document.get("scales") or []):
        where = f"scales[{index}]"
        if not isinstance(tier, dict):
            problems.append(f"{where}: not an object")
            continue
        for key, kinds in (
            ("scale", str),
            ("clusters", int),
            ("columns_sampled", int),
            ("object_seconds", (int, float)),
            ("flat_seconds", (int, float)),
            ("flat_speedup_vs_object", (int, float)),
            ("bit_identical", bool),
        ):
            need(tier, key, kinds, where)
        if tier.get("bit_identical") is False:
            problems.append(f"{where}: flat output diverged from object")
        parallel = tier.get("parallel")
        if parallel is not None:
            for key, kinds in (
                ("workers", int),
                ("object_parallel_seconds", (int, float)),
                ("object_speedup", (int, float)),
                ("chunk_sizes", list),
                ("p50_chunk_seconds", (int, float)),
                ("p95_chunk_seconds", (int, float)),
            ):
                need(parallel, key, kinds, f"{where}.parallel")
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.evaluation.matrixbench", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--scales",
        default="10k",
        help="comma-separated tiers to run (10k,100k,1m); big tiers are "
        "minutes of object-path work — CI runs 10k only",
    )
    parser.add_argument("--out", default=None, help="write the JSON document here")
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="pool size for the parallel runs (0 = all CPUs, 1 = skip)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--check",
        action="store_true",
        help="validate the document schema and enforce the CI gates: "
        "flat beats object at every tier, and on >=2 CPUs parallel "
        "object assembly beats serial (the historical regression)",
    )
    options = parser.parse_args(argv)

    scales = [s.strip() for s in options.scales.split(",") if s.strip()]
    document = run_bench(scales, workers=options.workers, seed=options.seed)
    rendered = json.dumps(document, indent=2) + "\n"
    if options.out:
        Path(options.out).write_text(rendered)
    print(rendered, end="")

    if not options.check:
        return 0
    problems = validate_bench_document(document)
    for tier in document["scales"]:
        if tier["flat_speedup_vs_object"] is not None and (
            tier["flat_speedup_vs_object"] < 1.0
        ):
            problems.append(
                f"scale {tier['scale']}: flat path slower than object "
                f"({tier['flat_speedup_vs_object']}x)"
            )
    if document["cpu_count"] >= 2 and document["workers"] >= 2:
        speedup = document["speedup"]
        if speedup is None or speedup < 1.0:
            problems.append(
                f"parallel object assembly did not beat serial on "
                f"{document['cpu_count']} CPUs (speedup {speedup})"
            )
    else:
        print("single-CPU machine: parallel speedup gate skipped", file=sys.stderr)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
