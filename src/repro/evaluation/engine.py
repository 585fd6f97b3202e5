"""The unified experiment engine: one API from tiny to a million hosts.

:class:`Experiment` runs the complete Section-7 pipeline —

    build world → sweep/spill columns → generate workload →
    evaluate policies → reduce aggregates —

behind one config, with two interchangeable substrates:

- **dense** (small tiers): the scenario materializes its N×N delegate
  matrices exactly as before, artifact-cache aware;
- **streamed** (large tiers): the scenario gets a
  :class:`~repro.worldarrays.virtual.VirtualMatrices` view instead —
  columns are assembled on demand by the flat fill (grouped by
  destination AS, the unit the one-way memo amortizes) and spilled to a
  chunked :class:`~repro.storage.columns.ColumnStore`, so the dense
  arrays never exist.  Every consumer reads through the same
  cell/gather/block protocol, which is why the two substrates produce
  bit-identical experiment results.

Each run times its stages, snapshots peak RSS, and can emit a
benchmark document (``benchmarks/BENCH_e2e.json``) whose schema is
validated by :func:`validate_e2e_document`.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.baselines.base import BaselineConfig
from repro.core.config import ASAPConfig, derive_k_hops
from repro.errors import ConfigurationError
from repro.evaluation.policies import METHOD_NAMES, default_policies
from repro.evaluation.section7 import Section7Result, run_section7
from repro.evaluation.sessions import generate_workload
from repro.scenario import (
    SCALES,
    Scenario,
    ScenarioConfig,
    build_scenario,
    build_scenario_from_topology,
)
from repro.storage.cache import scenario_cache_key
from repro.storage.columns import ColumnStore
from repro.topology.generator import generate_topology
from repro.worldarrays.virtual import VirtualMatrices

__all__ = [
    "E2E_BENCH_SCHEMA_VERSION",
    "Experiment",
    "ExperimentConfig",
    "ExperimentReport",
    "STREAM_SCALES",
    "run_experiment",
    "validate_e2e_document",
]

#: Tiers whose dense matrices exceed sensible memory — streamed by default.
STREAM_SCALES = ("100k", "1m")

#: Bump when the BENCH_e2e.json document layout changes.
E2E_BENCH_SCHEMA_VERSION = 1

#: MOS grid of the reduced CDF (paper Figs. 15-16 read MOS ∈ [1, 4.5]).
MOS_GRID = tuple(round(1.0 + 0.1 * i, 1) for i in range(36))


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Everything one experiment run needs, in one place.

    ``stream=None`` picks the substrate by tier (:data:`STREAM_SCALES`);
    forcing ``True``/``False`` overrides it (the parity suite runs both
    on the same tier).  ``spill_dir=None`` spills to an ephemeral
    temporary directory that is removed after the run; a concrete path
    makes the column store persistent and the run resumable — a rerun
    reuses every chunk already on disk.
    """

    scale: str = "small"
    seed: int = 0
    session_count: int = 2000
    latent_target: int = 60
    max_latent_sessions: Optional[int] = None
    methods: Sequence[str] = METHOD_NAMES
    stream: Optional[bool] = None
    spill_dir: Optional[Union[str, Path]] = None
    chunk_columns: int = 256
    asap_config: Optional[ASAPConfig] = None
    baseline_config: Optional[BaselineConfig] = None

    def __post_init__(self) -> None:
        if self.scale not in SCALES:
            raise ConfigurationError(
                f"unknown scale {self.scale!r}; choose from {SCALES}"
            )
        if self.session_count < 1:
            raise ConfigurationError("session_count must be >= 1")
        if self.chunk_columns < 1:
            raise ConfigurationError("chunk_columns must be >= 1")
        unknown = set(self.methods) - set(METHOD_NAMES)
        if unknown:
            raise ConfigurationError(
                f"unknown methods {sorted(unknown)}; choose from {METHOD_NAMES}"
            )

    @property
    def streamed(self) -> bool:
        if self.stream is not None:
            return self.stream
        return self.scale in STREAM_SCALES


@dataclass
class ExperimentReport:
    """One finished run: results plus the run's own accounting."""

    config: ExperimentConfig
    result: Section7Result
    population: int
    clusters: int
    stage_seconds: Dict[str, float]
    policy_seconds: Dict[str, float]
    peak_rss_kb: int
    derived_k_hops: int
    spill: Optional[dict] = None

    @property
    def streamed(self) -> bool:
        return self.config.streamed

    @property
    def dense_bytes(self) -> int:
        """Footprint of the three dense N×N arrays this run would have
        needed without streaming (rtt + loss float64, hops int64)."""
        return 3 * self.clusters * self.clusters * 8

    def bench_document(self) -> dict:
        """The run as a BENCH_e2e.json document (validated on write)."""
        methods = {}
        for summary in self.result.summaries():
            row = {k: _jsonable(v) for k, v in asdict(summary).items() if k != "method"}
            methods[summary.method] = row
        mos_cdf: Dict[str, list] = {"grid": list(MOS_GRID)}
        for name in self.result.records:
            mos = self.result.series(name, "highest_mos")
            mos_cdf[name] = [float(np.mean(mos <= level)) for level in MOS_GRID]
        return {
            "schema": E2E_BENCH_SCHEMA_VERSION,
            "generated_by": "repro.evaluation.engine",
            "scale": self.config.scale,
            "seed": self.config.seed,
            "streamed": self.streamed,
            "population": self.population,
            "clusters": self.clusters,
            "chunk_columns": self.config.chunk_columns if self.streamed else None,
            "dense_bytes": self.dense_bytes,
            "peak_rss_kb": self.peak_rss_kb,
            "sessions": self.config.session_count,
            "latent_sessions": len(self.result.latent_sessions),
            "derived_k_hops": self.derived_k_hops,
            "stage_seconds": {k: round(v, 6) for k, v in self.stage_seconds.items()},
            "policy_seconds": {k: round(v, 6) for k, v in self.policy_seconds.items()},
            "spill": self.spill,
            "methods": methods,
            "mos_cdf": mos_cdf,
        }

    def write_bench(self, path: Union[str, Path]) -> Path:
        document = self.bench_document()
        problems = validate_e2e_document(document)
        if problems:
            raise ValueError("invalid e2e bench document: " + "; ".join(problems))
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return path


class _TimedPolicy:
    """Wraps a policy to account its evaluation wall-clock per name."""

    def __init__(self, inner, sink: Dict[str, float]) -> None:
        self._inner = inner
        self._sink = sink
        self.name = inner.name

    def evaluate_sessions(self, world, sessions, *, session_ids=None):
        started = time.perf_counter()
        out = self._inner.evaluate_sessions(world, sessions, session_ids=session_ids)
        self._sink[self.name] = (
            self._sink.get(self.name, 0.0) + time.perf_counter() - started
        )
        return out


class Experiment:
    """One configured experiment, runnable end to end."""

    def __init__(self, config: Optional[ExperimentConfig] = None, **overrides) -> None:
        if config is None:
            config = ExperimentConfig(**overrides)
        elif overrides:
            raise ConfigurationError("pass either a config or keyword overrides")
        self.config = config

    def run(self) -> ExperimentReport:
        config = self.config
        stage_seconds: Dict[str, float] = {}
        policy_seconds: Dict[str, float] = {}
        ephemeral_spill: Optional[Path] = None
        timeline = obs.timeline()
        run_t0 = time.perf_counter()

        def mark_stage(stage: str, seconds: float, rows: Optional[int] = None) -> None:
            # Machine-timing samples: stamped on the wall clock and
            # flagged ``wall`` so the byte-stability contract skips them.
            if not timeline:
                return
            at_ms = (time.perf_counter() - run_t0) * 1000.0
            timeline.sample(
                "engine.stage_seconds", at_ms, seconds, wall=True, stage=stage
            )
            if rows is not None and seconds > 0:
                timeline.sample(
                    "engine.rows_per_s", at_ms, rows / seconds, wall=True, stage=stage
                )

        try:
            with obs.span(
                "experiment.run", scale=config.scale, streamed=config.streamed
            ):
                started = time.perf_counter()
                if config.streamed:
                    scenario, spill_root = self._build_streamed()
                    if config.spill_dir is None:
                        ephemeral_spill = spill_root
                else:
                    scenario = build_scenario(
                        ScenarioConfig.preset(config.scale, config.seed)
                    )
                    _ = scenario.matrices  # materialize inside the build stage
                stage_seconds["build"] = time.perf_counter() - started
                mark_stage("build", stage_seconds["build"])

                view = scenario.matrix_view()
                started = time.perf_counter()
                if config.streamed:
                    view.ensure_spilled()
                stage_seconds["sweep"] = time.perf_counter() - started
                mark_stage("sweep", stage_seconds["sweep"], rows=view.count)

                started = time.perf_counter()
                workload = generate_workload(
                    scenario,
                    config.session_count,
                    seed=config.seed,
                    latent_target=config.latent_target,
                )
                stage_seconds["workload"] = time.perf_counter() - started
                mark_stage(
                    "workload", stage_seconds["workload"], rows=len(workload.sessions)
                )

                started = time.perf_counter()
                asap_config = config.asap_config
                if asap_config is None:
                    asap_config = ASAPConfig(k_hops=derive_k_hops(view))
                policies = [
                    _TimedPolicy(policy, policy_seconds)
                    for policy in default_policies(
                        scenario,
                        methods=config.methods,
                        asap_config=asap_config,
                        baseline_config=config.baseline_config,
                    )
                ]
                result = run_section7(
                    scenario,
                    seed=config.seed,
                    asap_config=asap_config,
                    baseline_config=config.baseline_config,
                    workload=workload,
                    max_latent_sessions=config.max_latent_sessions,
                    policies=policies,
                )
                stage_seconds["evaluate"] = time.perf_counter() - started
                mark_stage(
                    "evaluate",
                    stage_seconds["evaluate"],
                    rows=config.session_count * len(policies),
                )

                started = time.perf_counter()
                for summary in result.summaries():
                    obs.gauge(f"experiment.mos_median.{summary.method}").set(
                        summary.mos_median
                    )
                stage_seconds["reduce"] = time.perf_counter() - started
                mark_stage("reduce", stage_seconds["reduce"])

                spill = self._spill_accounting(view, ephemeral_spill)
                peak_rss = _peak_rss_kb()
                if timeline:
                    end_ms = (time.perf_counter() - run_t0) * 1000.0
                    timeline.sample(
                        "engine.peak_rss_kb", end_ms, peak_rss, wall=True
                    )
                    if spill is not None:
                        timeline.sample(
                            "engine.spill_bytes", end_ms, spill["bytes"], wall=True
                        )
                    hits = obs.counter("columns.chunks.hit").value
                    misses = obs.counter("columns.chunks.miss").value
                    if hits + misses:
                        timeline.sample(
                            "engine.column_hit_rate",
                            end_ms,
                            hits / (hits + misses),
                            wall=True,
                        )
                obs.annotate(
                    peak_rss_kb=peak_rss,
                    stage_seconds={k: round(v, 6) for k, v in stage_seconds.items()},
                )
                return ExperimentReport(
                    config=config,
                    result=result,
                    population=len(scenario.population),
                    clusters=view.count,
                    stage_seconds=stage_seconds,
                    policy_seconds=policy_seconds,
                    peak_rss_kb=peak_rss,
                    derived_k_hops=asap_config.k_hops,
                    spill=spill,
                )
        finally:
            if ephemeral_spill is not None:
                shutil.rmtree(ephemeral_spill, ignore_errors=True)

    # -- internals ---------------------------------------------------------

    def _build_streamed(self) -> Tuple[Scenario, Path]:
        """Build the world with a streamed matrix view attached.

        Bypasses the scenario artifact cache on purpose: persisting a
        scenario forces dense matrix materialization, the very thing the
        streamed substrate exists to avoid.  The column store is the
        streamed run's cache instead (content-addressed by the same
        scenario config key).
        """
        config = self.config
        scenario_config = ScenarioConfig.preset(config.scale, config.seed)
        with obs.span("experiment.build", scale=config.scale):
            topology = generate_topology(scenario_config.topology)
            scenario = build_scenario_from_topology(topology, scenario_config)
        if config.spill_dir is not None:
            spill_root = Path(config.spill_dir)
        else:
            spill_root = Path(tempfile.mkdtemp(prefix="repro-columns-"))
        n = len(scenario.clusters.all_clusters())
        store = ColumnStore(
            spill_root,
            key=scenario_cache_key(scenario_config),
            n=n,
            chunk=config.chunk_columns,
        )
        virtual = VirtualMatrices(
            scenario.latency,
            scenario.clusters.all_clusters(),
            chunk_columns=config.chunk_columns,
            store=store,
        )
        scenario.attach_virtual_matrices(virtual)
        return scenario, spill_root

    def _spill_accounting(
        self, view, ephemeral_spill: Optional[Path]
    ) -> Optional[dict]:
        if not self.config.streamed:
            return None
        store = view.store
        if store is None:
            return None
        stored, total = store.chunk_count()
        spilled_bytes = sum(
            f.stat().st_size for f in store.root.glob("*.npy") if f.is_file()
        )
        return {
            "dir": None if ephemeral_spill is not None else str(store.root),
            "ephemeral": ephemeral_spill is not None,
            "chunks": stored,
            "chunk_total": total,
            "bytes": spilled_bytes,
        }


def run_experiment(
    config: Optional[ExperimentConfig] = None, **overrides
) -> ExperimentReport:
    """Build and run an :class:`Experiment` in one call."""
    return Experiment(config, **overrides).run()


def _peak_rss_kb() -> int:
    """Peak resident set size of this process, in KiB (0 if unknown)."""
    try:
        import resource
    except ImportError:  # non-POSIX: no resource module
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _jsonable(value):
    """JSON-safe scalar: non-finite floats become None."""
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


# -- BENCH_e2e.json schema -------------------------------------------------

_REQUIRED_STAGES = ("build", "sweep", "workload", "evaluate", "reduce")


def validate_e2e_document(document: dict) -> List[str]:
    """Check a BENCH_e2e.json document; returns problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return [f"document must be an object, got {type(document).__name__}"]

    def need(mapping, key, kinds, where=""):
        label = f"{where}{key}"
        if key not in mapping:
            problems.append(f"missing field {label!r}")
            return None
        value = mapping[key]
        if not isinstance(value, kinds) or isinstance(value, bool) and bool not in (
            kinds if isinstance(kinds, tuple) else (kinds,)
        ):
            expected = "/".join(
                t.__name__ for t in (kinds if isinstance(kinds, tuple) else (kinds,))
            )
            problems.append(f"field {label!r} must be {expected}")
            return None
        return value

    if document.get("schema") != E2E_BENCH_SCHEMA_VERSION:
        problems.append(
            f"schema must be {E2E_BENCH_SCHEMA_VERSION}, got {document.get('schema')!r}"
        )
    need(document, "generated_by", str)
    need(document, "scale", str)
    need(document, "seed", int)
    need(document, "streamed", bool)
    need(document, "population", int)
    need(document, "clusters", int)
    need(document, "dense_bytes", int)
    need(document, "peak_rss_kb", int)
    need(document, "sessions", int)
    need(document, "latent_sessions", int)
    need(document, "derived_k_hops", int)
    stages = need(document, "stage_seconds", dict)
    if stages is not None:
        for stage in _REQUIRED_STAGES:
            if not isinstance(stages.get(stage), (int, float)):
                problems.append(f"stage_seconds.{stage} must be a number")
    policies = need(document, "policy_seconds", dict)
    if policies is not None:
        for key, value in policies.items():
            if not isinstance(value, (int, float)):
                problems.append(f"policy_seconds.{key} must be a number")
    if document.get("streamed"):
        spill = need(document, "spill", dict)
        if spill is not None:
            for key, kinds in (
                ("ephemeral", bool),
                ("chunks", int),
                ("chunk_total", int),
                ("bytes", int),
            ):
                if not isinstance(spill.get(key), kinds):
                    problems.append(f"spill.{key} must be {kinds.__name__}")
    methods = need(document, "methods", dict)
    if methods is not None:
        if not methods:
            problems.append("methods must not be empty")
        for name, row in methods.items():
            if not isinstance(row, dict):
                problems.append(f"methods.{name} must be an object")
                continue
            if not isinstance(row.get("sessions"), int):
                problems.append(f"methods.{name}.sessions must be an integer")
            if "mos_median" not in row:
                problems.append(f"methods.{name} missing field 'mos_median'")
    mos_cdf = need(document, "mos_cdf", dict)
    if mos_cdf is not None:
        grid = mos_cdf.get("grid")
        if not isinstance(grid, list) or not grid:
            problems.append("mos_cdf.grid must be a non-empty list")
        else:
            for name, series in mos_cdf.items():
                if name == "grid":
                    continue
                if not isinstance(series, list) or len(series) != len(grid):
                    problems.append(f"mos_cdf.{name} must match the grid length")
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Validate a BENCH_e2e.json document from the command line."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.evaluation.engine",
        description="Validate an end-to-end experiment benchmark document.",
    )
    parser.add_argument("path", help="path to BENCH_e2e.json")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when the document is invalid (default: report only)",
    )
    args = parser.parse_args(argv)
    document = json.loads(Path(args.path).read_text(encoding="utf-8"))
    problems = validate_e2e_document(document)
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        return 1 if args.check else 0
    print(f"{args.path}: valid e2e bench document (schema {document['schema']})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
