"""The benchmark's four workloads, driven through the program's public API.

Every workload runs on the ``small`` world built from seed 0 (347
clusters, 2,795 hosts).  The world is held fixed on purpose: its shape
sets the per-session cost (ASAP's mean relay-selection messages range
from 14 to 60 per session across world seeds 0-9), so a world drawn from
``--seed`` would make every figure move with the seed instead of with
the code.  ``--seed`` draws the inputs placed on that world: the
sessions (eval-*), the calls, joins, faults and media channels
(calls-sim), and which of the world's worst-RTT latent pairs the burst
dials (calls-wire).

A workload is four steps.  ``build`` makes the world and ``prepare``
makes one timed step's fresh state; together they are the set-up the
benchmark times as ``setup_s``.  ``run`` is the timed step.  ``score``
checks the step's outputs and distils its metrics (untimed).
"""

from __future__ import annotations

import hashlib
import math
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.core.config import ASAPConfig, derive_k_hops
from repro.core.runtime import ASAPRuntime
from repro.errors import EvaluationError
from repro.evaluation.chaos import collect_chaos_result, schedule_workload
from repro.evaluation.policies import METHOD_NAMES, default_policies
from repro.evaluation.section7 import run_section7
from repro.evaluation.sessions import generate_workload
from repro.faults import FaultInjector, FaultScheduleConfig, compile_schedule
from repro.media.session import MediaPlaneConfig
from repro.scenario import ScenarioConfig, build_scenario, build_scenario_from_topology
from repro.service.demo import run_demo
from repro.service.world import ServiceWorld
from repro.storage.cache import scenario_cache_key
from repro.storage.columns import ColumnStore
from repro.topology.generator import generate_topology
from repro.worldarrays.virtual import VirtualMatrices

#: The fixed world every workload runs on.
WORLD_SEED = 0
#: The path-RTT limit of a quality path (paper §7, Figs. 11-14).
QUALITY_RTT_MS = 300.0
#: MOS range of the E-model scale the paper reads (Figs. 15-16).
MOS_RANGE = (1.0, 4.5)
#: The latency a failed op reads as in a percentile: 1,000 s, longer
#: than any step's simulated horizon or wall time.
FAILED_OP_MS = 1_000_000.0
#: calls-wire dials a seeded sample of ``wire_calls`` pairs out of this
#: many times as many of the world's worst-RTT latent pairs.
WIRE_POOL = 2


@dataclass(frozen=True)
class Sizes:
    """How much work one timed step does; ``FULL`` is the benchmark's."""

    scale: str = "small"
    eval_sessions: int = 8000
    eval_latent: int = 800
    sim_calls: int = 400
    sim_latent: int = 300
    sim_joins: int = 400
    sim_duration_ms: float = 120_000.0
    sim_media_ms: float = 10_000.0
    wire_calls: int = 200
    wire_media_ms: float = 2_000.0
    chunk_columns: int = 256


FULL = Sizes()
#: The same workloads on the tiny world, for the benchmark's own tests.
TINY = Sizes(
    scale="tiny",
    eval_sessions=400,
    eval_latent=20,
    sim_calls=40,
    sim_latent=30,
    sim_joins=40,
    sim_duration_ms=30_000.0,
    sim_media_ms=2_000.0,
    wire_calls=4,
    wire_media_ms=500.0,
    chunk_columns=16,
)


@dataclass
class Outcome:
    """One timed step, checked and distilled."""

    attempted: int
    ok: int
    problems: List[str]
    digest: str
    messages: float
    quality: int
    mos: List[float]
    op_ms: List[float]  # per-op latency; inf for an op that failed
    layer_counts: Dict[str, float] = field(default_factory=dict)
    #: Ops whose output breaks a paper invariant the program is known
    #: not to keep (ASAP below OPT); counted against ok_frac only.
    findings: int = 0


def _digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()


def _mos_problems(values, what: str) -> List[str]:
    low, high = MOS_RANGE
    return [
        f"{what}: MOS {v!r} outside [{low}, {high}]"
        for v in values
        if not (low <= v <= high)
    ]


def _invalidate_routes(scenario) -> None:
    """Empty the policy router's tree cache so every timed step resolves
    the routes it needs, whatever the steps before it left cached."""
    scenario.latency.router.invalidate()


class EvalWorkload:
    """Section-7 evaluation: five methods score the latent sessions.

    ``stream=True`` reads the matrices through ``VirtualMatrices`` over a
    ``ColumnStore`` spilled to a fresh directory each step (the sweep is
    timed, as in ``Experiment.run``); ``stream=False`` materialises the
    dense matrices during set-up.  Both see the same sessions, so their
    records must be identical.
    """

    def __init__(
        self, seed: int, stream: bool, sizes: Sizes, scratch: Path, clock
    ) -> None:
        self.name = "eval-stream" if stream else "eval-dense"
        self.seed = seed
        self.stream = stream
        self.sizes = sizes
        self.scratch = scratch
        self.clock = clock
        self.config = ScenarioConfig.preset(sizes.scale, WORLD_SEED)

    def build(self):
        if self.stream:
            topology = generate_topology(self.config.topology)
            return build_scenario_from_topology(topology, self.config)
        scenario = build_scenario(self.config)
        _ = scenario.matrices
        return scenario

    def prepare(self, scenario):
        _invalidate_routes(scenario)
        if not self.stream:
            return scenario, None
        spill = Path(tempfile.mkdtemp(prefix="columns-", dir=self.scratch))
        clusters = scenario.clusters.all_clusters()
        store = ColumnStore(
            spill,
            key=scenario_cache_key(self.config),
            n=len(clusters),
            chunk=self.sizes.chunk_columns,
        )
        scenario.attach_virtual_matrices(
            VirtualMatrices(
                scenario.latency,
                clusters,
                chunk_columns=self.sizes.chunk_columns,
                store=store,
            )
        )
        return scenario, spill

    def run(self, prepared):
        scenario, _ = prepared
        view = scenario.matrix_view()
        if self.stream:
            view.ensure_spilled()
        workload = generate_workload(
            scenario,
            self.sizes.eval_sessions,
            seed=self.seed,
            latent_target=self.sizes.eval_latent,
        )
        asap_config = ASAPConfig(k_hops=derive_k_hops(view))
        policies = default_policies(scenario, asap_config=asap_config)
        op_seconds = _completion_times(
            next(p for p in policies if p.name == "ASAP").system, self.clock
        )
        result = run_section7(
            scenario,
            seed=self.seed,
            asap_config=asap_config,
            workload=workload,
            max_latent_sessions=self.sizes.eval_latent,
            policies=policies,
        )
        return result, op_seconds

    def release(self, prepared) -> None:
        _, spill = prepared
        if spill is not None:
            shutil.rmtree(spill, ignore_errors=True)

    def score(self, prepared, raw) -> Outcome:
        result, op_seconds = raw
        records = result.records
        count = len(result.latent_sessions)
        problems: List[str] = []
        if count != self.sizes.eval_latent:
            problems.append(
                f"{count} latent sessions scored, expected {self.sizes.eval_latent}"
            )
        if len(op_seconds) != count:
            problems.append(f"ASAP placed {len(op_seconds)} calls for {count} sessions")
        ok = findings = 0
        for i, session in enumerate(result.latent_sessions):
            row = {name: records[name][i] for name in METHOD_NAMES}
            best = {
                name: math.inf if r.best_rtt_ms is None else r.best_rtt_ms
                for name, r in row.items()
            }
            bad = [
                f"session {session.session_id}: {name} ids differ"
                for name, r in row.items()
                if r.session_id != session.session_id
            ]
            bad += [
                f"session {session.session_id}: OPT {best['OPT']!r} > {name} {rtt!r}"
                for name, rtt in best.items()
                if name != "ASAP" and best["OPT"] > rtt
            ]
            problems += bad
            # ASAP prices a leg into an endpoint's own cluster at 0 ms and
            # reads the callee-side leg from the callee's row of an
            # asymmetric RTT matrix, so it can report a path below OPT's.
            # That breaks the paper's invariant on a few percent of the
            # sessions at every seed: it counts against ok_frac, not as a
            # failed check, which would fail every run until the program
            # changes.
            undercut = best["OPT"] > best["ASAP"]
            findings += undercut
            ok += not bad and not undercut
        asap = records["ASAP"]
        mos = [1.0 if r.highest_mos is None else r.highest_mos for r in asap]
        problems += _mos_problems(mos, "ASAP highest MOS")
        digest = _digest(
            (name, r.session_id, r.quality_paths, r.best_rtt_ms, r.highest_mos,
             r.messages, r.one_hop_quality_paths)
            for name in METHOD_NAMES
            for r in records[name]
        )
        return Outcome(
            attempted=count,
            ok=ok,
            problems=problems,
            digest=digest,
            messages=float(sum(r.messages for r in asap)),
            quality=sum(1 for r in asap if r.found_quality_path),
            mos=mos,
            op_ms=[s * 1000.0 for s in op_seconds],
            findings=findings,
        )

    def cross_check(self, outcome: Outcome) -> List[str]:
        """Streamed records must equal the dense records of the same
        sessions; the dense side is cheap, so the streamed run makes it."""
        if not self.stream:
            return []
        dense = EvalWorkload(self.seed, False, self.sizes, self.scratch, self.clock)
        prepared = dense.prepare(dense.build())
        reference = dense.score(prepared, dense.run(prepared))
        if reference.digest != outcome.digest:
            return [
                f"streamed records {outcome.digest[:12]} differ from dense "
                f"{reference.digest[:12]}"
            ]
        return []

    def describe(self) -> dict:
        return {
            "sessions": self.sizes.eval_sessions,
            "latent_sessions": self.sizes.eval_latent,
            "chunk_columns": self.sizes.chunk_columns if self.stream else None,
        }


def _completion_times(system, clock) -> List[float]:
    """Record when each ``system.call`` (one per session) returns.

    ASAP's batch is timed alone: the clock starts when its first session's
    call starts, after the column sweep, the session draw and the
    baselines that ``run_section7`` evaluates before ASAP.  Every session
    of the batch arrives then, so a session's latency runs until ASAP has
    selected its relays.  (The wall time of one call alone swings with
    whichever lazy close-set builds it happens to trigger, which makes its
    tail seed noise.)
    """
    inner = system.call
    seconds: List[float] = []
    started: List[float] = []

    def call(*args, **kwargs):
        if not started:
            started.append(clock())
        try:
            return inner(*args, **kwargs)
        finally:
            seconds.append(clock() - started[0])

    system.call = call
    return seconds


class CallsSimWorkload:
    """The discrete-event runtime under churn, crashes and real media."""

    name = "calls-sim"

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes
        self.config = ScenarioConfig.preset(sizes.scale, WORLD_SEED)

    def build(self):
        scenario = build_scenario(self.config)
        _ = scenario.matrices
        return scenario

    def prepare(self, scenario):
        _invalidate_routes(scenario)
        sizes = self.sizes
        runtime = ASAPRuntime(
            scenario, media_plane=MediaPlaneConfig(), media_seed=self.seed
        )
        schedule = compile_schedule(
            FaultScheduleConfig(
                seed=self.seed,
                duration_ms=sizes.sim_duration_ms,
                surrogate_crash_rate_per_min=2.0,
                host_churn_rate_per_min=10.0,
            ),
            scenario,
        )
        FaultInjector(runtime, schedule).install()
        _, calls = schedule_workload(
            runtime,
            scenario,
            duration_ms=sizes.sim_duration_ms,
            sessions=sizes.sim_calls,
            joins=sizes.sim_joins,
            media_duration_ms=sizes.sim_media_ms,
            seed=self.seed,
            latent_target=sizes.sim_latent,
        )
        return runtime, len(schedule), calls

    def run(self, prepared):
        runtime, _, _ = prepared
        runtime.run()
        return runtime

    def release(self, prepared) -> None:
        pass

    def score(self, prepared, runtime) -> Outcome:
        _, fault_events, calls = prepared
        problems: List[str] = []
        try:
            chaos = collect_chaos_result(runtime, self.seed, fault_events)
        except EvaluationError as exc:
            problems.append(str(exc))
            chaos = None
        setups = runtime.call_setups
        if len(setups) != calls:
            problems.append(f"{len(setups)} call records for {calls} scheduled calls")
        if chaos is not None and sum(chaos.call_outcomes.values()) != len(setups):
            problems.append("call outcomes do not sum to the calls attempted")
        media = runtime.media_sessions
        mos = [m.measured.score.mos for m in media if m.measured is not None]
        mos_problems = _mos_problems(mos, "measured media MOS")
        problems += mos_problems
        ok = sum(1 for r in setups if r.outcome in ("completed", "degraded"))
        ok = max(0, ok - len(mos_problems))
        digest = _digest(
            [chaos.to_json() if chaos is not None else None]
            + [(r.caller, r.callee, r.outcome, r.setup_ms, r.relay_ip) for r in setups]
            + [(m.caller, m.callee, m.base_rtt_ms, m.outcome) for m in media]
            + mos
        )
        network = runtime.network
        return Outcome(
            attempted=len(setups),
            ok=ok,
            problems=problems,
            digest=digest,
            messages=float(
                sum(r.session.messages for r in setups if r.session is not None)
            ),
            quality=sum(1 for m in media if m.base_rtt_ms < QUALITY_RTT_MS),
            mos=mos,
            op_ms=[math.inf if r.setup_ms is None else r.setup_ms for r in setups],
            layer_counts={
                "sim.engine.events": runtime.sim.processed_events,
                "sim.network.sent": network.total_sent,
                "sim.network.dropped": network.dropped,
                "sim.network.timeouts": network.total_timeouts,
                "core.runtime.joins": len(runtime.joins),
                "core.runtime.call_setups": len(setups),
                "core.runtime.retries": sum(r.retries for r in setups),
                "core.runtime.failovers": sum(len(m.failovers) for m in media),
                "faults.injector.events": fault_events,
            },
        )

    def cross_check(self, outcome: Outcome) -> List[str]:
        return []

    def describe(self) -> dict:
        sizes = self.sizes
        return {
            "calls": sizes.sim_calls,
            "joins": sizes.sim_joins,
            "latent_first": sizes.sim_latent,
            "simulated_ms": sizes.sim_duration_ms,
            "media_ms_per_call": sizes.sim_media_ms,
            "surrogate_crashes_per_min": 2.0,
            "churn_per_min": 10.0,
        }


class CallsWireWorkload:
    """A burst of concurrent dials through the service layer over the
    deterministic loopback wire, with real media frames."""

    name = "calls-wire"

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes

    def build(self):
        return ServiceWorld.from_scale(self.sizes.scale, WORLD_SEED)

    def prepare(self, world):
        # A fresh protocol state per step: run_demo's joins and close-set
        # fetches would otherwise find the previous step's caches warm.
        _invalidate_routes(world.scenario)
        return _SampledPairsWorld(world.scenario, world.config, self.seed)

    def run(self, world):
        return run_demo(
            world,
            calls=self.sizes.wire_calls,
            media_ms=self.sizes.wire_media_ms,
            transport="loopback",
            media_frames=True,
        )

    def release(self, prepared) -> None:
        pass

    def score(self, prepared, demo) -> Outcome:
        calls = demo.calls
        problems: List[str] = []
        if len(calls) != self.sizes.wire_calls:
            problems.append(f"{len(calls)} calls placed, expected {self.sizes.wire_calls}")
        ok = 0
        for i, call in enumerate(calls):
            bad = []
            if call.outcome not in ("completed", "degraded", "failed"):
                bad.append(f"call {i}: outcome {call.outcome!r} is not terminal")
            if call.path == "relay" and call.relay_ip is None:
                bad.append(f"call {i}: relayed without a relay_ip")
            if call.mos is not None:
                bad += _mos_problems([call.mos], f"call {i}")
            problems += bad
            ok += call.ok and not bad
        digest = _digest(
            [(demo.virtual_ms, demo.wire_deliveries, demo.wire_drops)]
            + [
                (c.caller, c.callee, c.outcome, c.path, c.relay_ip, c.setup_ms,
                 c.path_rtt_ms, c.selection_messages, c.mos, c.failovers)
                for c in calls
            ]
        )
        return Outcome(
            attempted=len(calls),
            ok=ok,
            problems=problems,
            digest=digest,
            messages=float(sum(c.selection_messages for c in calls)),
            quality=sum(
                1
                for c in calls
                if c.path_rtt_ms is not None and c.path_rtt_ms < QUALITY_RTT_MS
            ),
            mos=[c.mos for c in calls if c.mos is not None],
            op_ms=[math.inf if c.setup_ms is None else c.setup_ms for c in calls],
            layer_counts={
                "net.loopback.deliveries": demo.wire_deliveries,
                "net.loopback.drops": demo.wire_drops,
            },
        )

    def cross_check(self, outcome: Outcome) -> List[str]:
        return []

    def describe(self) -> dict:
        return {
            "calls": self.sizes.wire_calls,
            "media_ms_per_call": self.sizes.wire_media_ms,
            "latent_pair_pool": self.sizes.wire_calls * WIRE_POOL,
            "transport": "loopback",
            "media_frames": True,
        }


class _SampledPairsWorld(ServiceWorld):
    """A ``ServiceWorld`` whose demo dials a seeded sample of its pairs.

    ``run_demo`` dials ``world.latent_pairs(calls)``, the world's
    worst-RTT latent pairs, which are the same at every seed.  This world
    asks the program for ``WIRE_POOL`` times as many and keeps a seeded
    sample of ``calls`` of them, in the program's order, so ``--seed``
    draws the burst while the program still finds and checks every pair.
    """

    def __init__(self, scenario, config, seed: int) -> None:
        super().__init__(scenario, config)
        self._seed = seed

    def latent_pairs(self, count: int):
        pool = super().latent_pairs(count * WIRE_POOL)
        rng = random.Random(self._seed)
        picked = rng.sample(range(len(pool)), min(count, len(pool)))
        return [pool[i] for i in sorted(picked)]


WORKLOADS = ("eval-stream", "eval-dense", "calls-sim", "calls-wire")


def make_workload(name: str, seed: int, sizes: Sizes, scratch: Path, clock):
    """``clock()`` reads the time the eval workloads' latencies use."""
    if name == "eval-stream":
        return EvalWorkload(seed, True, sizes, scratch, clock)
    if name == "eval-dense":
        return EvalWorkload(seed, False, sizes, scratch, clock)
    if name == "calls-sim":
        return CallsSimWorkload(seed, sizes)
    if name == "calls-wire":
        return CallsWireWorkload(seed, sizes)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def percentile(values, q: float) -> float:
    """Percentile of per-op latencies, always one of the samples.

    A failed op (inf) sorts last and reads as ``FAILED_OP_MS``, so a
    percentile that lands on a failure is a large finite regression for
    the bound to judge, never an interpolation towards infinity.
    """
    ms = np.minimum(np.asarray(values, dtype=float), FAILED_OP_MS)
    return float(np.percentile(ms, q, method="inverted_cdf"))
