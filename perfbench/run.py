"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload eval-stream --seed 0 --seconds 8 --trace 0

Run from the repository root.  The run sets the workload up several
times (``setup_s`` is the median), then repeats the timed step until
``--seconds`` of timed work have passed, checks every step's outputs and
prints the end-to-end metrics.  Every time is read from a
:class:`refclock.RefClock`: seconds at the reference machine's speed, so
a shared host's changes of speed do not read as changes of the program.
With ``--trace 1`` it then repeats the timed step with spans around every
layer and prints per-layer metrics instead, plus a self-time table; spans
and the table are written under ``.perfbench/`` in the repository root.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is non-zero
when any check fails.

Seed 0 is the default; seed 1 is the held-out seed for claims.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Environment that would change what the program does: the benchmark
#: runs every workload single-process, uncached, on the default substrate.
CLEARED_ENV = ("REPRO_WORKERS", "REPRO_CACHE_DIR", "REPRO_FLAT_WORLD")
#: One BLAS thread: the step is single-threaded, and an idle pool thread
#: per CPU only competes with it on a small shared host.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
HELD_OUT_SEED = 1

#: End-to-end metrics and their units, in output order.
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
    "dial_ms_p50": "ms",
    "dial_ms_p95": "ms",
    "mos_median": "MOS",
    "msgs_per_op": "msgs",
    "quality_frac": "ratio",
}
#: Per-layer metrics (traced runs) and their units.
LAYER_UNITS = {
    "storage.columns.complete.calls": "count",
    "storage.columns.complete.s": "s",
    "storage.columns.load.calls": "count",
    "storage.columns.load.s": "s",
    "worldarrays.virtual.gather.calls": "count",
    "worldarrays.virtual.gather.cells": "count",
    "worldarrays.virtual.gather.s": "s",
    "worldarrays.virtual.ensure_spilled.s": "s",
    "worldarrays.closesets.build.calls": "count",
    "worldarrays.closesets.build.s": "s",
    "worldarrays.closesets.build.probe_messages": "count",
    "worldarrays.closesets.build.ases_visited": "count",
    "core.relay_selection.select.calls": "count",
    "core.relay_selection.select.s": "s",
    "core.protocol.call.calls": "count",
    "core.protocol.call.s": "s",
    "baselines.DEDI.s": "s",
    "baselines.RAND.s": "s",
    "baselines.MIX.s": "s",
    "baselines.OPT.s": "s",
    "evaluation.sessions.generate.s": "s",
    "measurement.matrix.compute.s": "s",
    "worldarrays.matrixfill.columns": "count",
    "worldarrays.matrixfill.s": "s",
    "bgp.routing.tree.calls": "count",
    "bgp.routing.tree.s": "s",
    "scenario.build.s": "s",
    "sim.engine.events": "count",
    "sim.engine.s": "s",
    "sim.network.sent": "count",
    "sim.network.dropped": "count",
    "sim.network.timeouts": "count",
    "core.runtime.joins": "count",
    "core.runtime.call_setups": "count",
    "core.runtime.retries": "count",
    "core.runtime.failovers": "count",
    "faults.injector.events": "count",
    "media.session.run.calls": "count",
    "media.session.run.frames": "count",
    "media.session.run.s": "s",
    "media.jitterbuf.play.s": "s",
    "media.score.score_trace.s": "s",
    "media.frames.trace_from_wire.calls": "count",
    "media.frames.trace_from_wire.s": "s",
    "net.codec.encode.calls": "count",
    "net.codec.encode.bytes": "bytes",
    "net.codec.encode.s": "s",
    "net.codec.decode.calls": "count",
    "net.codec.decode.bytes": "bytes",
    "net.codec.decode.s": "s",
    "net.loopback.requests": "count",
    "net.loopback.timeouts": "count",
    "net.loopback.deliveries": "count",
    "net.loopback.drops": "count",
    "service.surrogate.pairs_to_close_set.calls": "count",
    "service.surrogate.pairs_to_close_set.s": "s",
    "service.world.latent_pairs.s": "s",
    "service.host.dials": "count",
    "service.host.joins": "count",
    "service.demo.s": "s",
    "bench.step.s": "s",
    "bench.machine_speed": "ratio",
    "bench.ops_per_s.wall": "ops/s",
    "bench.ops_per_s.untraced": "ops/s",
    "bench.ops_per_s.traced": "ops/s",
    "bench.trace_overhead": "ratio",
}


def _commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        packed = (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8")
        for line in packed.splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _steps(workload, world, prepared, seconds: float, clock, tracer=None):
    """Repeat the timed step until ``seconds`` of it have run.

    Returns ``([step seconds], [wall seconds], [Outcome])``, step seconds
    in reference seconds.  ``prepared`` is the first step's state (made
    during set-up); later steps prepare untimed.
    """
    outcomes = []
    times: List[float] = []
    wall: List[float] = []
    while True:
        if prepared is None:
            prepared = workload.prepare(world)
        # Start every step on a collected heap; otherwise the previous
        # step's garbage is collected inside this one, and step times
        # alternate between slow and fast.
        gc.collect()
        started, wall_started = clock.now(), time.perf_counter()
        if tracer is not None:
            with tracer.root("bench.step"):
                raw = workload.run(prepared)
        else:
            raw = workload.run(prepared)
        times.append(clock.now() - started)
        wall.append(time.perf_counter() - wall_started)
        outcomes.append(workload.score(prepared, raw))
        workload.release(prepared)
        prepared = raw = None
        if sum(times) >= seconds:
            return times, wall, outcomes


def _setup(workload, clock, tracer=None):
    """Set the workload up ``SETUP_REPS`` times; the last one is kept.
    With a tracer, the last repetition is traced."""
    seconds: List[float] = []
    world = prepared = None
    for rep in range(SETUP_REPS):
        if prepared is not None:
            workload.release(prepared)
        world = prepared = None
        gc.collect()
        traced = tracer is not None and rep == SETUP_REPS - 1
        with tracer if traced else contextlib.nullcontext():
            started = clock.now()
            world = workload.build()
            prepared = workload.prepare(world)
            seconds.append(clock.now() - started)
    return seconds, world, prepared


def _ops_per_s(times: List[float], outcomes) -> float:
    """Median over timed steps of the step's ops per second."""
    return statistics.median(o.attempted / t for t, o in zip(times, outcomes))


def _e2e(setup: List[float], times: List[float], outcomes, peak_mb: float):
    """End-to-end values.  Wall figures are medians over the run's steps,
    so one step slowed by the machine does not move them; the figures
    from records are the same in every step (checked by digest)."""
    from workloads import percentile

    first = outcomes[0]
    attempted = first.attempted

    def dial(q: float) -> float:
        return statistics.median(percentile(o.op_ms, q) for o in outcomes)

    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": _ops_per_s(times, outcomes),
        "peak_rss_mb": peak_mb,
        "ok_frac": first.ok / attempted,
        "dial_ms_p50": dial(50),
        "dial_ms_p95": dial(95),
        "mos_median": statistics.median(first.mos),
        "msgs_per_op": first.messages / attempted,
        "quality_frac": first.quality / attempted,
    }
    p95 = percentile(first.op_ms, 95)
    sample = {
        "dial_samples_per_step": len(first.op_ms),
        "dial_beyond_p95": sum(1 for ms in first.op_ms if ms > p95),
    }
    return values, sample


def _layers(tracer, outcomes, steps: int, untraced_ops: float, traced_ops: float):
    """Per-layer metrics: the traced set-up plus the mean traced step."""
    values: Dict[str, float] = {name: 0.0 for name in LAYER_UNITS}

    def add(key: str, value: float) -> None:
        if key in values:
            values[key] += value

    for phase, scale in (("setup", 1.0), ("timed", 1.0 / steps)):
        for layer, (calls, self_s) in tracer.self_times(phase).items():
            add(f"{layer}.calls", calls * scale)
            add(f"{layer}.s", self_s * scale)
        for key, value in tracer.counts[phase].items():
            add(key, value * scale)
    for outcome in outcomes:
        for key, value in outcome.layer_counts.items():
            add(key, value / len(outcomes))
    values["bench.ops_per_s.untraced"] = untraced_ops
    values["bench.ops_per_s.traced"] = traced_ops
    values["bench.trace_overhead"] = untraced_ops / traced_ops - 1.0
    return values


def _self_time_table(tracer, steps: int, name: str) -> str:
    """Self time by layer: the traced set-up, then per timed step."""
    lines = [f"self time by layer, {name}"]
    for phase, scale, title in (
        ("setup", 1.0, "set-up (one repetition)"),
        ("timed", 1.0 / steps, f"timed step (mean of {steps})"),
    ):
        rows = sorted(
            tracer.self_times(phase).items(), key=lambda kv: -kv[1][1]
        )
        total = sum(s for _, (_, s) in rows) * scale
        lines.append(f"  {title}: {total:.3f} s")
        lines.append(f"    {'layer':<40} {'calls':>10} {'self s':>10} {'share':>7}")
        for layer, (calls, self_s) in rows:
            share = self_s * scale / total if total else 0.0
            lines.append(
                f"    {layer:<40} {calls * scale:>10.1f} {self_s * scale:>10.4f} "
                f"{share:>6.1%}"
            )
    return "\n".join(lines)


def run_benchmark(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes=None,
    out_dir: Optional[Path] = None,
) -> dict:
    """Run one workload; returns the result object plus ``meta`` and
    the untraced end-to-end values (``e2e``) for callers that want both."""
    import numpy
    import tracing
    import workloads
    from refclock import RefClock

    sizes = sizes if sizes is not None else workloads.FULL
    out_dir = out_dir if out_dir is not None else OUT
    out_dir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    try:
        clock = RefClock()
        workload = workloads.make_workload(name, seed, sizes, scratch, clock.now)
        tracer = tracing.Tracer() if trace else None
        with clock:
            setup, world, prepared = _setup(workload, clock, tracer)
            times, wall, outcomes = _steps(workload, world, prepared, seconds, clock)
        peak_mb = _peak_rss_mb()
        e2e, sample = _e2e(setup, times, outcomes, peak_mb)
        wall_ops = _ops_per_s(wall, outcomes)
        speed = clock.median_speed()
        traced_outcomes = []
        if tracer is not None:
            tracer.phase = "timed"
            with tracer, clock:
                traced_times, _, traced_outcomes = _steps(
                    workload, world, None, seconds, clock, tracer
                )
        problems: List[str] = []
        for outcome in outcomes + traced_outcomes:
            problems += outcome.problems
        digests = {o.digest for o in outcomes + traced_outcomes}
        if len(digests) != 1:
            problems.append(f"{len(digests)} different outputs from one seed")
        problems += workload.cross_check(outcomes[0])
        problems += [
            f"{metric} is not a finite number: {value!r}"
            for metric, value in e2e.items()
            if not math.isfinite(value)
        ]
        meta = {
            "workload": name,
            "seed": seed,
            "held_out_seed": HELD_OUT_SEED,
            "seconds": seconds,
            "trace": bool(trace),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "commit": _commit(),
            "world": {"scale": sizes.scale, "seed": workloads.WORLD_SEED},
            "sizes": workload.describe(),
            "ops_per_step": outcomes[0].attempted,
            "setup_reps": len(setup),
            "setup_s": [round(s, 6) for s in setup],
            "step_s": [round(t, 6) for t in times],
            "wall_step_s": [round(t, 6) for t in wall],
            "machine_speed": round(speed, 4),
            "speed_samples": len(clock.speeds),
            "speed_handler_s": round(clock.handler_s, 4),
            "digest": outcomes[0].digest,
            "asap_below_opt": outcomes[0].findings,
            **sample,
        }
        if tracer is not None:
            steps = len(traced_outcomes)
            traced_ops = _ops_per_s(traced_times, traced_outcomes)
            metrics = _layers(
                tracer, traced_outcomes, steps, e2e["ops_per_s"], traced_ops
            )
            metrics["bench.machine_speed"] = speed
            metrics["bench.ops_per_s.wall"] = wall_ops
            units = LAYER_UNITS
            table = _self_time_table(tracer, steps, name)
            table += (
                f"\ntracing overhead: {metrics['bench.trace_overhead']:+.1%} "
                f"(untraced {e2e['ops_per_s']:.3f} ops/s, traced {traced_ops:.3f} ops/s)"
            )
            stem = out_dir / f"{name}-seed{seed}"
            tracer.write_spans(f"{stem}.spans.jsonl")
            Path(f"{stem}.layers.txt").write_text(table + "\n", encoding="utf-8")
            meta["traced_steps"] = steps
            meta["spans"] = len(tracer.spans)
            meta["missing_layers"] = tracer.missing
            meta["table"] = table
        else:
            metrics, units = e2e, E2E_UNITS
        attempted = sum(o.attempted for o in outcomes + traced_outcomes)
        return {
            "result": {
                "correct": not problems,
                "attempted": attempted,
                "failed": len(problems),
                "metrics": {
                    key: {"value": float(metrics[key]), "unit": units[key]}
                    for key in units
                },
            },
            "meta": meta,
            "problems": problems,
            "e2e": e2e,
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for key in CLEARED_ENV:
        os.environ.pop(key, None)
    os.environ.update(SINGLE_THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    result, meta = out["result"], out["meta"]
    table = meta.pop("table", None)
    if table:
        print(table)
    for key, metric in result["metrics"].items():
        print(f"{key:<44} {metric['value']:>14.6g} {metric['unit']}")
    for problem in out["problems"][:20]:
        print(f"CHECK FAILED: {problem}")
    if meta["asap_below_opt"]:
        print(f"FINDING: ASAP's best RTT is below OPT's on {meta['asap_below_opt']} "
              f"of {meta['ops_per_step']} sessions (counted in ok_frac)")
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
