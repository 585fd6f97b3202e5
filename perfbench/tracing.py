"""Span recording around the layers' public functions (traced runs only).

The benchmark never edits the program.  For a traced run it replaces a
fixed list of public functions and methods with thin wrappers that
record a span per synchronous call (name, start, end, parent, op id) or,
for coroutines, only count calls: wall spans around interleaved
coroutines are not busy time.  Spans stay in memory and are written out
when the run ends.  A layer's self time is its span's duration minus the
time its child spans cover.

Every wrapper is removed again when the :class:`Tracer` context exits, so
the untraced phase of the same process runs the unmodified program.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


def _cells(args, kwargs, result) -> Dict[str, float]:
    rows, cols = args[1], args[2]
    return {"cells": float(np.broadcast(np.asarray(rows), np.asarray(cols)).size)}


def _close_set(args, kwargs, result) -> Dict[str, float]:
    return {
        "probe_messages": float(result.probe_messages),
        "ases_visited": float(result.ases_visited),
    }


def _columns(args, kwargs, result) -> Dict[str, float]:
    return {"columns": float(len(args[1]))}


def _frames(args, kwargs, result) -> Dict[str, float]:
    return {"frames": float(len(result.trace.frames))}


def _out_bytes(args, kwargs, result) -> Dict[str, float]:
    return {"bytes": float(len(result))}


def _in_bytes(args, kwargs, result) -> Dict[str, float]:
    return {"bytes": float(len(args[0]))}


@dataclass(frozen=True)
class Target:
    """One wrapped function: its layer name and where it lives."""

    layer: str
    module: str
    attr: str  # "func" or "Class.method"
    extra: Optional[Callable] = None
    op: bool = False  # spans below this one share its op id


#: The layer boundaries a traced run records, by layer name.
TARGETS: Tuple[Target, ...] = (
    Target("scenario.build", "repro.scenario", "build_scenario"),
    Target("scenario.build", "repro.scenario", "build_scenario_from_topology"),
    Target("measurement.matrix.compute", "repro.measurement.matrix", "compute_delegate_matrices"),
    Target("worldarrays.matrixfill", "repro.worldarrays.matrixfill",
           "FlatMatrixAssembler.fill_columns", _columns),
    Target("bgp.routing.tree", "repro.bgp.routing", "PolicyRouter.tree"),
    Target("storage.columns.complete", "repro.storage.columns", "ColumnStore.complete"),
    Target("storage.columns.load", "repro.storage.columns", "ColumnStore.load"),
    Target("worldarrays.virtual.gather", "repro.worldarrays.virtual",
           "VirtualMatrices.gather_rtt", _cells),
    Target("worldarrays.virtual.gather", "repro.worldarrays.virtual",
           "VirtualMatrices.gather_loss", _cells),
    Target("worldarrays.virtual.ensure_spilled", "repro.worldarrays.virtual",
           "VirtualMatrices.ensure_spilled"),
    Target("worldarrays.closesets.build", "repro.worldarrays.closesets",
           "FlatCloseSetBuilder.build", _close_set),
    Target("core.protocol.call", "repro.core.protocol", "ASAPSystem.call", op=True),
    Target("core.relay_selection.select", "repro.core.relay_selection", "select_close_relay"),
    Target("evaluation.sessions.generate", "repro.evaluation.sessions", "generate_workload"),
    Target("baselines.DEDI", "repro.baselines", "DEDIMethod.evaluate_sessions"),
    Target("baselines.RAND", "repro.baselines", "RANDMethod.evaluate_sessions"),
    Target("baselines.MIX", "repro.baselines", "MIXMethod.evaluate_sessions"),
    Target("baselines.OPT", "repro.baselines", "OPTMethod.evaluate_sessions"),
    Target("sim.engine", "repro.sim.engine", "Simulator.run"),
    Target("media.session.run", "repro.media.session", "run_media_session", _frames),
    Target("media.jitterbuf.play", "repro.media.jitterbuf", "AdaptiveJitterBuffer.play"),
    Target("media.score.score_trace", "repro.media.score", "score_trace"),
    Target("media.frames.trace_from_wire", "repro.media.frames", "trace_from_wire"),
    Target("net.codec.encode", "repro.net.codec", "encode_frame", _out_bytes),
    Target("net.codec.decode", "repro.net.codec", "decode_frame", _in_bytes),
    Target("service.surrogate.pairs_to_close_set", "repro.service.surrogate",
           "pairs_to_close_set"),
    Target("service.world.latent_pairs", "repro.service.world", "ServiceWorld.latent_pairs"),
    Target("service.demo", "repro.service.demo", "run_demo"),
    # Coroutines: counted, not timed.
    Target("service.host.dials", "repro.service.host", "HostAgent.dial"),
    Target("service.host.joins", "repro.service.host", "HostAgent.join"),
    Target("net.loopback.requests", "repro.net.loopback", "LoopbackTransport.request"),
)


class _Frame:
    __slots__ = ("index", "start", "child")

    def __init__(self, index: int, start: float) -> None:
        self.index = index
        self.start = start
        self.child = 0.0


class Tracer:
    """Installs the wrappers on enter and records spans until exit."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []
        self._stack: List[_Frame] = []
        self._op_stack: List[int] = [0]
        # One row per span: [name, start, end, parent, op, self_s, phase].
        self.spans: List[list] = []
        # Counts by phase ("setup" or "timed"), then by metric name.
        self.counts: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.missing: List[str] = []
        self.phase = "setup"
        self._active = False
        self._timeouts: tuple = ()

    # -- install / remove --------------------------------------------------

    def __enter__(self) -> "Tracer":
        from repro.errors import TransportTimeout

        self._timeouts = (TransportTimeout,)
        for target in TARGETS:
            self._install(target)
        self._active = True
        return self

    def __exit__(self, *exc) -> None:
        self._active = False
        for owner, name, original in reversed(self._undo):
            if original is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._undo.clear()

    def _install(self, target: Target) -> None:
        try:
            module = importlib.import_module(target.module)
            owner, name = module, target.attr
            if "." in target.attr:
                cls_name, name = target.attr.split(".", 1)
                owner = getattr(module, cls_name)
            original = getattr(owner, name)
        except (ImportError, AttributeError):
            # A layer renamed or removed by a later change: its metrics
            # read zero and the run says which boundary went missing.
            missing = f"{target.module}:{target.attr}"
            if missing not in self.missing:
                self.missing.append(missing)
            return
        wrapper = self._wrap(target, original)
        if owner is module:
            # Rebind every module-level reference (``from x import f``).
            for mod in list(sys.modules.values()):
                if getattr(mod, "__dict__", {}).get(name) is original:
                    self._undo.append((mod, name, original))
                    setattr(mod, name, wrapper)
        else:
            self._undo.append((owner, name, owner.__dict__.get(name, _INHERITED)))
            setattr(owner, name, wrapper)

    def _wrap(self, target: Target, original):
        layer = target.layer
        if inspect.iscoroutinefunction(original):
            timeouts = layer.rsplit(".", 1)[0] + ".timeouts"

            @functools.wraps(original)
            async def counted(*args, **kwargs):
                if not self._active:
                    return await original(*args, **kwargs)
                counts = self.counts[self.phase]
                counts[layer] += 1
                try:
                    return await original(*args, **kwargs)
                except self._timeouts:
                    counts[timeouts] += 1
                    raise

            return counted

        extra = target.extra
        op = target.op

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if not self._active:
                return original(*args, **kwargs)
            index = self._open(layer, op)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index, op)
            if extra is not None:
                counts = self.counts[self.phase]
                for key, value in extra(args, kwargs, result).items():
                    counts[f"{layer}.{key}"] += value
            return result

        return timed

    # -- spans -------------------------------------------------------------

    def _open(self, layer: str, op: bool) -> int:
        parent = self._stack[-1].index if self._stack else -1
        index = len(self.spans)
        if op:
            self._op_stack.append(index)
        self.spans.append(
            [layer, 0.0, 0.0, parent, self._op_stack[-1], 0.0, self.phase]
        )
        now = time.perf_counter()
        self.spans[index][1] = now
        self._stack.append(_Frame(index, now))
        return index

    def _close(self, index: int, op: bool) -> None:
        now = time.perf_counter()
        frame = self._stack.pop()
        duration = now - frame.start
        row = self.spans[index]
        row[2] = now
        row[5] = duration - frame.child
        if self._stack:
            self._stack[-1].child += duration
        if op:
            self._op_stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """A span around one timed step; the spans inside share its op id."""
        index = self._open(name, True)
        try:
            yield
        finally:
            self._close(index, True)

    # -- results -----------------------------------------------------------

    def self_times(self, phase: str) -> Dict[str, Tuple[int, float]]:
        """``{layer: (calls, self seconds)}`` over one phase's spans."""
        table: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for name, _, _, _, _, self_s, row_phase in self.spans:
            if row_phase == phase:
                entry = table[name]
                entry[0] += 1
                entry[1] += self_s
        return {name: (int(calls), s) for name, (calls, s) in table.items()}

    def write_spans(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, start, end, parent, op, self_s, phase) in enumerate(
                self.spans
            ):
                out.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start_s": round(start - t0, 9),
                            "end_s": round(end - t0, 9),
                            "parent": parent,
                            "op": op,
                            "self_s": round(self_s, 9),
                            "phase": phase,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


#: Undo marker: the wrapped method lived on a base class.
_INHERITED = object()
