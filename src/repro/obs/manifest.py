"""Per-run manifests: what produced a result directory, exactly.

A run manifest is a single JSON document written next to a run's other
outputs (``run_manifest.json`` under the observability directory) that
records everything needed to account for — and re-produce — the run:

- the command and argv that ran;
- the canonical scenario config hash (the same content hash
  :mod:`repro.storage.cache` keys artifacts on), seed and scale;
- wall-clock timings, resolved worker fan-out, cache hit/miss counts;
- the final snapshot of every metric instrument.

The schema is versioned and validated by hand (zero dependencies):
:func:`validate_manifest` returns a list of problems, empty when the
document conforms.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

__all__ = [
    "MANIFEST_FILENAME",
    "MANIFEST_SCHEMA",
    "MANIFEST_SCHEMA_VERSION",
    "load_manifest",
    "validate_manifest",
    "write_manifest",
]

#: Bump when manifest semantics change; validators reject other versions.
#: v2: histogram snapshots carry p50/p95/p99 estimates; ``traces_file``
#: and ``traces_written`` record the run's causal-trace output.
#: v3: top-level ``parallel`` block (per-chunk sizes/timings and resolved
#: worker count of the run's parallel matrix build, null for serial runs).
#: v4: optional top-level ``soak`` block — the churn soak's gate verdicts
#: (steady-state registry, directory convergence, staleness bound,
#: terminal calls) plus the directory/repair accounting behind them.
#: v5: optional top-level ``telemetry`` block (time-series output file,
#: sample/series counts, cadence, reservoir drops); histogram snapshots
#: carry a bounded raw-sample reservoir (``samples``/``dropped``).
MANIFEST_SCHEMA_VERSION = 5

#: Canonical file name of a run manifest inside an observability directory.
MANIFEST_FILENAME = "run_manifest.json"

_NoneType = type(None)

#: field name -> (accepted types, required).  ``dict``-typed fields are
#: checked one level deep where it matters (see ``validate_manifest``).
MANIFEST_SCHEMA: Dict[str, Tuple[tuple, bool]] = {
    "schema": ((int,), True),
    "run_id": ((str,), True),
    "command": ((str,), True),
    "argv": ((list,), True),
    "started_at": ((str,), True),
    "wall_seconds": ((int, float), True),
    "seed": ((int, _NoneType), True),
    "scale": ((str, _NoneType), True),
    "config_key": ((str, _NoneType), True),
    "workers": ((int, _NoneType), True),
    "parallel": ((dict, _NoneType), False),
    "soak": ((dict, _NoneType), False),
    "telemetry": ((dict, _NoneType), False),
    "cache": ((dict,), True),
    "network": ((dict,), False),
    "counters": ((dict,), True),
    "gauges": ((dict,), True),
    "histograms": ((dict,), True),
    "events_file": ((str, _NoneType), True),
    "events_written": ((int,), True),
    "traces_file": ((str, _NoneType), True),
    "traces_written": ((int,), True),
    "annotations": ((dict,), False),
}

#: Required members of each ``histograms`` entry (quantiles may be null
#: on empty histograms, hence no type constraint beyond presence).
_HISTOGRAM_FIELDS = ("count", "sum", "min", "max", "p50", "p95", "p99", "buckets")

#: Required integer members of the ``cache`` sub-document.
_CACHE_FIELDS = (
    "scenario_hits",
    "scenario_misses",
    "close_set_hits",
    "close_set_misses",
)

#: Required integer members of the optional ``network`` sub-document.
_NETWORK_FIELDS = (
    "messages_dropped",
    "request_timeouts",
)

#: Required members of the optional ``soak`` sub-document: the gate
#: verdicts are booleans, the rest is accounting the gates summarize.
_SOAK_BOOL_FIELDS = (
    "registry_bounded",
    "directory_converged",
    "staleness_bounded",
    "calls_terminal",
)
_SOAK_FIELDS = _SOAK_BOOL_FIELDS + ("ok", "seed", "sim_minutes", "shards")

#: Required members of the optional ``telemetry`` sub-document.
_TELEMETRY_FIELDS = ("file", "samples", "series", "cadence_ms", "samples_dropped")


def validate_manifest(document: dict) -> List[str]:
    """Check a manifest document against the schema.

    Returns a list of human-readable problems; an empty list means the
    document is a valid version-``MANIFEST_SCHEMA_VERSION`` manifest.
    """
    problems: List[str] = []
    if not isinstance(document, dict):
        return [f"manifest must be an object, got {type(document).__name__}"]
    for name, (types, required) in MANIFEST_SCHEMA.items():
        if name not in document:
            if required:
                problems.append(f"missing required field {name!r}")
            continue
        value = document[name]
        if not isinstance(value, types):
            expected = "/".join(t.__name__ for t in types)
            problems.append(
                f"field {name!r} must be {expected}, got {type(value).__name__}"
            )
    for name in document:
        if name not in MANIFEST_SCHEMA:
            problems.append(f"unknown field {name!r}")
    if document.get("schema") != MANIFEST_SCHEMA_VERSION:
        problems.append(
            f"schema must be {MANIFEST_SCHEMA_VERSION}, got {document.get('schema')!r}"
        )
    cache = document.get("cache")
    if isinstance(cache, dict):
        for field in _CACHE_FIELDS:
            if not isinstance(cache.get(field), int):
                problems.append(f"cache.{field} must be an integer")
    network = document.get("network")
    if isinstance(network, dict):
        for field in _NETWORK_FIELDS:
            if not isinstance(network.get(field), int):
                problems.append(f"network.{field} must be an integer")
    soak = document.get("soak")
    if isinstance(soak, dict):
        for field in _SOAK_FIELDS:
            if field not in soak:
                problems.append(f"soak missing field {field!r}")
        for field in _SOAK_BOOL_FIELDS + ("ok",):
            if field in soak and not isinstance(soak[field], bool):
                problems.append(f"soak.{field} must be a boolean")
    telemetry = document.get("telemetry")
    if isinstance(telemetry, dict):
        for field in _TELEMETRY_FIELDS:
            if field not in telemetry:
                problems.append(f"telemetry missing field {field!r}")
        for field in ("samples", "series", "samples_dropped"):
            if field in telemetry and not isinstance(telemetry[field], int):
                problems.append(f"telemetry.{field} must be an integer")
    counters = document.get("counters")
    if isinstance(counters, dict):
        for key, value in counters.items():
            if not isinstance(value, int):
                problems.append(f"counter {key!r} must be an integer")
    histograms = document.get("histograms")
    if isinstance(histograms, dict):
        for key, data in histograms.items():
            if not isinstance(data, dict):
                problems.append(f"histogram {key!r} must be an object")
                continue
            for field in _HISTOGRAM_FIELDS:
                if field not in data:
                    problems.append(f"histogram {key!r} missing field {field!r}")
    return problems


def write_manifest(path: Union[str, Path], document: dict) -> Path:
    """Validate and write a manifest document (indented, sorted keys)."""
    problems = validate_manifest(document)
    if problems:
        raise ValueError("invalid run manifest: " + "; ".join(problems))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8",
    )
    return path


def load_manifest(path: Union[str, Path]) -> dict:
    """Read and validate a manifest document from disk."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    problems = validate_manifest(document)
    if problems:
        raise ValueError(f"invalid run manifest at {path}: " + "; ".join(problems))
    return document
