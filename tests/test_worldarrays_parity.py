"""Flat-array substrate parity: bit-identical to the object references.

The ``repro.worldarrays`` paths are the only production paths, and they
are *substitutes*, not approximations: for the same scenario they must
reproduce the paper-literal references bit for bit — every matrix cell
(IEEE-exact) against :mod:`repro.measurement.reference`, every close-set
entry and probe count against
:func:`~repro.core.close_cluster.construct_close_cluster_set`, and every
observability record — across seeds, scales, serial and parallel
execution, with fault injection running and tracing on.
"""

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.core import ASAPConfig, ASAPSystem, construct_close_cluster_set
from repro.evaluation.chaos import run_chaos
from repro.faults import FaultScheduleConfig
from repro.measurement.matrix import compute_delegate_matrices
from repro.measurement.reference import reference_delegate_matrices
from repro.scenario import ScenarioConfig, build_scenario, tiny_scenario
from repro.scenario import PopulationConfig, TopologyConfig

SEEDS = (3, 11, 29)


def _medium_scenario(seed: int):
    """A second scale tier: ~2x the tiny world in every dimension."""
    config = dataclasses.replace(
        ScenarioConfig.preset("tiny", seed),
        topology=TopologyConfig(
            tier1_count=4, tier2_count=16, tier3_count=80, seed=seed
        ),
        population=PopulationConfig(host_count=900, seed=seed),
        vantage_count=6,
    )
    return build_scenario(config)


@pytest.fixture(scope="module")
def scenarios():
    return [tiny_scenario(seed=s) for s in SEEDS] + [_medium_scenario(17)]


class ReferenceCloseSetBuilder:
    """Drop-in for :class:`repro.worldarrays.FlatCloseSetBuilder` (same
    constructor, same ``build``) that runs the paper-literal
    construction, probing the same matrix view."""

    def __init__(self, graph, world, clusters_by_as, config):
        self._graph = graph
        self._world = world
        self._clusters_by_as = clusters_by_as
        self._config = config

    def build(self, own_cluster, own_as):
        return construct_close_cluster_set(
            own_cluster=own_cluster,
            own_as=own_as,
            graph=self._graph,
            clusters_in_as=lambda asn: list(self._clusters_by_as.get(asn, ())),
            lat=self._lat,
            loss=self._loss,
            config=self._config,
        )

    def _lat(self, own, other):
        value = self._world.rtt_cell(own, other)
        return value if np.isfinite(value) else None

    def _loss(self, own, other):
        if not np.isfinite(self._world.rtt_cell(own, other)):
            return None
        return self._world.loss_cell(own, other)


def _use_reference_builder(monkeypatch):
    """Make every ASAPSystem built from now on in the test build its
    close sets with the reference; returns the owners it has built."""
    built = []

    class Recording(ReferenceCloseSetBuilder):
        def build(self, own_cluster, own_as):
            built.append(own_cluster)
            return super().build(own_cluster, own_as)

    monkeypatch.setattr("repro.worldarrays.FlatCloseSetBuilder", Recording)
    return built


def _assert_matrices_identical(a, b):
    assert np.array_equal(a.rtt_ms, b.rtt_ms)
    assert np.array_equal(a.loss, b.loss)
    assert np.array_equal(a.as_hops, b.as_hops)
    assert a.prefixes == b.prefixes


class TestMatrixParity:
    def test_flat_serial_bit_identical_across_seeds_and_scales(self, scenarios):
        for scenario in scenarios:
            flat = compute_delegate_matrices(scenario.latency, scenario.clusters)
            reference = reference_delegate_matrices(
                scenario.latency, scenario.clusters
            )
            _assert_matrices_identical(flat, reference)

    def test_flat_parallel_bit_identical_to_object_serial(self, scenarios):
        for scenario in scenarios:
            reference = reference_delegate_matrices(
                scenario.latency, scenario.clusters
            )
            for workers in (2, 3):
                parallel = compute_delegate_matrices(
                    scenario.latency, scenario.clusters, workers=workers
                )
                _assert_matrices_identical(parallel, reference)


def _reference_close_sets(scenario, config):
    """``construct_close_cluster_set`` run directly for every cluster."""
    view = scenario.matrix_view()
    clusters_by_as = {}
    for idx, asn in enumerate(view.asn_of):
        clusters_by_as.setdefault(int(asn), []).append(idx)
    builder = ReferenceCloseSetBuilder(
        scenario.protocol_graph, view, clusters_by_as, config
    )
    return {
        idx: builder.build(idx, int(asn)) for idx, asn in enumerate(view.asn_of)
    }


def _assert_close_sets_identical(flat_sets, reference_sets):
    assert set(flat_sets) == set(reference_sets)
    for idx in reference_sets:
        flat, ref = flat_sets[idx], reference_sets[idx]
        assert flat.owner == ref.owner
        assert flat.probe_messages == ref.probe_messages
        assert flat.ases_visited == ref.ases_visited
        assert dict(flat.probes_by_as) == dict(ref.probes_by_as)
        assert set(flat.entries) == set(ref.entries)
        for cluster, entry in ref.entries.items():
            got = flat.entries[cluster]
            assert got.rtt_ms == entry.rtt_ms        # bitwise: no approx
            assert got.loss == entry.loss
            assert got.as_hops == entry.as_hops


class TestCloseSetParity:
    def test_bit_identical_across_seeds_and_scales(self, scenarios):
        config = ASAPConfig()
        for scenario in scenarios:
            system = ASAPSystem(scenario, config)
            _assert_close_sets_identical(
                system.prebuild_close_sets(workers=1),
                _reference_close_sets(scenario, config),
            )

    def test_parallel_prebuild_parity(self, scenarios):
        config = ASAPConfig()
        scenario = scenarios[0]
        system = ASAPSystem(scenario, config)
        _assert_close_sets_identical(
            system.prebuild_close_sets(workers=2),
            _reference_close_sets(scenario, config),
        )


class TestObservabilityParity:
    """Tracing on: flat and reference paths write byte-identical
    traces.jsonl and count the same matrix columns."""

    def _trace_bytes(self, scenario, assemble, tmp_path, name):
        obs_dir = tmp_path / name
        with obs.observe(obs_dir=obs_dir, trace=True) as run:
            assemble(scenario.latency, scenario.clusters)
            system = ASAPSystem(scenario, ASAPConfig())
            system.prebuild_close_sets(workers=1)
            columns = run.registry.snapshot()["counters"].get("matrix.columns", 0)
        return (obs_dir / "traces.jsonl").read_bytes(), columns

    def test_traces_byte_identical(self, scenarios, tmp_path, monkeypatch):
        scenario = scenarios[0]
        count = scenario.matrices.count  # warm: neither side re-assembles it
        flat_trace, flat_cols = self._trace_bytes(
            scenario, compute_delegate_matrices, tmp_path, "flat"
        )
        built = _use_reference_builder(monkeypatch)
        ref_trace, ref_cols = self._trace_bytes(
            scenario, reference_delegate_matrices, tmp_path, "reference"
        )
        assert built
        assert flat_trace == ref_trace
        assert flat_trace  # non-empty: the spans were actually emitted
        assert flat_cols == ref_cols == count


class TestChaosParity:
    """Faults enabled: a chaos run is replay-identical under both paths."""

    @pytest.mark.parametrize("seed", [0, 4])
    def test_chaos_run_identical(self, scenarios, monkeypatch, seed):
        scenario = scenarios[0]
        fault_config = FaultScheduleConfig(
            duration_ms=20_000.0,
            surrogate_crash_rate_per_min=6.0,
            host_churn_rate_per_min=6.0,
            message_loss_rate=0.05,
            seed=seed,
        )

        def replay():
            return run_chaos(scenario, fault_config, sessions=12, joins=12, seed=seed)

        flat = replay()
        _use_reference_builder(monkeypatch)
        reference = replay()
        assert flat.to_dict() == reference.to_dict()
        assert flat.fault_log == reference.fault_log
