"""Tests for the unified experiment engine and its streaming substrate.

The acceptance contract of the engine is *bit-identical results* across
substrates: a streamed run (columns assembled on demand, spilled to a
chunked store, dense N×N never materialized) must reproduce the legacy
dense run record for record.  These tests pin that contract at the tiny
tier, plus the satellite surfaces that ship with the engine: scale
presets (and their deprecation shims), the one canonical
``RelayPolicy.evaluate_sessions`` signature, the resumable column
store, and the BENCH_e2e.json schema.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.baselines import BaselineConfig
from repro.baselines.base import RelayPolicy
from repro.errors import ConfigurationError
from repro.evaluation import generate_workload
from repro.evaluation.engine import (
    E2E_BENCH_SCHEMA_VERSION,
    STREAM_SCALES,
    ExperimentConfig,
    main as engine_main,
    run_experiment,
    validate_e2e_document,
)
from repro.evaluation.policies import METHOD_NAMES, default_policies
from repro.scenario import (
    SCALES,
    ScenarioConfig,
    tiny_scenario,
)
from repro.storage.columns import ColumnStore
from repro.worldarrays.virtual import VirtualMatrices

EXPERIMENT_KWARGS = dict(
    scale="tiny", seed=3, session_count=400, latent_target=10, max_latent_sessions=10
)


# -- config and presets --------------------------------------------------------


class TestExperimentConfig:
    def test_rejects_unknown_scale(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(scale="galactic")

    def test_rejects_unknown_method(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(methods=("OPT", "TELEPATHY"))

    def test_rejects_empty_workload(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(session_count=0)

    def test_rejects_bad_chunk(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(chunk_columns=0)

    def test_substrate_follows_tier(self):
        for scale in SCALES:
            assert ExperimentConfig(scale=scale).streamed == (scale in STREAM_SCALES)

    def test_substrate_override_wins(self):
        assert ExperimentConfig(scale="tiny", stream=True).streamed
        assert not ExperimentConfig(scale="100k", stream=False).streamed


class TestScalePresets:
    def test_tier_table_is_complete(self):
        assert SCALES == ("tiny", "small", "10k", "evaluation", "100k", "1m")
        for scale in SCALES:
            config = ScenarioConfig.preset(scale, seed=5)
            assert config.topology.seed == 5

    def test_unknown_scale_raises(self):
        with pytest.raises(ValueError):
            ScenarioConfig.preset("galactic")

    def test_population_grows_with_tier(self):
        hosts = [ScenarioConfig.preset(s).population.host_count for s in SCALES]
        assert hosts == sorted(hosts)
        assert hosts[-1] == 1_000_000


# -- streaming parity (the engine's core contract) -----------------------------


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    spill = tmp_path_factory.mktemp("spill")
    dense = run_experiment(stream=False, **EXPERIMENT_KWARGS)
    streamed = run_experiment(stream=True, spill_dir=spill, **EXPERIMENT_KWARGS)
    return dense, streamed, spill


class TestStreamingParity:
    def test_same_latent_sessions(self, reports):
        dense, streamed, _ = reports
        assert dense.result.latent_sessions == streamed.result.latent_sessions

    def test_records_bit_identical(self, reports):
        dense, streamed, _ = reports
        assert set(dense.result.records) == set(streamed.result.records)
        for method, records in dense.result.records.items():
            assert records == streamed.result.records[method], method

    def test_summaries_identical(self, reports):
        dense, streamed, _ = reports
        assert dense.result.summaries() == streamed.result.summaries()

    def test_same_derived_k(self, reports):
        dense, streamed, _ = reports
        assert dense.derived_k_hops == streamed.derived_k_hops

    def test_spill_accounting(self, reports):
        dense, streamed, spill = reports
        assert dense.spill is None
        assert streamed.spill is not None
        assert streamed.spill["ephemeral"] is False
        assert streamed.spill["chunks"] == streamed.spill["chunk_total"]
        assert streamed.spill["bytes"] > 0
        assert list(spill.glob("*.npy"))

    def test_stage_timings_cover_pipeline(self, reports):
        for report in reports[:2]:
            assert set(report.stage_seconds) == {
                "build",
                "sweep",
                "workload",
                "evaluate",
                "reduce",
            }
            assert all(v >= 0.0 for v in report.stage_seconds.values())

    def test_per_policy_timings_present(self, reports):
        dense, streamed, _ = reports
        for report in (dense, streamed):
            assert set(report.policy_seconds) == set(METHOD_NAMES)

    def test_resume_reuses_spilled_chunks(self, reports):
        _, first, spill = reports
        chunks = sorted(spill.glob("*.npy"))
        assert chunks
        stamps = {p.name: p.stat().st_mtime_ns for p in chunks}
        again = run_experiment(stream=True, spill_dir=spill, **EXPERIMENT_KWARGS)
        assert again.result.records == first.result.records
        # Every chunk adopted, none rewritten.
        assert {p.name: p.stat().st_mtime_ns for p in sorted(spill.glob("*.npy"))} == stamps


# -- the column store ----------------------------------------------------------


class TestColumnStore:
    def _store(self, tmp_path, n=10, chunk=4, key="k1"):
        return ColumnStore(tmp_path, key=key, n=n, chunk=chunk)

    def test_geometry(self, tmp_path):
        store = self._store(tmp_path)
        assert store.starts() == [0, 4, 8]
        assert list(store.columns_of(8)) == [8, 9]

    def test_round_trip_bit_exact(self, tmp_path):
        store = self._store(tmp_path)
        rng = np.random.default_rng(0)
        rtt = rng.uniform(1.0, 500.0, (10, 4))
        rtt[0, 0] = np.inf
        loss = rng.uniform(0.0, 1.0, (10, 4))
        hops = rng.integers(-1, 9, (10, 4)).astype(np.int64)
        store.save(0, rtt, loss, hops)
        got_rtt, got_loss, got_hops = store.load(0)
        assert np.array_equal(got_rtt, rtt)
        assert np.array_equal(got_loss, loss)
        assert np.array_equal(got_hops, hops)

    def test_rejects_misshapen_chunk(self, tmp_path):
        store = self._store(tmp_path)
        block = np.zeros((10, 3))
        with pytest.raises(ValueError):
            store.save(0, block, block, block.astype(np.int64))

    def test_progress_counters(self, tmp_path):
        store = self._store(tmp_path)
        assert store.chunk_count() == (0, 3)
        assert not store.complete()
        wide = np.zeros((10, 4))
        narrow = np.zeros((10, 2))
        store.save(0, wide, wide, wide.astype(np.int64))
        store.save(8, narrow, narrow, narrow.astype(np.int64))
        assert store.chunk_count() == (2, 3)
        store.save(4, wide, wide, wide.astype(np.int64))
        assert store.complete()

    def test_foreign_store_is_cleared(self, tmp_path):
        store = self._store(tmp_path)
        block = np.zeros((10, 4))
        store.save(0, block, block, block.astype(np.int64))
        # Same directory, different identity: chunks must not survive.
        other = self._store(tmp_path, key="k2")
        assert other.chunk_count() == (0, 3)
        assert not list(tmp_path.glob("*_00000000.npy"))

    def test_matching_store_is_adopted(self, tmp_path):
        store = self._store(tmp_path)
        block = np.ones((10, 4))
        store.save(0, block, block, block.astype(np.int64))
        adopted = self._store(tmp_path)
        assert adopted.has(0)
        assert np.array_equal(adopted.load(0)[0], block)


class TestVirtualSpillRoundTrip:
    def test_spilled_blocks_match_computed(self, tmp_path):
        scenario = tiny_scenario(seed=6)
        clusters = scenario.clusters.all_clusters()
        fresh = VirtualMatrices(scenario.latency, clusters, chunk_columns=16)
        store = ColumnStore(tmp_path, key="parity", n=len(clusters), chunk=16)
        spilled = VirtualMatrices(
            scenario.latency, clusters, chunk_columns=16, store=store
        )
        spilled.ensure_spilled()
        assert store.complete()
        # Reads served from the mmap'd store are bit-identical to the
        # formula path (np.save/np.load round-trips exactly).
        for (cols_a, rtt_a, loss_a, hops_a), (cols_b, rtt_b, loss_b, hops_b) in zip(
            fresh.iter_column_blocks(), spilled.iter_column_blocks()
        ):
            assert np.array_equal(cols_a, cols_b)
            assert np.array_equal(rtt_a, rtt_b)
            assert np.array_equal(loss_a, loss_b)
            assert np.array_equal(hops_a, hops_b)


# -- one canonical policy signature --------------------------------------------


class TestRelayPolicyConformance:
    @pytest.fixture(scope="class")
    def scenario(self):
        return tiny_scenario(seed=6)

    @pytest.fixture(scope="class")
    def policies(self, scenario):
        return default_policies(scenario, baseline_config=BaselineConfig(seed=0))

    def test_full_roster_satisfies_protocol(self, policies):
        assert [p.name for p in policies] == list(METHOD_NAMES)
        for policy in policies:
            assert isinstance(policy, RelayPolicy)

    def test_session_objects_and_tuples_agree(self, scenario, policies):
        workload = generate_workload(scenario, 300, seed=1, latent_target=5)
        latent = workload.latent()[:5]
        assert latent
        world = scenario.matrix_view()
        pairs = [(s.caller_cluster, s.callee_cluster) for s in latent]
        ids = [s.session_id for s in latent]
        for policy in policies:
            from_sessions = policy.evaluate_sessions(world, latent)
            from_tuples = policy.evaluate_sessions(world, pairs, session_ids=ids)
            assert from_sessions == from_tuples, policy.name

    def test_columns_keyword_rejected(self, scenario, policies):
        # One signature for every policy: ``session_ids`` is the only
        # keyword ``evaluate_sessions`` takes.
        world = scenario.matrix_view()
        for policy in policies:
            with pytest.raises(TypeError):
                policy.evaluate_sessions(world, [(0, 1)], columns=None)

    def test_mismatched_ids_rejected(self, scenario, policies):
        world = scenario.matrix_view()
        with pytest.raises(ConfigurationError):
            policies[0].evaluate_sessions(world, [(0, 1)], session_ids=[1, 2])


# -- BENCH_e2e.json schema -----------------------------------------------------


class TestBenchDocument:
    def test_report_document_validates(self, reports):
        for report in reports[:2]:
            document = report.bench_document()
            assert validate_e2e_document(document) == []
            assert document["schema"] == E2E_BENCH_SCHEMA_VERSION

    def test_document_is_json_clean(self, reports):
        dense, _, _ = reports
        encoded = json.dumps(dense.bench_document(), sort_keys=True)
        assert "Infinity" not in encoded and "NaN" not in encoded

    def test_write_and_cli_check(self, reports, tmp_path):
        _, streamed, _ = reports
        path = streamed.write_bench(tmp_path / "BENCH_e2e.json")
        assert engine_main([str(path), "--check"]) == 0

    def test_rejects_broken_documents(self, reports, capsys):
        dense, _, _ = reports
        good = dense.bench_document()

        wrong_schema = dict(good, schema=99)
        assert any("schema" in p for p in validate_e2e_document(wrong_schema))

        no_stage = dict(good, stage_seconds={"build": 1.0})
        assert any("sweep" in p for p in validate_e2e_document(no_stage))

        no_methods = dict(good, methods={})
        assert any("methods" in p for p in validate_e2e_document(no_methods))

        grid = dict(good["mos_cdf"])
        grid["OPT"] = grid["OPT"][:-1]
        bad_grid = dict(good, mos_cdf=grid)
        assert any("OPT" in p for p in validate_e2e_document(bad_grid))

        streamed_no_spill = dict(good, streamed=True, spill=None)
        assert any("spill" in p for p in validate_e2e_document(streamed_no_spill))

    def test_cli_check_fails_on_invalid(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 0}), encoding="utf-8")
        assert engine_main([str(bad), "--check"]) == 1
        assert engine_main([str(bad)]) == 0  # report-only mode
