"""Tests for the call runtime and the packet-level pieces it runs on:
streams through the media channel, the playout buffer's depth, path
diversity and FEC recovery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.media.channel import Channel
from repro.media.frames import FrameSource, ReceivedFrame, ReceivedTrace, SentFrame
from repro.media.jitterbuf import AdaptiveJitterBuffer, JitterBufferConfig
from repro.media.score import score_trace
from repro.media.session import PathWindow, run_media_session
from repro.voip.call import (
    CallConfig,
    PathQualityProcess,
    VoiceCall,
    _merge_diverse,
    _recover_fec,
    call_paths_from_selection,
)
from repro.voip.codecs import G729A_VAD


def _stream(one_way_ms, loss, duration_ms=10_000.0, jitter_ms=6.0, seed=0):
    """One direction of a voice stream through the media channel."""
    channel = Channel(np.random.default_rng(seed), jitter_mean_ms=jitter_ms)
    frames = FrameSource(G729A_VAD).frames_until(duration_ms)
    return [channel.send(f, 2.0 * one_way_ms, loss) for f in frames]


def _trace(received):
    return ReceivedTrace(call_id=1, frames=tuple(received))


class TestSimulateStream:
    def test_packet_count_and_spacing(self):
        arrivals = _stream(50.0, 0.0, duration_ms=1000.0)
        interval = G729A_VAD.packet_interval_ms()
        assert len(arrivals) == int(1000.0 / interval)
        gaps = {round(b.sent_ms - a.sent_ms, 6) for a, b in zip(arrivals, arrivals[1:])}
        assert gaps == {interval}

    def test_zero_loss_all_arrive(self):
        arrivals = _stream(50.0, 0.0, duration_ms=2000.0)
        assert all(not p.lost for p in arrivals)
        for p in arrivals:
            assert p.arrival_ms >= p.sent_ms + 50.0

    def test_full_loss(self):
        arrivals = _stream(50.0, 1.0, duration_ms=1000.0)
        assert all(p.lost for p in arrivals)

    def test_loss_rate_statistics(self):
        arrivals = _stream(50.0, 0.2, duration_ms=60_000.0, seed=3)
        observed = np.mean([p.lost for p in arrivals])
        assert 0.15 < observed < 0.25

    def test_deterministic_by_seed(self):
        assert _stream(50.0, 0.1, seed=5) == _stream(50.0, 0.1, seed=5)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            PathWindow(0.0, -1.0, 0.0)
        with pytest.raises(ConfigurationError):
            PathWindow(0.0, 10.0, 1.5)
        with pytest.raises(ConfigurationError):
            run_media_session(1, 0.0, [PathWindow(0.0, 100.0, 0.0)])


class TestDiversity:
    def test_earlier_copy_wins(self):
        fast = _stream(30.0, 0.0, duration_ms=1000.0, jitter_ms=0.0)
        slow = _stream(90.0, 0.0, duration_ms=1000.0, jitter_ms=0.0)
        merged = _merge_diverse(slow, fast)
        for p in merged:
            assert p.arrival_ms == pytest.approx(p.sent_ms + 30.0)

    def test_survives_single_path_loss(self):
        lossy = _stream(30.0, 1.0, duration_ms=1000.0)
        clean = _stream(90.0, 0.0, duration_ms=1000.0)
        merged = _merge_diverse(lossy, clean)
        assert all(not p.lost for p in merged)

    def test_lost_on_both(self):
        a = _stream(30.0, 1.0, duration_ms=500.0)
        b = _stream(60.0, 1.0, duration_ms=500.0)
        merged = _merge_diverse(a, b)
        assert all(p.lost for p in merged)

    def test_mismatched_streams_rejected(self):
        a = _stream(30.0, 0.0, duration_ms=500.0)
        b = _stream(30.0, 0.0, duration_ms=1000.0)
        with pytest.raises(ConfigurationError):
            _merge_diverse(a, b)

    @given(st.floats(0.0, 0.6), st.floats(0.0, 0.6))
    @settings(max_examples=30, deadline=None)
    def test_diversity_never_increases_loss(self, loss_a, loss_b):
        a = _stream(40.0, loss_a, duration_ms=5000.0, seed=1)
        b = _stream(60.0, loss_b, duration_ms=5000.0, seed=2)
        merged = _merge_diverse(a, b)
        merged_loss = np.mean([p.lost for p in merged])
        assert merged_loss <= min(
            np.mean([p.lost for p in a]), np.mean([p.lost for p in b])
        ) + 1e-12


class TestBufferDepth:
    """The adaptive buffer's depth floor trades delay against late loss."""

    def _play(self, received, min_depth_ms=20.0):
        return AdaptiveJitterBuffer(JitterBufferConfig(min_depth_ms=min_depth_ms)).play(
            _trace(received)
        )

    def test_deep_buffer_plays_everything(self):
        result = self._play(_stream(50.0, 0.0, duration_ms=2000.0), min_depth_ms=150.0)
        assert result.late == 0
        assert result.played == len(result.frames)

    def test_shallow_buffer_discards_late(self):
        result = self._play(_stream(50.0, 0.1, jitter_ms=30.0), min_depth_ms=0.0)
        assert result.late > 0
        assert result.played + result.late + result.lost == len(result.frames)

    def test_effective_loss_combines(self):
        received = _stream(50.0, 0.1, jitter_ms=20.0, seed=2)
        result = self._play(received, min_depth_ms=0.0)
        network_loss = np.mean([p.lost for p in received])
        # Network loss plus late loss.
        assert (result.late + result.lost) / len(result.frames) > network_loss

    def test_all_lost_stream(self):
        received = _stream(50.0, 1.0, duration_ms=500.0)
        assert self._play(received).played == 0
        assert score_trace(_trace(received)).mos == 1.0

    def test_accounting_sums(self):
        received = _stream(50.0, 0.1, jitter_ms=10.0)
        result = AdaptiveJitterBuffer().play(_trace(received))
        assert result.played + result.late + result.lost == len(result.frames)

    def test_all_lost(self):
        received = _stream(50.0, 1.0, duration_ms=1000.0, jitter_ms=5.0)
        result = AdaptiveJitterBuffer().play(_trace(received))
        assert result.played == 0
        assert result.lost == len(result.frames)
        # Nothing played, so every scoring window is an outage.
        assert all(w.is_outage for w in score_trace(_trace(received)).windows)

    def test_depth_delay_tradeoff(self):
        # A deeper buffer lowers late loss but raises the playout depth.
        received = _stream(60.0, 0.0, jitter_ms=25.0, seed=4)
        shallow = self._play(received, min_depth_ms=5.0)
        deep = self._play(received, min_depth_ms=120.0)
        assert deep.late < shallow.late
        assert deep.mean_depth_ms > shallow.mean_depth_ms

    def test_high_jitter_deepens(self):
        calm = self._play(_stream(60.0, 0.0, duration_ms=20_000.0, jitter_ms=1.0, seed=6))
        jittery = self._play(
            _stream(60.0, 0.0, duration_ms=20_000.0, jitter_ms=40.0, seed=6)
        )
        assert jittery.mean_depth_ms > calm.mean_depth_ms

    def test_measured_mos_reasonable(self):
        received = _stream(40.0, 0.002, duration_ms=5000.0, seed=5)
        assert 3.5 < score_trace(_trace(received)).mos <= 4.5


class TestPathQualityProcess:
    def test_clear_state_matches_base(self):
        process = PathQualityProcess(50.0, 0.01, congest_probability=0.0, seed=1)
        for _ in range(10):
            state = process.step()
            assert state.one_way_delay_ms == 50.0
            assert state.loss_rate == pytest.approx(0.01)

    def test_congestion_raises_delay_and_loss(self):
        process = PathQualityProcess(
            50.0, 0.01, congest_probability=1.0, recover_probability=0.0, seed=1
        )
        state = process.step()
        assert state.one_way_delay_ms > 50.0
        assert state.loss_rate > 0.01

    def test_invalid_probabilities(self):
        with pytest.raises(ConfigurationError):
            PathQualityProcess(50.0, 0.0, congest_probability=1.5)


class TestVoiceCall:
    def _paths(self, n=3, congest=0.0, seed=0):
        return [
            PathQualityProcess(
                60.0 + 15.0 * i, 0.003, congest_probability=congest, seed=seed + i
            )
            for i in range(n)
        ]

    def test_stable_call_no_switches(self):
        call = VoiceCall(self._paths(congest=0.0), CallConfig(windows=10, seed=1))
        outcome = call.run()
        assert outcome.switches == 0
        assert outcome.mean_mos > 3.6
        assert outcome.satisfied_fraction == 1.0

    def test_needs_at_least_one_path(self):
        with pytest.raises(ConfigurationError):
            VoiceCall([], CallConfig())

    def test_switching_recovers_from_congestion(self):
        # Path 0 is permanently congested from window 0; switching must
        # move off it and recover quality.
        bad = PathQualityProcess(
            60.0, 0.003, congest_probability=1.0, recover_probability=0.0,
            congestion_delay_ms=300.0, congestion_loss=0.15, seed=1,
        )
        good = PathQualityProcess(75.0, 0.003, congest_probability=0.0, seed=2)
        with_switching = VoiceCall(
            [bad, good], CallConfig(windows=12, use_switching=True, seed=3)
        ).run()
        bad2 = PathQualityProcess(
            60.0, 0.003, congest_probability=1.0, recover_probability=0.0,
            congestion_delay_ms=300.0, congestion_loss=0.15, seed=1,
        )
        good2 = PathQualityProcess(75.0, 0.003, congest_probability=0.0, seed=2)
        without = VoiceCall(
            [bad2, good2], CallConfig(windows=12, use_switching=False, seed=3)
        ).run()
        assert with_switching.switches >= 1
        assert with_switching.mean_mos > without.mean_mos
        assert with_switching.windows[-1].active_path == 1

    def test_diversity_improves_lossy_call(self):
        def paths(seed):
            return [
                PathQualityProcess(60.0, 0.08, congest_probability=0.0, seed=seed),
                PathQualityProcess(70.0, 0.08, congest_probability=0.0, seed=seed + 1),
            ]

        plain = VoiceCall(
            paths(1), CallConfig(windows=8, use_switching=False, use_diversity=False, seed=5)
        ).run()
        diverse = VoiceCall(
            paths(1), CallConfig(windows=8, use_switching=False, use_diversity=True, seed=5)
        ).run()
        assert diverse.mean_mos > plain.mean_mos
        assert all(w.effective_loss <= 0.06 for w in diverse.windows)

    def test_windows_recorded(self):
        outcome = VoiceCall(self._paths(), CallConfig(windows=7, seed=2)).run()
        assert [w.window for w in outcome.windows] == list(range(7))


class TestCallPathsFromSelection:
    def test_builds_processes_from_selection(self):
        from repro.scenario import tiny_scenario
        from repro.core import ASAPSystem, ASAPConfig
        from repro.core.config import derive_k_hops

        scenario = tiny_scenario(seed=11)
        system = ASAPSystem(scenario, ASAPConfig(k_hops=derive_k_hops(scenario.matrices)))
        m = scenario.matrices
        latent = np.argwhere(m.rtt_ms > 300)
        if latent.size == 0:
            pytest.skip("no latent pair")
        a, b = (int(x) for x in latent[0])
        clusters = scenario.clusters.all_clusters()
        session = system.call(clusters[a].hosts[0].ip, clusters[b].hosts[0].ip)
        if session.selection is None or not session.selection.one_hop:
            pytest.skip("no one-hop candidates")
        paths = call_paths_from_selection(session.selection, m, a, b)
        assert 1 <= len(paths) <= 4
        outcome = VoiceCall(paths, CallConfig(windows=5, seed=1)).run()
        assert outcome.mean_mos > 1.0


class TestFECRecovery:
    def _voice(self, loss, duration=10_000.0, seed=9):
        return _stream(50.0, loss, duration_ms=duration, jitter_ms=5.0, seed=seed)

    def _parity(self, voice, loss=0.0, seed=9):
        parity = [
            SentFrame(g // 4, voice[min(g + 4, len(voice)) - 1].sent_ms, G729A_VAD)
            for g in range(0, len(voice), 4)
        ]
        channel = Channel(np.random.default_rng(seed + 1), jitter_mean_ms=5.0)
        return [channel.send(f, 140.0, loss) for f in parity]

    def test_recovers_isolated_losses(self):
        voice = self._voice(loss=0.05)
        recovered = _recover_fec(voice, self._parity(voice), group_size=4)
        before = sum(1 for p in voice if p.lost)
        after = sum(1 for p in recovered if p.lost)
        assert before > 0
        assert after < before

    def test_cannot_recover_double_loss_in_group(self):
        voice = [
            ReceivedFrame(0, 0.0, None, "G.729A+VAD"),
            ReceivedFrame(1, 20.0, None, "G.729A+VAD"),
            ReceivedFrame(2, 40.0, 90.0, "G.729A+VAD"),
            ReceivedFrame(3, 60.0, 110.0, "G.729A+VAD"),
        ]
        parity = [ReceivedFrame(0, 60.0, 130.0, "G.729A+VAD")]
        recovered = _recover_fec(voice, parity, group_size=4)
        assert sum(1 for p in recovered if p.lost) == 2

    def test_recovery_waits_for_all_pieces(self):
        voice = [
            ReceivedFrame(0, 0.0, None, "G.729A+VAD"),
            ReceivedFrame(1, 20.0, 70.0, "G.729A+VAD"),
            ReceivedFrame(2, 40.0, 95.0, "G.729A+VAD"),
            ReceivedFrame(3, 60.0, 200.0, "G.729A+VAD"),
        ]
        parity = [ReceivedFrame(0, 60.0, 130.0, "G.729A+VAD")]
        recovered = _recover_fec(voice, parity, group_size=4)
        assert recovered[0].arrival_ms == 200.0  # last surviving piece
        # ... and the parity when it is the last piece to arrive.
        parity = [ReceivedFrame(0, 60.0, 260.0, "G.729A+VAD")]
        assert _recover_fec(voice, parity, group_size=4)[0].arrival_ms == 260.0

    def test_lost_parity_recovers_nothing(self):
        voice = [
            ReceivedFrame(0, 0.0, None, "G.729A+VAD"),
            ReceivedFrame(1, 20.0, 60.0, "G.729A+VAD"),
        ]
        parity = [ReceivedFrame(0, 20.0, None, "G.729A+VAD")]
        recovered = _recover_fec(voice, parity, group_size=2)
        assert recovered[0].lost

    def test_parity_count_validated(self):
        voice = self._voice(loss=0.0, duration=1000.0)
        with pytest.raises(ConfigurationError):
            _recover_fec(voice, [], group_size=4)

    def test_fec_improves_playout_mos(self):
        voice = self._voice(loss=0.08, duration=30_000.0)
        recovered = _recover_fec(voice, self._parity(voice, loss=0.08), group_size=4)
        assert score_trace(_trace(recovered)).mos > score_trace(_trace(voice)).mos


class TestVoiceCallFEC:
    def _lossy_paths(self, seed=1):
        return [
            PathQualityProcess(60.0, 0.08, congest_probability=0.0, seed=seed),
            PathQualityProcess(70.0, 0.08, congest_probability=0.0, seed=seed + 1),
        ]

    def test_fec_improves_lossy_call(self):
        plain = VoiceCall(
            self._lossy_paths(),
            CallConfig(windows=8, use_switching=False, seed=5),
        ).run()
        fec = VoiceCall(
            self._lossy_paths(),
            CallConfig(windows=8, use_switching=False, use_fec=True, seed=5),
        ).run()
        assert fec.mean_mos > plain.mean_mos

    def test_fec_cheaper_than_diversity_but_weaker(self):
        # Full duplication recovers more than 1-per-group FEC.
        fec = VoiceCall(
            self._lossy_paths(),
            CallConfig(windows=8, use_switching=False, use_fec=True, seed=5),
        ).run()
        diversity = VoiceCall(
            self._lossy_paths(),
            CallConfig(windows=8, use_switching=False, use_diversity=True, seed=5),
        ).run()
        assert diversity.mean_mos >= fec.mean_mos - 0.05

    def test_fec_and_diversity_exclusive(self):
        with pytest.raises(ConfigurationError):
            CallConfig(use_fec=True, use_diversity=True)

    def test_fec_group_size_validated(self):
        with pytest.raises(ConfigurationError):
            CallConfig(use_fec=True, fec_group_size=1)

    def test_single_path_fec_noop(self):
        single = [PathQualityProcess(60.0, 0.05, congest_probability=0.0, seed=2)]
        outcome = VoiceCall(
            single, CallConfig(windows=4, use_switching=False, use_fec=True, seed=2)
        ).run()
        assert len(outcome.windows) == 4
