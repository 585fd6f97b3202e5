"""The media plane's Gilbert–Elliott bursty-loss channel
(:class:`repro.media.channel.Channel`) and the path-diversity merge of
:mod:`repro.voip.call`."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.media.channel import Channel
from repro.media.frames import FrameSource, ReceivedFrame
from repro.media.session import MediaPlaneConfig
from repro.voip.call import _merge_diverse
from repro.voip.codecs import G729A_VAD


def _lost_flags(channel, count, loss=0.10, rtt_ms=80.0):
    source = FrameSource(G729A_VAD)
    return np.array(
        [channel.send(source.next_frame(), rtt_ms, loss).lost for _ in range(count)]
    )


def _mean_run(lost):
    runs = []
    current = 0
    for flag in lost:
        if flag:
            current += 1
        elif current:
            runs.append(current)
            current = 0
    if current:
        runs.append(current)
    return np.mean(runs)


class TestSampleGilbertElliott:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MediaPlaneConfig(burst_frames=0.5)
        with pytest.raises(ConfigurationError):
            MediaPlaneConfig(jitter_mean_ms=-1.0)

    def test_deterministic_per_seed(self):
        a = _lost_flags(Channel(np.random.default_rng(7), 6.0, 4.0), 2000)
        b = _lost_flags(Channel(np.random.default_rng(7), 6.0, 4.0), 2000)
        assert np.array_equal(a, b)
        c = _lost_flags(Channel(np.random.default_rng(8), 6.0, 4.0), 2000)
        assert not np.array_equal(a, c)

    def test_matches_stationary_loss(self):
        channel = Channel(np.random.default_rng(0), 6.0, 4.0)
        lost = _lost_flags(channel, 50_000)
        assert lost.mean() == pytest.approx(0.10, abs=0.02)

    def test_losses_are_bursty(self):
        """Mean run length of consecutive losses tracks the configured
        burst length — the point of the two-state channel; i.i.d. loss
        at the same rate gives runs of about 1/(1 - 0.1) frames."""
        bursty = _lost_flags(Channel(np.random.default_rng(0), 6.0, 4.0), 50_000)
        iid = _lost_flags(Channel(np.random.default_rng(0), 6.0), 50_000)
        assert _mean_run(bursty) == pytest.approx(4.0, rel=0.25)
        assert _mean_run(iid) == pytest.approx(1.1, abs=0.1)

    def test_consumes_fixed_draw_budget(self):
        """Exactly two uniforms per frame, regardless of channel state —
        the determinism contract downstream code relies on."""
        rng = np.random.default_rng(3)
        _lost_flags(Channel(rng, 0.0, 4.0), 100)
        probe_after = np.random.default_rng(3)
        probe_after.random(200)  # the 2·count draws
        assert rng.random() == probe_after.random()


class TestChannelDraws:
    def test_iid_draw_order(self):
        """One uniform per frame, then one exponential per surviving
        frame, in frame order."""
        source = FrameSource(G729A_VAD)
        frames = [source.next_frame() for _ in range(100)]
        channel = Channel(np.random.default_rng(5), 6.0)
        received = [channel.send(f, 80.0, 0.1) for f in frames]
        replica = np.random.default_rng(5)
        for frame, got in zip(frames, received):
            if replica.random() < 0.1:
                assert got.lost
            else:
                expect = frame.sent_ms + 40.0 + replica.exponential(6.0)
                assert got.arrival_ms == pytest.approx(expect, abs=1e-3)

    def test_gilbert_mode_deterministic_and_bursty(self):
        a = _lost_flags(Channel(np.random.default_rng(2), 6.0, 6.0), 3000, 0.30)
        b = _lost_flags(Channel(np.random.default_rng(2), 6.0, 6.0), 3000, 0.30)
        assert np.array_equal(a, b)
        assert a.mean() == pytest.approx(0.30, abs=0.05)


class TestMergeDiverseArrivals:
    def test_empty_streams(self):
        assert _merge_diverse([], []) == []

    def test_length_mismatch_rejected(self):
        one = [ReceivedFrame(0, 0.0, 50.0, "G.729A+VAD")]
        with pytest.raises(ConfigurationError):
            _merge_diverse(one, [])
        with pytest.raises(ConfigurationError):
            _merge_diverse([], one)

    def test_sequence_mismatch_rejected(self):
        a = [ReceivedFrame(0, 0.0, 50.0, "G.729A+VAD")]
        b = [ReceivedFrame(1, 0.0, 50.0, "G.729A+VAD")]
        with pytest.raises(ConfigurationError):
            _merge_diverse(a, b)

    def test_fully_disjoint_loss_merges_to_zero_loss(self):
        """Primary loses even frames, secondary loses odd ones: the
        merged stream hears everything."""
        primary = [
            ReceivedFrame(i, i * 20.0, None if i % 2 == 0 else i * 20.0 + 50.0, "G.729A+VAD")
            for i in range(20)
        ]
        secondary = [
            ReceivedFrame(i, i * 20.0, None if i % 2 == 1 else i * 20.0 + 70.0, "G.729A+VAD")
            for i in range(20)
        ]
        merged = _merge_diverse(primary, secondary)
        assert all(not f.lost for f in merged)
        # Each frame keeps its single surviving copy's timestamp.
        assert merged[0].arrival_ms == 70.0 and merged[1].arrival_ms == 70.0

    def test_duplicate_timestamps_keep_single_copy(self):
        """Both copies arriving at the same instant collapse to one
        arrival at that timestamp (min of equals)."""
        primary = [ReceivedFrame(0, 0.0, 55.0, "G.729A+VAD")]
        secondary = [ReceivedFrame(0, 0.0, 55.0, "G.729A+VAD")]
        assert _merge_diverse(primary, secondary) == primary

    def test_earlier_copy_wins(self):
        primary = [ReceivedFrame(0, 0.0, 90.0, "G.729A+VAD")]
        secondary = [ReceivedFrame(0, 0.0, 60.0, "G.729A+VAD")]
        assert _merge_diverse(primary, secondary)[0].arrival_ms == 60.0

    def test_both_lost_stays_lost(self):
        primary = [ReceivedFrame(0, 0.0, None, "G.729A+VAD")]
        secondary = [ReceivedFrame(0, 0.0, None, "G.729A+VAD")]
        assert _merge_diverse(primary, secondary)[0].lost
