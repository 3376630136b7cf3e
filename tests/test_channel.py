import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ofdm_bitload import ChannelConfig, OfdmConfig, draw_realization
from ofdm_bitload.channel import tap_variances


def _stream(seed):
    return np.random.default_rng(seed)


class TestPdpConstant:
    def test_single_tap_is_unity(self):
        assert tap_variances(ChannelConfig(num_taps=1, decay_factor=3.0))[0] == 1.0

    def test_five_taps_decay_fifth(self):
        # 1 / sum(exp(-n/5), n=0..4), evaluated independently at high precision
        got = tap_variances(ChannelConfig(num_taps=5, decay_factor=0.2))[0]
        assert got == pytest.approx(0.286763726302377, rel=1e-12)

    def test_second_tap_vanishes_at_large_decay(self):
        got = tap_variances(ChannelConfig(num_taps=2, decay_factor=80.0))[0]
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_total_tap_power_is_one(self):
        for taps, decay in [(1, 1.0), (5, 0.2), (9, 0.7)]:
            assert tap_variances(ChannelConfig(num_taps=taps, decay_factor=decay)).sum() \
                == pytest.approx(1.0)


class TestDrawRealization:
    def test_deterministic_given_seed(self, base_cfg):
        a = draw_realization(base_cfg.channel, base_cfg.ofdm, _stream(7))
        b = draw_realization(base_cfg.channel, base_cfg.ofdm, _stream(7))
        np.testing.assert_array_equal(a.freq_response, b.freq_response)

    def test_distinct_seeds_differ(self, base_cfg):
        a = draw_realization(base_cfg.channel, base_cfg.ofdm, _stream(1))
        b = draw_realization(base_cfg.channel, base_cfg.ofdm, _stream(2))
        assert not np.array_equal(a.freq_response, b.freq_response)

    def test_single_tap_is_flat(self, base_cfg):
        flat = ChannelConfig(num_taps=1, decay_factor=0.2)
        real = draw_realization(flat, base_cfg.ofdm, _stream(0))
        np.testing.assert_allclose(real.gains_sq, real.gains_sq[0])

    def test_gains_sq_matches_freq_response(self, base_cfg, rng):
        real = draw_realization(base_cfg.channel, base_cfg.ofdm, rng)
        np.testing.assert_array_equal(real.gains_sq, np.abs(real.freq_response) ** 2)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_parseval(self, seed):
        ofdm = OfdmConfig()
        channel = ChannelConfig()
        real = draw_realization(channel, ofdm, _stream(seed))
        # the response is the DFT of num_taps taps zero-padded to N samples
        taps = np.fft.ifft(real.freq_response)
        np.testing.assert_allclose(taps[channel.num_taps:], 0.0, atol=1e-12)
        lhs = real.gains_sq.sum()
        rhs = ofdm.num_subcarriers * (np.abs(taps) ** 2).sum()
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestStatistics:
    def test_tap_variances_within_three_stderr(self, base_cfg):
        n_draws = 20_000
        rng = _stream(99)
        var = tap_variances(base_cfg.channel)
        std = np.sqrt(var / 2.0)
        taps = std * (rng.standard_normal((n_draws, base_cfg.channel.num_taps))
                      + 1j * rng.standard_normal((n_draws, base_cfg.channel.num_taps)))
        sample_var = (np.abs(taps) ** 2).mean(axis=0)
        # |h|^2 is exponential with mean var, so stderr of the mean is var/sqrt(n)
        stderr = var / np.sqrt(n_draws)
        np.testing.assert_array_less(np.abs(sample_var - var), 3 * stderr)

    def test_mean_subcarrier_gain_near_unity(self, base_cfg):
        rng = _stream(5)
        acc = np.zeros(base_cfg.ofdm.num_subcarriers)
        n_draws = 4000
        for _ in range(n_draws):
            acc += draw_realization(base_cfg.channel, base_cfg.ofdm, rng).gains_sq
        mean_gain = acc / n_draws
        assert mean_gain.min() > 0.9
        assert mean_gain.max() < 1.1
