import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ofdm_bitload import (DomainError, InterferenceProfile, RrcPulse, SystemConfig,
                          analytic_variance, calibrated_profile, mc_variance,
                          updated, validate)
from ofdm_bitload import interference
from ofdm_bitload.interference import profile_csv, synthesize_nb_blocks


@pytest.fixture(scope="module")
def base_cfg():
    return validate(SystemConfig())


@pytest.fixture(scope="module")
def unit_profile(base_cfg):
    return analytic_variance(base_cfg, 1.0)


@pytest.fixture(scope="module")
def pulse(base_cfg):
    return RrcPulse.from_config(base_cfg.nb)


class TestRrcPulse:
    def test_zero_beyond_span(self, pulse):
        edge = pulse.span_symbols * pulse.symbol_period_s
        assert pulse.eval(edge + 1e-9) == 0.0
        assert pulse.eval(-edge - 1e-9) == 0.0
        assert pulse.eval(10 * edge) == 0.0

    def test_even_symmetry(self, pulse):
        t = np.linspace(0, pulse.span_symbols * pulse.symbol_period_s, 500)
        np.testing.assert_allclose(pulse.eval(t), pulse.eval(-t))

    def test_peak_at_origin(self, pulse):
        t = np.linspace(-3, 3, 2001) * pulse.symbol_period_s
        assert pulse.eval(0.0) == pytest.approx(pulse.eval(t).max())
        assert pulse.eval(0.0) == pytest.approx(
            (1 - pulse.rolloff + 4 * pulse.rolloff / np.pi)
            / np.sqrt(pulse.symbol_period_s))

    def test_singularity_points_are_finite_and_continuous(self, pulse):
        ts = pulse.symbol_period_s / (4 * pulse.rolloff)
        at = pulse.eval(ts)
        assert np.isfinite(at)
        assert at == pytest.approx(pulse.eval(ts * (1 + 1e-7)), rel=1e-4)

    def test_unit_energy(self, pulse):
        big_t = pulse.symbol_period_s
        t = np.linspace(-pulse.span_symbols * big_t, pulse.span_symbols * big_t,
                        200_001)
        energy = np.trapezoid(pulse.eval(t) ** 2, t)
        assert energy == pytest.approx(1.0, abs=1e-3)

    def test_nyquist_autocorrelation(self, pulse):
        # r(tau) = integral p(t) p(t - tau) dt must be ~1 at tau = 0 and ~0 at
        # nonzero symbol multiples (the matched-filter zero-ISI property)
        big_t = pulse.symbol_period_s
        t = np.linspace(-(pulse.span_symbols + 4) * big_t,
                        (pulse.span_symbols + 4) * big_t, 400_001)
        p0 = pulse.eval(t)
        for m in range(1, 6):
            r_m = np.trapezoid(p0 * pulse.eval(t - m * big_t), t)
            assert abs(r_m) < 2e-3
        assert np.trapezoid(p0 * p0, t) == pytest.approx(1.0, abs=1e-3)

    @given(scale=st.floats(0.2, 5.0))
    @settings(max_examples=20, deadline=None)
    def test_dilation_covariance(self, scale, pulse):
        # p_T(t) = p_1(t/T)/sqrt(T): stretching the symbol period rescales
        # time and amplitude but changes nothing else
        other = RrcPulse(rolloff=pulse.rolloff,
                         symbol_period_s=scale * pulse.symbol_period_s,
                         span_symbols=pulse.span_symbols)
        t = np.linspace(-2, 2, 41) * pulse.symbol_period_s
        np.testing.assert_allclose(other.eval(scale * t),
                                   pulse.eval(t) / np.sqrt(scale), atol=1e-12)


def symbol_sum_variance(cfg, sigma_b2, num_delays):
    """Per-bin variance summed symbol by symbol over one block.

    For each delay xi on the uniform grid (i + 1/2) T / num_delays, forms the
    samples p(n T_s - l T - xi) of every interferer symbol l that reaches
    the block, applies the carrier phase, and adds up |DFT|^2 over l; the
    average over the delays replaces the expectation over xi.
    """
    n_sc = cfg.ofdm.num_subcarriers
    t_s = cfg.ofdm.sample_period_s
    pulse = RrcPulse.from_config(cfg.nb)
    big_t = pulse.symbol_period_s
    span = pulse.span_symbols
    n = np.arange(n_sc)
    phase = np.exp(2j * np.pi * cfg.nb.normalized_freq * n)
    acc = np.zeros(n_sc)
    for i in range(num_delays):
        t0 = -(i + 0.5) * big_t / num_delays
        l_lo = int(np.floor((t0 - span * big_t) / big_t)) - 1
        l_hi = int(np.ceil((t0 + (n_sc - 1) * t_s + span * big_t) / big_t)) + 1
        ls = np.arange(l_lo, l_hi + 1)
        samples = pulse.eval(t0 + n[None, :] * t_s - ls[:, None] * big_t)
        acc += (np.abs(np.fft.fft(samples * phase[None, :], axis=1)) ** 2).sum(axis=0)
    return acc * sigma_b2 / (n_sc * num_delays)


class TestAnalyticVariance:
    def test_zero_power_gives_zeros(self, base_cfg):
        prof = analytic_variance(base_cfg, 0.0)
        assert np.all(prof.variances == 0.0)

    def test_linearity_exact(self, base_cfg, unit_profile):
        b = analytic_variance(base_cfg, 2.5)
        np.testing.assert_allclose(b.variances, 2.5 * unit_profile.variances, rtol=1e-12)

    def test_scaled_matches_direct(self, unit_profile):
        a = unit_profile
        np.testing.assert_array_equal(a.scaled(2.5).variances, a.variances * 2.5)
        assert a.scaled(2.5).symbol_power == 2.5

    def test_peak_at_carrier_bin(self, unit_profile, base_cfg):
        expected = round(base_cfg.nb.normalized_freq * base_cfg.ofdm.num_subcarriers)
        assert abs(int(np.argmax(unit_profile.variances)) - expected) <= 1

    def test_energy_concentrated_near_carrier(self, unit_profile):
        peak = int(np.argmax(unit_profile.variances))
        window = unit_profile.variances[peak - 4:peak + 5].sum()
        assert window > 0.8 * unit_profile.variances.sum()

    def test_integer_offset_invariance(self, base_cfg, unit_profile):
        # exp(j 2 pi (F_n + 1) n) == exp(j 2 pi F_n n) at integer n, so a
        # full-bandwidth carrier shift is invisible sample by sample
        shifted = validate(updated(base_cfg, {"nb.normalized_freq":
                                              base_cfg.nb.normalized_freq + 1.0}))
        prof = analytic_variance(shifted, 1.0)
        # not bit-identical: F_n + 1 rounds away a few low bits of F_n, so
        # allow rounding noise
        np.testing.assert_allclose(prof.variances, unit_profile.variances,
                                   rtol=1e-9)

    def test_huge_offset_is_reduced_mod_one(self, base_cfg):
        # every float from 2^52 up is an integer, so 1e308 carries F_n = 0's
        # phases, where 2 pi F_n n itself would overflow to a NaN profile
        zero, huge = (validate(updated(base_cfg, {"nb.normalized_freq": fn}))
                      for fn in (0.0, 1e308))
        np.testing.assert_array_equal(analytic_variance(huge, 1.0).variances,
                                      analytic_variance(zero, 1.0).variances)
        np.testing.assert_array_equal(
            synthesize_nb_blocks(huge, 1.0, 3, np.random.default_rng(4)),
            synthesize_nb_blocks(zero, 1.0, 3, np.random.default_rng(4)))

    def test_peak_follows_carrier(self, base_cfg):
        # the sampled model is periodic in F_n mod 1; within [0, 1) the peak
        # bin tracks round(F_n * N)
        for fn in (0.1, 0.25, 0.75, 0.9):
            cfg_fn = validate(updated(base_cfg, {"nb.normalized_freq": fn}))
            prof = analytic_variance(cfg_fn, 1.0)
            expected = round(fn * base_cfg.ofdm.num_subcarriers)
            assert abs(int(np.argmax(prof.variances)) - expected) <= 1

    @pytest.mark.parametrize("fn", [0.1, 0.437, 0.52, 0.9])
    def test_one_bin_carrier_step_shifts_profile(self, base_cfg, fn):
        # F_n + 1/N multiplies the sample at n by exp(j 2 pi n / N), which
        # moves every FFT bin up by one; criterion 6's periodicity rests on it
        n_sc = base_cfg.ofdm.num_subcarriers
        prof = analytic_variance(validate(updated(base_cfg, {"nb.normalized_freq": fn})), 1.0)
        stepped = analytic_variance(
            validate(updated(base_cfg, {"nb.normalized_freq": fn + 1.0 / n_sc})), 1.0)
        np.testing.assert_allclose(stepped.variances, np.roll(prof.variances, 1),
                                   rtol=0, atol=1e-12 * prof.variances.max())

    def test_matches_symbol_sum_at_default(self, base_cfg, unit_profile):
        oracle = symbol_sum_variance(base_cfg, 1.0, 8)
        peak = unit_profile.variances.max()
        assert np.abs(unit_profile.variances - oracle).max() < 1e-9 * peak

    # The truncated pulse makes the symbol sum jump wherever a sample crosses
    # the pulse edge as the delay moves, so its delay grid converges only as
    # 1/num_delays, and unevenly. At spans of 2 and 3 symbols, where the
    # pulse is cut highest, 256 delays still leave up to 2e-5 of the peak;
    # those spans get 4096 delays at the worst corners found, the property
    # test 256 delays from 4 symbols up (largest gap seen 1.7e-6).
    @pytest.mark.parametrize("span,rolloff,nb_bandwidth,n_sc,fn", [
        (2, 0.3496, 56023.0, 102, 0.193),
        (2, 0.1, 60e3, 256, 0.97),
        (3, 0.1, 60e3, 256, 0.25),
    ])
    def test_matches_symbol_sum_short_span(self, span, rolloff, nb_bandwidth, n_sc, fn):
        cfg = validate(updated(SystemConfig(), {
            "nb.pulse_span_symbols": span, "ofdm.num_subcarriers": n_sc,
            "nb.rolloff": rolloff, "nb.bandwidth_hz": nb_bandwidth,
            "nb.normalized_freq": fn}))
        closed = analytic_variance(cfg, 1.0).variances
        oracle = symbol_sum_variance(cfg, 1.0, 4096)
        assert np.abs(closed - oracle).max() < 1e-5 * closed.max()

    @given(span=st.integers(4, 11), n_sc=st.integers(16, 256),
           rolloff=st.floats(0.1, 0.9), nb_bandwidth=st.floats(5e3, 60e3),
           fn=st.floats(0.0, 1.0, exclude_max=True))
    @settings(max_examples=25, deadline=None)
    def test_matches_symbol_sum(self, span, n_sc, rolloff, nb_bandwidth, fn):
        cfg = validate(updated(SystemConfig(), {
            "nb.pulse_span_symbols": span, "ofdm.num_subcarriers": n_sc,
            "nb.rolloff": rolloff, "nb.bandwidth_hz": nb_bandwidth,
            "nb.normalized_freq": fn}))
        closed = analytic_variance(cfg, 1.0).variances
        oracle = symbol_sum_variance(cfg, 1.0, 256)
        assert np.abs(closed - oracle).max() < 1e-5 * closed.max()


class TestMonteCarlo:
    def test_zero_power_gives_zeros(self, base_cfg):
        prof = mc_variance(base_cfg, 0.0, 16, np.random.default_rng(0))
        assert np.all(prof.variances == 0.0)

    def test_doubling_power_doubles_variances(self, base_cfg):
        a = mc_variance(base_cfg, 1.0, 200, np.random.default_rng(11))
        b = mc_variance(base_cfg, 2.0, 200, np.random.default_rng(11))
        np.testing.assert_allclose(b.variances, 2.0 * a.variances, rtol=1e-10)

    def test_chunking_invisible(self, base_cfg, monkeypatch):
        # every random value is drawn before the pulse lattice is built, so
        # the lattice's block chunk size cannot change the samples
        whole = synthesize_nb_blocks(base_cfg, 1.0, 100, np.random.default_rng(4))
        monkeypatch.setattr(interference, "_SYNTH_BLOCKS", 7)
        chunked = synthesize_nb_blocks(base_cfg, 1.0, 100, np.random.default_rng(4))
        np.testing.assert_array_equal(chunked, whole)

    def test_parseval_total(self, base_cfg):
        # under the 1/sqrt(N) FFT the summed bin variances equal N times the
        # mean per-sample power of the synthesized interferer; the samples are
        # drawn here in mc_variance's chunks, so they are the ones it transforms
        prof = mc_variance(base_cfg, 1.0, 3000, np.random.default_rng(21))
        rng = np.random.default_rng(21)
        chunk = interference._MC_BLOCKS
        samples = np.concatenate([
            synthesize_nb_blocks(base_cfg, 1.0, min(chunk, 3000 - start), rng)
            for start in range(0, 3000, chunk)])
        n = base_cfg.ofdm.num_subcarriers
        mean_power = np.mean(np.abs(samples) ** 2)
        assert prof.variances.sum() == pytest.approx(n * mean_power, rel=1e-10)

    def test_matches_analytic_small_run(self, base_cfg, unit_profile):
        mc = mc_variance(base_cfg, 1.0, 20_000, np.random.default_rng(77))
        mask = unit_profile.variances > 0.01 * unit_profile.variances.max()
        rel = np.abs(mc.variances[mask] - unit_profile.variances[mask]) \
            / unit_profile.variances[mask]
        assert rel.max() < 0.07

    def test_blocks_have_expected_power(self, base_cfg):
        samples = synthesize_nb_blocks(base_cfg, 2.0, 400, np.random.default_rng(9))
        assert samples.shape == (400, base_cfg.ofdm.num_subcarriers)
        # mean |sample|^2 = sigma_b2 * E sum_l p(t - lT)^2 ~ sigma_b2 / T_s... just
        # check proportionality against a half-power run with the same stream
        half = synthesize_nb_blocks(base_cfg, 1.0, 400, np.random.default_rng(9))
        np.testing.assert_allclose(np.abs(samples) ** 2, 2.0 * np.abs(half) ** 2,
                                   rtol=1e-9)

    def test_bad_symbol_count_rejected(self, base_cfg):
        with pytest.raises(DomainError):
            mc_variance(base_cfg, 1.0, 0, np.random.default_rng(0))


def _sigma_b2(cfg, sir_db):
    return calibrated_profile(updated(cfg, {"link.sir_db": sir_db})).symbol_power


class TestCalibration:
    def test_zero_sir_means_unit_mean_variance(self, base_cfg):
        prof = calibrated_profile(base_cfg)
        assert base_cfg.link.sir_db == 0.0
        assert prof.variances.mean() == pytest.approx(
            base_cfg.link.symbol_power, rel=1e-12)

    def test_ten_db_scales_down_tenfold(self, base_cfg):
        s0 = _sigma_b2(base_cfg, 0.0)
        s10 = _sigma_b2(base_cfg, 10.0)
        assert s10 == pytest.approx(s0 / 10.0, rel=1e-12)

    def test_mc_closes_the_loop(self, base_cfg):
        # synthesize at the calibrated power and verify the realized SIR
        sigma = _sigma_b2(base_cfg, 0.0)
        mc = mc_variance(base_cfg, sigma, 20_000, np.random.default_rng(55))
        realized_sir = base_cfg.link.symbol_power / mc.variances.mean()
        assert realized_sir == pytest.approx(1.0, rel=0.05)

    def test_infinite_sir_rejected(self, base_cfg):
        with pytest.raises(DomainError):
            _sigma_b2(base_cfg, float("inf"))

    def test_overflowing_sir_rejected(self, base_cfg):
        # validate passes: symbol_power * 10^308 is finite, but N times it,
        # which calibration divides by the summed profile, is not
        cfg = validate(updated(base_cfg, {"link.sir_db": -3080.0}))
        with pytest.raises(DomainError, match="link.sir_db"):
            calibrated_profile(cfg)

    @pytest.mark.parametrize("key,bandwidth", [
        ("nb.bandwidth_hz", 1e-300), ("nb.bandwidth_hz", 1e300),
        ("nb.bandwidth_hz", 10.0), ("ofdm.bandwidth_hz", 1e300)],
        ids=["1e-300", "1e+300", "10.0", "ofdm-1e+300"])
    def test_extreme_interferer_bandwidth_rejected(self, base_cfg, key, bandwidth):
        # validate passes all four; the pulse's half-span is then below one
        # sample (1e300 Hz interferer) or above the bound on the samples summed
        # for r_p: infinitely many at 1e-300 Hz, 2.2e7 at 10 Hz, 1e298 at a
        # 1e300 Hz OFDM band
        cfg = validate(updated(base_cfg, {key: bandwidth}))
        with pytest.raises(DomainError, match="nb.bandwidth_hz and ofdm.bandwidth_hz"):
            calibrated_profile(cfg)


class TestProfileUtilities:
    def test_csv_single(self, unit_profile):
        lines = profile_csv(unit_profile).strip().split("\n")
        assert lines[0] == "k,variance_analytic"
        assert len(lines) == 1 + unit_profile.variances.size
        k, v = lines[5].split(",")
        assert int(k) == 4
        assert float(v) == unit_profile.variances[4]

    def test_csv_paired(self, base_cfg, unit_profile):
        mc = mc_variance(base_cfg, 1.0, 16, np.random.default_rng(0))
        lines = profile_csv(unit_profile, mc).splitlines()
        assert lines[0] == "k,variance_analytic,variance_mc"
        assert len(lines) == 1 + unit_profile.variances.size
        k, va, vm = lines[7].split(",")
        assert (int(k), float(va), float(vm)) \
            == (6, unit_profile.variances[6], mc.variances[6])
