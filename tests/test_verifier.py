import numpy as np
import pytest

from ofdm_bitload import (AllocationStatus, Constellation, DomainError,
                          allocate, ber, calibrated_profile, draw_realization, mc_variance,
                          measure_ber, sinr, synthesize_nb_blocks, updated)
from ofdm_bitload.experiments import run_trial, trial_stream
from ofdm_bitload.verifier import (_geometry, _pam_errors, gaussian_premise_report,
                                   measure_allocation_ber)


def _bits_for(constellation, g, cp, target_errors=4000):
    predicted = ber(constellation, g, cp)
    return int(np.ceil(target_errors / predicted))


# each count argument of the Monte Carlo and symbol-level routes, with the
# value numpy or Python would otherwise reject with another error, run as 1,
# or round up to one symbol more
COUNTS = {
    "num_symbols": lambda cfg, n, rng: mc_variance(cfg, 1.0, n, rng),
    "num_blocks": lambda cfg, n, rng: synthesize_nb_blocks(cfg, 1.0, n, rng),
    "num_ofdm_symbols": lambda cfg, n, rng: measure_allocation_ber(
        [10.0], [Constellation.QPSK], 0.8, n, rng),
    "num_bits": lambda cfg, n, rng: measure_ber(Constellation.BPSK, 3.0, 0.8, n, rng),
}


@pytest.mark.parametrize("name,count", [
    ("num_symbols", 2.5), ("num_symbols", True), ("num_blocks", 2.5), ("num_blocks", -1),
    ("num_ofdm_symbols", 2.5), ("num_bits", float("nan")), ("num_bits", float("inf")),
    ("num_bits", 100000.5),
])
def test_count_argument_not_a_valid_integer_rejected(base_cfg, name, count):
    with pytest.raises(DomainError, match=name):
        COUNTS[name](base_cfg, count, np.random.default_rng(0))


class TestMeasureBer:
    @pytest.mark.parametrize("constellation,g", [
        (Constellation.BPSK, 2.0),
        (Constellation.QPSK, 2.0),
        (Constellation.QAM16, 30.0),
        (Constellation.QAM64, 120.0),
    ])
    def test_matches_closed_form(self, constellation, g):
        # operating points chosen in the regime where the closed form is the
        # exact (B/QPSK) or near-exact (Gray QAM) BER; ~4000 expected errors
        # puts 3.3 relative standard deviations at about 5 percent
        cp = 0.8
        bits = _bits_for(constellation, g, cp)
        report = measure_ber(constellation, g, cp, bits,
                             np.random.default_rng(404))
        assert report.measured_ber == pytest.approx(report.predicted_ber, rel=0.06)
        assert report.bits_sent >= bits
        assert report.bit_errors == round(report.measured_ber * report.bits_sent)

    def test_qpsk_and_bpsk_agree_empirically(self):
        g, cp = 1.5, 1.0
        bits = _bits_for(Constellation.BPSK, g, cp)
        b = measure_ber(Constellation.BPSK, g, cp, bits, np.random.default_rng(1))
        q = measure_ber(Constellation.QPSK, g, cp, bits, np.random.default_rng(1))
        assert q.measured_ber == pytest.approx(b.measured_ber, rel=0.05)

    def test_cp_loss_degrades_effective_snr(self):
        g = 3.0
        bits = _bits_for(Constellation.BPSK, g, 0.5)
        lossy = measure_ber(Constellation.BPSK, g, 0.5, bits,
                            np.random.default_rng(2))
        clean = measure_ber(Constellation.BPSK, g, 1.0, bits,
                            np.random.default_rng(2))
        assert lossy.measured_ber > clean.measured_ber

    def test_null_rejected(self):
        with pytest.raises(DomainError):
            measure_ber(Constellation.NULL, 1.0, 0.8, 1000, np.random.default_rng(0))

    def test_insufficient_bits_rejected(self):
        # at sinr 30 the BPSK BER is ~1e-12; 10^6 bits cannot produce the
        # required minimum expected error count
        with pytest.raises(DomainError, match="expected errors"):
            measure_ber(Constellation.BPSK, 30.0, 0.8, 10 ** 6,
                        np.random.default_rng(0))


    def test_zero_sinr_rejected(self):
        with pytest.raises(DomainError, match="effective SNR must be positive"):
            measure_ber(Constellation.BPSK, 0.0, 1.0, 10_000, np.random.default_rng(0))


class TestPamErrors:
    @pytest.mark.parametrize("levels", [2, 4, 8])
    def test_zero_noise_and_one_step(self, levels):
        # neighbouring levels lie 2 * step apart; noise of that size, pointing
        # inward from the top level and upward elsewhere, lands every symbol
        # on a neighbour, and Gray adjacency flips exactly one of its bits
        step = 0.7
        tx = np.arange(levels).repeat(3)
        assert _pam_errors(levels, step, tx, np.zeros(tx.size)) == 0
        one_step = 2.0 * step * np.where(tx == levels - 1, -1.0, 1.0)
        assert _pam_errors(levels, step, tx, one_step) == tx.size

    @pytest.mark.parametrize("constellation,power_per_symbol", [
        (Constellation.BPSK, 2.5), (Constellation.QPSK, 5.0),
        (Constellation.QAM16, 2.5), (Constellation.QAM64, 2.5)])
    def test_geometry_at_symbol_power(self, constellation, power_per_symbol):
        # B/QPSK put the symbol power on each axis, QAM spreads it over both
        levels, step, axes = _geometry(constellation, 2.5)
        amplitudes = (2 * np.arange(levels) - (levels - 1)) * step
        assert axes * np.mean(amplitudes ** 2) == pytest.approx(power_per_symbol)
        assert axes * np.log2(levels) == constellation.bits_per_symbol


class TestMeasureAllocationBer:
    def test_weighted_mean_over_subcarriers(self):
        sinrs = np.array([2.0, 2.0])
        loads = [Constellation.QPSK, Constellation.NULL]
        rng = np.random.default_rng(7)
        got = measure_allocation_ber(sinrs, loads, 1.0, 200_000, rng)
        assert got == pytest.approx(ber(Constellation.QPSK, 2.0), rel=0.05)

    def test_all_null_rejected(self):
        with pytest.raises(DomainError):
            measure_allocation_ber(np.array([1.0]), [Constellation.NULL], 1.0,
                                   100, np.random.default_rng(0))


class TestVerifyAllocation:
    @pytest.fixture(scope="class")
    def limited(self, base_cfg):
        # drop SIR until the allocator lands on low orders with BER near the
        # target; the allocation and the SINRs it was made from
        cfg = updated(base_cfg, {"link.sir_db": -10.0, "link.target_ber": 1e-2})
        profile = calibrated_profile(cfg)
        realization = draw_realization(cfg.channel, cfg.ofdm, trial_stream(11, 0))
        result = run_trial(cfg, profile, 0, base_seed=11)
        gammas = sinr(realization.gains_sq, cfg.link.symbol_power,
                      cfg.link.noise_variance, cfg.link.est_error_var, profile.variances)
        return cfg, profile, realization, result, gammas

    def test_interference_limited_allocation(self, limited):
        # re-measured at the allocator's own SINRs, the empirical mean must sit
        # at the predicted mean, i.e. below target with margin for MC noise
        cfg, _profile, _realization, result, gammas = limited
        assert result.status is AllocationStatus.MET
        assert allocate(gammas, cfg.link.target_ber, cfg.ofdm.cp_loss_factor).loads \
            == result.loads
        measured = measure_allocation_ber(gammas, result.loads, cfg.ofdm.cp_loss_factor,
                                          40_000, np.random.default_rng(3))
        assert measured == pytest.approx(result.mean_ber, rel=0.2)
        assert measured < 1.5 * cfg.link.target_ber

    def test_requires_met_status(self, limited):
        cfg, profile, realization, _result, _gammas = limited
        stopped = allocate(np.zeros(cfg.ofdm.num_subcarriers), 1e-4, 0.8)
        with pytest.raises(DomainError, match="met its target"):
            gaussian_premise_report(cfg, realization, stopped, profile, 100,
                                    np.random.default_rng(0))

    @pytest.mark.parametrize("symbols", [0, -3])
    def test_symbol_count_below_one_rejected(self, limited, symbols):
        cfg, profile, realization, result, gammas = limited
        with pytest.raises(DomainError, match="num_ofdm_symbols must be >= 1"):
            measure_allocation_ber(gammas, result.loads, 0.8, symbols,
                                   np.random.default_rng(0))
        with pytest.raises(DomainError, match="num_ofdm_symbols must be >= 1"):
            gaussian_premise_report(cfg, realization, result, profile, symbols,
                                    np.random.default_rng(0))


class TestGaussianPremise:
    def test_report_structure_and_rough_agreement(self, base_cfg):
        cfg = updated(base_cfg, {"link.sir_db": -10.0, "link.target_ber": 1e-2})
        profile = calibrated_profile(cfg)
        rng = trial_stream(11, 0)
        realization = draw_realization(cfg.channel, cfg.ofdm, rng)
        result = run_trial(cfg, profile, 0, base_seed=11)
        report = gaussian_premise_report(cfg, realization, result, profile,
                                         20_000, np.random.default_rng(5))
        assert set(report) == {"gaussian_mean_ber", "synthesized_mean_ber",
                               "abs_difference"}
        assert report["abs_difference"] == pytest.approx(
            abs(report["gaussian_mean_ber"] - report["synthesized_mean_ber"]))
        # the lumped-Gaussian premise should land within an order of magnitude
        assert report["synthesized_mean_ber"] < 10 * cfg.link.target_ber

