import numpy as np
import pytest
from hypothesis import given, strategies as st

from ofdm_bitload import Constellation, DomainError, ber, sinr
from ofdm_bitload.link import ACTIVE_LADDER, q_function

ACTIVE = [Constellation.BPSK, Constellation.QPSK, Constellation.QAM16, Constellation.QAM64]

# Reference Gaussian tail values, frozen from a 25-digit erfc evaluation.
Q_REFERENCE = {
    0.5: 0.3085375387259869,
    1.0: 0.15865525393145705,
    2.0: 0.022750131948179207,
    3.0: 0.0013498980316300945,
    4.0: 3.1671241833119921e-5,
    5.0: 2.8665157187919391e-7,
    6.0: 9.8658764503769814e-10,
    8.0: 6.2209605742717841e-16,
}


class TestQFunction:
    def test_half_at_zero(self):
        assert q_function(0.0) == 0.5

    @pytest.mark.parametrize("x,expected", sorted(Q_REFERENCE.items()))
    def test_reference_values_tight(self, x, expected):
        assert q_function(x) == pytest.approx(expected, rel=1e-10)

    @given(x=st.floats(-8, 8))
    def test_complement_symmetry(self, x):
        assert q_function(x) + q_function(-x) == pytest.approx(1.0, abs=1e-14)

    def test_monotone_decreasing(self):
        grid = np.linspace(-8, 8, 400)
        values = q_function(grid)
        assert np.all(np.diff(values) < 0)


class TestSinr:
    def test_unit_case(self):
        assert sinr(1.0, 1.0, 1.0, 0.0, 0.0) == 1.0

    def test_estimation_error_halves(self):
        full = sinr(2.0, 1.0, 0.5, 0.0, 0.0)
        half = sinr(2.0, 1.0, 0.5, 0.5, 0.0)
        assert half == pytest.approx(full / 2)

    def test_deep_fade(self):
        assert sinr(0.0, 1.0, 0.1, 0.0, 0.2) == 0.0

    @pytest.mark.parametrize("gain,interference", [(np.nan, 0.1), (1.0, np.nan)])
    def test_nan_rejected(self, gain, interference):
        with pytest.raises(DomainError):
            sinr(np.array([1.0, gain]), 1.0, 0.1, 0.0, np.array([0.1, interference]))

    def test_zero_denominator_rejected(self):
        with pytest.raises(DomainError):
            sinr(1.0, 1.0, 0.0, 0.0, 0.0)

    @given(v1=st.floats(1e-6, 10), v2=st.floats(1e-6, 10), g=st.floats(0, 100))
    def test_estimation_error_and_interference_interchangeable(self, v1, v2, g):
        # exact: the two variances are summed before the noise term
        assert sinr(g, 1.0, 0.3, v1, v2) == sinr(g, 1.0, 0.3, v2, v1)

    @given(extra=st.floats(1e-6, 5))
    def test_strictly_decreasing_in_each_variance(self, extra):
        base = sinr(1.0, 1.0, 0.1, 0.1, 0.1)
        assert sinr(1.0, 1.0, 0.1 + extra, 0.1, 0.1) < base
        assert sinr(1.0, 1.0, 0.1, 0.1 + extra, 0.1) < base
        assert sinr(1.0, 1.0, 0.1, 0.1, 0.1 + extra) < base


class TestBer:
    def test_zero_sinr_values(self):
        assert ber(Constellation.BPSK, 0.0) == 0.5
        assert ber(Constellation.QPSK, 0.0) == 0.5
        assert ber(Constellation.QAM16, 0.0) == pytest.approx(0.234375)
        assert ber(Constellation.QAM64, 0.0) == pytest.approx(21.0 / 128.0)

    def test_bpsk_at_ten_with_cp_loss(self):
        # sqrt(2 * 0.8 * 10) = 4, so this is exactly Q(4)
        assert ber(Constellation.BPSK, 10.0, 0.8) == pytest.approx(Q_REFERENCE[4.0], rel=1e-10)

    @given(g=st.floats(0, 1e4))
    def test_qpsk_equals_bpsk(self, g):
        assert ber(Constellation.QPSK, g) == ber(Constellation.BPSK, g)

    @pytest.mark.parametrize("constellation", ACTIVE)
    def test_vanishes_at_extreme_sinr(self, constellation):
        assert ber(constellation, 1e6) < 1e-12

    @pytest.mark.parametrize("constellation", ACTIVE)
    def test_monotone_decreasing_in_sinr(self, constellation):
        # cap the grid where the BER underflows to exactly zero
        grid = np.logspace(-3, 2, 300)
        values = ber(constellation, grid)
        assert np.all(np.diff(values) < 0)

    def test_ordering_above_crossover(self):
        # BPSK <= 16-QAM <= 64-QAM holds only above the 16/64 crossover near
        # sinr = 2.7; the greedy allocator operates correctly either way.
        grid = np.logspace(np.log10(3.0), 4, 200)
        b1 = ber(Constellation.BPSK, grid)
        b4 = ber(Constellation.QAM16, grid)
        b6 = ber(Constellation.QAM64, grid)
        assert np.all(b1 <= b4)
        assert np.all(b4 <= b6)

    def test_ordering_inverts_below_crossover(self):
        # regression: at sinr = 1 a 64-QAM subcarrier outperforms 16-QAM,
        # so stepping down 64 -> 16 can raise that subcarrier's BER
        assert ber(Constellation.QAM64, 1.0) < ber(Constellation.QAM16, 1.0)

    def test_vectorized_matches_scalar(self):
        grid = np.array([0.5, 3.0, 42.0])
        vec = ber(Constellation.QAM16, grid, 0.8)
        for g, v in zip(grid, vec):
            assert v == ber(Constellation.QAM16, float(g), 0.8)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            ber(Constellation.QPSK, np.array([1.0, np.nan]))
        with pytest.raises(DomainError):
            ber(Constellation.QAM64, float("nan"))

    def test_null_rejected(self):
        with pytest.raises(DomainError):
            ber(Constellation.NULL, 1.0)

    @pytest.mark.parametrize("cp", [0.0, 1.5, -0.2])
    def test_bad_cp_loss_rejected(self, cp):
        with pytest.raises(DomainError):
            ber(Constellation.BPSK, 1.0, cp)


class TestConstellation:
    def test_ladder(self):
        # the allocator steps down 64-16-QPSK-BPSK, then nulls
        assert ACTIVE_LADDER == (Constellation.QAM64, Constellation.QAM16,
                                 Constellation.QPSK, Constellation.BPSK)
        assert Constellation.NULL not in ACTIVE_LADDER

    def test_total_order_and_sizes(self):
        assert Constellation.NULL < Constellation.BPSK < Constellation.QPSK \
            < Constellation.QAM16 < Constellation.QAM64
        assert Constellation.QAM64.size == 64
        assert Constellation.QAM16.bits_per_symbol == 4
