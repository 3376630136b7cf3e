"""Acceptance suite: one test per criterion, run with -v for per-line verdicts.

Each test carries its own runtime budget.
"""

import itertools
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc

from ofdm_bitload import (AllocationStatus, Constellation, InterferenceProfile,
                          SweepKind, SweepSpec, SystemConfig, allocate,
                          analytic_variance, ber, draw_realization, mc_variance,
                          measure_ber, run_sweep, updated)
from ofdm_bitload.cli import main
from ofdm_bitload.experiments import run_trial
from ofdm_bitload.link import ACTIVE_LADDER

BASE = SystemConfig()
SIRS = (-20.0, -10.0, 0.0, 10.0, 20.0)
FN_GRID = tuple(np.round(np.arange(0.40, 0.701, 0.02), 10))
SNR_GRID = tuple(float(x) for x in range(0, 41, 5))
# SIR 20 dB extension where saturation is asserted; point seeds are keyed by
# grid index, so appending keeps the 0-40 dB points' seeds
SNR_GRID_SATURATION = tuple(float(x) for x in range(45, 61, 5))
# F_n shift, in subcarriers, of criterion 6's periodicity pairs
PERIOD_SHIFT = 20
SEED = 2026


def _stat_nondecreasing(records):
    """Non-decreasing allowing 2 combined standard errors of Monte Carlo slack."""
    for a, b in zip(records, records[1:]):
        slack = 2.0 * np.hypot(a.stderr_bits, b.stderr_bits)
        assert b.avg_throughput_bits >= a.avg_throughput_bits - slack, \
            f"drop at x={b.x}: {a.avg_throughput_bits} -> {b.avg_throughput_bits}"


def _stat_pointwise_leq(lo, hi):
    for a, b in zip(lo, hi):
        slack = 2.0 * np.hypot(a.stderr_bits, b.stderr_bits)
        assert a.avg_throughput_bits <= b.avg_throughput_bits + slack, \
            f"ordering violated at x={a.x}"


def _q(x):
    return 0.5 * erfc(x / np.sqrt(2.0))


def _exact_gray_ber(constellation, geff):
    """Exact hard-decision bit error rate of Gray-mapped square QAM (B/QPSK
    included) at effective symbol SNR geff.

    Each constellation is one (BPSK) or two independent Gray-coded PAM axes
    with L levels at amplitudes (2i - (L-1)) d and per-axis noise variance
    1/(2 geff): B/QPSK use unit-energy binary branches (d = 1), QAM uses
    unit average symbol energy. Sums, over every transmitted level i and
    decision region j, the probability of landing in j times the Hamming
    distance between the Gray labels of i and j. Only upper-tail Q terms
    appear, so deep-tail points lose no precision to cancellation.
    """
    if constellation in (Constellation.BPSK, Constellation.QPSK):
        levels, d = 2, 1.0
    else:
        levels = int(round(np.sqrt(constellation.size)))
        d = np.sqrt(3.0 / (2.0 * (constellation.size - 1)))
    sigma = np.sqrt(1.0 / (2.0 * geff))
    gray = [i ^ (i >> 1) for i in range(levels)]
    bit_errors = 0.0
    for i in range(levels):
        for j in range(levels):
            if j == i:
                continue
            # boundaries of region j sit at odd multiples of d from level i
            near = (2 * abs(j - i) - 1) * d / sigma
            is_edge = j in (0, levels - 1)
            far = _q((2 * abs(j - i) + 1) * d / sigma) if not is_edge else 0.0
            bit_errors += (_q(near) - far) * bin(gray[i] ^ gray[j]).count("1")
    return bit_errors / (levels * np.log2(levels))


def test_criterion_01_channel_normalization():
    start = time.monotonic()
    rng = np.random.default_rng(SEED)
    acc = np.zeros(BASE.ofdm.num_subcarriers)
    n_draws = 10_000
    for _ in range(n_draws):
        acc += draw_realization(BASE.channel, BASE.ofdm, rng).gains_sq
    mean_gain = acc / n_draws
    assert mean_gain.min() >= 0.95
    assert mean_gain.max() <= 1.05
    assert time.monotonic() - start < 10.0


def test_criterion_02_interference_oracle_equivalence():
    start = time.monotonic()
    analytic = analytic_variance(BASE, 1.0)
    mc = mc_variance(BASE, 1.0, 100_000, np.random.default_rng(SEED))
    peak = int(np.argmax(analytic.variances))
    assert abs(peak - round(0.52 * 128)) <= 1
    mask = analytic.variances > 0.01 * analytic.variances.max()
    rel = np.abs(mc.variances[mask] - analytic.variances[mask]) \
        / analytic.variances[mask]
    assert rel.max() < 0.05
    assert time.monotonic() - start < 60.0


def _truncated_rrc_energy(rolloff, span):
    """Energy of the unit-energy RRC pulse kept to +-span symbols, by quadrature.

    Time is in symbol periods, one quadrature per period. The formula is 0/0
    at 0, an interval end that quad never evaluates, and at 1/(4 rolloff),
    which is 5/7 at BASE's 0.35 and so no node of the bisected intervals.
    """
    a = rolloff

    def p(x):
        return (np.sin(np.pi * x * (1.0 - a)) + 4.0 * a * x * np.cos(np.pi * x * (1.0 + a))) \
            / (np.pi * x * (1.0 - (4.0 * a * x) ** 2))

    half = sum(quad(lambda x: p(x) ** 2, k, k + 1, epsabs=1e-14, limit=200)[0]
               for k in range(span))
    return 2.0 * half


def test_criterion_03_parseval_power_identity():
    """The MC bins sum to N sigma_b^2 / T times the truncated pulse energy.

    Under the 1/sqrt(N) FFT the bins sum to N times the mean sample power
    (Parseval), which is sigma_b^2 / T r_p(0) for the delay-averaged
    interferer; r_p(0) is the energy of the pulse cut to its span.
    """
    start = time.monotonic()
    sigma_b2 = 1.0
    profile = mc_variance(BASE, sigma_b2, 5000, np.random.default_rng(SEED))
    energy = _truncated_rrc_energy(BASE.nb.rolloff, BASE.nb.pulse_span_symbols)
    want = BASE.ofdm.num_subcarriers * sigma_b2 / BASE.nb.symbol_period_s * energy
    assert profile.variances.sum() == pytest.approx(want, rel=0.02)
    assert time.monotonic() - start < 30.0


def test_criterion_04_ber_formula_validation():
    """Measured Gray-mapped bit errors match the exact Gray BER, and ber()
    is that exact value for B/QPSK and, for QAM, a lower bound on it that is
    within 3% from 20 dB up.

    The QAM closed form is exact SER / bits per symbol, a lower bound on the
    Gray BER (each symbol error flips at least one and at most m bits) that
    converges only at high SNR, so the measured counts are banded around
    the exact reference rather than around ber().
    """
    start = time.monotonic()
    cp = 0.8
    max_bits = 500_000_000
    rng = np.random.default_rng(SEED)
    failures = []
    skipped = []
    for constellation in (Constellation.BPSK, Constellation.QPSK,
                          Constellation.QAM16, Constellation.QAM64):
        m = constellation.bits_per_symbol
        for gamma_db in (5.0, 10.0, 15.0, 20.0, 26.0):
            g = 10.0 ** (gamma_db / 10.0)
            predicted = ber(constellation, g, cp)
            exact = _exact_gray_ber(constellation, cp * g)
            if constellation in (Constellation.BPSK, Constellation.QPSK):
                assert predicted == pytest.approx(exact, rel=1e-9)
            else:
                # the two routes round Q's argument differently; in the deep
                # tail that moves Q by ~1e-14 relative, more than the true gap
                assert predicted <= exact * (1.0 + 1e-12)
                assert exact <= m * predicted
                if gamma_db >= 20.0:
                    assert exact == pytest.approx(predicted, rel=0.03)
            num_bits = int(np.ceil(100.0 / predicted)) if predicted > 0 else max_bits + 1
            if num_bits > max_bits:
                # 100 expected errors would need > 5e8 bits; physically out of
                # reach of the runtime budget at this operating point
                skipped.append((constellation.name, gamma_db, predicted))
                continue
            report = measure_ber(constellation, g, cp, num_bits, rng)
            expected_errors = exact * report.bits_sent
            band = 3.0 * np.sqrt(expected_errors * (1.0 - exact))
            if abs(report.bit_errors - expected_errors) > band:
                failures.append(
                    f"{constellation.name}@{gamma_db:g}dB: {report.bit_errors} errors "
                    f"vs {expected_errors:.1f} +- {band:.1f} exact")
    assert time.monotonic() - start < 120.0
    assert not failures, "; ".join(failures)


def test_criterion_05_allocator_correctness():
    start = time.monotonic()
    # (a) 1000 random full-size instances
    rng = np.random.default_rng(SEED)
    for _ in range(1000):
        gammas = rng.exponential(10.0 ** (rng.uniform(-1, 3)), 128)
        result = allocate(gammas, 1e-4, 0.8)
        assert result.iterations <= 512
        if result.status is AllocationStatus.MET:
            assert result.mean_ber <= 1e-4

    # (b) four-subcarrier trace against an inline step-by-step oracle
    gammas = [300.0, 100.0, 30.0, 10.0]
    loads = [Constellation.QAM64] * 4
    oracle_trace = []
    while True:
        bers = [ber(c, g, 0.8) if c is not Constellation.NULL else None
                for c, g in zip(loads, gammas)]
        num = sum(c.bits_per_symbol * b for c, b in zip(loads, bers) if b is not None)
        den = sum(c.bits_per_symbol for c in loads)
        if den == 0 or num <= 1e-4 * den:
            break
        victim = -max((b, -k) for k, b in enumerate(bers) if b is not None)[1]
        loads[victim] = (ACTIVE_LADDER + (Constellation.NULL,))[
            ACTIVE_LADDER.index(loads[victim]) + 1]
        oracle_trace.append((victim, loads[victim]))
    trace = []
    result = allocate(gammas, 1e-4, 0.8, trace=trace)
    assert [(k, c) for _, k, c, _ in trace] == oracle_trace
    assert result.loads == loads
    assert result.throughput_bits == 12

    # (c) exhaustive enumeration confirms feasibility of the greedy answer
    ladder = list(Constellation)
    feasible = set()
    for combo in itertools.product(ladder, repeat=4):
        den = sum(c.bits_per_symbol for c in combo)
        if den == 0:
            continue
        num = sum(c.bits_per_symbol * ber(c, g, 0.8)
                  for c, g in zip(combo, gammas) if c is not Constellation.NULL)
        if num <= 1e-4 * den:
            feasible.add(combo)
    assert tuple(result.loads) in feasible
    assert time.monotonic() - start < 10.0


def test_criterion_06_throughput_vs_interferer_offset():
    """Throughput orders by SIR at every offset and is periodic in F_n.

    The interferer carries the per-sample phase exp(j 2 pi F_n n), so raising
    F_n by s/N circularly shifts sigma2_I[k] by s subcarriers. The channel's
    law is shift-invariant and SIR is recalibrated per point, so expected
    throughput has period 1/N in F_n rather than a trend. FN_GRID[:8] and
    the same offsets shifted by PERIOD_SHIFT/N run as two sweeps with one
    seed, so each pair shares its trial streams.
    """
    start = time.monotonic()
    n_sc = BASE.ofdm.num_subcarriers
    low = FN_GRID[:8]
    high = tuple(float(x) for x in np.round(np.add(low, PERIOD_SHIFT / n_sc), 10))
    assert max(high) <= 0.70
    curves = []
    for sir in SIRS:
        fixed = {"link.sir_db": sir}
        lo_curve = run_sweep(SweepSpec(SweepKind.FN, low, 2000, SEED, fixed=fixed), BASE)
        hi_curve = run_sweep(SweepSpec(SweepKind.FN, high, 2000, SEED, fixed=fixed), BASE)
        for a, b in zip(lo_curve, hi_curve):
            slack = 2.0 * np.hypot(a.stderr_bits, b.stderr_bits)
            assert abs(a.avg_throughput_bits - b.avg_throughput_bits) <= slack, \
                f"SIR {sir}: F_n={a.x} gives {a.avg_throughput_bits}, " \
                f"F_n={b.x} gives {b.avg_throughput_bits}"
        curves.append(lo_curve + hi_curve)
    for lo, hi in zip(curves, curves[1:]):
        _stat_pointwise_leq(lo, hi)
    assert time.monotonic() - start < 300.0


def test_criterion_07_throughput_vs_snr_saturates():
    """Throughput rises with SNR and flattens once it is high enough.

    Under Rayleigh fading the share of subcarriers too weak for a given
    constellation falls only as ~1/SNR, so at SIR 20 dB the curve reaches
    its plateau well above 40 dB; the saturation bound applies from 45 dB.
    """
    start = time.monotonic()
    for sir in SIRS:
        grid = SNR_GRID + SNR_GRID_SATURATION if sir == 20.0 else SNR_GRID
        spec = SweepSpec(SweepKind.SNR, grid, 2000, SEED,
                         fixed={"link.sir_db": sir})
        records = run_sweep(spec, BASE)
        assert max(r.avg_throughput_bits for r in records) <= 768.0
        _stat_nondecreasing(records)
        if sir == 20.0:
            plateau = [r for r in records if r.x >= SNR_GRID_SATURATION[0]]
            for a, b in zip(plateau, plateau[1:]):
                assert abs(b.avg_throughput_bits - a.avg_throughput_bits) \
                    < 0.01 * 768.0, f"step {a.x}->{b.x} dB not saturated"
    assert time.monotonic() - start < 300.0


def test_criterion_08_estimation_error_degrades_throughput():
    start = time.monotonic()
    grid = tuple(float(x) for x in range(0, 41, 10))
    curves = []
    for sigma_h2 in (0.0, 0.001, 0.01, 0.1):
        spec = SweepSpec(SweepKind.SNR, grid, 2000, SEED,
                         fixed={"link.est_error_var": sigma_h2})
        curves.append(run_sweep(spec, BASE))
    for hi, lo in zip(curves, curves[1:]):
        _stat_pointwise_leq(lo, hi)

    # exact symmetry: the estimation-error variance and a flat interference
    # variance enter the SINR denominator identically, so swapping them under
    # shared seeds must reproduce every allocation bit for bit
    v, w = 0.01, 0.1
    n_sc = BASE.ofdm.num_subcarriers
    cfg_v = updated(BASE, {"link.est_error_var": v})
    cfg_w = updated(BASE, {"link.est_error_var": w})
    for trial in range(20):
        a = run_trial(cfg_v, InterferenceProfile(np.full(n_sc, w), float("nan")), trial, SEED)
        b = run_trial(cfg_w, InterferenceProfile(np.full(n_sc, v), float("nan")), trial, SEED)
        assert a.loads == b.loads
        assert a.status is b.status
        assert a.throughput_bits == b.throughput_bits
        if a.status is AllocationStatus.MET:
            assert a.mean_ber == b.mean_ber
    assert time.monotonic() - start < 300.0


def test_criterion_09_determinism_across_workers(tmp_path, frozen_dir):
    # the 1-worker run is the frozen CSV, which the regenerated_csvs fixture
    # regenerates once per session
    csv = tmp_path / "workers2.csv"
    assert main(["sweep-snr", "--trials", "600", "--seed", str(SEED), "--workers", "2",
                 "--output", str(csv), "--grid", "10,30"]) == 0
    assert csv.read_bytes() == (frozen_dir / "workers_snr_sweep.csv").read_bytes()


def test_criterion_10_golden_regression(regenerated_csvs, assert_frozen):
    """The golden Table-1 point (10^4 trials at SNR 20 dB, seed 42), every field
    of it, as frozen in tests/data/golden_snr_sweep.csv.

    The point comes from the session's one run of scripts/make_frozen_csvs.py,
    whose other CSVs test_scripts.py::test_sweep_csvs_match_their_frozen_bytes
    compares; the 120 s budget covers that whole run.
    """
    _, names, seconds = regenerated_csvs
    assert "golden_snr_sweep.csv" in names
    assert_frozen("golden_snr_sweep.csv")
    assert seconds < 120.0
