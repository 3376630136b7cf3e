import heapq
import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ofdm_bitload import AllocationStatus, Constellation, DomainError, allocate, ber
from ofdm_bitload.allocator import _HEAD, _ber_table, _full, _loaded_bits
from ofdm_bitload.link import ACTIVE_LADDER

LADDER_DOWN = {Constellation.QAM64: Constellation.QAM16,
               Constellation.QAM16: Constellation.QPSK,
               Constellation.QPSK: Constellation.BPSK,
               Constellation.BPSK: Constellation.NULL}


def ber_tables(gammas, cp_loss):
    """Each active level's BER per subcarrier, one scalar ber() call each."""
    return {c: [ber(c, g, cp_loss) for g in gammas] for c in ACTIVE_LADDER}


def oracle_allocate(tables, target):
    """Independent step-by-step reference: recompute everything each pass.

    Deliberately naive (argmax over the active BERs, looked up in the
    per-level tables, per iteration); returns the full victim trace alongside
    the final state.
    """
    loads = [Constellation.QAM64] * len(tables[Constellation.QAM64])
    trace = []
    iterations = 0
    while True:
        bers = [tables[c][k] if c is not Constellation.NULL else None
                for k, c in enumerate(loads)]
        num = sum(c.bits_per_symbol * b for c, b in zip(loads, bers) if b is not None)
        den = sum(c.bits_per_symbol for c in loads)
        if den > 0 and num <= target * den:
            return dict(loads=loads, status="met", mean=num / den,
                        throughput=den, iterations=iterations, trace=trace)
        if den == 0:
            return dict(loads=loads, status="stopped", mean=None,
                        throughput=0, iterations=iterations, trace=trace)
        worst = max((b, -k) for k, b in enumerate(bers) if b is not None)
        victim = -worst[1]
        loads = list(loads)
        loads[victim] = LADDER_DOWN[loads[victim]]
        iterations += 1
        trace.append((iterations, victim, loads[victim]))


def heap_allocate(gammas, target, cp_loss):
    """The step-by-step loop that the sorted merge replaced, as its reference.

    A max-heap over (BER, index) picks the worst active subcarrier each
    iteration, and the weighted numerator and denominator are updated in
    place, in the float order the merge's prefix sums must reproduce.
    Returns (loads, mean_ber, throughput, status, iterations, trace).
    """
    g = np.asarray(gammas, dtype=float)
    n_sc = g.size
    table = {int(c): np.atleast_1d(ber(c, g, cp_loss)).tolist() for c in ACTIVE_LADDER}
    bits = [6] * n_sc
    cur = table[6][:]
    num = float(np.dot(cur, np.full(n_sc, 6.0)))
    den = 6 * n_sc
    heap = [(-b, k) for k, b in enumerate(cur)]
    heapq.heapify(heap)
    trace = []
    iterations = 0
    while True:
        if den > 0 and num <= target * den:
            return ([Constellation(m) for m in bits], num / den, den,
                    AllocationStatus.MET, iterations, trace)
        if den == 0:
            return ([Constellation.NULL] * n_sc, float("nan"), 0,
                    AllocationStatus.TRANSMISSION_STOPPED, iterations, trace)
        _, k = heapq.heappop(heap)
        m = bits[k]
        m_new = int(LADDER_DOWN[Constellation(m)])
        num -= m * cur[k]
        den -= m
        if m_new:
            b_new = table[m_new][k]
            num += m_new * b_new
            den += m_new
            cur[k] = b_new
            heapq.heappush(heap, (-b_new, k))
        bits[k] = m_new
        iterations += 1
        trace.append((iterations, k, Constellation(m_new),
                      num / den if den else float("nan")))


class TestKnownInstances:
    def test_all_high_sinr_keeps_qam64(self):
        result = allocate(np.full(16, 1e6), 1e-4, 0.8)
        assert result.status is AllocationStatus.MET
        assert result.throughput_bits == 96
        assert result.iterations == 0
        assert all(c is Constellation.QAM64 for c in result.loads)

    def test_all_zero_sinr_stops(self):
        result = allocate(np.zeros(16), 1e-4, 0.8)
        assert result.status is AllocationStatus.TRANSMISSION_STOPPED
        assert result.throughput_bits == 0
        assert result.iterations == 64
        assert np.isnan(result.mean_ber)

    def test_single_subcarrier(self):
        result = allocate(np.array([50.0]), 1e-2, 1.0)
        assert result.status is AllocationStatus.MET
        assert result.throughput_bits >= 1

    def test_four_carrier_trace_matches_oracle(self):
        gammas = [300.0, 100.0, 30.0, 10.0]
        trace = []
        result = allocate(gammas, 1e-4, 0.8, trace=trace)
        expected = oracle_allocate(ber_tables(gammas, 0.8), 1e-4)
        assert result.status is AllocationStatus.MET
        assert expected["status"] == "met"
        assert [(i, k, c) for i, k, c, _ in trace] == expected["trace"]
        assert result.loads == expected["loads"]
        assert result.loads == [Constellation.QAM16, Constellation.QAM16,
                                Constellation.QPSK, Constellation.QPSK]
        assert result.throughput_bits == 12
        assert result.iterations == 6
        assert result.mean_ber == pytest.approx(expected["mean"])
        assert result.mean_ber <= 1e-4

    def test_four_carrier_prefix_states_all_violate(self):
        # every state before the final one must fail the constraint,
        # otherwise the greedy loop would have stopped earlier
        gammas = [300.0, 100.0, 30.0, 10.0]
        trace = []
        allocate(gammas, 1e-4, 0.8, trace=trace)
        for _, _, _, running_mean in trace[:-1]:
            assert running_mean > 1e-4

    def test_four_carrier_exhaustive_feasibility(self):
        gammas = [300.0, 100.0, 30.0, 10.0]
        result = allocate(gammas, 1e-4, 0.8)
        ladder = [Constellation.NULL, Constellation.BPSK, Constellation.QPSK,
                  Constellation.QAM16, Constellation.QAM64]
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

    def test_greedy_is_not_sinr_monotone(self):
        # documented behavior of the worst-BER greedy: improving a single
        # subcarrier can reroute the reduction order and cost a bit overall
        gammas = np.array([22.41396342, 6.76959777, 106.94792342,
                           3.08447317, 21.68493785])
        better = gammas.copy()
        better[4] = 67.76734445697943
        assert allocate(gammas, 1e-4, 0.8).throughput_bits == 9
        assert allocate(better, 1e-4, 0.8).throughput_bits == 8


@st.composite
def sinr_arrays(draw, max_n=24):
    n = draw(st.integers(1, max_n))
    return np.array(draw(st.lists(
        st.floats(1e-4, 1e5), min_size=n, max_size=n)))


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(gammas=sinr_arrays(), target=st.sampled_from([1e-2, 1e-3, 1e-4]))
    def test_matches_naive_oracle(self, gammas, target):
        result = allocate(gammas, target, 0.8)
        expected = oracle_allocate(ber_tables(gammas, 0.8), target)
        assert result.loads == expected["loads"]
        assert result.iterations == expected["iterations"]
        assert result.throughput_bits == expected["throughput"]

    @settings(max_examples=150, deadline=None)
    @given(gammas=sinr_arrays(), target=st.sampled_from([1e-2, 1e-4]))
    def test_met_implies_constraint_and_bounds(self, gammas, target):
        result = allocate(gammas, target, 0.8)
        assert result.iterations <= 4 * gammas.size
        assert 0 <= result.throughput_bits <= 6 * gammas.size
        if result.status is AllocationStatus.MET:
            assert result.throughput_bits >= 1
            assert result.mean_ber <= target
            active = [(c.bits_per_symbol, ber(c, g, 0.8))
                      for c, g in zip(result.loads, gammas) if c is not Constellation.NULL]
            bits, bers = np.array(active).T
            recomputed = (bits * bers).sum() / bits.sum()
            assert recomputed == pytest.approx(result.mean_ber)
        else:
            assert result.throughput_bits == 0

    @settings(max_examples=100, deadline=None)
    @given(gammas=sinr_arrays(max_n=12))
    def test_bits_drop_by_one_or_two_each_iteration(self, gammas):
        trace = []
        result = allocate(gammas, 1e-4, 0.8, trace=trace)
        steps = {Constellation.QAM16: 2, Constellation.QPSK: 2,
                 Constellation.BPSK: 1, Constellation.NULL: 1}
        total = sum(steps[c] for _, _, c, _ in trace)
        assert total == 6 * gammas.size - result.throughput_bits
        assert result.iterations == len(trace)

    @settings(max_examples=60, deadline=None)
    @given(gammas=sinr_arrays(max_n=10), factor=st.floats(0.01, 100))
    def test_victim_choice_scale_invariant(self, gammas, factor):
        # scaling every BER (and the target) by the same factor must not
        # change which subcarrier the greedy picks at any step
        tables = ber_tables(gammas, 0.8)
        scaled = {c: [factor * b for b in bs] for c, bs in tables.items()}
        assert oracle_allocate(tables, 1e-4)["trace"] \
            == oracle_allocate(scaled, factor * 1e-4)["trace"]


@st.composite
def merge_instances(draw):
    """SINRs that stress the merge: shared values across subcarriers (ties),
    values low enough that the BER ladder rises as it steps down, all zeros."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["wide", "low", "ties", "zeros"]))
    if kind == "zeros":
        return np.zeros(n)
    if kind == "ties":
        pool = draw(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=4))
        return np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    high = 3.0 if kind == "low" else 1e5
    return np.array(draw(st.lists(st.floats(0.0, high), min_size=n, max_size=n)))


class TestMatchesHeapReference:
    # at SINR 0 each step down raises the BER (64-QAM 0.16, 16-QAM 0.23,
    # QPSK 0.5): the case the running-minimum key exists for
    @example(gammas=np.array([0.0, 0.5, 0.0, 2.0]), target=1e-1)
    @settings(max_examples=300, deadline=None)
    @given(gammas=merge_instances(), target=st.sampled_from([1e-1, 1e-2, 1e-3, 1e-4]))
    def test_equal_to_heap_loop(self, gammas, target):
        trace = []
        result = allocate(gammas, target, 0.8, trace=trace)
        loads, mean, throughput, status, iterations, ref_trace = \
            heap_allocate(gammas, target, 0.8)
        assert result.loads == loads
        assert result.mean_ber == mean or (np.isnan(result.mean_ber) and np.isnan(mean))
        assert result.throughput_bits == throughput
        assert result.status is status
        assert result.iterations == iterations
        assert [t[:3] for t in trace] == [t[:3] for t in ref_trace]
        np.testing.assert_array_equal([t[3] for t in trace], [t[3] for t in ref_trace])


# rows of one sweep block, by what they stress in _loaded_bits
SWEEP_ROWS = {
    "light": lambda rng, n: 10 ** rng.uniform(2, 5, n),       # tens of steps
    "wide": lambda rng, n: 10 ** rng.uniform(-2, 6, n),
    "low": lambda rng, n: rng.uniform(0, 3, n),               # the non-monotone ladder
    "zeros": lambda rng, n: np.zeros(n),                      # every key tied
    "pool": lambda rng, n: rng.choice(rng.uniform(0, 1e3, 3), n),  # tied keys
    # BERs that underflow to 0, so the K-th key is often a tied 0
    "underflow": lambda rng, n: rng.choice([1e5, 1e6, *10 ** rng.uniform(1, 3, 2)], n),
    # the largest SINR, which decides exit 1, tied across subcarriers
    "tied-max": lambda rng, n: np.minimum(10 ** rng.uniform(-1, 4, n), 10 ** rng.uniform(0, 3)),
}


def _ulps(x, k):
    """x moved k floats up (k > 0) or down."""
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return float(x)


@st.composite
def sweep_blocks(draw):
    """A chunk of SINR rows and a target that puts one of them on the edges of
    _loaded_bits' exits: the hot count near K, the met step at a chosen step,
    the minimum BER near the stopped bound or near the edge of the margin past
    it that still goes to the table, or a fixed target. The chunk holds up to
    20 rows, or up to 20 runs of 16 rows of one kind each, so that rows of
    every exit and of very different m share a slice and its padded arrays."""
    n = draw(st.sampled_from([1, 2, 15, 16, 17, 128]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = draw(st.lists(st.sampled_from(sorted(SWEEP_ROWS)), min_size=1, max_size=20))
    run = draw(st.sampled_from([1, 16]))
    g = np.stack([SWEEP_ROWS[kind](rng, n) for kind in kinds for _ in range(run)])
    cp_loss = draw(st.sampled_from([0.8, 1.0]))
    row = draw(st.integers(0, len(g) - 1))
    ulps = draw(st.integers(-2, 2))
    how = draw(st.sampled_from(["fixed", "near-k", "near-met", "near-min", "at-bound",
                                "at-margin"]))
    table, key, num0 = _ber_table(g[row:row + 1], cp_loss)
    if how == "fixed":
        target = draw(st.sampled_from([1e-1, 1e-2, 1e-4, 1e-6]))
    elif how == "near-k":
        # the row's (K+d)-th largest 64-QAM BER, so that K-1, K or K+1 of its
        # subcarriers are hot (fewer where N is smaller)
        qam64 = np.sort(table[0, :, 0])[::-1]
        target = qam64[min(_HEAD + draw(st.integers(-1, 1)), n - 1)]
    elif how == "near-met":
        # the row's prefix mean just before, at or after some step meets the target there
        _, num, den, _ = _full(table, key, num0, 1.0)
        p = draw(st.integers(0, 4 * n - 1))
        target = num[0, p] / den[0, p]
    elif how == "near-min":
        target = table.min()
    elif how == "at-bound":  # the target whose stopped bound is the row's minimum BER
        target = (table.min() - 2.0 ** -46 * n * n) / (1 + 2.0 ** -46)
    else:  # the target whose bound, widened by 2^-36, is the row's minimum BER
        target = (table.min() / (1 + 2.0 ** -36) - 2.0 ** -46 * n * n) / (1 + 2.0 ** -46)
    target = _ulps(target, ulps)
    assume(0 < target < 0.5)
    return g, target, cp_loss


class TestLoadedBits:
    # N = 16: 52 keys tied at 0 behind 12 nonzero ones, and the row meets at step 12
    @example(block=(np.array([[1e6] * 13 + [30.0] * 3]), 1e-15, 0.8))
    # N = 17: all 68 keys tied at the 64-QAM BER of SINR 0, just above the target
    @example(block=(np.zeros((2, 17)), 0.16, 0.8))
    # no hot subcarrier (m = 0) in the first row, beside a row with 4
    @example(block=(np.array([[1e6] * 16, [1e6] * 12 + [30.0] * 4]), 1e-4, 1.0))
    # 16 hot subcarriers tied at one SINR, met only at step m = 16
    @example(block=(np.full((1, 16), 100.0), 1e-4, 1.0))
    # hot keys tied across subcarriers at two SINRs, in index order
    @example(block=(np.array([[50.0, 1e6, 50.0, 80.0, 50.0, 80.0, 1e6, 1e6]]), 1e-4, 1.0))
    # four subcarriers hot, their 64-QAM BERs 1.43-1.54 times the target: the
    # greedy interleaves their steps, so every one of them must be packed
    @example(block=(np.array([[5.47, 4.72, 122.0, 3.46, 4.1]]), 0.0909, 1.0))
    # the first row's last hot subcarrier is nulled, and the entry after its
    # BPSK step, which _scan weighs by 0, is the padding of a narrower row
    @example(block=(np.array([[1e6] * 7 + [0.5], [0.5, 0.5] + [1e6] * 6]), 1e-4, 1.0))
    # the target is the 16-QAM BER of every subcarrier: met at step m = 4 in
    # exact arithmetic, but the computed sum misses it there by rounding, so
    # the row leaves the sparse exit for the full one, which meets at step 5
    @example(block=(np.full((1, 4), 168.9609962663654), 2.2996600681401973e-09, 1.0))
    # the same row as row 130 of a chunk longer than one slice, among rows with
    # no, one or four hot subcarriers (m = 0, 1 and 8) and stopped ones, so that
    # its padded array is wider than its m
    @example(block=(np.insert(np.repeat([[1e6] * 4, [168.9609962663654] + [1e6] * 3,
                                         [100.0] * 4, [0.0] * 4], 50, axis=0),
                              130, 168.9609962663654, axis=0), 2.2996600681401973e-09, 1.0))
    # all seven subcarriers at QPSK after the m = 14 steps, their BER the target:
    # the computed sums miss it there and at every later step, so the row stops,
    # while its padded array (as wide as the m = 24 of the row above it) goes on
    @example(block=(np.array([[10.0] * 6 + [1e6], [12.502080380862472] * 7]),
                    2.860336520180525e-07, 1.0))
    @settings(max_examples=400, deadline=None)
    @given(block=sweep_blocks())
    def test_equals_full_reduction(self, block):
        g, target, cp_loss = block
        _, _, den, steps = _full(*_ber_table(g, cp_loss), target)
        np.testing.assert_array_equal(_loaded_bits(g, target, cp_loss),
                                      den[np.arange(len(g)), steps])


def test_empty_input_rejected():
    with pytest.raises(DomainError):
        allocate(np.array([]), 1e-4, 0.8)


@pytest.mark.parametrize("target", [float("nan"), float("inf"), 0.0, 0.5, -1e-4])
def test_target_ber_outside_open_interval_rejected(target):
    # the range validate() enforces for link.target_ber; a NaN target would
    # otherwise never be met and silently report a stop
    with pytest.raises(DomainError, match="target_ber"):
        allocate(np.ones(4), target, 0.8)


def test_nan_sinr_rejected():
    # without the check in ber(), a NaN BER would sort and sum into a row
    # that never meets the target and silently reports a stop
    with pytest.raises(DomainError):
        allocate(np.array([1.0, np.nan]), 1e-4, 0.8)
