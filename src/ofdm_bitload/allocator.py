"""Greedy bit allocation: strip bits from the worst subcarrier until the
bit-weighted mean BER meets the target.

Every subcarrier starts at 64-QAM. Each iteration finds the active
subcarrier with the largest BER (ties broken toward the lowest index) and
steps it down one constellation level; a BPSK subcarrier is nulled and
leaves the average. The loop stops as soon as the weighted mean BER is at
or below the target, or reports TransmissionStopped once every subcarrier
has been nulled.

The loop is a merge of per-subcarrier ladders (Levin-Campello): its steps
(k, j), subcarrier k down from level j, come in one stable sort of s = 4k + j
by descending running-minimum BER of k over levels 0..j. The running minimum
matters at low SINR, where 16-QAM reads worse than 64-QAM: a subcarrier whose
BER rises after a step stays the worst, so its next steps follow at once.
The numerator is one sequential cumulative sum of the loop's own terms
[num0, -m*b, +m'*b', ...], so every prefix is the loop's float exactly.

A sweep needs only each trial's loaded bits, so its rows sort only what
they need and take the first of three exits that applies: a row whose
smallest BER is above the target by more than the rounding bound is stopped
with no BER table and no sort; a row with fewer than K = 64 hot subcarriers,
those whose 64-QAM BER is above the target, sorts only its keys above the
target and is done if it meets within them; any other row takes the full
sort. All three give the full sort's bits. The middle exit is exact because a
key is a running minimum over its subcarrier's levels, so every key above the
target is a hot subcarrier's. Say m keys are. The first m steps of the full
stable order are those keys, sorted stably by descending key; after them
every active BER is at or below the target, so in exact arithmetic the greedy
meets by step m; and the prefix sums over them are the same terms in the same
order, so they are the full scan's floats.

The live rows take the last two exits a slice at a time. The middle exit
computes the 16-QAM and QPSK BERs at hot subcarriers only, and lays each
row's steps above the target out in index order, padded to the widest of a
group of rows of like m, for one stable sort and one prefix scan per group.
The full exit builds its table for a few rows at a time. One ``_scan`` serves
both, from each step's terms.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .link import ACTIVE_LADDER, Constellation, ber

_BITS = np.array([int(c) for c in ACTIVE_LADDER])  # bits per symbol at ladder level j
_BITS_NEXT = np.append(_BITS[1:], 0)                 # bits per symbol after step (k, j)
_DROP = _BITS - _BITS_NEXT                           # bits that step (k, j) removes
_LOADS = ACTIVE_LADDER + (Constellation.NULL,)       # load after j steps down
_BLOCK = 16  # rows per full BER table in a sweep, which bounds its working memory
_SLICE = 128  # live rows per slice in a sweep, whose 64-QAM BERs are computed at once
_GROUP = 32  # sparse rows per padded array of exit 2, which bounds its working memory
# K: a sweep row with K or more hot subcarriers skips the sparse exit for the
# full table. At SNR 40-60 dB and SIR 20 dB a trial has 15-18 hot subcarriers
# of 128 in the median and 26-32 at the 90th percentile; at SNR 20 dB, all 128.
_HEAD = 64


class AllocationStatus(enum.Enum):
    MET = "met"
    TRANSMISSION_STOPPED = "transmission_stopped"


@dataclass(frozen=True)
class AllocationResult:
    loads: list              # Constellation per subcarrier
    mean_ber: float          # NaN when transmission stopped
    throughput_bits: int
    status: AllocationStatus
    iterations: int


def _levels(l0: np.ndarray, l1: np.ndarray, l2: np.ndarray):
    """The BER table (... x n x 4) of the 64-QAM, 16-QAM and QPSK BERs, BPSK's
    being QPSK's expression Q(sqrt(2 g)), and its running minimum over the
    levels, level by level: the sort key of each step s = 4k + j (... x 4n)."""
    k1 = np.minimum(l0, l1)
    k2 = np.minimum(k1, l2)
    return (np.stack([l0, l1, l2, l2], axis=-1),
            np.stack([l0, k1, k2, k2], axis=-1).reshape(*l0.shape[:-1], -1))


def _num0(l0: np.ndarray) -> np.ndarray:
    """Each row's starting numerator, the bit-weighted BER sum at all 64-QAM."""
    six = np.full(l0.shape[1], 6.0)
    # one dot per contiguous level-0 row: a strided table[..., 0] may round differently
    return np.array([np.dot(row, six) for row in l0])


def _ber_table(g: np.ndarray, cp_loss: float):
    """BER per row, subcarrier and ladder level (rows x N x 4); the sort key of
    each step s = 4k + j (rows x 4N); and each row's starting numerator num0."""
    l0, l1, l2 = (ber(c, g, cp_loss) for c in ACTIVE_LADDER[:3])
    return *_levels(l0, l1, l2), _num0(l0)


def _terms(flat: np.ndarray, at: np.ndarray):
    """Per step, at its index ``at`` in a flat table of 4 levels per subcarrier:
    the term leaving the bit-weighted BER sum, the one entering it (the next
    level's; none from BPSK, as the entry after it, another subcarrier's, weighs
    0) and the bits the step drops."""
    level = at % 4
    return (_BITS[level] * flat[at], _BITS_NEXT[level] * flat[np.minimum(at + 1, flat.size - 1)],
            _DROP[level])


def _scan(num0: np.ndarray, leave: np.ndarray, enter: np.ndarray, drop: np.ndarray,
          target_ber: float, n_sc: int):
    """The bit-weighted BER sum and the active bits after each prefix of the
    steps whose ``_terms`` are given (rows x steps each) of ``n_sc``
    subcarriers, and where the target is met (rows x steps+1 each)."""
    rows, steps = leave.shape
    seq = np.empty((rows, 2 * steps + 1))
    seq[:, 0] = num0
    np.negative(leave, out=seq[:, 1::2])
    seq[:, 2::2] = enter
    num = np.add.accumulate(seq, axis=1, out=seq)[:, ::2]
    dropped = np.zeros((rows, steps + 1), dtype=np.int64)
    np.cumsum(drop, axis=1, out=dropped[:, 1:])
    den = 6 * n_sc - dropped
    return num, den, (den > 0) & (num <= target_ber * den)


def _full(table: np.ndarray, key: np.ndarray, num0: np.ndarray, target_ber: float):
    """The greedy reduction of every row (one trial each) of a ``_ber_table``.

    Returns ``(order, num, den, steps)``: the steps s = 4k + j in the greedy's
    order, one stable sort by descending key (rows x 4N); the bit-weighted BER
    sum and the active bits after each prefix of that order (rows x 4N+1); and
    each row's step count, 4N where it stops transmission.
    """
    order = np.argsort(-key, axis=1, kind="stable")
    at = order + key.shape[1] * np.arange(len(key))[:, None]
    num, den, met = _scan(num0, *_terms(table.ravel(), at), target_ber, table.shape[1])
    steps = np.where(met.any(axis=1), met.argmax(axis=1), key.shape[1])
    return order, num, den, steps


def _loaded_bits(g: np.ndarray, target_ber: float, cp_loss: float) -> np.ndarray:
    """Each row's loaded bits, ``den[steps]`` of ``_full``, sorting only what
    the row needs. Each row takes the first of three exits that applies.

    1. Provably stopped: its smallest BER exceeds the target by more than the
       rounding bound below. Every prefix's mean BER is at least that BER, so
       none meets the target: 0 bits, with no BER table.
    2. Sparse: fewer than K of its subcarriers are hot, their 64-QAM BER
       above the target. Only hot subcarriers have keys above the target, as
       a key is a running minimum over the levels; say m keys are. They are
       the first m steps of the full stable order, so their stable sort from
       index order gives those steps, and the prefix scan over their terms is
       the full one's, term for term. After those steps every active BER is
       at or below the target, so in exact arithmetic the row meets by step
       m and is done; only rounding can send it on.
    3. Full: ``_full``'s stable sort and scan, on the full table, which
       reuses the 64-QAM BERs that exit 2 computed.

    Exit 1 is decided for all rows at once. The others work on _SLICE live
    rows at a time. A slice computes its 64-QAM BERs, num0 and hot mask
    once. Its sparse rows take the other BERs at their hot entries only and
    keep only their steps above the target, laid out in index order in
    padded arrays of _GROUP rows of like m, each as wide as its largest m.
    The rest go to exit 3 in tables of _BLOCK rows.
    """
    rows, n_sc = g.shape
    # A prefix's exact numerator is at least min(BER) * den. The computed one
    # is num0 (an N-term dot, error <= N u sum|6 b|, u = 2^-53) plus up to 8N
    # terms added in sequence (error <= 8N u sum|x|), each term a product
    # rounded once (u |x|). Every BER is at most 1/2, so sum|x| <= 3N for num0
    # plus 10N over the steps: the error is below 8N u 13N + N u 3N + u 10N
    # <= 128 N^2 u. The target side, target * den, rounds by u target den, and
    # den >= 1 on every prefix that can meet. 2^-46 (target + N^2) = 128 u
    # (target + N^2) covers both, and the rounding of this bound itself.
    bound = target_ber + 2.0 ** -46 * (target_ber + n_sc * n_sc)
    # Every level's BER falls as the SINR rises, so in exact arithmetic a
    # row's smallest BER is the smallest of the three distinct levels' BERs
    # at its largest SINR: the same ber calls on the same floats as the
    # table's entries there. The computed BER is monotone in the SINR except
    # through erfc, whose relative error is below 5.7e-14 (Cephes' documented
    # peak) where a BER is near the bound (at least 2^-46 N^2, so erfc's
    # argument is below 8); the products around it add a few u. So an entry
    # at a smaller SINR sits at most a relative 2^-42 below these, and a row
    # within a relative 2^-36 of the bound goes on to the table.
    peak = g.max(axis=1)
    low = np.minimum.reduce([ber(c, peak, cp_loss) for c in ACTIVE_LADDER[:3]])
    live = np.flatnonzero(low <= bound * (1.0 + 2.0 ** -36))
    bits = np.zeros(rows, dtype=np.int64)
    for a in range(0, len(live), _SLICE):
        at = live[a:a + _SLICE]
        bits[at] = _live_bits(g[at], target_ber, cp_loss)
    return bits


def _live_bits(g: np.ndarray, target_ber: float, cp_loss: float) -> np.ndarray:
    """``_loaded_bits`` exits 2 and 3, on one slice of rows."""
    rows, n_sc = g.shape
    l0 = ber(Constellation.QAM64, g, cp_loss)
    num0 = _num0(l0)
    hot = l0 > target_ber
    full = hot.sum(axis=1) >= _HEAD
    bits = np.zeros(rows, dtype=np.int64)
    sparse = np.flatnonzero(~full)
    if len(sparse):
        # the hot entries' BER table and keys, flat, and the steps above the
        # target, each row's in index order (row, then s)
        r, k = np.nonzero(hot[sparse])
        table, key = _levels(l0[sparse[r], k],
                             *(ber(c, g[sparse[r], k], cp_loss) for c in ACTIVE_LADDER[1:3]))
        step = np.flatnonzero(key > target_ber)
        m = np.bincount(r[step // 4], minlength=len(sparse))
        first = np.cumsum(m) - m
        kept, terms = key[step], _terms(table.ravel(), step)
        # rows of like m side by side, so that each padded array is about as
        # wide as its rows' m
        for group in np.array_split(np.argsort(m, kind="stable"), -(-len(m) // _GROUP)):
            at, w = sparse[group], np.arange(m[group].max())
            pad = w >= m[group, None]
            # each row's steps laid out from its first, padded with key 0.0,
            # below the target, so that the padding sorts last
            pick = np.where(pad, 0, first[group, None] + w)
            order = np.argsort(-np.where(pad, 0.0, kept[pick]), axis=1, kind="stable")
            pick = np.take_along_axis(pick, order, axis=1)
            _, den, met = _scan(num0[at], *(t[pick] for t in terms), target_ber, n_sc)
            met &= np.arange(len(w) + 1) <= m[group, None]
            done = met.any(axis=1)
            bits[at[done]] = den[done, met[done].argmax(axis=1)]
            full[at[~done]] = True
    rest = np.flatnonzero(full)
    for a in range(0, len(rest), _BLOCK):
        at = rest[a:a + _BLOCK]
        table, key = _levels(l0[at], *(ber(c, g[at], cp_loss) for c in ACTIVE_LADDER[1:3]))
        _, _, den, steps = _full(table, key, num0[at], target_ber)
        bits[at] = den[np.arange(len(at)), steps]
    return bits


def allocate(sinrs, target_ber: float, cp_loss: float,
             trace: list | None = None) -> AllocationResult:
    """Run the greedy reduction on an array of per-subcarrier SINRs.

    ``trace``, when given, collects one tuple per iteration:
    (iteration, victim_index, new_constellation, new_mean_ber).
    """
    g = np.asarray(sinrs, dtype=float)
    if g.ndim != 1 or g.size < 1:
        raise DomainError("sinrs must be a non-empty 1-D array")
    if not 0.0 < target_ber < 0.5:
        raise DomainError("target_ber must lie in (0, 0.5)")
    order, num, den, steps = _full(*_ber_table(g[None, :], cp_loss), target_ber)
    num, den, p = num[0].tolist(), den[0].tolist(), int(steps[0])
    level = [0] * g.size
    for i, k in enumerate((order[0, :p] // 4).tolist(), start=1):
        level[k] += 1
        if trace is not None:
            trace.append((i, k, _LOADS[level[k]],
                          num[i] / den[i] if den[i] else float("nan")))
    met = den[p] > 0
    return AllocationResult(
        loads=[_LOADS[j] for j in level],
        mean_ber=num[p] / den[p] if met else float("nan"), throughput_bits=den[p],
        status=AllocationStatus.MET if met else AllocationStatus.TRANSMISSION_STOPPED,
        iterations=p)
