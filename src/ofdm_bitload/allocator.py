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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .link import ACTIVE_LADDER, Constellation, ber

_BITS = np.array([int(c) for c in ACTIVE_LADDER])  # bits per symbol at ladder level j
_DROP = _BITS - np.append(_BITS[1:], 0)              # bits that step (k, j) removes
_LOADS = ACTIVE_LADDER + (Constellation.NULL,)       # load after j steps down


class AllocationStatus(enum.Enum):
    MET = "met"
    TRANSMISSION_STOPPED = "transmission_stopped"


@dataclass(frozen=True)
class AllocationResult:
    loads: list              # Constellation per subcarrier
    per_ber: np.ndarray      # BER per subcarrier; NaN where nulled
    mean_ber: float          # NaN when transmission stopped
    throughput_bits: int
    status: AllocationStatus
    iterations: int


def _reduce(g: np.ndarray, target_ber: float, cp_loss: float):
    """The greedy reduction of every row (one trial each) of ``g``, rows x N.

    Returns ``(table, order, num, den, steps)``: BER per row, subcarrier and
    ladder level (rows x N x 4); the steps s = 4k + j in the greedy's order
    (rows x 4N); the bit-weighted BER sum and the active bits after each
    prefix of that order (rows x 4N+1); and each row's step count, 4N where
    it stops transmission.
    """
    rows, n_sc = g.shape
    levels = [ber(c, g, cp_loss) for c in ACTIVE_LADDER[:3]]
    levels.append(levels[2])  # BPSK's BER is QPSK's expression, Q(sqrt(2 g))
    table = np.stack(levels, axis=-1)
    key = np.minimum.accumulate(table, axis=-1).reshape(rows, 4 * n_sc)
    order = np.argsort(-key, axis=1, kind="stable")
    # per step, the term leaving the sum, then the one entering it (none from BPSK)
    terms = np.zeros((rows, n_sc, 4, 2))
    terms[..., 0] = -(_BITS * table)
    terms[..., :3, 1] = _BITS[1:] * table[..., 1:]
    seq = np.take_along_axis(terms.reshape(rows, 4 * n_sc, 2), order[..., None],
                             axis=1).reshape(rows, -1)
    num0 = [[np.dot(row, np.full(n_sc, 6.0))] for row in levels[0]]
    num = np.add.accumulate(np.hstack([num0, seq]), axis=1)[:, ::2]
    den = 6 * n_sc - np.cumsum(np.insert(_DROP[order % 4], 0, 0, axis=1), axis=1)
    met = (den > 0) & (num <= target_ber * den)
    steps = np.where(met.any(axis=1), met.argmax(axis=1), 4 * n_sc)
    return table, order, num, den, steps


def allocate(sinrs, target_ber: float, cp_loss: float,
             trace: list | None = None) -> AllocationResult:
    """Run the greedy reduction on an array of per-subcarrier SINRs.

    ``trace``, when given, collects one tuple per iteration:
    (iteration, victim_index, new_constellation, new_mean_ber).
    """
    g = np.asarray(sinrs, dtype=float)
    if g.ndim != 1 or g.size < 1:
        raise DomainError("sinrs must be a non-empty 1-D array")
    table, order, num, den, steps = _reduce(g[None, :], target_ber, cp_loss)
    table, num, den, p = table[0], num[0].tolist(), den[0].tolist(), int(steps[0])
    level = [0] * g.size
    for i, k in enumerate((order[0, :p] // 4).tolist(), start=1):
        level[k] += 1
        if trace is not None:
            trace.append((i, k, _LOADS[level[k]],
                          num[i] / den[i] if den[i] else float("nan")))
    per = np.array([table[k, j] if j < 4 else np.nan for k, j in enumerate(level)])
    met = den[p] > 0
    return AllocationResult(
        loads=[_LOADS[j] for j in level], per_ber=per,
        mean_ber=num[p] / den[p] if met else float("nan"), throughput_bits=den[p],
        status=AllocationStatus.MET if met else AllocationStatus.TRANSMISSION_STOPPED,
        iterations=p)
