"""Greedy bit allocation: strip bits from the worst subcarrier until the
bit-weighted mean BER meets the target.

Every subcarrier starts at 64-QAM. Each iteration finds the active
subcarrier with the largest BER (ties broken toward the lowest index) and
steps it down one constellation level; a BPSK subcarrier is nulled and
leaves the average. The loop stops as soon as the weighted mean BER is at
or below the target, or reports TransmissionStopped once every subcarrier
has been nulled.

A max-heap over (BER, index) with lazy invalidation keeps each iteration
O(log N); the weighted numerator/denominator are maintained incrementally.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .link import ACTIVE_LADDER, Constellation, ber


# plain-int lookups for the hot loop: constellation by bits per symbol, and
# the bits per symbol one ladder step down
_BY_BITS = {int(c): c for c in Constellation}
_DOWN_BITS = {int(c): int(c.reduce()) for c in ACTIVE_LADDER}


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


def mean_ber(loads, per_ber) -> float:
    """Bit-weighted average BER over the active subcarriers."""
    num = 0.0
    den = 0
    for load, b in zip(loads, per_ber):
        m = load.bits_per_symbol if isinstance(load, Constellation) else int(load)
        if m > 0:
            num += m * b
            den += m
    if den == 0:
        raise DomainError("no active subcarriers")
    return num / den


def allocate(sinrs, target_ber: float, cp_loss: float,
             trace: list | None = None) -> AllocationResult:
    """Run the greedy reduction on an array of per-subcarrier SINRs.

    ``trace``, when given, collects one tuple per iteration:
    (iteration, victim_index, new_constellation, new_mean_ber).
    """
    g = np.asarray(sinrs, dtype=float)
    if g.ndim != 1 or g.size < 1:
        raise DomainError("sinrs must be a non-empty 1-D array")
    n_sc = g.size
    # per-level BER tables as Python lists keyed by bits per symbol, so the
    # loop below touches neither numpy scalars nor enum properties
    table = {int(c): np.atleast_1d(ber(c, g, cp_loss)).tolist()
             for c in ACTIVE_LADDER}

    bits = [6] * n_sc
    cur = table[6][:]
    num = float(np.dot(cur, np.full(n_sc, 6.0)))
    den = 6 * n_sc
    heap = [(-b, k) for k, b in enumerate(cur)]
    heapq.heapify(heap)

    iterations = 0
    while True:
        if den > 0 and num <= target_ber * den:
            loads = [_BY_BITS[m] for m in bits]
            per = np.where([m > 0 for m in bits], cur, np.nan)
            return AllocationResult(loads=loads, per_ber=per, mean_ber=num / den,
                                    throughput_bits=den, status=AllocationStatus.MET,
                                    iterations=iterations)
        if den == 0:
            return AllocationResult(loads=[Constellation.NULL] * n_sc,
                                    per_ber=np.full(n_sc, np.nan),
                                    mean_ber=float("nan"), throughput_bits=0,
                                    status=AllocationStatus.TRANSMISSION_STOPPED,
                                    iterations=iterations)
        while True:
            neg_b, k = heapq.heappop(heap)
            m = bits[k]
            if m and -neg_b == cur[k]:
                break
        m_new = _DOWN_BITS[m]
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
        if trace is not None:
            trace.append((iterations, k, _BY_BITS[m_new],
                          num / den if den else float("nan")))
