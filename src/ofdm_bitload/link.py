"""Per-subcarrier SINR composition and closed-form BER expressions.

The BER closed forms are per-bit expressions in the effective SNR
``cp_loss * sinr``:

* B/QPSK: ``Q(sqrt(2 * cp_loss * sinr))`` (one expression covers both; for
  QPSK it reads the SINR as the per-branch value).
* square M-QAM (M in {16, 64}):
  ``(4/m)(1 - 1/sqrt(M)) Q(a) (1 - (1 - 1/sqrt(M)) Q(a))`` with
  ``a = sqrt(3 / (M - 1) * cp_loss * sinr)``. This is the exact symbol error
  rate divided by the m bits per symbol. Every symbol error flips at least
  one Gray-coded bit and at most m, so it is a lower bound on the Gray BER
  (within a factor m) that converges to it only at high SNR.
"""

from __future__ import annotations

import enum

import numpy as np
from scipy.special import erfc

from .errors import DomainError

_SQRT2 = float(np.sqrt(2.0))


class Constellation(enum.IntEnum):
    """Supported loads, ordered by bits per symbol; value == bits."""

    NULL = 0
    BPSK = 1
    QPSK = 2
    QAM16 = 4
    QAM64 = 6

    @property
    def bits_per_symbol(self) -> int:
        return int(self.value)

    @property
    def size(self) -> int:
        return 2 ** int(self.value)


ACTIVE_LADDER = (Constellation.QAM64, Constellation.QAM16,
                 Constellation.QPSK, Constellation.BPSK)


def q_function(x):
    """Gaussian tail probability Q(x) = 0.5 erfc(x / sqrt(2))."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / _SQRT2)


def sinr(gain_sq, symbol_power, noise_var, est_error_var, interference_var):
    """Signal power times channel gain over the summed impairment variances."""
    if not (np.all(np.asarray(gain_sq) >= 0) and symbol_power >= 0):
        raise DomainError("gain_sq and symbol_power must be nonnegative")
    # est_error_var and interference_var are summed first so the two terms
    # are exactly interchangeable (same float result under a swap)
    denom = noise_var + (est_error_var + np.asarray(interference_var, dtype=float))
    if not np.all(denom > 0):
        raise DomainError("impairment variances must sum to a positive value")
    return symbol_power * gain_sq / denom


def ber(constellation: Constellation, sinr, cp_loss: float = 1.0):
    """Closed-form per-bit BER at effective SNR cp_loss * sinr.

    Accepts scalar or array SINR; NULL is rejected.
    """
    if constellation is Constellation.NULL:
        raise DomainError("BER is undefined for a nulled subcarrier")
    if not 0.0 < cp_loss <= 1.0:
        raise DomainError("cp_loss must lie in (0, 1]")
    g = np.asarray(sinr, dtype=float) * cp_loss
    if not np.all(g >= 0):
        raise DomainError("sinr must be nonnegative")
    if constellation in (Constellation.BPSK, Constellation.QPSK):
        out = q_function(np.sqrt(2.0 * g))
    else:
        m = constellation.bits_per_symbol
        big_m = constellation.size
        coef = 1.0 - 1.0 / np.sqrt(big_m)
        q = q_function(np.sqrt(3.0 / (big_m - 1.0) * g))
        out = (4.0 / m) * coef * q * (1.0 - coef * q)
    return out if np.ndim(sinr) else float(out)
