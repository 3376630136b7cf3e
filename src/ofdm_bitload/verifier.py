"""Symbol-level transmission oracle validating the closed-form BER curves.

Every constellation is sent as one or two independent Gray-coded PAM axes.
``_pam_errors`` is the one link: it places the drawn symbols on their axis,
adds the given noise samples, hard-decides to the nearest level and counts
the bit errors. ``_geometry`` is the one geometry rule; at symbol power P it
gives (levels per axis, amplitude step, axes):

* BPSK: (2, sqrt(P), 1), the real axis only; exact BER Q(sqrt(2 g)).
* QPSK: (2, sqrt(P), 2), two independent binary branches (I and Q) of power
  P each, so the single B/QPSK expression Q(sqrt(2 g)) applies per branch
  with g the branch SNR.
* 16/64-QAM: (sqrt(M), sqrt(3 P / (2 (M - 1))), 2), average symbol energy P.
  The closed form is the exact symbol error rate divided by bits per symbol,
  a lower bound on the Gray BER measured here. With cp_loss 0.8 the exact
  Gray BER exceeds it by 27% (16-QAM) and 96% (64-QAM) at SINR 5 dB, 8% and
  44% at 10 dB, 0.9% and 14% at 15 dB, and 0.002% and 2.3% at 20 dB.

``measure_ber`` and ``measure_allocation_ber`` send unit-power symbols
through complex Gaussian noise of power ``1 / (cp_loss * sinr)``.
``gaussian_premise_report`` sends them at the configured symbol power through
the zero-forced impairment of a synthesized interferer plus AWGN; the
interferer's FFT bins come from ``interference``'s one Monte Carlo route, in
the chunks ``mc_variance`` uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import link
from .allocator import AllocationResult, AllocationStatus
from .channel import ChannelRealization
from .config import SystemConfig
from .errors import DomainError
from .interference import InterferenceProfile, _nb_spectra
from .link import Constellation, ber

_MAX_CHUNK = 1 << 21
# measure_ber refuses a bit count whose expected error count is below this
_MIN_EXPECTED_ERRORS = 100.0


@dataclass(frozen=True)
class EmpiricalBer:
    constellation: Constellation
    bits_sent: int
    bit_errors: int
    measured_ber: float
    predicted_ber: float


def _geometry(constellation: Constellation, symbol_power: float) -> tuple[int, float, int]:
    """(levels per axis, amplitude step, axes) of a constellation at symbol_power."""
    if constellation in (Constellation.BPSK, Constellation.QPSK):
        return 2, np.sqrt(symbol_power), 1 if constellation is Constellation.BPSK else 2
    size = constellation.size
    # average symbol energy: 2 * mean(level^2) * step^2 = symbol_power
    return int(np.sqrt(size)), np.sqrt(3.0 * symbol_power / (2.0 * (size - 1))), 2


def _pam_errors(levels: int, step: float, tx: np.ndarray, noise: np.ndarray) -> int:
    """Bit errors of Gray-coded PAM symbols tx (level indices) sent through noise."""
    idx = np.arange(levels)
    codes = idx ^ (idx >> 1)
    rx = (2 * tx - (levels - 1)) * step + noise
    hard = np.clip(np.round((rx / step + (levels - 1)) / 2.0), 0, levels - 1).astype(int)
    return int(np.unpackbits((codes[tx] ^ codes[hard]).astype(np.uint8)).sum())


def _count_bit_errors(constellation: Constellation, geff: float, num_symbols: int,
                      rng: np.random.Generator) -> int:
    """Bit errors over num_symbols unit-power symbols at effective SNR geff."""
    if not geff > 0:
        raise DomainError(f"effective SNR must be positive to send symbols, got {geff!r}")
    levels, step, axes = _geometry(constellation, 1.0)
    # complex noise power 1/geff, half of it on each axis
    std = np.sqrt(1.0 / (2.0 * geff))
    errors = 0
    done = 0
    while done < num_symbols:
        n = min(_MAX_CHUNK, num_symbols - done)
        for _ in range(axes):
            tx = rng.integers(0, levels, n)
            errors += _pam_errors(levels, step, tx, std * rng.standard_normal(n))
        done += n
    return errors


def measure_ber(constellation: Constellation, sinr: float, cp_loss: float,
                num_bits: int, rng: np.random.Generator) -> EmpiricalBer:
    """Empirical BER from hard-decision transmission at effective SNR cp_loss*sinr."""
    if constellation is Constellation.NULL:
        raise DomainError("cannot measure BER on a nulled subcarrier")
    predicted = ber(constellation, sinr, cp_loss)
    if predicted * num_bits < _MIN_EXPECTED_ERRORS:
        raise DomainError(
            f"num_bits={num_bits} yields {predicted * num_bits:.1f} expected errors "
            f"(< {_MIN_EXPECTED_ERRORS:g}) at predicted BER {predicted:.3e}")
    m = constellation.bits_per_symbol
    num_symbols = int(np.ceil(num_bits / m))
    bits_sent = num_symbols * m
    errors = _count_bit_errors(constellation, cp_loss * sinr, num_symbols, rng)
    return EmpiricalBer(constellation=constellation, bits_sent=bits_sent,
                        bit_errors=errors, measured_ber=errors / bits_sent,
                        predicted_ber=predicted)


def measure_allocation_ber(sinrs, loads, cp_loss: float, num_ofdm_symbols: int,
                           rng: np.random.Generator) -> float:
    """Bit-weighted empirical mean BER of a fixed allocation over AWGN trials."""
    if num_ofdm_symbols < 1:
        raise DomainError(f"num_ofdm_symbols must be >= 1, got {num_ofdm_symbols}")
    total_bits = 0
    total_errors = 0
    for g, load in zip(np.asarray(sinrs, dtype=float), loads):
        if load is Constellation.NULL:
            continue
        total_errors += _count_bit_errors(load, cp_loss * g, num_ofdm_symbols, rng)
        total_bits += num_ofdm_symbols * load.bits_per_symbol
    if total_bits == 0:
        raise DomainError("allocation has no active subcarriers")
    return total_errors / total_bits


def gaussian_premise_report(cfg: SystemConfig, realization: ChannelRealization,
                            result: AllocationResult, profile: InterferenceProfile,
                            num_ofdm_symbols: int,
                            rng: np.random.Generator) -> dict:
    """Mean BER with lumped Gaussian interference vs. synthesized interferer.

    The first route re-measures the allocation at the SINRs ``link.sinr``
    gives the allocator. The second replaces the Gaussian interference term
    with the actual narrowband time-domain signal pushed through the receiver
    FFT. The gap is reported, not asserted: Gaussianity of the post-FFT
    interference is a modeling premise, not a theorem.
    """
    if result.status is not AllocationStatus.MET:
        raise DomainError("can only verify an allocation that met its target")
    cp = cfg.ofdm.cp_loss_factor
    gammas = link.sinr(realization.gains_sq, cfg.link.symbol_power, cfg.link.noise_variance,
                       cfg.link.est_error_var, profile.variances)
    gaussian = measure_allocation_ber(gammas, result.loads, cp, num_ofdm_symbols, rng)

    # AWGN part only; interference enters as synthesized FFT-output samples.
    base_var = (cfg.link.noise_variance + cfg.link.est_error_var) / cp
    total_bits = 0
    total_errors = 0
    for nb in _nb_spectra(cfg, profile.symbol_power, num_ofdm_symbols, rng):
        blocks = nb.shape[0]
        for k, load in enumerate(result.loads):
            if load is Constellation.NULL:
                continue
            h = realization.freq_response[k]
            awgn = np.sqrt(base_var / 2.0) * (rng.standard_normal(blocks)
                                              + 1j * rng.standard_normal(blocks))
            # zero-forced impairment seen on the symbol, interference included verbatim
            impairment = (awgn + nb[:, k] / np.sqrt(cp)) / h
            levels, step, axes = _geometry(load, cfg.link.symbol_power)
            for axis_noise in (impairment.real, impairment.imag)[:axes]:
                tx = rng.integers(0, levels, blocks)
                total_errors += _pam_errors(levels, step, tx, axis_noise)
            total_bits += blocks * load.bits_per_symbol
    synthesized = total_errors / total_bits
    return {"gaussian_mean_ber": gaussian, "synthesized_mean_ber": synthesized,
            "abs_difference": abs(gaussian - synthesized)}
