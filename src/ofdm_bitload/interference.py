"""Narrowband interferer model and its per-subcarrier variance after the FFT.

The interferer is ``x(t) = sum_l b_l p(t - l T - xi)``: i.i.d. QPSK symbols of
power sigma_b2 shaped by a truncated root-raised-cosine pulse p, with a delay
xi uniform on [0, T). The receiver samples it at ``n T_s``, where the carrier
contributes the per-sample phase ``exp(j 2 pi F_n n)`` (``f_c * T_s`` reduces
exactly to the normalized frequency F_n), and takes the 1/sqrt(N)-normalized
N-point FFT. Two independent routes compute the variance of FFT bin k:

* ``analytic_variance`` evaluates it in closed form. A delay uniform over one
  symbol period makes x wide-sense stationary with autocorrelation
  ``(sigma_b2 / T) r_p(tau)``, where r_p is the pulse's autocorrelation
  (Proakis, *Digital Communications*, PSD of linearly modulated signals).
  The variance of bin k is then exactly

      sigma2_I[k] = (sigma_b2 / T) sum_{|d|<N} (1 - |d|/N) r_p(d T_s)
                    exp(j 2 pi (F_n - k/N) d).

  The only integral left is r_p at the N lags d T_s (``_pulse_autocorrelation``).
  Nothing is random, so the profile depends on the configuration alone.
* ``mc_variance`` synthesizes the interferer time series with random QPSK
  symbols and random delays, pushes it through the receiver FFT, and
  averages ``|Z_k|^2``.

Both are linear in the interferer symbol power, which ``calibrated_profile``
exploits to hit a requested post-FFT signal-to-interference ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import NbConfig, SystemConfig
from .errors import DomainError


@dataclass(frozen=True)
class RrcPulse:
    """Unit-energy root-raised-cosine pulse, truncated to +-span symbols."""

    rolloff: float
    symbol_period_s: float
    span_symbols: int

    @classmethod
    def from_config(cls, nb: NbConfig) -> "RrcPulse":
        return cls(rolloff=nb.rolloff, symbol_period_s=nb.symbol_period_s,
                   span_symbols=nb.pulse_span_symbols)

    def eval(self, t):
        """Pulse amplitude at time t (seconds); scalar or array."""
        t = np.asarray(t, dtype=float)
        big_t = self.symbol_period_s
        a = self.rolloff
        out = np.zeros(t.shape)
        mask = np.abs(t) <= self.span_symbols * big_t
        x = t[mask] / big_t
        if a > 0:
            at_zero = np.abs(x) < 1e-10
            at_sing = np.abs(np.abs(x) - 1.0 / (4.0 * a)) < 1e-10
        else:
            at_zero = np.abs(x) < 1e-10
            at_sing = np.zeros(x.shape, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            num = np.sin(np.pi * x * (1.0 - a)) + 4.0 * a * x * np.cos(np.pi * x * (1.0 + a))
            den = np.pi * x * (1.0 - (4.0 * a * x) ** 2)
            v = num / den
        v = np.where(at_zero, 1.0 - a + 4.0 * a / np.pi, v)
        if a > 0:
            lim = (a / np.sqrt(2.0)) * ((1.0 + 2.0 / np.pi) * np.sin(np.pi / (4.0 * a))
                                        + (1.0 - 2.0 / np.pi) * np.cos(np.pi / (4.0 * a)))
            v = np.where(at_sing, lim, v)
        out[mask] = v / np.sqrt(big_t)
        return out if t.ndim else float(out)


@dataclass(frozen=True)
class InterferenceProfile:
    variances: np.ndarray
    symbol_power: float

    def scaled(self, factor: float) -> "InterferenceProfile":
        """Exact rescaling by linearity in the interferer symbol power."""
        return replace(self, variances=self.variances * factor,
                       symbol_power=self.symbol_power * factor)


# Pulse samples per OFDM sample in the sums for r_p. The edge-corrected sums
# err by O(h^2) in the sample spacing h; at 8 the error stayed within about
# 2e-6 of the profile peak over pulse spans of 2-11 symbols, roll-offs
# 0.1-0.9 and interferer bandwidths 5-60 kHz (below 1e-12 at the defaults).
_OVERSAMPLE = 8


def _pulse_autocorrelation(pulse: RrcPulse, lag_s: float, num_lags: int) -> np.ndarray:
    """r_p(d * lag_s) = integral of p(t) p(t - d lag_s) dt for d < num_lags.

    The pulse is sampled h = lag_s / _OVERSAMPLE apart, so every lag is a whole
    number of samples and the integrals are sums of sample products. The
    product jumps to zero at both ends of its support, where the truncated
    pulse stops; a plain sum is therefore accurate to first order in h only.
    The jumps are both ``p(S) p(S - tau)`` (S = span * T, p even) and sit at
    the same fraction phi of a sample, so subtracting the first-order end
    term ``h (1 - 2 phi) p(S) p(S - tau)`` (Euler-Maclaurin) leaves O(h^2).
    """
    h = lag_s / _OVERSAMPLE
    edge = pulse.span_symbols * pulse.symbol_period_s
    edge_samples = edge / h
    if not np.isfinite(edge_samples):
        raise DomainError(f"nb.bandwidth_hz: the {edge!r} s pulse is not a finite "
                          f"number of {h!r} s samples")
    m = int(np.floor(edge_samples))
    # p is even; mirroring the half t >= 0 halves eval's temporaries
    half = pulse.eval(np.arange(m + 1) * h)
    samples = np.concatenate([half[:0:-1], half])
    lags = np.arange(num_lags) * _OVERSAMPLE
    padded = np.concatenate([samples, np.zeros(lags[-1])])
    r = h * np.array([samples @ padded[j:j + samples.size] for j in lags])
    phi = edge_samples - m
    return r - h * (1.0 - 2.0 * phi) * pulse.eval(edge) * pulse.eval(edge - lags * h)


def _carrier(f_n: float, num_samples: int) -> np.ndarray:
    """Carrier phases exp(j 2 pi F_n n), n < num_samples, from F_n mod 1.

    Exact because n is an integer; it keeps 2 pi F_n n finite for any finite
    F_n and is bit-identical to the direct form for F_n in [0, 1).
    """
    return np.exp(2j * np.pi * (f_n % 1.0) * np.arange(num_samples))


def analytic_variance(cfg: SystemConfig, sigma_b2: float) -> InterferenceProfile:
    """Closed-form per-subcarrier interference variance (see module docstring)."""
    n_sc = cfg.ofdm.num_subcarriers
    pulse = RrcPulse.from_config(cfg.nb)
    r = _pulse_autocorrelation(pulse, cfg.ofdm.sample_period_s, n_sc)
    d = np.arange(n_sc)
    # the lags -d carry the complex conjugates of the lags +d, so the sum over
    # |d| < N is twice the real part of an FFT over d >= 0, less the d = 0 term
    c = (1.0 - d / n_sc) * r * _carrier(cfg.nb.normalized_freq, n_sc)
    acc = 2.0 * np.fft.fft(c).real - r[0]
    return InterferenceProfile(variances=sigma_b2 / pulse.symbol_period_s * acc,
                               symbol_power=sigma_b2)


# Blocks whose pulse lattice (blocks x interferer symbols x N samples) is
# held at once. Only memory depends on it: every random value is drawn first.
_SYNTH_BLOCKS = 256
# Blocks per synthesize_nb_blocks call in mc_variance. Each call draws its own
# delays and symbols, so this fixes how the rng stream maps to blocks.
_MC_BLOCKS = 2000


def synthesize_nb_blocks(cfg: SystemConfig, sigma_b2: float, num_blocks: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Interferer sample blocks (num_blocks x N) with QPSK symbols.

    Each block gets a fresh delay uniform in [0, T); the delay's uniform
    marginal absorbs the inter-block sample offset, so blocks are mutually
    independent and identically distributed.
    """
    n_sc = cfg.ofdm.num_subcarriers
    t_s = cfg.ofdm.sample_period_s
    pulse = RrcPulse.from_config(cfg.nb)
    big_t = pulse.symbol_period_s
    span = pulse.span_symbols
    n = np.arange(n_sc)
    phase = _carrier(cfg.nb.normalized_freq, n_sc)
    l_lo = -span - 2
    l_hi = int(np.ceil((n_sc - 1) * t_s / big_t)) + span + 2
    ls = np.arange(l_lo, l_hi + 1)
    xi = rng.uniform(0.0, big_t, num_blocks)
    amp = np.sqrt(sigma_b2 / 2.0)
    symbols = amp * ((2 * rng.integers(0, 2, (num_blocks, ls.size)) - 1)
                     + 1j * (2 * rng.integers(0, 2, (num_blocks, ls.size)) - 1))
    out = np.empty((num_blocks, n_sc), dtype=complex)
    for start in range(0, num_blocks, _SYNTH_BLOCKS):
        part = slice(start, start + _SYNTH_BLOCKS)
        t = -xi[part, None, None] + n[None, None, :] * t_s - ls[None, :, None] * big_t
        out[part] = np.einsum("bl,bln->bn", symbols[part], pulse.eval(t)) * phase[None, :]
    return out


def mc_variance(cfg: SystemConfig, sigma_b2: float, num_symbols: int,
                rng: np.random.Generator) -> InterferenceProfile:
    profile, _power = mc_variance_and_power(cfg, sigma_b2, num_symbols, rng)
    return profile


def mc_variance_and_power(cfg: SystemConfig, sigma_b2: float, num_symbols: int,
                          rng: np.random.Generator) -> tuple[InterferenceProfile, float]:
    """Monte Carlo profile plus the mean per-sample interferer power.

    The power is measured directly on the synthesized time samples, giving an
    independent handle on the FFT-domain total (Parseval under the 1/sqrt(N)
    convention).
    """
    if num_symbols < 1:
        raise DomainError("num_symbols must be >= 1")
    n_sc = cfg.ofdm.num_subcarriers
    acc = np.zeros(n_sc)
    power = 0.0
    done = 0
    while done < num_symbols:
        blocks = min(_MC_BLOCKS, num_symbols - done)
        samples = synthesize_nb_blocks(cfg, sigma_b2, blocks, rng)
        spectra = np.fft.fft(samples, axis=1) / np.sqrt(n_sc)
        acc += (np.abs(spectra) ** 2).sum(axis=0)
        power += float((np.abs(samples) ** 2).sum())
        done += blocks
    profile = InterferenceProfile(variances=acc / num_symbols, symbol_power=sigma_b2)
    return profile, power / (num_symbols * n_sc)


def calibrated_profile(cfg: SystemConfig) -> InterferenceProfile:
    """Analytic profile scaled so the post-FFT SIR equals cfg.link.sir_db.

    SIR is the mean OFDM subcarrier power (symbol_power, since the channel is
    gain-normalized) over the subcarrier-averaged interference variance.
    """
    sir_db = cfg.link.sir_db
    if not np.isfinite(sir_db):
        raise DomainError("link.sir_db must be finite")
    unit = analytic_variance(cfg, 1.0)
    # > 0 always: by Parseval the unit profile sums to N r_p(0) / T
    total = float(unit.variances.sum())
    if not np.isfinite(total):
        raise DomainError(f"nb.bandwidth_hz = {cfg.nb.bandwidth_hz!r}: interference "
                          f"profile not finite at ofdm.bandwidth_hz = {cfg.ofdm.bandwidth_hz!r}")
    n_sc = cfg.ofdm.num_subcarriers
    sigma_b2 = n_sc * cfg.link.symbol_power * 10.0 ** (-sir_db / 10.0) / total
    if not np.isfinite(sigma_b2):
        raise DomainError(f"link.sir_db = {sir_db!r}: interferer symbol power overflows")
    return unit.scaled(sigma_b2)


def profile_csv(analytic: InterferenceProfile,
                montecarlo: InterferenceProfile | None = None) -> str:
    """The profile as CSV text, one row per subcarrier k; the MC column if given."""
    columns = {"variance_analytic": analytic.variances}
    if montecarlo is not None:
        columns["variance_mc"] = montecarlo.variances
    lines = [",".join(["k", *columns])]
    lines += [",".join([str(k), *(repr(float(v)) for v in row)])
              for k, row in enumerate(zip(*columns.values()))]
    return "\n".join(lines) + "\n"
