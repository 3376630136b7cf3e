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
  averages ``|Z_k|^2``. ``_nb_spectra`` is the one route from synthesis to
  FFT bins; the verifier's Gaussian-premise report draws its interferer
  through it too. The synthesis is polyphase: each block's delay moves to
  the midpoint of one of ``_PHASES`` = 128 cells of T / 128, and the pulse is
  evaluated once per phase drawn in one ``_nb_spectra`` run, however many
  chunks it takes. The estimator's exact expectation is
  therefore the symbol-by-symbol variance averaged over the 128 midpoint
  delays; it differs from the closed form by at most 1.44e-5 of the profile
  peak over the configurations measured (about 1e-11 at the defaults).

Both are linear in the interferer symbol power, which ``calibrated_profile``
exploits to hit a requested post-FFT signal-to-interference ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import NbConfig, SystemConfig
from .errors import DomainError, _check_integer


def rrc_pulse(nb: NbConfig, t):
    """Unit-energy RRC pulse at time t (seconds), truncated to +-span symbols."""
    t = np.asarray(t, dtype=float)
    big_t = nb.symbol_period_s
    a = nb.rolloff
    out = np.zeros(t.shape)
    mask = np.abs(t) <= nb.pulse_span_symbols * big_t
    x = t[mask] / big_t
    at_zero = np.abs(x) < 1e-10
    if a > 0:
        # built before num and den: its temporaries would otherwise raise the peak
        at_sing = np.abs(np.abs(x) - 1.0 / (4.0 * a)) < 1e-10
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


# Pulse samples per OFDM sample in the sums for r_p. The edge-corrected sums
# err by O(h^2) in the sample spacing h; at 8 the error stayed within about
# 2e-6 of the profile peak over pulse spans of 2-11 symbols, roll-offs
# 0.1-0.9 and interferer bandwidths 5-60 kHz (below 1e-12 at the defaults).
_OVERSAMPLE = 8
# Most pulse samples per half-span in the sums for r_p; memory grows with it.
# At the defaults this admits nb.bandwidth_hz down to about 52 Hz, where one
# calibrated_profile peaks at 291 MiB RSS (numpy 2.4, from 54 MiB after import).
_MAX_PULSE_SAMPLES = 2 ** 22


def _pulse_autocorrelation(nb: NbConfig, lag_s: float, num_lags: int) -> np.ndarray:
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
    edge = nb.pulse_span_symbols * nb.symbol_period_s
    edge_samples = edge / h
    if not 1 <= edge_samples <= _MAX_PULSE_SAMPLES:
        raise DomainError(f"nb.bandwidth_hz and ofdm.bandwidth_hz: the pulse's half-span "
                          f"of {edge!r} s is {edge_samples!r} samples of {h!r} s, "
                          f"outside [1, {_MAX_PULSE_SAMPLES}]")
    m = int(np.floor(edge_samples))
    # p is even; mirroring the half t >= 0 halves rrc_pulse's temporaries
    half = rrc_pulse(nb, np.arange(m + 1) * h)
    samples = np.concatenate([half[:0:-1], half])
    lags = np.arange(num_lags) * _OVERSAMPLE
    padded = np.concatenate([samples, np.zeros(lags[-1])])
    r = h * np.array([samples @ padded[j:j + samples.size] for j in lags])
    phi = edge_samples - m
    return r - h * (1.0 - 2.0 * phi) * rrc_pulse(nb, edge) * rrc_pulse(nb, edge - lags * h)


def _carrier(f_n: float, num_samples: int) -> np.ndarray:
    """Carrier phases exp(j 2 pi F_n n), n < num_samples, from F_n mod 1.

    Exact because n is an integer; it keeps 2 pi F_n n finite for any finite
    F_n and is bit-identical to the direct form for F_n in [0, 1).
    """
    return np.exp(2j * np.pi * (f_n % 1.0) * np.arange(num_samples))


def analytic_variance(cfg: SystemConfig, sigma_b2: float) -> InterferenceProfile:
    """Closed-form per-subcarrier interference variance (see module docstring)."""
    n_sc = cfg.ofdm.num_subcarriers
    r = _pulse_autocorrelation(cfg.nb, cfg.ofdm.sample_period_s, n_sc)
    d = np.arange(n_sc)
    # the lags -d carry the complex conjugates of the lags +d, so the sum over
    # |d| < N is twice the real part of an FFT over d >= 0, less the d = 0 term
    c = (1.0 - d / n_sc) * r * _carrier(cfg.nb.normalized_freq, n_sc)
    acc = 2.0 * np.fft.fft(c).real - r[0]
    return InterferenceProfile(variances=sigma_b2 / cfg.nb.symbol_period_s * acc,
                               symbol_power=sigma_b2)


# Delay phases per interferer symbol period: synthesize_nb_blocks moves each
# block's delay to the midpoint of its cell of T / _PHASES. The estimator's
# expectation then differs from the closed form by at most 1.44e-5 of the
# profile peak (measured at pulse span 2, roll-off 0.35, 56 kHz, N 102; 1e-11
# at the defaults), and mc_variance over 10 000 blocks takes 0.12-0.13 s
# (median of 5, two runs) on 2 cores with numpy 2.4, against 3.9-4.5 s with
# a pulse lattice per block.
_PHASES = 128
# Blocks per synthesize_nb_blocks call in _nb_spectra. Each call draws its own
# delays and symbols, so this fixes how the rng stream maps to blocks.
_MC_BLOCKS = 2000
# The most symbols L in a pulse lattice, and the most entries L x N in one.
# A synthesize_nb_blocks call holds _MC_BLOCKS x L symbols and a run up to
# _PHASES lattices of L x N, so memory grows with both. L = ceil((N - 1)
# T_s / T) + 2 span + 5 is 39 at the defaults and 47 at N = 1024. At the
# bounds, `profile-dump --mc-symbols 4000` peaks at 447 MiB RSS with L x N =
# 64 x 1024 and at 538 MiB with 511 x 128 (numpy 2.4, from 55 MiB after
# import); nb.bandwidth_hz = 1e8 at the defaults would give 7563 x 128.
_MAX_LATTICE_SYMBOLS = 2 ** 9
_MAX_LATTICE_SAMPLES = 2 ** 16


def synthesize_nb_blocks(cfg: SystemConfig, sigma_b2: float, num_blocks: int,
                         rng: np.random.Generator, *, lattices=None) -> np.ndarray:
    """Interferer sample blocks (num_blocks x N) with QPSK symbols.

    Each block gets a fresh delay xi uniform in [0, T); the delay's uniform
    marginal absorbs the inter-block sample offset, so blocks are mutually
    independent and identically distributed. The delay is then moved to the
    midpoint (c + 1/2) T / P of its cell c = min(floor(xi P / T), P - 1),
    P = _PHASES (polyphase synthesis; harris, *Multirate Signal Processing
    for Communication Systems*). The pulse is evaluated once per drawn
    phase, and each phase's blocks take one matrix product with it. The
    cells are uniform, so the expected |DFT|^2 is the symbol sum averaged
    over the P midpoints, which is within 1.44e-5 of the closed form's peak
    (see _PHASES).

    lattices maps a cell to its pulse lattice (L x N); the call evaluates
    only the drawn cells it lacks and adds them. _nb_spectra passes one dict
    to all its calls, so each drawn phase is evaluated once per run. The
    default, a new dict, keeps nothing between calls.
    """
    _check_integer("num_blocks", num_blocks, 0)
    n_sc = cfg.ofdm.num_subcarriers
    t_s = cfg.ofdm.sample_period_s
    big_t = cfg.nb.symbol_period_s
    span = cfg.nb.pulse_span_symbols
    # symbols -span-2 .. ceil((N-1) t_s / T) + span + 2 reach the block's samples
    length = np.ceil((n_sc - 1) * t_s / big_t) + 2 * span + 5
    if not (length <= _MAX_LATTICE_SYMBOLS and length * n_sc <= _MAX_LATTICE_SAMPLES):
        raise DomainError(f"nb.pulse_span_symbols, nb.bandwidth_hz and ofdm.num_subcarriers: "
                          f"the Monte Carlo pulse lattice of {length:.0f} symbols x {n_sc} "
                          f"samples exceeds {_MAX_LATTICE_SYMBOLS} symbols or "
                          f"{_MAX_LATTICE_SAMPLES} samples")
    ls = np.arange(int(length)) - span - 2
    xi = rng.uniform(0.0, big_t, num_blocks)
    amp = np.sqrt(sigma_b2 / 2.0)
    symbols = amp * ((2 * rng.integers(0, 2, (num_blocks, ls.size)) - 1)
                     + 1j * (2 * rng.integers(0, 2, (num_blocks, ls.size)) - 1))
    # the clip puts a delay of exactly T, the interval's closed end, in the last cell
    cell = np.minimum(np.floor(xi * _PHASES / big_t), _PHASES - 1)
    cells, inverse = np.unique(cell, return_inverse=True)
    lattices = {} if lattices is None else lattices
    new = cells[[c not in lattices for c in cells.tolist()]]
    if new.size:
        delay = (new + 0.5) * big_t / _PHASES
        t = -delay[:, None, None] + np.arange(n_sc) * t_s - ls[None, :, None] * big_t
        lattices.update(zip(new.tolist(), rrc_pulse(cfg.nb, t)))
    out = np.empty((num_blocks, n_sc), dtype=complex)
    for j, c in enumerate(cells.tolist()):
        rows = inverse == j
        out[rows] = symbols[rows] @ lattices[c]
    return out * _carrier(cfg.nb.normalized_freq, n_sc)


def _nb_spectra(cfg: SystemConfig, sigma_b2: float, num_blocks: int,
                rng: np.random.Generator):
    """1/sqrt(N)-normalized FFTs of num_blocks interferer blocks, _MC_BLOCKS at a time.

    The one route from synthesized samples to FFT bins. Each chunk is drawn
    only when the consumer asks for it, so draws the consumer makes between
    chunks keep their place in the rng stream. The chunks share one dict of
    pulse lattices, which lasts only as long as this run.
    """
    n_sc = cfg.ofdm.num_subcarriers
    lattices = {}
    for start in range(0, num_blocks, _MC_BLOCKS):
        blocks = min(_MC_BLOCKS, num_blocks - start)
        yield np.fft.fft(synthesize_nb_blocks(cfg, sigma_b2, blocks, rng, lattices=lattices),
                         axis=1) / np.sqrt(n_sc)


def mc_variance(cfg: SystemConfig, sigma_b2: float, num_symbols: int,
                rng: np.random.Generator) -> InterferenceProfile:
    """Monte Carlo profile: mean |Z_k|^2 over num_symbols synthesized blocks."""
    _check_integer("num_symbols", num_symbols, 1)
    acc = np.zeros(cfg.ofdm.num_subcarriers)
    try:
        # a power near the float limit passes calibration at small N, but
        # its |Z_k|^2 or their sum need not
        with np.errstate(over="raise", invalid="raise"):
            for spectra in _nb_spectra(cfg, sigma_b2, num_symbols, rng):
                acc += (np.abs(spectra) ** 2).sum(axis=0)
    except FloatingPointError:
        raise DomainError(f"link.sir_db: the Monte Carlo profile overflows at interferer "
                          f"symbol power {sigma_b2!r}") from None
    return InterferenceProfile(variances=acc / num_symbols, symbol_power=sigma_b2)


def _profile_key(cfg: SystemConfig) -> tuple:
    """The config values calibrated_profile reads; equal keys give equal profiles."""
    return cfg.ofdm, cfg.nb, cfg.link.sir_db, cfg.link.symbol_power


def calibrated_profile(cfg: SystemConfig) -> InterferenceProfile:
    """Analytic profile scaled so the post-FFT SIR equals cfg.link.sir_db.

    SIR is the mean OFDM subcarrier power (symbol_power, since the channel is
    gain-normalized) over the subcarrier-averaged interference variance. It
    reads cfg.ofdm, cfg.nb, link.sir_db and link.symbol_power only
    (``_profile_key``), not the channel or the other link keys.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            unit = analytic_variance(cfg, 1.0)
            # > 0 always: by Parseval the unit profile sums to N r_p(0) / T
            total = float(unit.variances.sum())
    except FloatingPointError:
        raise DomainError(f"nb.bandwidth_hz and ofdm.bandwidth_hz: the interference profile "
                          f"overflows at {cfg.nb.bandwidth_hz!r} and "
                          f"{cfg.ofdm.bandwidth_hz!r} Hz") from None
    n_sc = cfg.ofdm.num_subcarriers
    sigma_b2 = n_sc * cfg.link.symbol_power * 10.0 ** (-cfg.link.sir_db / 10.0) / total
    if not np.isfinite(sigma_b2):
        raise DomainError(f"link.sir_db = {cfg.link.sir_db!r}: interferer symbol power overflows")
    return InterferenceProfile(unit.variances * sigma_b2, sigma_b2)
