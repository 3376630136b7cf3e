"""Reference computations the benchmark checks the program's outputs against.

They are written apart from the package: a plain greedy loader, the exact
Gray-mapped PAM bit-error statistics, and the energy of the truncated RRC
pulse by quadrature. Only ``link.ber`` and ``Constellation`` are taken from
the package, because the greedy loader is defined in terms of them.
"""

from __future__ import annotations

import math

import numpy as np

from ofdm_bitload import link

STEP_DOWN = {6: 4, 4: 2, 2: 1, 1: 0}
TIE_REL = 1e-9


def greedy(gammas, target, cp_loss):
    """Plain greedy loading: every BER recomputed from ``link.ber`` at each step.

    Returns the final bits per subcarrier and the list of bit-weighted mean
    BERs of every state visited (NaN once everything is nulled).
    """
    gammas = np.asarray(gammas, dtype=float)
    bits = np.full(gammas.size, 6)
    means = []
    while True:
        per = np.full(gammas.size, np.nan)
        for m in (6, 4, 2, 1):
            on = bits == m
            if on.any():
                per[on] = link.ber(link.Constellation(m), gammas[on], cp_loss)
        active = bits > 0
        if not active.any():
            means.append(float("nan"))
            return bits, means
        num = float((bits[active] * per[active]).sum())
        den = int(bits[active].sum())
        means.append(num / den)
        if num <= target * den:
            return bits, means
        victim = int(np.nanargmax(per))  # first maximum: lowest index on ties
        bits[victim] = STEP_DOWN[int(bits[victim])]


def weighted_mean_ber(loads, gammas, cp_loss):
    bits = np.array([int(c) for c in loads])
    active = bits > 0
    per = np.array([link.ber(link.Constellation(int(m)), float(g), cp_loss)
                    for m, g in zip(bits[active], np.asarray(gammas)[active])])
    return float((bits[active] * per).sum() / bits[active].sum())


def check_allocation(result, gammas, target, cp_loss):
    """'' when allocate agrees with the greedy reference, else the reason.

    A stop decision taken where the mean BER is within TIE_REL of the target
    can go either way under rounding; such a mismatch is a tie, not a fault.
    """
    got = np.array([int(c) for c in result.loads])
    want, means = greedy(gammas, target, cp_loss)
    if result.status.value == "met":
        mean = weighted_mean_ber(result.loads, gammas, cp_loss)
        if mean > target * (1.0 + TIE_REL):
            return f"met allocation has mean BER {mean!r} above target {target!r}"
    if np.array_equal(got, want):
        return ""
    stop = min(result.iterations, len(means) - 1)
    if abs(means[stop] - target) <= TIE_REL * target:
        return ""
    return (f"loads differ from the greedy reference after {result.iterations} "
            f"iterations (reference {len(means) - 1})")


def q(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def gray_pam_moments(levels, scale, noise_std):
    """Mean and variance of the Gray bit errors of one PAM symbol.

    Levels at (2i - (levels - 1)) * scale, nearest-level decisions, Gaussian
    noise; each transition probability comes from upper-tail Q terms.
    """
    gray = [i ^ (i >> 1) for i in range(levels)]
    mean = square = 0.0
    for i in range(levels):
        for j in range(levels):
            if i == j:
                continue
            # decision region of level j relative to level i, in noise units
            near = (2 * abs(j - i) - 1) * scale / noise_std
            far = (2 * abs(j - i) + 1) * scale / noise_std
            edge = j in (0, levels - 1)
            p = q(near) - (0.0 if edge else q(far))
            h = bin(gray[i] ^ gray[j]).count("1")
            mean += p * h / levels
            square += p * h * h / levels
    return mean, square - mean * mean


def measured_ber_band(constellation, sinr, cp_loss, bits_sent):
    """Expected bit errors and their standard deviation for measure_ber.

    B/QPSK send unit-energy binary axes at noise 1/(2 g) per axis (one axis
    for BPSK, two for QPSK); square QAM sends two sqrt(M)-PAM axes with unit
    average symbol energy.
    """
    geff = cp_loss * sinr
    m = int(constellation)
    symbols = bits_sent // m
    noise_std = math.sqrt(1.0 / (2.0 * geff))
    if m == 1:
        levels, scale, axes = 2, 1.0, symbols
    elif m == 2:
        levels, scale, axes = 2, 1.0, 2 * symbols
    else:
        size = 2 ** m
        levels, scale, axes = int(math.isqrt(size)), math.sqrt(3.0 / (2.0 * (size - 1))), 2 * symbols
    mean, var = gray_pam_moments(levels, scale, noise_std)
    return axes * mean, math.sqrt(axes * var)


def rrc(x, rolloff):
    """Unit-energy root-raised-cosine at x symbol periods (textbook form)."""
    a = rolloff
    if abs(x) < 1e-8:
        return 1.0 - a + 4.0 * a / math.pi
    if a > 0 and abs(abs(x) - 1.0 / (4.0 * a)) < 1e-8:
        return (a / math.sqrt(2.0)) * ((1.0 + 2.0 / math.pi) * math.sin(math.pi / (4.0 * a))
                                      + (1.0 - 2.0 / math.pi) * math.cos(math.pi / (4.0 * a)))
    return ((math.sin(math.pi * x * (1.0 - a)) + 4.0 * a * x * math.cos(math.pi * x * (1.0 + a)))
            / (math.pi * x * (1.0 - (4.0 * a * x) ** 2)))


def truncated_rrc_energy(rolloff, span):
    """Energy of the RRC pulse kept on [-span, span] symbol periods."""
    from scipy.integrate import quad  # only the checks need it, not set-up

    total = 0.0
    for k in range(-span, span):
        value, _err = quad(lambda x: rrc(x, rolloff) ** 2, k, k + 1,
                           epsabs=1e-14, epsrel=1e-12, limit=200)
        total += value
    return total
