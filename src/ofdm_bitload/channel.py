"""Frequency-selective Rayleigh channel with an exponential power delay profile.

Tap n has power proportional to ``exp(-n * decay_factor)``, normalized so the
mean per-subcarrier gain is unity. The frequency response is the
unnormalized N-point DFT of the zero-padded taps, which makes unit total tap
energy map to unit average subcarrier gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ChannelConfig, OfdmConfig


@dataclass(frozen=True)
class ChannelRealization:
    freq_response: np.ndarray  # complex, length num_subcarriers
    gains_sq: np.ndarray       # |freq_response|**2


def tap_variances(channel_cfg: ChannelConfig) -> np.ndarray:
    """Tap powers summing to 1, so that E{|H_k|^2} = 1 for every subcarrier."""
    powers = np.exp(-np.arange(channel_cfg.num_taps) * channel_cfg.decay_factor)
    return (1.0 / powers.sum()) * powers


def draw_realization(channel_cfg: ChannelConfig, ofdm_cfg: OfdmConfig,
                     rng: np.random.Generator) -> ChannelRealization:
    """One circularly-symmetric complex Gaussian tap draw and its DFT."""
    one = _from_normals(channel_cfg, ofdm_cfg, rng.standard_normal((1, 2 * channel_cfg.num_taps)))
    return ChannelRealization(one.freq_response[0], one.gains_sq[0])


def _from_normals(channel_cfg: ChannelConfig, ofdm_cfg: OfdmConfig,
                  normals: np.ndarray) -> ChannelRealization:
    """One draw per row of 2L standard normals (the taps' real parts, then
    their imaginary parts), with one DFT over all rows."""
    n = channel_cfg.num_taps
    std = np.sqrt(tap_variances(channel_cfg) / 2.0)
    taps = std * (normals[:, :n] + 1j * normals[:, n:])
    freq = np.fft.fft(taps, ofdm_cfg.num_subcarriers, axis=1)
    return ChannelRealization(freq_response=freq, gains_sq=np.abs(freq) ** 2)
