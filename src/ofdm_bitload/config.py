"""System parameters: OFDM grid, narrowband interferer, channel, and link budget.

Defaults reproduce the 1.25 MHz / 128-subcarrier system with a 15 kHz
root-raised-cosine QPSK interferer. All configs are frozen dataclasses, and a
SystemConfig checks every invariant when it is built; derived quantities
(subcarrier spacing, symbol durations, cyclic-prefix loss) are exposed as
properties so they can never drift out of sync with the raw parameters.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class OfdmConfig:
    bandwidth_hz: float = 1.25e6
    num_subcarriers: int = 128
    cp_fraction: float = 0.25

    @property
    def subcarrier_spacing_hz(self) -> float:
        return self.bandwidth_hz / self.num_subcarriers

    @property
    def useful_symbol_s(self) -> float:
        return 1.0 / self.subcarrier_spacing_hz

    @property
    def sample_period_s(self) -> float:
        return 1.0 / self.bandwidth_hz

    @property
    def cp_loss_factor(self) -> float:
        """Useful-symbol fraction of the total symbol duration, in (0, 1]."""
        t_u = self.useful_symbol_s
        return t_u / (t_u + self.cp_fraction * t_u)


@dataclass(frozen=True)
class NbConfig:
    bandwidth_hz: float = 15e3
    rolloff: float = 0.35
    normalized_freq: float = 0.52
    pulse_span_symbols: int = 16

    @property
    def symbol_period_s(self) -> float:
        """RRC occupied-bandwidth relation: T = (1 + rolloff) / bandwidth."""
        return (1.0 + self.rolloff) / self.bandwidth_hz


@dataclass(frozen=True)
class ChannelConfig:
    num_taps: int = 5
    decay_factor: float = 0.2


@dataclass(frozen=True)
class LinkConfig:
    avg_snr_db: float = 20.0
    sir_db: float = 0.0
    est_error_var: float = 0.0
    target_ber: float = 1e-4
    symbol_power: float = 1.0

    @property
    def noise_variance(self) -> float:
        """Noise power for the configured average SNR at unit channel gain."""
        return self.symbol_power * 10.0 ** (-self.avg_snr_db / 10.0)


@dataclass(frozen=True)
class SystemConfig:
    ofdm: OfdmConfig = OfdmConfig()
    nb: NbConfig = NbConfig()
    channel: ChannelConfig = ChannelConfig()
    link: LinkConfig = LinkConfig()

    def __post_init__(self) -> None:
        validate(self)

    @property
    def carrier_offset_hz(self) -> float:
        """Interferer carrier offset from the OFDM carrier, (F_n mod 1) * BW.

        The carrier is sampled at integer n, so F_n acts only mod 1: this is
        the offset the model simulates, finite for any finite F_n and equal
        to F_n * BW bit for bit when F_n is in [0, 1).
        """
        return (self.nb.normalized_freq % 1.0) * self.ofdm.bandwidth_hz


# The most subcarriers a config may set, eight times the paper's 128; memory
# grows with N. At this bound and the other defaults, `profile-dump
# --mc-symbols 4000` peaks at 326 MiB RSS (its 128 pulse lattices, L x N each)
# and a 512-trial `sweep-snr` at 65 MiB (numpy 2.4, from 55 MiB after import).
_MAX_SUBCARRIERS = 2 ** 10
# The most interferer symbols the truncated pulse may span on each side, 4096
# times the default 16. The routes that evaluate the pulse bound their own
# sizes (the analytic profile's samples per half-span, the Monte Carlo
# lattice's symbols), but both first take span * T as a float, and a span of
# 10^400 has none: it would fail as an OverflowError, not a DomainError.
_MAX_PULSE_SPAN = 2 ** 16


def _check(cond: bool, name: str) -> None:
    if not cond:
        raise DomainError(f"invariant violated: {name}")


def _power_finite(symbol_power: float, db: float) -> bool:
    """Whether symbol_power * 10^(-db/10), a power db below the signal, is finite."""
    try:
        return math.isfinite(symbol_power * 10.0 ** (-db / 10.0))
    except OverflowError:
        return False


def validate(cfg: SystemConfig) -> SystemConfig:
    """Check every invariant; raise DomainError naming the first violation."""
    for key, (section, field, typ) in _KEY_MAP.items():
        if typ is float:
            _check(math.isfinite(getattr(getattr(cfg, section), field)), f"{key} finite")
    o, n, c, l = cfg.ofdm, cfg.nb, cfg.channel, cfg.link
    _check(o.bandwidth_hz > 0, "ofdm.bandwidth_hz > 0")
    _check(isinstance(o.num_subcarriers, int) and 1 <= o.num_subcarriers <= _MAX_SUBCARRIERS,
           f"ofdm.num_subcarriers integer in [1, {_MAX_SUBCARRIERS}]")
    _check(o.cp_fraction >= 0, "ofdm.cp_fraction >= 0")
    _check(o.subcarrier_spacing_hz > 0, "ofdm.bandwidth_hz / ofdm.num_subcarriers > 0")
    _check(0.0 < o.cp_loss_factor <= 1.0, "cp loss factor in (0, 1]")
    _check(n.bandwidth_hz > 0, "nb.bandwidth_hz > 0")
    _check(0.0 <= n.rolloff <= 1.0, "nb.rolloff in [0, 1]")
    _check(n.normalized_freq >= 0, "nb.normalized_freq >= 0")
    _check(isinstance(n.pulse_span_symbols, int) and 1 <= n.pulse_span_symbols <= _MAX_PULSE_SPAN,
           f"nb.pulse_span_symbols integer in [1, {_MAX_PULSE_SPAN}]")
    _check(isinstance(c.num_taps, int) and c.num_taps >= 1, "channel.num_taps >= 1")
    _check(c.num_taps <= o.num_subcarriers, "channel.num_taps <= ofdm.num_subcarriers")
    _check(c.decay_factor > 0, "channel.decay_factor > 0")
    # the last tap's exponent; past a float it overflows in tap_variances
    _check(math.isfinite(c.decay_factor * (c.num_taps - 1)),
           "channel.decay_factor * (channel.num_taps - 1) finite")
    _check(l.est_error_var >= 0, "link.est_error_var >= 0")
    _check(0.0 < l.target_ber < 0.5, "link.target_ber in (0, 0.5)")
    _check(l.symbol_power > 0, "link.symbol_power > 0")
    _check(_power_finite(l.symbol_power, l.avg_snr_db), "link.avg_snr_db: noise power finite")
    _check(_power_finite(l.symbol_power, l.sir_db), "link.sir_db: interference power finite")
    return cfg


# Flat key-value config file support: one "section.field" key per dataclass
# field, read as the type of its default.
_KEY_MAP = {f"{section.name}.{f.name}": (section.name, f.name, type(f.default))
            for section in dataclasses.fields(SystemConfig)
            for f in dataclasses.fields(section.default)}


def updated(cfg: SystemConfig, overrides: dict) -> SystemConfig:
    """Return a copy of cfg with dotted-key overrides applied, validated as a whole."""
    groups: dict[str, dict] = {}
    for key, value in overrides.items():
        if key not in _KEY_MAP:
            raise DomainError(f"unknown config key: {key}")
        section, field, typ = _KEY_MAP[key]
        try:
            converted = typ(value)
        except (TypeError, ValueError, OverflowError):
            raise DomainError(f"config key {key}: cannot read {value!r} as {typ.__name__}") \
                from None
        if typ is int and not isinstance(value, str) and converted != value:
            raise DomainError(f"config key {key}: {value!r} is not an integer")
        groups.setdefault(section, {})[field] = converted
    return dataclasses.replace(cfg, **{s: dataclasses.replace(getattr(cfg, s), **fields)
                                       for s, fields in groups.items()})


def parse_config(text: str) -> SystemConfig:
    """Parse flat ``key = value`` lines ('#' starts a comment); each key once."""
    overrides, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_MAP:
            raise DomainError(f"config line {lineno}: unknown key {key!r}")
        if key in lines:
            raise DomainError(f"config lines {lines[key]} and {lineno}: key {key!r} set twice")
        overrides[key], lines[key] = value, lineno
    return updated(SystemConfig(), overrides)


def load_config(path) -> SystemConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def config_as_dict(cfg: SystemConfig) -> dict:
    """Fully-resolved parameters plus derived quantities, for provenance output."""
    out = {key: getattr(getattr(cfg, section), field)
           for key, (section, field, _typ) in _KEY_MAP.items()}
    out["derived.subcarrier_spacing_hz"] = cfg.ofdm.subcarrier_spacing_hz
    out["derived.useful_symbol_s"] = cfg.ofdm.useful_symbol_s
    out["derived.sample_period_s"] = cfg.ofdm.sample_period_s
    out["derived.cp_loss_factor"] = cfg.ofdm.cp_loss_factor
    out["derived.nb_symbol_period_s"] = cfg.nb.symbol_period_s
    out["derived.carrier_offset_hz"] = cfg.carrier_offset_hz
    out["derived.noise_variance"] = cfg.link.noise_variance
    return out
