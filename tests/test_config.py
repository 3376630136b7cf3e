import dataclasses
import pathlib

import pytest
from hypothesis import given, strategies as st

from ofdm_bitload import DomainError, OfdmConfig, SystemConfig, updated, validate
from ofdm_bitload.config import _MAX_PULSE_SPAN, _MAX_SUBCARRIERS, parse_config


class TestDerivedQuantities:
    def test_baseline_subcarrier_spacing(self, base_cfg):
        assert round(base_cfg.ofdm.subcarrier_spacing_hz / 1e3, 4) == 9.7656

    def test_baseline_durations(self, base_cfg):
        assert base_cfg.ofdm.useful_symbol_s == pytest.approx(102.4e-6)
        assert base_cfg.ofdm.sample_period_s == pytest.approx(0.8e-6)
        assert base_cfg.nb.symbol_period_s == pytest.approx(90e-6)

    def test_spacing_times_n_is_bandwidth(self, base_cfg):
        assert base_cfg.ofdm.subcarrier_spacing_hz * base_cfg.ofdm.num_subcarriers \
            == base_cfg.ofdm.bandwidth_hz

    def test_carrier_offset(self, base_cfg):
        assert base_cfg.carrier_offset_hz == pytest.approx(0.52 * 1.25e6)


class TestCpLossFactor:
    @pytest.mark.parametrize("cp_fraction,expected", [(0.25, 0.8), (0.0, 1.0), (1.0, 0.5)])
    def test_known_values(self, cp_fraction, expected):
        ofdm = OfdmConfig(cp_fraction=cp_fraction)
        assert ofdm.cp_loss_factor == pytest.approx(expected)


class TestValidation:
    def test_baseline_accepted(self):
        validate(SystemConfig())

    def test_zero_target_ber_rejected(self, base_cfg):
        # a SystemConfig validates itself, so building the bad one raises
        with pytest.raises(DomainError, match="target_ber"):
            updated(base_cfg, {"link.target_ber": 0.0})

    @pytest.mark.parametrize("key,value", [
        ("ofdm.bandwidth_hz", -1.0),
        # positive, but the subcarrier spacing BW / N underflows to 0
        ("ofdm.bandwidth_hz", 5e-324),
        ("nb.bandwidth_hz", 0.0),
        ("nb.normalized_freq", -0.1),
        # memory grows with N; the config is rejected before anything sized by N
        ("ofdm.num_subcarriers", _MAX_SUBCARRIERS + 1),
        ("ofdm.num_subcarriers", 10 ** 30),
        ("channel.num_taps", 0),
        # np.fft.fft(taps, N) would crop taps past N and lose their power
        ("channel.num_taps", 256),
        ("channel.decay_factor", 0.0),
        # n * decay, the exponent of tap n, overflows at the last tap, n = 4
        ("channel.decay_factor", 1e308),
        # span * T must be a float
        ("nb.pulse_span_symbols", _MAX_PULSE_SPAN + 1),
        pytest.param("nb.pulse_span_symbols", 10 ** 400, id="nb.pulse_span_symbols-10^400"),
        ("link.est_error_var", -1e-3),
        ("link.symbol_power", 0.0),
        ("link.target_ber", 0.5),
        # 10^(4000/10) overflows a float power
        ("link.avg_snr_db", -4000.0),
        ("link.sir_db", -4000.0),
    ])
    def test_invariant_violations(self, base_cfg, key, value):
        with pytest.raises(DomainError):
            validate(updated(base_cfg, {key: value}))

    @pytest.mark.parametrize("key", [
        "ofdm.bandwidth_hz", "nb.bandwidth_hz", "nb.normalized_freq",
        "channel.decay_factor", "link.est_error_var", "link.symbol_power",
    ])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_rejected(self, base_cfg, key, value):
        with pytest.raises(DomainError, match="finite"):
            validate(updated(base_cfg, {key: value}))

    def test_subcarriers_at_bound_accepted(self, base_cfg):
        cfg = updated(base_cfg, {"ofdm.num_subcarriers": _MAX_SUBCARRIERS})
        assert cfg.ofdm.num_subcarriers == _MAX_SUBCARRIERS

    def test_sections_updated_together(self, base_cfg):
        # 4 subcarriers admit 3 taps but not the default 5: the config is
        # validated once, with both sections changed, not section by section
        both = updated(base_cfg, {"ofdm.num_subcarriers": 4, "channel.num_taps": 3})
        assert (both.ofdm.num_subcarriers, both.channel.num_taps) == (4, 3)

    def test_unknown_key_rejected(self, base_cfg):
        with pytest.raises(DomainError, match="unknown config key"):
            updated(base_cfg, {"link.bogus": 1.0})

    @pytest.mark.parametrize("key,value", [
        ("ofdm.num_subcarriers", 3.5), ("ofdm.num_subcarriers", float("nan")),
        ("ofdm.num_subcarriers", "3.5"), ("ofdm.num_subcarriers", "1e3"),
        ("ofdm.num_subcarriers", None), ("link.sir_db", "minus ten"),
    ], ids=["float", "nan", "text", "exponent", "none", "word"])
    def test_unreadable_value_rejected(self, base_cfg, key, value):
        with pytest.raises(DomainError, match=key):
            updated(base_cfg, {key: value})


def _config_text(cfg):
    """One ``key = value!r`` line per config field."""
    return "".join(f"{section.name}.{f.name} = {getattr(getattr(cfg, section.name), f.name)!r}\n"
                   for section in dataclasses.fields(cfg)
                   for f in dataclasses.fields(getattr(cfg, section.name)))


class TestSerialization:
    def test_round_trip_identity(self, base_cfg):
        assert parse_config(_config_text(base_cfg)) == base_cfg

    @given(snr=st.floats(-10, 60), fn=st.floats(0, 3),
           cp=st.floats(0, 1), taps=st.integers(1, 12))
    def test_round_trip_preserves_derived_values(self, snr, fn, cp, taps):
        cfg = updated(SystemConfig(), {
            "link.avg_snr_db": snr, "nb.normalized_freq": fn,
            "ofdm.cp_fraction": cp, "channel.num_taps": taps})
        back = parse_config(_config_text(cfg))
        assert back == cfg
        assert back.ofdm.cp_loss_factor == cfg.ofdm.cp_loss_factor
        assert back.nb.symbol_period_s == cfg.nb.symbol_period_s
        assert back.link.noise_variance == cfg.link.noise_variance

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\nlink.avg_snr_db = 5 # inline\n")
        assert cfg.link.avg_snr_db == 5.0

    def test_malformed_line(self):
        with pytest.raises(DomainError, match="line 1"):
            parse_config("what is this")

    def test_key_set_twice_in_file(self):
        # the last value would win without a word
        with pytest.raises(DomainError, match="lines 1 and 3: key 'link.sir_db' set twice"):
            parse_config("link.sir_db = 20\n# again\nlink.sir_db = -20\n")

    def test_unknown_key_in_file(self):
        # a removed key is unknown too: cp_fraction alone sets the guard time
        for text in ("nb.carrier_hz = 1e6\n", "ofdm.postfix_s = 0.0\n"):
            with pytest.raises(DomainError, match="unknown key"):
                parse_config(text)

    def test_shipped_example_config_matches_defaults(self):
        path = pathlib.Path(__file__).resolve().parent.parent / "configs" / "table1.cfg"
        assert parse_config(path.read_text(encoding="utf-8")) == SystemConfig()


def test_configs_are_immutable(base_cfg):
    with pytest.raises(dataclasses.FrozenInstanceError):
        base_cfg.link.avg_snr_db = 10.0
