import importlib.metadata
import json
import math
import shutil

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ofdm_bitload import SystemConfig, calibrated_profile, dump_config, updated
from ofdm_bitload.config import config_as_dict
from ofdm_bitload.cli import main
from ofdm_bitload.experiments import CSV_HEADER
from ofdm_bitload.interference import profile_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """Parse standard JSON only: NaN, Infinity and -Infinity are rejected."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


class TestAllocate:
    def test_baseline_json_summary(self, capsys):
        code, out, _ = run_cli(capsys, "--seed", "0", "allocate")
        assert code == 0
        summary = json.loads(out)
        assert summary["status"] == "met"
        assert summary["throughput_bits"] > 0
        assert summary["mean_ber"] <= 1e-4
        assert len(summary["loads"]) == 128

    def test_deterministic(self, capsys):
        _, out_a, _ = run_cli(capsys, "--seed", "9", "allocate")
        _, out_b, _ = run_cli(capsys, "--seed", "9", "allocate")
        assert out_a == out_b

    def test_overrides_change_result(self, capsys):
        _, rich, _ = run_cli(capsys, "allocate", "--sir-db", "20")
        _, poor, _ = run_cli(capsys, "allocate", "--sir-db", "-20")
        assert json.loads(rich)["throughput_bits"] \
            > json.loads(poor)["throughput_bits"]


class TestSweep:
    def test_snr_sweep_writes_csv_and_sidecar(self, capsys, tmp_path):
        out_csv = tmp_path / "snr.csv"
        code, out, err = run_cli(
            capsys, "--trials", "10", "--workers", "1",
            "--output", str(out_csv),
            "sweep-snr", "--grid", "10,20")
        assert code == 0
        assert out.strip() == str(out_csv)
        assert "2 points x 10 trials" in err
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        sidecar = json.loads((tmp_path / "snr.json").read_text())
        assert sidecar["sweep"]["kind"] == "snr"
        assert len(sidecar["records"]) == 2

    def test_fn_sweep_with_default_grid(self, capsys, tmp_path):
        out_csv = tmp_path / "fn.csv"
        code, _, _ = run_cli(
            capsys, "--trials", "2", "--workers", "1",
            "--output", str(out_csv), "sweep-fn")
        assert code == 0
        assert len(out_csv.read_text().strip().split("\n")) == 17

    def test_bad_grid_is_domain_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "--output", str(tmp_path / "x.csv"),
            "sweep-snr", "--grid", "20,10")
        assert code == 3
        assert "error:" in err

    @pytest.mark.parametrize("command, flag", [
        ("sweep-fn", "--fn"), ("sweep-snr", "--snr-db"), ("sweep-sigma-h", "--sigma-h2")])
    def test_own_axis_flag_is_usage_error(self, capsys, tmp_path, command, flag):
        # the grid sets the swept key, so its flag could only be ignored
        code, out, err = run_cli(
            capsys, "--trials", "2", "--workers", "1", "--output", str(tmp_path / "x.csv"),
            command, "--grid", "0.01", flag, "0.5")
        assert code == 2
        assert f"unrecognized arguments: {flag} 0.5" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, key, value", [
        ("--snr-db", "link.avg_snr_db", 17.5), ("--sir-db", "link.sir_db", -3.5),
        ("--fn", "nb.normalized_freq", 0.31), ("--sigma-h2", "link.est_error_var", 0.004)])
    def test_link_flag_sets_its_config_key(self, capsys, tmp_path, flag, key, value):
        command, grid = ("sweep-snr", "10") if flag == "--fn" else ("sweep-fn", "0.45")
        out_csv = tmp_path / "x.csv"
        code, _, _ = run_cli(capsys, "--trials", "2", "--workers", "1",
                             "--output", str(out_csv), command, "--grid", grid,
                             flag, repr(value))
        assert code == 0
        sidecar = json.loads((tmp_path / "x.json").read_text())
        assert sidecar["sweep"]["fixed"] == {}
        defaults = config_as_dict(SystemConfig())
        for other in ("link.avg_snr_db", "link.sir_db", "nb.normalized_freq",
                      "link.est_error_var"):
            assert sidecar["config"][other] == (value if other == key else defaults[other])


class TestProfileDump:
    def test_analytic_only(self, capsys, tmp_path):
        out_csv = tmp_path / "prof.csv"
        code, out, _ = run_cli(capsys, "--output", str(out_csv), "profile-dump")
        assert code == 0
        assert out_csv.read_text() == profile_csv(calibrated_profile(SystemConfig()))
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "k,variance_analytic"
        assert len(lines) == 129
        sidecar = json.loads((tmp_path / "prof.json").read_text())
        assert sidecar["sigma_b2"] > 0

    def test_analytic_column_is_seed_free(self, capsys, tmp_path):
        columns = []
        for seed in ("1", "2"):
            out_csv = tmp_path / f"prof{seed}.csv"
            code, _, _ = run_cli(capsys, "--seed", seed, "--output", str(out_csv),
                                 "profile-dump", "--mc-symbols", "20")
            assert code == 0
            rows = out_csv.read_text().strip().split("\n")[1:]
            columns.append([row.split(",")[:2] for row in rows])
        assert columns[0] == columns[1]

    def test_huge_offset_profile_is_finite(self, capsys, tmp_path):
        texts = []
        for fn in ("0", "1e308"):
            out_csv = tmp_path / f"prof{fn}.csv"
            code, _, _ = run_cli(capsys, "--output", str(out_csv), "profile-dump",
                                 f"--fn={fn}")
            assert code == 0
            texts.append(out_csv.read_text())
            # F_n acts mod 1, and so does the offset the sidecar reports
            sidecar = strict_json((tmp_path / f"prof{fn}.json").read_text())
            assert sidecar["config"]["derived.carrier_offset_hz"] == 0.0
        rows = [row.split(",") for row in texts[1].strip().split("\n")[1:]]
        assert all(math.isfinite(float(v)) for _, v in rows)
        assert texts[1] == texts[0]

    def test_with_mc_column(self, capsys, tmp_path):
        out_csv = tmp_path / "prof.csv"
        code, _, _ = run_cli(capsys, "--output", str(out_csv),
                             "profile-dump", "--mc-symbols", "50")
        assert code == 0
        assert out_csv.read_text().splitlines()[0] \
            == "k,variance_analytic,variance_mc"


class TestVerify:
    def test_summary_contains_measured_ber(self, capsys):
        code, out, _ = run_cli(capsys, "--seed", "11", "verify",
                               "--sir-db", "-10", "--symbols", "5000")
        assert code == 0
        summary = json.loads(out)
        assert summary["status"] == "met"
        assert summary["measured_mean_ber"] >= 0.0
        assert summary["target_ber"] == 1e-4


class TestConfigHandling:
    def test_config_file_flag(self, capsys, tmp_path):
        cfg = updated(SystemConfig(), {"link.sir_db": -20.0})
        path = tmp_path / "low_sir.cfg"
        path.write_text(dump_config(cfg))
        _, out, _ = run_cli(capsys, "--config", str(path), "allocate")
        _, base, _ = run_cli(capsys, "allocate")
        assert json.loads(out)["throughput_bits"] \
            < json.loads(base)["throughput_bits"]

    def test_config_env_var(self, capsys, tmp_path, monkeypatch):
        cfg = updated(SystemConfig(), {"link.sir_db": -20.0})
        path = tmp_path / "env.cfg"
        path.write_text(dump_config(cfg))
        monkeypatch.setenv("OFDM_BITLOAD_CONFIG", str(path))
        _, out_env, _ = run_cli(capsys, "allocate")
        monkeypatch.delenv("OFDM_BITLOAD_CONFIG")
        _, out_flag, _ = run_cli(capsys, "--config", str(path), "allocate")
        assert out_env == out_flag

    def test_invalid_config_value_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("link.target_ber = 0\n")
        code, _, err = run_cli(capsys, "--config", str(path), "allocate")
        assert code == 3
        assert "target_ber" in err

    def test_non_finite_flag_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "allocate", "--fn", "inf")
        assert code == 3
        assert "nb.normalized_freq finite" in err

    @pytest.mark.parametrize("value", ["3.5", "1e3"])
    def test_unreadable_config_value_exit_code(self, capsys, tmp_path, value):
        path = tmp_path / "bad.cfg"
        path.write_text(f"ofdm.num_subcarriers = {value}\n")
        code, _, err = run_cli(capsys, "--config", str(path), "allocate")
        assert code == 3
        assert "ofdm.num_subcarriers" in err

    @pytest.mark.parametrize("flag", ["--snr-db", "--sir-db"])
    def test_overflowing_db_flag_exit_code(self, capsys, flag):
        code, out, err = run_cli(capsys, "allocate", f"{flag}=-4000")
        assert code == 3
        assert out == ""
        assert "power finite" in err

    def test_overflowing_interferer_power_exit_code(self, capsys):
        # 10^308 passes validate, but calibration multiplies it by N
        code, out, err = run_cli(capsys, "allocate", "--sir-db=-3080")
        assert code == 3
        assert out == ""
        assert "link.sir_db" in err

    @pytest.mark.parametrize("key,bandwidth", [
        ("nb.bandwidth_hz", "1e-300"), ("nb.bandwidth_hz", "1e300"),
        ("nb.bandwidth_hz", "10"), ("ofdm.bandwidth_hz", "1e300")],
        ids=["1e-300", "1e300", "10", "ofdm-1e300"])
    def test_extreme_interferer_bandwidth_exit_code(self, capsys, tmp_path, key, bandwidth):
        # validate passes all four; the pulse spans too few or too many samples
        path = tmp_path / "bw.cfg"
        path.write_text(f"{key} = {bandwidth}\n")
        code, out, err = run_cli(capsys, "--config", str(path),
                                 "--output", str(tmp_path / "prof.csv"), "profile-dump")
        assert code == 3
        assert out == ""
        assert "nb.bandwidth_hz and ofdm.bandwidth_hz" in err
        assert [p.name for p in tmp_path.iterdir()] == ["bw.cfg"]

    def test_missing_config_file_is_generic_error(self, capsys):
        code, _, err = run_cli(capsys, "--config", "/nonexistent.cfg", "allocate")
        assert code == 1
        assert "error:" in err


class TestUsage:
    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "sweep-fn" in out

    @pytest.mark.parametrize("flag, argv", [
        ("--seed", ["--seed", "-1", "allocate"]),
        ("--trials", ["--trials", "0", "sweep-snr", "--grid", "20"]),
        ("--workers", ["--workers", "0", "--trials", "2", "sweep-snr", "--grid", "20"]),
        ("--symbols", ["verify", "--symbols", "-3", "--sir-db", "30"]),
        ("--mc-symbols", ["profile-dump", "--mc-symbols", "-5"]),
        ("--grid", ["--trials", "2", "sweep-fn", "--grid", "0.5,abc"]),
    ])
    def test_out_of_range_flag_is_usage_error(self, capsys, tmp_path, flag, argv):
        if flag != "--workers":
            argv = ["--workers", "1"] + argv
        code, out, err = run_cli(capsys, "--output", str(tmp_path / "out.csv"), *argv)
        assert code == 2
        assert f"argument {flag}" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []


# Flag values: in range half the time, else any float as Python prints it or
# hostile text: NaN, +-inf, huge (10^(4000/10) overflows a float), empty and
# no number at all. A count is never a huge valid integer: a run's cost grows
# with trials and symbols.
_NOT_A_NUMBER = ["", "abc", "-", "0x10", "1,2"]
_EXTREME = ["nan", "inf", "-inf", "1e400", "-4000", "-3080", "4000", "-1e308", "1e308"]


def _float_text(low, high):
    return st.one_of(st.floats(low, high).map(repr),
                     st.one_of(st.floats().map(repr), st.sampled_from(_EXTREME + _NOT_A_NUMBER)))


def _count_text(low, high):
    return st.one_of(st.integers(low, high).map(str),
                     st.one_of(st.integers(-5, low - 1).map(str), st.floats().map(repr),
                               st.sampled_from(_NOT_A_NUMBER)))


_FLOAT_FLAGS = {"--snr-db": _float_text(-10.0, 60.0), "--sir-db": _float_text(-30.0, 30.0),
                "--fn": _float_text(0.0, 1.0), "--sigma-h2": _float_text(0.0, 0.1)}
_SUBCOMMANDS = {
    "allocate": dict(_FLOAT_FLAGS),
    "verify": dict(_FLOAT_FLAGS, **{"--symbols": _count_text(1, 200)}),
    "profile-dump": {"--fn": _FLOAT_FLAGS["--fn"], "--sir-db": _FLOAT_FLAGS["--sir-db"],
                     "--mc-symbols": _count_text(0, 20)},
    # a sweep takes every link flag but its own axis's
    **{name: dict({f: t for f, t in _FLOAT_FLAGS.items() if f != axis},
                  **{"--grid": st.lists(_float_text(0.0, 40.0), min_size=1,
                                        max_size=3).map(",".join)})
       for name, axis in (("sweep-fn", "--fn"), ("sweep-snr", "--snr-db"),
                          ("sweep-sigma-h", "--sigma-h2"))},
}


@st.composite
def _argv(draw):
    argv = ["--workers", "1", f"--trials={draw(st.just('2') | _count_text(1, 2))}"]
    if draw(st.booleans()):
        argv.append(f"--seed={draw(_count_text(0, 10) | st.just(str(2 ** 70)))}")
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    argv.append(command)
    for flag, text in _SUBCOMMANDS[command].items():
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(text)}")
    return argv


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
def test_hostile_flags_exit_cleanly(capsys, tmp_path, argv):
    """Any argv from the flag grammar exits 0, 2 (usage) or 3 (domain), never 1."""
    out_csv = tmp_path / "out.csv"
    code, out, err = run_cli(capsys, "--output", str(out_csv), *argv)
    assert code in (0, 2, 3), err
    if code == 0:
        if out.strip() == str(out_csv):
            assert out_csv.is_file()
        else:
            json.loads(out)
    for sidecar in tmp_path.glob("*.json"):
        strict_json(sidecar.read_text())


def _distribution_missing(name: str) -> bool:
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return True
    return False


@pytest.mark.skipif(_distribution_missing("ofdm-bitload"),
                    reason="ofdm-bitload is not installed, so no console "
                           "script exists (running from a source tree)")
def test_console_script_installed():
    assert shutil.which("ofdm-bitload") is not None
