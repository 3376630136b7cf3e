import importlib.metadata
import json
import math
import os
import pathlib
import re
import shlex
import shutil
import subprocess

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ofdm_bitload import DomainError, SystemConfig, calibrated_profile, updated
from ofdm_bitload.config import _KEY_MAP, _MAX_PULSE_SPAN, config_as_dict, parse_config
from ofdm_bitload.cli import _build_parser, main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


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
        code, out, _ = run_cli(capsys, "allocate", "--seed", "0")
        assert code == 0
        summary = json.loads(out)
        assert summary["status"] == "met"
        assert summary["throughput_bits"] > 0
        assert summary["mean_ber"] <= 1e-4
        assert len(summary["loads"]) == 128

    def test_deterministic(self, capsys):
        _, out_a, _ = run_cli(capsys, "allocate", "--seed", "9")
        _, out_b, _ = run_cli(capsys, "allocate", "--seed", "9")
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
            capsys, "sweep-snr", "--trials", "10", "--workers", "1",
            "--output", str(out_csv), "--grid", "10,20")
        assert code == 0
        assert out.strip() == str(out_csv)
        assert "2 points x 10 trials" in err
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "x,avg_throughput_bits,stderr_bits,stopped_fraction,trials,seed"
        assert len(lines) == 3
        sidecar = json.loads((tmp_path / "snr.json").read_text())
        assert sidecar["sweep"]["kind"] == "snr"
        assert len(sidecar["records"]) == 2

    @pytest.mark.parametrize("command, grid, kind", [
        ("sweep-fn", "0.5", "fn"), ("sweep-snr", "10", "snr"),
        ("sweep-sigma-h", "0.01", "sigma_h")])
    def test_default_output_names(self, capsys, tmp_path, command, grid, kind):
        code, out, _ = run_cli(capsys, command, "--trials", "2", "--workers", "1",
                               "--grid", grid)
        assert code == 0
        assert out.strip() == f"sweep_{kind}.csv"
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == [f"sweep_{kind}.csv", f"sweep_{kind}.json"]
        sidecar = json.loads((tmp_path / f"sweep_{kind}.json").read_text())
        assert sidecar["sweep"]["kind"] == kind

    @pytest.mark.parametrize("argv", [["--output", "res.json"], ["--output", "RES.JSON"],
                                      ["--output=x.csv.json"]])
    def test_json_output_is_usage_error(self, capsys, tmp_path, argv):
        # the sidecar is <stem>.json, so it would overwrite a CSV named so
        code, out, err = run_cli(capsys, "sweep-sigma-h", "--trials", "3", "--workers", "1",
                                 *argv)
        assert code == 2
        assert "argument --output" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--output="], ["--output", "d"],
                                      ["--output", "nodir/x.csv"]],
                             ids=["empty", "directory", "missing-parent"])
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, argv):
        # found when parsed, not after the sweep; an empty value is not "no --output"
        (tmp_path / "d").mkdir()
        code, out, err = run_cli(capsys, "sweep-snr", "--trials", "3", "--workers", "1", *argv,
                                 "--grid", "10")
        assert code == 2
        assert "argument --output" in err
        assert out == ""
        assert [p.name for p in tmp_path.rglob("*")] == ["d"]

    @pytest.mark.parametrize("argv, stem", [
        (["profile-dump", "--output", "x.csv"], "x"),
        (["sweep-snr", "--trials", "2", "--workers", "1", "--grid", "10"], "sweep_snr")],
        ids=["explicit", "default"])
    def test_sidecar_directory_is_usage_error(self, capsys, tmp_path, argv, stem):
        # the sidecar of <stem>.csv is <stem>.json; found before the work runs
        (tmp_path / f"{stem}.json").mkdir()
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert "argument --output" in err
        assert out == ""
        assert [p.name for p in tmp_path.rglob("*")] == [f"{stem}.json"]

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
    def test_output_files_get_the_umask_mode(self, capsys, tmp_path, umask):
        old = os.umask(umask)
        try:
            code, _, _ = run_cli(capsys, "profile-dump", "--output", str(tmp_path / "p.csv"))
        finally:
            os.umask(old)
        assert code == 0
        assert [(p.name, p.stat().st_mode & 0o777) for p in sorted(tmp_path.iterdir())] \
            == [("p.csv", 0o666 & ~umask), ("p.json", 0o666 & ~umask)]

    def test_fn_sweep_with_default_grid(self, capsys, tmp_path):
        out_csv = tmp_path / "fn.csv"
        code, _, _ = run_cli(
            capsys, "sweep-fn", "--trials", "2", "--workers", "1",
            "--output", str(out_csv))
        assert code == 0
        assert len(out_csv.read_text().strip().split("\n")) == 17

    def test_bad_grid_is_domain_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep-snr", "--output", str(tmp_path / "x.csv"),
            "--grid", "20,10")
        assert code == 3
        assert "error:" in err

    @pytest.mark.parametrize("command, flag", [
        ("sweep-fn", "--fn"), ("sweep-snr", "--snr-db"), ("sweep-sigma-h", "--sigma-h2")])
    def test_own_axis_flag_is_usage_error(self, capsys, tmp_path, command, flag):
        # the grid sets the swept key, so its flag could only be ignored
        code, out, err = run_cli(
            capsys, command, "--trials", "2", "--workers", "1",
            "--output", str(tmp_path / "x.csv"), "--grid", "0.01", flag, "0.5")
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
        code, _, _ = run_cli(capsys, command, "--trials", "2", "--workers", "1",
                             "--output", str(out_csv), "--grid", grid,
                             flag, repr(value))
        assert code == 0
        sidecar = json.loads((tmp_path / "x.json").read_text())
        assert sidecar["sweep"]["fixed"] == {}
        defaults = config_as_dict(SystemConfig())
        for other in ("link.avg_snr_db", "link.sir_db", "nb.normalized_freq",
                      "link.est_error_var"):
            assert sidecar["config"][other] == (value if other == key else defaults[other])


class TestProfileDump:
    def test_analytic_only(self, capsys, tmp_path, reference_csv):
        out_csv = tmp_path / "prof.csv"
        code, out, _ = run_cli(capsys, "profile-dump", "--output", str(out_csv))
        assert code == 0
        variances = calibrated_profile(SystemConfig()).variances.tolist()
        assert out_csv.read_text() \
            == reference_csv(["k", "variance_analytic"], enumerate(variances))
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "k,variance_analytic"
        assert len(lines) == 129
        sidecar = json.loads((tmp_path / "prof.json").read_text())
        assert sidecar["sigma_b2"] > 0

    def test_analytic_column_is_seed_free(self, capsys, tmp_path):
        columns = []
        for seed in ("1", "2"):
            out_csv = tmp_path / f"prof{seed}.csv"
            code, _, _ = run_cli(capsys, "profile-dump", "--seed", seed,
                                 "--output", str(out_csv), "--mc-symbols", "20")
            assert code == 0
            rows = out_csv.read_text().strip().split("\n")[1:]
            columns.append([row.split(",")[:2] for row in rows])
        assert columns[0] == columns[1]

    def test_huge_offset_profile_is_finite(self, capsys, tmp_path):
        texts = []
        for fn in ("0", "1e308"):
            out_csv = tmp_path / f"prof{fn}.csv"
            code, _, _ = run_cli(capsys, "profile-dump", "--output", str(out_csv),
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
        code, _, _ = run_cli(capsys, "profile-dump", "--output", str(out_csv),
                             "--mc-symbols", "50")
        assert code == 0
        assert out_csv.read_text().splitlines()[0] \
            == "k,variance_analytic,variance_mc"


class TestVerify:
    def test_summary_contains_measured_ber(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--seed", "11",
                               "--sir-db", "-10", "--symbols", "5000")
        assert code == 0
        summary = json.loads(out)
        assert summary["status"] == "met"
        assert summary["measured_mean_ber"] >= 0.0
        assert summary["target_ber"] == 1e-4

    def test_stopped_allocation_sends_nothing(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--sir-db", "-20", "--seed", "0",
                               "--symbols", "200")
        assert code == 0
        assert json.loads(out) == {"status": "transmission_stopped", "throughput_bits": 0}


class TestConfigHandling:
    def test_config_file_flag(self, capsys, tmp_path):
        path = tmp_path / "low_sir.cfg"
        path.write_text("link.sir_db = -20.0\n")
        _, out, _ = run_cli(capsys, "allocate", "--config", str(path))
        _, base, _ = run_cli(capsys, "allocate")
        assert json.loads(out)["throughput_bits"] \
            < json.loads(base)["throughput_bits"]

    def test_config_env_var(self, capsys, tmp_path, monkeypatch):
        # --config alone names a config file; the environment does not
        path = tmp_path / "env.cfg"
        path.write_text("link.sir_db = -20.0\n")
        _, base, _ = run_cli(capsys, "allocate")
        monkeypatch.setenv("OFDM_BITLOAD_CONFIG", str(path))
        _, out_env, _ = run_cli(capsys, "allocate")
        assert out_env == base

    def test_invalid_config_value_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("link.target_ber = 0\n")
        code, _, err = run_cli(capsys, "allocate", "--config", str(path))
        assert code == 3
        assert "target_ber" in err

    def test_key_set_twice_exit_code(self, capsys, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text("link.sir_db = 20\nlink.sir_db = -20\n")
        code, out, err = run_cli(capsys, "allocate", "--config", str(path))
        assert code == 3
        assert out == ""
        assert "lines 1 and 2: key 'link.sir_db' set twice" in err

    def test_channel_longer_than_dft_exit_code(self, capsys, tmp_path):
        path = tmp_path / "long.cfg"
        path.write_text("channel.num_taps = 256\n")
        code, out, err = run_cli(capsys, "allocate", "--config", str(path))
        assert code == 3
        assert out == ""
        assert "channel.num_taps <= ofdm.num_subcarriers" in err

    @pytest.mark.parametrize("argv, text, message", [
        (["profile-dump"], f"nb.pulse_span_symbols = {10 ** 400}",
         "nb.pulse_span_symbols integer in [1, 65536]"),
        (["allocate"], "channel.decay_factor = 1e308",
         "channel.decay_factor * (channel.num_taps - 1) finite"),
        # calibration passes at N = 1, but the Monte Carlo |Z_k|^2 overflow
        (["profile-dump", "--mc-symbols", "20"],
         "ofdm.num_subcarriers = 1\nchannel.num_taps = 1\nlink.sir_db = -3080",
         "the Monte Carlo profile overflows")],
        ids=["span-10^400", "decay-1e308", "mc-power-n1"])
    def test_huge_config_value_exit_code(self, capsys, tmp_path, argv, text, message):
        # the first two are rejected when the config is built, before span * T
        # or the tap powers are computed
        path = tmp_path / "huge.cfg"
        path.write_text(text + "\n")
        code, out, err = run_cli(capsys, *argv, "--config", str(path))
        assert code == 3
        assert out == ""
        assert message in err
        assert [p.name for p in tmp_path.iterdir()] == ["huge.cfg"]

    def test_subcarriers_above_bound_exit_code(self, capsys, tmp_path):
        path = tmp_path / "wide.cfg"
        path.write_text("ofdm.num_subcarriers = 1025\n")
        code, out, err = run_cli(capsys, "sweep-snr", "--config", str(path), "--trials", "2",
                                 "--output", str(tmp_path / "snr.csv"))
        assert code == 3
        assert out == ""
        assert "ofdm.num_subcarriers integer in [1, 1024]" in err
        assert [p.name for p in tmp_path.iterdir()] == ["wide.cfg"]

    @pytest.mark.parametrize("text", [
        "ofdm.bandwidth_hz = 5e-324", "ofdm.num_subcarriers = 200\nofdm.bandwidth_hz = 1e-322"],
        ids=["5e-324", "n200-1e-322"])
    def test_zero_subcarrier_spacing_exit_code(self, capsys, tmp_path, text):
        path = tmp_path / "tiny.cfg"
        path.write_text(text + "\n")
        code, out, err = run_cli(capsys, "allocate", "--config", str(path))
        assert code == 3
        assert out == ""
        assert "ofdm.bandwidth_hz / ofdm.num_subcarriers > 0" in err

    def test_non_finite_flag_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "allocate", "--fn", "inf")
        assert code == 3
        assert "nb.normalized_freq finite" in err

    @pytest.mark.parametrize("value", ["3.5", "1e3"])
    def test_unreadable_config_value_exit_code(self, capsys, tmp_path, value):
        path = tmp_path / "bad.cfg"
        path.write_text(f"ofdm.num_subcarriers = {value}\n")
        code, _, err = run_cli(capsys, "allocate", "--config", str(path))
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

    @pytest.mark.parametrize("text", [
        "nb.bandwidth_hz = 1e-300", "nb.bandwidth_hz = 1e300", "nb.bandwidth_hz = 10",
        "ofdm.bandwidth_hz = 1e300",
        "ofdm.bandwidth_hz = 1e308\nnb.bandwidth_hz = 1.2e306",
        "ofdm.bandwidth_hz = 1e306\nnb.bandwidth_hz = 1e308",
        "ofdm.bandwidth_hz = 1e307\nnb.bandwidth_hz = 1e308"],
        ids=["1e-300", "1e300", "10", "ofdm-1e300",
             "ofdm-1e308-nb-1.2e306", "ofdm-1e306-nb-1e308", "ofdm-1e307-nb-1e308"])
    def test_extreme_interferer_bandwidth_exit_code(self, capsys, tmp_path, text):
        # validate passes all seven; the pulse spans too few or too many
        # samples (the first four), or the profile overflows (the last three)
        path = tmp_path / "bw.cfg"
        path.write_text(text + "\n")
        code, out, err = run_cli(capsys, "profile-dump", "--config", str(path),
                                 "--output", str(tmp_path / "prof.csv"))
        assert code == 3
        assert out == ""
        assert "nb.bandwidth_hz and ofdm.bandwidth_hz" in err
        assert [p.name for p in tmp_path.iterdir()] == ["bw.cfg"]

    def test_pulse_lattice_above_bound_exit_code(self, capsys, tmp_path):
        # the analytic profile passes; the Monte Carlo column's 7563 x 128
        # lattices would not
        path = tmp_path / "wide.cfg"
        path.write_text("nb.bandwidth_hz = 1e8\n")
        code, out, err = run_cli(capsys, "profile-dump", "--config", str(path),
                                 "--mc-symbols", "2000", "--output", str(tmp_path / "prof.csv"))
        assert code == 3
        assert out == ""
        assert "pulse lattice of 7563 symbols x 128 samples" in err
        assert [p.name for p in tmp_path.iterdir()] == ["wide.cfg"]

    def test_missing_config_file_is_generic_error(self, capsys):
        code, _, err = run_cli(capsys, "allocate", "--config", "/nonexistent.cfg")
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
        ("--seed", ["allocate", "--seed", "-1"]),
        ("--trials", ["sweep-snr", "--trials", "0", "--grid", "20"]),
        ("--workers", ["sweep-snr", "--workers", "0", "--trials", "2", "--grid", "20"]),
        ("--symbols", ["verify", "--symbols", "-3", "--sir-db", "30"]),
        ("--mc-symbols", ["profile-dump", "--mc-symbols", "-5"]),
        ("--grid", ["sweep-fn", "--trials", "2", "--grid", "0.5,abc"]),
    ])
    def test_out_of_range_flag_is_usage_error(self, capsys, tmp_path, flag, argv):
        # a sweep also gets --workers 1 and --output, so only flag is out of range
        command, *argv = argv
        if command.startswith("sweep-"):
            argv = ["--output", str(tmp_path / "out.csv"), *argv]
            if flag != "--workers":
                argv = ["--workers", "1", *argv]
        argv = [command, *argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert f"argument {flag}" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command in ("allocate", "verify", "profile-dump")
        for flag in ("--trials", "--workers", "--output")
        if (command, flag) != ("profile-dump", "--output")])
    def test_unread_global_flag_is_usage_error(self, capsys, tmp_path, command, flag):
        # a flag the subcommand does not take is named, not dropped: --output
        # wrote no file and --trials and --workers changed nothing
        value = str(tmp_path / "x.csv") if flag == "--output" else "3"
        code, out, err = run_cli(capsys, command, flag, value)
        assert code == 2
        assert f"unrecognized arguments: {flag} {value}" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--trials", "5", "sweep-snr"],
                                      ["--seed", "3", "allocate"],
                                      ["--output", "x.csv", "profile-dump"]],
                             ids=["trials", "seed", "output"])
    def test_flag_before_the_subcommand_is_usage_error(self, capsys, tmp_path, argv):
        # every flag follows the subcommand that takes it
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("usage: ofdm-bitload")
        assert f"{argv[0]} must follow the subcommand" in err
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
    # a figure names its own files and sets its own curves' keys
    **{name: {} for name in ("figure-fn", "figure-snr", "figure-sigma-h")},
}


@st.composite
def _argv(draw):
    """(command, argv); argv is the command, then only flags the command takes."""
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    argv = [command]
    if command.startswith(("sweep-", "figure-")):
        argv += ["--workers", "1", f"--trials={draw(st.just('2') | _count_text(1, 2))}"]
    if draw(st.booleans()):
        argv.append(f"--seed={draw(_count_text(0, 10) | st.just(str(2 ** 70)))}")
    for flag, text in _SUBCOMMANDS[command].items():
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(text)}")
    return command, argv


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=_argv())
def test_hostile_flags_exit_cleanly(capsys, tmp_path, drawn):
    """Any argv from the flag grammar exits 0, 2 (usage) or 3 (domain), never 1."""
    command, argv = drawn
    out_csv = tmp_path / "out.csv"
    if command.startswith(("sweep-", "profile-")):
        argv = [*argv, "--output", str(out_csv)]
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 2, 3), err
    if code == 0:
        if command.startswith("figure-"):
            assert all((tmp_path / name).is_file() for name in out.split())
        elif out.strip() == str(out_csv):
            assert out_csv.is_file()
        else:
            json.loads(out)
    for sidecar in tmp_path.glob("*.json"):
        strict_json(sidecar.read_text())


# Per config key: in-range values, then boundary values. The in-range
# bandwidths, spans and sizes keep the analytic profile's pulse under 2^18
# samples per half-span (2^21 at the lattice-bound spans 253 and 254); any
# other value stays within that or is rejected before anything is sized by
# it, so no draw runs long or allocates much. The size keys reach just above
# their bounds.
_KEY_VALUES = {
    "ofdm.bandwidth_hz": (st.floats(1e6, 2.5e6), "5e-324"),
    "ofdm.num_subcarriers": (st.integers(1, 256), "0", "1024", "1025", str(10 ** 400)),
    "ofdm.cp_fraction": (st.floats(0.0, 1.0), "0"),
    "nb.bandwidth_hz": (st.floats(5e3, 6e4), "5e-324"),
    "nb.rolloff": (st.floats(0.0, 1.0), "0", "1", "1.0000001"),
    "nb.normalized_freq": (st.floats(0.0, 1.0), "0", "1"),
    "nb.pulse_span_symbols": (st.integers(1, 24), "0", "253", "254", str(_MAX_PULSE_SPAN),
                              str(_MAX_PULSE_SPAN + 1), str(10 ** 400)),
    "channel.num_taps": (st.integers(1, 8), "0", "1024", "1025"),
    "channel.decay_factor": (st.floats(0.01, 2.0), "5e-324", "2.5e307"),
    "link.avg_snr_db": (st.floats(-10.0, 60.0),),
    "link.sir_db": (st.floats(-30.0, 30.0),),
    "link.est_error_var": (st.floats(0.0, 0.1), "0"),
    "link.target_ber": (st.floats(1e-6, 0.1), "0", "0.5", "5e-324"),
    "link.symbol_power": (st.floats(0.1, 10.0), "0", "5e-324"),
}


@st.composite
def _config_values(draw):
    """{key: value text}: any keys in range, then up to two of them set to a
    boundary value or hostile text (NaN, +-inf, huge, negative, empty, no
    number at all), so that a fair share of the drawn files build."""
    values = draw(st.fixed_dictionaries(
        {}, optional={key: in_range.map(repr) for key, (in_range, *_) in _KEY_VALUES.items()}))
    for key in draw(st.lists(st.sampled_from(sorted(_KEY_VALUES)), max_size=2, unique=True)):
        values[key] = draw(st.sampled_from([*_KEY_VALUES[key][1:], *_EXTREME, *_NOT_A_NUMBER]))
    return values


# the argv is valid, so only the config can fail a run
_CONFIG_RUNS = [
    ["profile-dump", "--mc-symbols", "20", "--output", "prof.csv"],
    ["allocate"],
    ["verify", "--symbols", "200"],
    *([command, "--trials", "2", "--workers", "1", "--grid", grid, "--output", "sweep.csv"]
      for command, grid in (("sweep-fn", "0.45"), ("sweep-snr", "20"),
                            ("sweep-sigma-h", "0.01"))),
]


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=_config_values())
@example(values={"nb.pulse_span_symbols": str(10 ** 400)})
@example(values={"channel.decay_factor": "1e308"})
def test_hostile_config_files_exit_cleanly(capsys, tmp_path, values):
    """A config file drawn key by key either builds a config or raises
    DomainError, from parse_config and updated alike; every run on a config
    they accept exits 0 or 3 (domain), never 1."""
    assert sorted(_KEY_VALUES) == sorted(_KEY_MAP)
    text = "".join(f"{key} = {value}\n" for key, value in values.items())
    built = []
    for build in (lambda: parse_config(text), lambda: updated(SystemConfig(), values)):
        try:
            built.append(build())
        except DomainError:
            built.append(None)
    assert built[0] == built[1]
    if built[0] is None:
        return
    path = tmp_path / "drawn.cfg"
    path.write_text(text)
    for argv in _CONFIG_RUNS:
        code, _, err = run_cli(capsys, *argv, "--config", str(path))
        assert code in (0, 3), (argv, err)
    for sidecar in tmp_path.glob("*.json"):
        strict_json(sidecar.read_text())


def test_readme_cli_examples_parse():
    """Every ``ofdm-bitload`` line of the README parses as ``main`` parses it;
    none of them runs."""
    examples = [shlex.split(line, comments=True)[1:]
                for line in README.read_text(encoding="utf-8").splitlines()
                if line.startswith("ofdm-bitload ")]
    assert len(examples) >= 6
    for argv in examples:
        try:
            _build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: ofdm-bitload {shlex.join(argv)}")


def test_subcommand_help_lists_the_readme_flags(capsys):
    """Each subcommand's --help lists exactly the flags the README's table gives it."""
    rows = re.findall(r"^\| `([a-z-]+)` \|(.*)\|$", README.read_text(encoding="utf-8"), re.M)
    table = {command: set(re.findall(r"--[a-z0-9-]+", flags)) for command, flags in rows}
    assert sorted(table) == sorted(_SUBCOMMANDS)
    for command, flags in table.items():
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        assert set(re.findall(r"^ +(--[a-z0-9-]+)", out, re.M)) == flags, command


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
    script = shutil.which("ofdm-bitload")
    assert script is not None
    run = subprocess.run([script, "allocate", "--seed", "0"], capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["seed"] == 0
    run = subprocess.run([script, "--seed", "0", "allocate"], capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 2
    assert run.stdout == ""
