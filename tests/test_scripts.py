"""The scripts: the paper-figure sweeps and the frozen-CSV generator.

Each figure script is a loop over one CLI sweep subcommand. Its ``main`` runs
in-process in a temporary directory at 2 trials; every CSV it writes must
equal the sweep of the experiment it reproduces. The generator's CSVs, written
once per session by the ``regenerated_csvs`` fixture, must equal, byte for
byte, the ones frozen in tests/data/.
"""

import json
import os

import numpy as np
import pytest

from ofdm_bitload import SweepKind, SweepSpec, SystemConfig, cli, run_sweep

FN_GRID = tuple(np.round(np.arange(0.40, 0.701, 0.02), 10))
SNR_GRID = tuple(float(x) for x in range(0, 41, 5))
SIRS = (-20.0, -10.0, 0.0, 10.0, 20.0)

# script -> {output stem: (sweep kind, grid, the one key set apart from the grid)}
EXPECTED = {
    "run_fn_sweep": {f"fn_sweep_sir{s:+g}": (SweepKind.FN, FN_GRID, {"link.sir_db": s})
                     for s in SIRS},
    "run_snr_sweep": {f"snr_sweep_sir{s:+g}": (SweepKind.SNR, SNR_GRID, {"link.sir_db": s})
                      for s in SIRS},
    "run_sigma_h_sweep": {f"sigma_h_sweep_{v:g}": (SweepKind.SNR, SNR_GRID,
                                                   {"link.est_error_var": v})
                          for v in (0.0, 0.001, 0.01, 0.1)},
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_script_writes_its_experiment(tmp_path, capsys, sweep_reference_csv,
                                      load_script, name):
    assert load_script(name).main(["--trials", "2", "--seed", "5"]) == 0
    expected = EXPECTED[name]
    assert capsys.readouterr().out.split() == [f"{stem}.csv" for stem in expected]
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == sorted(stem + ext for stem in expected for ext in (".csv", ".json"))
    for stem, (kind, grid, fixed) in expected.items():
        records = run_sweep(SweepSpec(kind, grid, 2, 5, fixed=fixed), SystemConfig())
        assert (tmp_path / f"{stem}.csv").read_bytes() \
            == sweep_reference_csv(records).encode()
        sidecar = json.loads((tmp_path / f"{stem}.json").read_text())
        [(key, value)] = fixed.items()
        assert sidecar["config"][key] == value


def test_script_stops_at_a_failed_sweep(tmp_path, capsys, load_script):
    assert load_script("run_fn_sweep").main(["--trials", "0"]) == 2
    assert "argument --trials" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("output", [["--output", "mine.csv"], ["--output=mine.csv"],
                                    ["--out", "mine.csv"], ["--output="]])
@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_output_flag_is_usage_error(tmp_path, capsys, load_script, name, output):
    # the script names its own files, so a given --output could only be ignored
    assert load_script(name).main(["--trials", "2", *output]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: {name}.py")
    assert f"unrecognized arguments: {' '.join(output)}" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_help_shows_the_script_and_the_cli_flags(tmp_path, capsys, load_script, name):
    module = load_script(name)
    # argparse takes --he for --help
    for flag in ("--help", "--he"):
        assert module.main([flag]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: {name}.py")
        assert module.__doc__ in out
        assert "--trials TRIALS" in out
        words = " ".join(out.split())
        assert "(default 2000)" in words and "(default 1)" in words
        assert list(tmp_path.iterdir()) == []
    # the script's defaults stay in its own parser: set_defaults writes
    # through to the actions a parser shares with its parents
    args = cli._build_parser().parse_args(["sweep-snr"])
    assert (args.trials, args.workers) == (100, os.cpu_count() or 1)


def test_sweep_csvs_match_their_frozen_bytes(regenerated_csvs, frozen_dir,
                                             assert_frozen):
    _, names, _ = regenerated_csvs
    assert names == sorted(p.name for p in frozen_dir.iterdir())
    for name in names:
        assert_frozen(name)
