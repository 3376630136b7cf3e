"""The paper's figure subcommands and the frozen-CSV generator.

Each figure subcommand is a loop over one CLI sweep. It runs in-process in a
temporary directory at 2 trials; every CSV it writes must equal the sweep of
the experiment it reproduces. The generator's CSVs, written once per session
by the ``regenerated_csvs`` fixture, must equal, byte for byte, the ones
frozen in tests/data/.
"""

import json

import numpy as np
import pytest

from ofdm_bitload import DomainError, SweepKind, SweepSpec, SystemConfig, cli, run_sweep

FN_GRID = tuple(np.round(np.arange(0.40, 0.701, 0.02), 10))
SNR_GRID = tuple(float(x) for x in range(0, 41, 5))
SIRS = (-20.0, -10.0, 0.0, 10.0, 20.0)

# subcommand -> {output stem: (sweep kind, grid, the one key set apart from the grid)}
EXPECTED = {
    "figure-fn": {f"fn_sweep_sir{s:+g}": (SweepKind.FN, FN_GRID, {"link.sir_db": s})
                  for s in SIRS},
    "figure-snr": {f"snr_sweep_sir{s:+g}": (SweepKind.SNR, SNR_GRID, {"link.sir_db": s})
                   for s in SIRS},
    "figure-sigma-h": {f"sigma_h_sweep_{v:g}": (SweepKind.SNR, SNR_GRID,
                                                {"link.est_error_var": v})
                       for v in (0.0, 0.001, 0.01, 0.1)},
}
# the test ids keep the names of the scripts these subcommands replaced
FIGURES = pytest.mark.parametrize("name", sorted(EXPECTED), ids={
    "figure-fn": "run_fn_sweep", "figure-snr": "run_snr_sweep",
    "figure-sigma-h": "run_sigma_h_sweep"}.get)


@FIGURES
def test_script_writes_its_experiment(tmp_path, capsys, sweep_reference_csv, name):
    assert cli.main([name, "--trials", "2", "--seed", "5"]) == 0
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


def test_script_stops_at_a_failed_sweep(tmp_path, capsys, monkeypatch):
    assert cli.main(["figure-fn", "--trials", "0"]) == 2
    assert "argument --trials" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    # a curve's sweep that fails ends the figure before the next curve runs
    sirs = []

    def fail_second(spec, cfg, workers):
        sirs.append(cfg.link.sir_db)
        if len(sirs) == 2:
            raise DomainError("second curve")
        return run_sweep(spec, cfg, workers=workers)
    monkeypatch.setattr(cli, "run_sweep", fail_second)
    assert cli.main(["figure-fn", "--trials", "2"]) == 3
    assert sirs == [-20.0, -10.0]
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == ["fn_sweep_sir-20.csv", "fn_sweep_sir-20.json"]


@pytest.mark.parametrize("output", [["--output", "mine.csv"], ["--output=mine.csv"],
                                    ["--out", "mine.csv"], ["--output="]])
@FIGURES
def test_output_flag_is_usage_error(tmp_path, capsys, name, output):
    # the figure names its own files, so a given --output could only be ignored
    assert cli.main([name, "--trials", "2", *output]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ofdm-bitload")
    assert f"unrecognized arguments: {' '.join(output)}" in captured.err
    assert list(tmp_path.iterdir()) == []


@FIGURES
def test_help_shows_the_script_and_the_cli_flags(tmp_path, capsys, name):
    # argparse takes --he for --help
    for flag in ("--help", "--he"):
        assert cli.main([name, flag]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: ofdm-bitload {name}")
        assert "--trials TRIALS" in out
        words = " ".join(out.split())
        assert all(f"{stem}.csv" in words for stem in EXPECTED[name])
        assert "(default 2000)" in words and "(default 1)" in words
        assert list(tmp_path.iterdir()) == []
    # the figure's trials default stays in its own parser: set_defaults writes
    # through to the actions a parser shares with its parents
    parser = cli._build_parser()
    for command, trials in ((name, 2000), ("sweep-snr", 100)):
        args = parser.parse_args([command])
        assert (args.trials, args.workers) == (trials, 1)


def test_sweep_csvs_match_their_frozen_bytes(regenerated_csvs, frozen_dir,
                                             assert_frozen):
    _, names, _ = regenerated_csvs
    assert names == sorted(p.name for p in frozen_dir.iterdir())
    for name in names:
        assert_frozen(name)
