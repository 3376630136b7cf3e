"""The scripts: the paper-figure sweeps and the frozen-CSV generator.

Each figure script is a loop over one CLI sweep subcommand. Its ``main`` runs
in-process in a temporary directory at 2 trials; every CSV it writes must
equal the sweep of the experiment it reproduces. The generator's CSVs must
equal, byte for byte, the ones frozen in tests/data/.
"""

import importlib.util
import json
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from ofdm_bitload import SweepKind, SweepSpec, SystemConfig, run_sweep

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
# the versions tests/data/ was frozen under; the CSV bytes may change with them
FROZEN_VERSIONS = {"Python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"}
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


@pytest.fixture(autouse=True)
def _scripts_on_path(monkeypatch):
    # a script imports its shared _curves module from its own directory,
    # which python puts first on sys.path when it runs the script
    monkeypatch.syspath_prepend(str(SCRIPTS))


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_script_writes_its_experiment(tmp_path, capsys, sweep_reference_csv,
                                      name):
    assert _load(name).main(["--trials", "2", "--seed", "5"]) == 0
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


def test_script_stops_at_a_failed_sweep(tmp_path, capsys):
    assert _load("run_fn_sweep").main(["--trials", "0"]) == 2
    assert "argument --trials" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("output", [["--output", "mine.csv"], ["--output=mine.csv"],
                                    ["--out", "mine.csv"]])
@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_output_flag_is_usage_error(tmp_path, capsys, name, output):
    # the script names its own files, so a given --output could only be ignored
    assert _load(name).main(["--trials", "2", *output]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: {name}.py")
    assert "--output is not accepted" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_help_shows_the_script_and_the_cli_flags(tmp_path, capsys, name):
    module = _load(name)
    # argparse takes --he for --help, so the script must too
    for flag in ("--help", "--he"):
        assert module.main([flag]) == 0
        out = capsys.readouterr().out
        assert out.startswith(module.__doc__)
        assert out.count("usage: ofdm-bitload") == 1
        assert "--trials TRIALS" in out
        assert list(tmp_path.iterdir()) == []


def test_sweep_csvs_match_their_frozen_bytes(tmp_path, frozen_dir):
    """The sweep CSVs of scripts/make_frozen_csvs.py, byte for byte as frozen in
    tests/data/ under FROZEN_VERSIONS.

    Outputs stay bit-identical, so a mismatch under those versions is a fault;
    the message names the running versions next to them. The files are
    re-frozen (by running that script) only for a change that is deliberately
    more exact, with the old and new digests recorded in CHANGES.md.
    """
    names = _load("make_frozen_csvs").write_csvs(tmp_path)
    assert names == sorted(p.name for p in frozen_dir.glob("*.csv"))
    running = {"Python": platform.python_version(), "numpy": np.__version__,
               "scipy": scipy.__version__}
    versions = ", ".join(f"{lib} {running[lib]} (frozen under {frozen})"
                         for lib, frozen in FROZEN_VERSIONS.items())
    for name in names:
        got = (tmp_path / name).read_text().splitlines()
        want = (frozen_dir / name).read_text().splitlines()
        diff = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                    min(len(got), len(want)))
        assert (tmp_path / name).read_bytes() == (frozen_dir / name).read_bytes(), \
            f"{name} line {diff + 1}: {got[diff:diff + 1]} != frozen " \
            f"{want[diff:diff + 1]}; running {versions}"
