#!/usr/bin/env python3
"""Write the frozen sweep CSVs that the test suite compares byte for byte.

The three paper-figure scripts at 20 trials, seed 5 (14 CSVs); the
worker-invariance criterion's sweep, 600 trials over SNR 10 and 30 dB at
seed 2026, which crosses the 256-trial chunk boundary; and the golden
Table-1 point, 10^4 trials at SNR 20 dB, SIR 0 dB, F_n 0.52, seed 42. Only
the CSVs are frozen, not their JSON sidecars. The test suite runs
write_csvs once per session (the regenerated_csvs fixture in
tests/conftest.py); tests/test_scripts.py::test_sweep_csvs_match_their_frozen_bytes
compares every CSV byte for byte with tests/data/, and acceptance criterion 10
the golden one.

    python scripts/make_frozen_csvs.py [DIR]    (default: tests/data/)

Re-freeze only for a change that is deliberately more exact, and record the
old and new digests in CHANGES.md.
"""

import os
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from ofdm_bitload import cli

import run_fn_sweep
import run_sigma_h_sweep
import run_snr_sweep

DEFAULT_DIR = Path(__file__).resolve().parents[1] / "tests" / "data"
SCRIPT_ARGS = ["--trials", "20", "--seed", "5"]
# (entry point, argv): each run writes its CSVs, named by itself, to the cwd
RUNS = [
    (run_fn_sweep.main, SCRIPT_ARGS),
    (run_snr_sweep.main, SCRIPT_ARGS),
    (run_sigma_h_sweep.main, SCRIPT_ARGS),
    (cli.main, ["sweep-snr", "--trials", "600", "--seed", "2026", "--workers", "1",
                "--output", "workers_snr_sweep.csv", "--grid", "10,30"]),
    (cli.main, ["sweep-snr", "--trials", "10000", "--seed", "42", "--workers", "1",
                "--output", "golden_snr_sweep.csv", "--grid", "20"]),
]


def write_csvs(out_dir) -> list:
    """Run every entry of RUNS and copy the CSVs it writes into out_dir."""
    out_dir, cwd = Path(out_dir).resolve(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(sys.stderr):
        os.chdir(tmp)
        try:
            for entry, argv in RUNS:
                if entry(argv):
                    raise RuntimeError(f"{entry.__module__} {' '.join(argv)} failed")
        finally:
            os.chdir(cwd)
        names = sorted(p.name for p in Path(tmp).glob("*.csv"))
        for name in names:
            shutil.copyfile(Path(tmp) / name, out_dir / name)
    return names


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out_dir = Path(argv[0]) if argv else DEFAULT_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in write_csvs(out_dir):
        print(out_dir / name)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
