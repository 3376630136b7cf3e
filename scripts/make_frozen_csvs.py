#!/usr/bin/env python3
"""Write the frozen output CSVs that the test suite compares byte for byte.

The figure-fn, figure-snr and figure-sigma-h subcommands at 20 trials, seed
5 (14 CSVs); the worker-invariance criterion's sweep, 600 trials over SNR 10
and 30 dB at seed 2026, which crosses the 256-trial chunk boundary; the
golden Table-1 point, 10^4 trials at SNR 20 dB, SIR 0 dB, F_n 0.52, seed 42;
and three Monte Carlo outputs at seed 3, each over 4097 blocks, which cross
the 2000-block chunk boundary twice: profile-dump's variance_mc column at
the defaults and at F_n 0.437, SIR -10 dB, and the Gaussian-premise report
of the first drawn allocation that meets its target. The report pins that
draws made between chunks keep their place in the rng stream. Two more
files hold the stdout of allocate and of verify --symbols 2000 at seed 3,
whose one trial meets its target. Every output but the premise report comes
from an in-process ``cli.main`` run. Only the CSVs and these two stdout
files are frozen, not the CSVs' JSON sidecars. The test suite runs
write_csvs once per session (the regenerated_csvs fixture in
tests/conftest.py); tests/test_scripts.py::test_sweep_csvs_match_their_frozen_bytes
compares every file byte for byte with tests/data/, and acceptance
criterion 10 the golden one.

    PYTHONPATH=src python scripts/make_frozen_csvs.py [DIR]    (default: tests/data/)

Re-freeze only for a change that is deliberately more exact, and record the
old and new digests in CHANGES.md.
"""

import io
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from ofdm_bitload import (AllocationStatus, SystemConfig, allocate, calibrated_profile, cli,
                          draw_realization, gaussian_premise_report, sinr)

DEFAULT_DIR = Path(__file__).resolve().parents[1] / "tests" / "data"
FIGURE_ARGS = ["--trials", "20", "--seed", "5"]
# CLI argv: each run writes its CSVs to the cwd
RUNS = [
    ["figure-fn", *FIGURE_ARGS],
    ["figure-snr", *FIGURE_ARGS],
    ["figure-sigma-h", *FIGURE_ARGS],
    ["sweep-snr", "--trials", "600", "--seed", "2026", "--workers", "1",
     "--output", "workers_snr_sweep.csv", "--grid", "10,30"],
    ["sweep-snr", "--trials", "10000", "--seed", "42", "--workers", "1",
     "--output", "golden_snr_sweep.csv", "--grid", "20"],
    ["profile-dump", "--seed", "3", "--mc-symbols", "4097", "--output", "mc_profile.csv"],
    ["profile-dump", "--seed", "3", "--mc-symbols", "4097",
     "--fn", "0.437", "--sir-db", "-10", "--output", "mc_profile_fn0.437_sir-10.csv"],
]
# file name -> CLI argv whose stdout (one JSON line) that file freezes
STDOUT_RUNS = {
    "allocate_stdout.txt": ["allocate", "--seed", "3"],
    "verify_stdout.txt": ["verify", "--seed", "3", "--symbols", "2000"],
}


def premise_csv() -> str:
    """gaussian_premise_report's three floats, as CSV, over 4097 symbols at
    the defaults and seed 3, for the first drawn allocation that meets its
    target."""
    cfg = SystemConfig()
    profile = calibrated_profile(cfg)
    rng = np.random.default_rng(3)
    while True:
        realization = draw_realization(cfg.channel, cfg.ofdm, rng)
        gammas = sinr(realization.gains_sq, cfg.link.symbol_power, cfg.link.noise_variance,
                      cfg.link.est_error_var, profile.variances)
        result = allocate(gammas, cfg.link.target_ber, cfg.ofdm.cp_loss_factor)
        if result.status is AllocationStatus.MET:
            report = gaussian_premise_report(cfg, realization, result, profile, 4097, rng)
            return cli._csv(report, [report.values()])


def write_csvs(out_dir) -> list:
    """Run every entry of RUNS and STDOUT_RUNS, add premise_report.csv, and
    copy the frozen files into out_dir."""
    out_dir, cwd = Path(out_dir).resolve(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(sys.stderr):
        os.chdir(tmp)
        try:
            for argv in RUNS:
                if cli.main(argv):
                    raise RuntimeError(f"ofdm-bitload {' '.join(argv)} failed")
            for name, argv in STDOUT_RUNS.items():
                with redirect_stdout(io.StringIO()) as out:
                    if cli.main(argv):
                        raise RuntimeError(f"ofdm-bitload {' '.join(argv)} failed")
                Path(name).write_text(out.getvalue())
        finally:
            os.chdir(cwd)
        (Path(tmp) / "premise_report.csv").write_text(premise_csv())
        names = sorted([*(p.name for p in Path(tmp).glob("*.csv")), *STDOUT_RUNS])
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
