"""Command-line entry point.

Subcommands: sweep-fn, sweep-snr, sweep-sigma-h, allocate, profile-dump,
verify. Machine-readable summaries go to stdout; progress and diagnostics to
stderr. This is the one module that writes files: it formats each CSV, writes
it atomically (temp file + rename) and puts a strict-JSON provenance sidecar
next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import asdict, astuple, fields

import numpy as np

from . import experiments, interference, verifier
from .allocator import AllocationStatus, allocate
from .config import SystemConfig, config_as_dict, load_config, updated
from .errors import DomainError
from .experiments import SweepKind, SweepRecord, SweepSpec, run_sweep, run_trial

_SWEEP_DEFAULT_GRID = {
    SweepKind.FN: tuple(np.round(np.arange(0.40, 0.701, 0.02), 10)),
    SweepKind.SNR: tuple(float(x) for x in range(0, 41, 5)),
    SweepKind.SIGMA_H: (0.0, 0.001, 0.01, 0.1),
}

# Link flags and the config keys they set; each flag stores under its key.
_LINK_FLAGS = {"--snr-db": "link.avg_snr_db", "--sir-db": "link.sir_db",
               "--fn": "nb.normalized_freq", "--sigma-h2": "link.est_error_var"}
# Global flags that only some subcommands read; each parses to None when
# absent, so a subcommand can reject one it would ignore.
_RUN_FLAGS = ("--trials", "--workers", "--output")
_DEFAULT_TRIALS = 100


def _build_parser() -> argparse.ArgumentParser:
    def at_least(low: int):
        def integer(text: str) -> int:
            if int(text) < low:
                raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
            return int(text)
        return integer

    def grid(text: str) -> tuple:
        return tuple(float(v) for v in text.split(","))

    def csv_path(text: str) -> str:
        # checked before any work runs, so a bad path neither wastes a sweep
        # nor lets a file appear; the sidecar takes the <stem>.json name
        if not text:
            raise argparse.ArgumentTypeError("must not be empty")
        if os.path.splitext(text)[1].lower() == ".json":
            raise argparse.ArgumentTypeError(f"must not end in .json, got {text}")
        if os.path.isdir(text):
            raise argparse.ArgumentTypeError(f"is a directory: {text}")
        if not os.path.isdir(os.path.dirname(os.path.abspath(text))):
            raise argparse.ArgumentTypeError(f"its directory does not exist: {text}")
        return text

    parser = argparse.ArgumentParser(
        prog="ofdm-bitload",
        description="Adaptive OFDM bit loading next to a narrowband interferer")
    parser.add_argument("--config", default=None,
                        help="flat key-value config file (default: built-in defaults)")
    parser.add_argument("--seed", type=at_least(0), default=0, help="base random seed")
    parser.add_argument("--trials", type=at_least(1), default=None,
                        help="Monte Carlo trials per grid point, sweeps only "
                             f"(default {_DEFAULT_TRIALS})")
    parser.add_argument("--workers", type=at_least(1), default=None,
                        help="parallel worker processes, sweeps only; at most the CPU count "
                             "(default: CPU count)")
    parser.add_argument("--output", type=csv_path, default=None,
                        help="output CSV path, sweeps and profile-dump only; "
                             "its sidecar is <stem>.json")
    sub = parser.add_subparsers(dest="command", required=True)

    def link_flags(p, flags) -> None:
        for flag in flags:
            p.add_argument(flag, dest=_LINK_FLAGS[flag], type=float, default=None,
                           metavar=flag[2:].upper().replace("-", "_"))

    for name, kind in (("sweep-fn", SweepKind.FN), ("sweep-snr", SweepKind.SNR),
                       ("sweep-sigma-h", SweepKind.SIGMA_H)):
        p = sub.add_parser(name, help=f"average-throughput sweep over {kind.name.lower()}")
        p.set_defaults(kind=kind, run=_cmd_sweep, reads=_RUN_FLAGS)
        p.add_argument("--grid", type=grid, default=None,
                       help="comma-separated grid values (default: built-in grid)")
        # the swept key comes from the grid, so its own flag is not accepted
        link_flags(p, [f for f, key in _LINK_FLAGS.items() if key != kind.value])

    p = sub.add_parser("allocate", help="one-shot allocation for a single channel draw")
    p.set_defaults(run=_cmd_allocate, reads=())
    link_flags(p, _LINK_FLAGS)

    p = sub.add_parser("profile-dump", help="per-subcarrier interference variance CSV")
    p.set_defaults(run=_cmd_profile_dump, reads=("--output",))
    link_flags(p, ["--fn", "--sir-db"])
    p.add_argument("--mc-symbols", type=at_least(0), default=0,
                   help="also compute the Monte Carlo profile over this many symbols")

    p = sub.add_parser("verify", help="symbol-level re-measurement of one allocation")
    p.set_defaults(run=_cmd_verify, reads=())
    link_flags(p, _LINK_FLAGS)
    p.add_argument("--symbols", type=at_least(1), default=100_000,
                   help="OFDM symbols to transmit per subcarrier")
    return parser


def _load_base_config(args) -> SystemConfig:
    cfg = load_config(args.config) if args.config else SystemConfig()
    overrides = {key: value for key, value in vars(args).items()
                 if key in _LINK_FLAGS.values() and value is not None}
    return updated(cfg, overrides)


def _csv(header, rows) -> str:
    """CSV text: the header line, then each row's values as their repr."""
    lines = [",".join(header), *(",".join(map(repr, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def _atomic_write(path, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    # mkstemp creates the file 0600; give it the mode open() would
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_outputs(args, default_path: str, csv_text: str, sidecar: dict) -> int:
    """Write the CSV to --output (or default_path) and its <stem>.json sidecar.

    The sidecar is encoded first, as strict JSON, so a value it cannot hold
    (NaN, infinity) fails the run before either file is written.
    """
    out = args.output or default_path
    meta = json.dumps(sidecar, indent=2, sort_keys=True, allow_nan=False) + "\n"
    _atomic_write(out, csv_text)
    _atomic_write(os.path.splitext(out)[0] + ".json", meta)
    print(out)
    return 0


def _cmd_sweep(args, cfg: SystemConfig) -> int:
    kind, name = args.kind, args.kind.name.lower()
    grid = args.grid or _SWEEP_DEFAULT_GRID[kind]
    spec = SweepSpec(kind=kind, grid=grid, trials=args.trials or _DEFAULT_TRIALS,
                     base_seed=args.seed)
    print(f"running {name} sweep: {len(grid)} points x {spec.trials} trials",
          file=sys.stderr)
    records = run_sweep(spec, cfg, workers=args.workers or os.cpu_count() or 1)
    # provenance: resolved config, spec and records, enough to re-run the sweep
    sidecar = {
        "sweep": {"kind": name, "grid": list(spec.grid), "trials": spec.trials,
                  "base_seed": spec.base_seed, "fixed": dict(spec.fixed)},
        "config": config_as_dict(cfg),
        "records": [asdict(r) for r in records],
    }
    csv_text = _csv([f.name for f in fields(SweepRecord)], map(astuple, records))
    return _write_outputs(args, f"sweep_{name}.csv", csv_text, sidecar)


def _cmd_allocate(args, cfg: SystemConfig) -> int:
    profile = interference.calibrated_profile(cfg)
    result = run_trial(cfg, profile, trial_index=0, base_seed=args.seed)
    summary = {
        "status": result.status.value,
        "throughput_bits": result.throughput_bits,
        "mean_ber": None if result.status is AllocationStatus.TRANSMISSION_STOPPED
        else result.mean_ber,
        "iterations": result.iterations,
        "loads": [c.name for c in result.loads],
        "seed": args.seed,
    }
    print(json.dumps(summary))
    return 0


def _cmd_profile_dump(args, cfg: SystemConfig) -> int:
    analytic = interference.calibrated_profile(cfg)
    columns = {"variance_analytic": analytic}
    if args.mc_symbols > 0:
        columns["variance_mc"] = interference.mc_variance(
            cfg, analytic.symbol_power, args.mc_symbols, np.random.default_rng(args.seed))
    rows = zip(range(cfg.ofdm.num_subcarriers), *(p.variances.tolist() for p in columns.values()))
    sidecar = {"config": config_as_dict(cfg), "seed": args.seed,
               "sigma_b2": analytic.symbol_power}
    return _write_outputs(args, "interference_profile.csv", _csv(["k", *columns], rows), sidecar)


def _cmd_verify(args, cfg: SystemConfig) -> int:
    profile = interference.calibrated_profile(cfg)
    gammas = experiments.trial_sinrs(cfg, profile, 0, 1, args.seed)[0]
    result = allocate(gammas, cfg.link.target_ber, cfg.ofdm.cp_loss_factor)
    if result.status is AllocationStatus.TRANSMISSION_STOPPED:
        print(json.dumps({"status": result.status.value, "throughput_bits": 0}))
        return 0
    measured = verifier.measure_allocation_ber(
        gammas, result.loads, cfg.ofdm.cp_loss_factor, args.symbols,
        np.random.default_rng(args.seed + 1))
    print(json.dumps({"status": result.status.value,
                      "throughput_bits": result.throughput_bits,
                      "predicted_mean_ber": result.mean_ber,
                      "measured_mean_ber": measured,
                      "target_ber": cfg.link.target_ber}))
    return 0


def _parse_args(argv=None) -> argparse.Namespace:
    """The parsed command line; a global flag that the subcommand does not
    read is a usage error (exit 2), as is anything argparse rejects."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    ignored = [flag for flag in _RUN_FLAGS
               if getattr(args, flag[2:]) is not None and flag not in args.reads]
    if ignored:
        parser.error(f"{args.command} does not read {', '.join(ignored)}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args, _load_base_config(args))
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - single-line diagnostic contract
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
