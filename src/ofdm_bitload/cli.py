"""Command-line entry point.

Subcommands: sweep-fn, sweep-snr, sweep-sigma-h; figure-fn, figure-snr,
figure-sigma-h, the paper's figures, one sweep per curve; allocate,
profile-dump, verify. Machine-readable summaries go to stdout; progress and
diagnostics to stderr. This is the one module that writes files: it formats
each CSV, writes it atomically (temp file + rename) and puts a strict-JSON
provenance sidecar next to it.
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
    SweepKind.FN: tuple(np.round(np.arange(0.40, 0.701, 0.02), 10).tolist()),
    SweepKind.SNR: tuple(float(x) for x in range(0, 41, 5)),
    SweepKind.SIGMA_H: (0.0, 0.001, 0.01, 0.1),
}

# The paper's three figures: subcommand -> (sweep kind, {CSV name: (config
# key, value)}), one sweep over the kind's default grid per curve.
_SIRS = (-20.0, -10.0, 0.0, 10.0, 20.0)
_FIGURES = {
    "figure-fn": (SweepKind.FN, {f"fn_sweep_sir{s:+g}.csv": ("link.sir_db", s) for s in _SIRS}),
    "figure-snr": (SweepKind.SNR,
                   {f"snr_sweep_sir{s:+g}.csv": ("link.sir_db", s) for s in _SIRS}),
    "figure-sigma-h": (SweepKind.SNR, {f"sigma_h_sweep_{v:g}.csv": ("link.est_error_var", v)
                                       for v in (0.0, 0.001, 0.01, 0.1)}),
}

# Link flags and the config keys they set; each flag stores under its key.
_LINK_FLAGS = {"--snr-db": "link.avg_snr_db", "--sir-db": "link.sir_db",
               "--fn": "nb.normalized_freq", "--sigma-h2": "link.est_error_var"}


def at_least(low: int):
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return int(text)
    return integer


def csv_path(text: str) -> str:
    # checked before any work runs, so a bad path neither wastes a sweep nor
    # lets a file appear; the sidecar takes the <stem>.json name
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    if os.path.splitext(text)[1].lower() == ".json":
        raise argparse.ArgumentTypeError(f"must not end in .json, got {text}")
    for path in (text, os.path.splitext(text)[0] + ".json"):
        if os.path.isdir(path):
            raise argparse.ArgumentTypeError(f"{path} is a directory")
    if not os.path.isdir(os.path.dirname(os.path.abspath(text))):
        raise argparse.ArgumentTypeError(f"its directory does not exist: {text}")
    return text


def _flag_groups() -> tuple:
    """New parent parsers: common (--config, --seed) for every subcommand, run
    (--trials, --workers) for the sweeps and figures, output (--output) for the
    sweeps and profile-dump. Build them for each parser: set_defaults on a
    child writes through to the actions it shares with its parents."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None,
                        help="flat key-value config file (default: built-in defaults)")
    common.add_argument("--seed", type=at_least(0), default=0,
                        help="base random seed (default %(default)s)")
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--trials", type=at_least(1), default=100,
                     help="Monte Carlo trials per grid point (default %(default)s)")
    run.add_argument("--workers", type=at_least(1), default=1,
                     help="worker processes, at most the CPU count (default %(default)s)")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", type=csv_path,
                        help="output CSV path; its sidecar is <stem>.json (default %(default)s)")
    return common, run, output


def _build_parser() -> argparse.ArgumentParser:
    def grid(text: str) -> tuple:
        return tuple(float(v) for v in text.split(","))

    parser = argparse.ArgumentParser(
        prog="ofdm-bitload",
        description="Adaptive OFDM bit loading next to a narrowband interferer")
    sub = parser.add_subparsers(dest="command", required=True)

    def link_flags(p, flags) -> None:
        for flag in flags:
            p.add_argument(flag, dest=_LINK_FLAGS[flag], type=float, default=None,
                           metavar=flag[2:].upper().replace("-", "_"))

    for name, kind in (("sweep-fn", SweepKind.FN), ("sweep-snr", SweepKind.SNR),
                       ("sweep-sigma-h", SweepKind.SIGMA_H)):
        p = sub.add_parser(name, help=f"average-throughput sweep over {kind.name.lower()}",
                           parents=_flag_groups())
        p.set_defaults(kind=kind, run=_cmd_sweep, output=f"sweep_{kind.name.lower()}.csv")
        p.add_argument("--grid", type=grid, default=_SWEEP_DEFAULT_GRID[kind],
                       help="comma-separated grid values (default %(default)s)")
        # the swept key comes from the grid, so its own flag is not accepted
        link_flags(p, [f for f, key in _LINK_FLAGS.items() if key != kind.value])

    # a figure names its own files, so it takes no --output and no link flag
    for name, (kind, curves) in _FIGURES.items():
        text = f"one sweep-{kind.name.lower()} per curve, writing {', '.join(curves)}"
        p = sub.add_parser(name, help=text, description=text, parents=_flag_groups()[:2])
        p.set_defaults(kind=kind, grid=_SWEEP_DEFAULT_GRID[kind], run=_cmd_figure, trials=2000)

    p = sub.add_parser("allocate", help="one-shot allocation for a single channel draw",
                       parents=_flag_groups()[:1])
    p.set_defaults(run=_cmd_allocate)
    link_flags(p, _LINK_FLAGS)

    common, _, output = _flag_groups()
    p = sub.add_parser("profile-dump", help="per-subcarrier interference variance CSV",
                       parents=[common, output])
    p.set_defaults(run=_cmd_profile_dump, output="interference_profile.csv")
    link_flags(p, ["--fn", "--sir-db"])
    p.add_argument("--mc-symbols", type=at_least(0), default=0,
                   help="also compute the Monte Carlo profile over this many symbols "
                        "(default %(default)s)")

    p = sub.add_parser("verify", help="symbol-level re-measurement of one allocation",
                       parents=_flag_groups()[:1])
    p.set_defaults(run=_cmd_verify)
    link_flags(p, _LINK_FLAGS)
    p.add_argument("--symbols", type=at_least(1), default=100_000,
                   help="OFDM symbols to transmit per subcarrier (default %(default)s)")
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


def _write_outputs(out: str, csv_text: str, sidecar: dict) -> int:
    """Write the CSV to out and its <stem>.json sidecar.

    The sidecar is encoded first, as strict JSON, so a value it cannot hold
    (NaN, infinity) fails the run before either file is written.
    """
    meta = json.dumps(sidecar, indent=2, sort_keys=True, allow_nan=False) + "\n"
    _atomic_write(out, csv_text)
    _atomic_write(os.path.splitext(out)[0] + ".json", meta)
    print(out)
    return 0


def _cmd_sweep(args, cfg: SystemConfig) -> int:
    kind, name = args.kind, args.kind.name.lower()
    spec = SweepSpec(kind=kind, grid=args.grid, trials=args.trials, base_seed=args.seed)
    print(f"running {name} sweep: {len(spec.grid)} points x {spec.trials} trials",
          file=sys.stderr)
    records = run_sweep(spec, cfg, workers=args.workers)
    # provenance: resolved config, spec and records, enough to re-run the sweep
    sidecar = {
        "sweep": {"kind": name, "grid": list(spec.grid), "trials": spec.trials,
                  "base_seed": spec.base_seed, "fixed": dict(spec.fixed)},
        "config": config_as_dict(cfg),
        "records": [asdict(r) for r in records],
    }
    csv_text = _csv([f.name for f in fields(SweepRecord)], map(astuple, records))
    return _write_outputs(args.output, csv_text, sidecar)


def _cmd_figure(args, cfg: SystemConfig) -> int:
    """One _cmd_sweep per curve, each on cfg with the curve's key set; a failed
    curve stops the figure."""
    for output, (key, value) in _FIGURES[args.command][1].items():
        args.output = output
        _cmd_sweep(args, updated(cfg, {key: value}))
    return 0


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
    return _write_outputs(args.output, _csv(["k", *columns], rows), sidecar)


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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    try:
        # argparse would take a leading flag's value for the subcommand
        flag = argv[0].partition("=")[0] if argv else ""
        if flag.startswith("--") and not "--help".startswith(flag):
            parser.error(f"{flag} must follow the subcommand: ofdm-bitload <subcommand> [flags]")
        args = parser.parse_args(argv)
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
