"""The argv handling shared by scripts/run_*_sweep.py: one CLI sweep per curve."""

import argparse

from ofdm_bitload import cli


def run_curves(prog: str, doc: str, curves: dict, argv=None) -> int:
    """Run ``cli.main`` once per {output CSV: subcommand argv} in curves, passing
    on the sweep flags in argv: --config, --seed, --trials (default 2000) and
    --workers (default 1). The script names its own files, so takes no --output."""
    common, run, _ = cli.flag_groups()
    parser = argparse.ArgumentParser(prog=prog, description=doc, parents=[common, run],
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.set_defaults(trials=2000, workers=1)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # canonical flags, not the raw argv: a prefix unambiguous among these four
    # flags can be ambiguous among a sweep's
    flags = [f"--{name}={value}" for name, value in vars(args).items() if value is not None]
    for output, command in curves.items():
        code = cli.main([*command, *flags, "--output", output])
        if code:
            return code
    return 0
