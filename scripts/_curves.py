"""The argv handling shared by scripts/run_*_sweep.py: one CLI sweep per curve."""

import sys

from ofdm_bitload import cli


def run_curves(prog: str, doc: str, curves: dict, argv=None) -> int:
    """Run ``cli.main`` once per {output CSV: subcommand argv} in curves.

    argv holds the CLI's global flags (default 2000 trials, 1 worker). argparse
    accepts any unambiguous prefix of a flag (--he, --out=x), and so do the
    checks here: --help prints doc and the CLI's global help once, and
    --output exits 2 because the script names its own files.
    """
    argv = sys.argv[1:] if argv is None else argv
    prefixes = {a.split("=")[0] for a in argv if len(a) > 2}
    if "-h" in argv or any("--help".startswith(p) for p in prefixes):
        print(doc)
        return cli.main(["--help"])
    if any("--output".startswith(p) for p in prefixes):
        print(f"usage: {prog} [ofdm-bitload global flags other than --output]\n"
              f"{prog}: error: --output is not accepted; the script names its own files",
              file=sys.stderr)
        return 2
    for output, command in curves.items():
        code = cli.main(["--trials", "2000", "--workers", "1", *argv, "--output", output,
                         *command])
        if code:
            return code
    return 0
