#!/usr/bin/env python3
"""Average throughput vs. average SNR, one curve per SIR.

Reproduces the saturation experiment: F_n = 0.52, SNR 0-40 dB (the CLI's
default grid), SIR in {-20, -10, 0, 10, 20} dB. Runs ``ofdm-bitload sweep-snr``
once per SIR, which writes snr_sweep_sir<SIR>.csv plus its JSON sidecar.
Takes the CLI's global flags (default 2000 trials, 1 worker).
"""

import sys

from ofdm_bitload import cli

SIRS = (-20.0, -10.0, 0.0, 10.0, 20.0)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if {"-h", "--help"} & set(argv):
        print(__doc__)
        return cli.main(["--help"])
    # the script names its own files; argparse also reads an abbreviation such as --out
    if any(len(a) > 2 and "--output".startswith(a.split("=")[0]) for a in argv):
        print("usage: run_snr_sweep.py [ofdm-bitload global flags other than --output]\n"
              "run_snr_sweep.py: error: --output is not accepted; the script names its own "
              "files", file=sys.stderr)
        return 2
    for sir in SIRS:
        code = cli.main(["--trials", "2000", "--workers", "1", *argv,
                         "--output", f"snr_sweep_sir{sir:+g}.csv",
                         "sweep-snr", "--sir-db", repr(sir)])
        if code:
            return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
