#!/usr/bin/env python3
"""Average throughput vs. SNR for several channel-estimation error variances.

Reproduces the estimation-error experiment: F_n = 0.52, SIR = 0 dB, one SNR
curve (the CLI's default 0-40 dB grid) per sigma_h^2 in {0, 0.001, 0.01, 0.1}.
Runs ``ofdm-bitload sweep-snr`` once per sigma_h^2, which writes
sigma_h_sweep_<sigma_h^2>.csv plus its JSON sidecar. Takes the CLI's global
flags (default 2000 trials, 1 worker).
"""

import sys

from ofdm_bitload import cli

SIGMA_H2 = (0.0, 0.001, 0.01, 0.1)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if {"-h", "--help"} & set(argv):
        print(__doc__)
        return cli.main(["--help"])
    # the script names its own files; argparse also reads an abbreviation such as --out
    if any(len(a) > 2 and "--output".startswith(a.split("=")[0]) for a in argv):
        print("usage: run_sigma_h_sweep.py [ofdm-bitload global flags other than --output]\n"
              "run_sigma_h_sweep.py: error: --output is not accepted; the script names its own "
              "files", file=sys.stderr)
        return 2
    for sigma_h2 in SIGMA_H2:
        code = cli.main(["--trials", "2000", "--workers", "1", *argv,
                         "--output", f"sigma_h_sweep_{sigma_h2:g}.csv",
                         "sweep-snr", "--sigma-h2", repr(sigma_h2)])
        if code:
            return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
