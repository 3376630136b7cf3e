#!/usr/bin/env python3
"""Average throughput vs. SNR for several channel-estimation error variances.

Reproduces the estimation-error experiment: F_n = 0.52, SIR = 0 dB, one SNR
curve (the CLI's default 0-40 dB grid) per sigma_h^2 in {0, 0.001, 0.01, 0.1}.
Runs ``ofdm-bitload sweep-snr`` once per sigma_h^2, which writes
sigma_h_sweep_<sigma_h^2>.csv plus its JSON sidecar. Takes --config, --seed,
--trials (default 2000) and --workers (default 1).
"""

from _curves import run_curves

SIGMA_H2 = (0.0, 0.001, 0.01, 0.1)


def main(argv=None) -> int:
    return run_curves("run_sigma_h_sweep.py", __doc__,
                      {f"sigma_h_sweep_{v:g}.csv": ["sweep-snr", "--sigma-h2", repr(v)]
                       for v in SIGMA_H2}, argv)


if __name__ == "__main__":
    raise SystemExit(main())
