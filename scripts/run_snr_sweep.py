#!/usr/bin/env python3
"""Average throughput vs. average SNR, one curve per SIR.

Reproduces the saturation experiment: F_n = 0.52, SNR 0-40 dB (the CLI's
default grid), SIR in {-20, -10, 0, 10, 20} dB. Runs ``ofdm-bitload sweep-snr``
once per SIR, which writes snr_sweep_sir<SIR>.csv plus its JSON sidecar.
Takes --config, --seed, --trials (default 2000) and --workers (default 1).
"""

from _curves import run_curves

SIRS = (-20.0, -10.0, 0.0, 10.0, 20.0)


def main(argv=None) -> int:
    return run_curves("run_snr_sweep.py", __doc__,
                      {f"snr_sweep_sir{sir:+g}.csv": ["sweep-snr", "--sir-db", repr(sir)]
                       for sir in SIRS}, argv)


if __name__ == "__main__":
    raise SystemExit(main())
