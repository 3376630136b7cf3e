#!/usr/bin/env python3
"""Average throughput vs. interferer offset F_n, one curve per SIR.

Reproduces the offset-sweep experiment: SNR 20 dB, F_n from 0.40 to 0.70 (the
CLI's default grid), SIR in {-20, -10, 0, 10, 20} dB. Runs ``ofdm-bitload
sweep-fn`` once per SIR, which writes fn_sweep_sir<SIR>.csv plus its JSON
sidecar. Takes --config, --seed, --trials (default 2000) and --workers
(default 1).
"""

from _curves import run_curves

SIRS = (-20.0, -10.0, 0.0, 10.0, 20.0)


def main(argv=None) -> int:
    return run_curves("run_fn_sweep.py", __doc__,
                      {f"fn_sweep_sir{sir:+g}.csv": ["sweep-fn", "--sir-db", repr(sir)]
                       for sir in SIRS}, argv)


if __name__ == "__main__":
    raise SystemExit(main())
