"""The benchmark's workloads: inputs drawn from the seed, one round, its checks.

Every workload calls only public functions of the package, with workers=1.
A round draws fresh interferer offsets and base seeds, so no round reuses an
interferer configuration that setup or an earlier round used; sharing
happens only within a round, as within one run of a script.

An operation is a grid point of a sweep or one oracle call. ``run`` returns
the outputs and the errors of the operations that raised; ``check`` returns
the operations whose outputs are wrong, each with its reason.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ofdm_bitload import allocator, channel, config, experiments, interference, link, verifier

import reference

OFFSET_BAND = (0.40, 0.70)  # interferer offsets F_n, inside the OFDM band


def base_config(path, overrides):
    """The repo's table-1 config with the workload's flags, as --config reads it."""
    return config.validate(config.updated(config.load_config(path), overrides))


def round_rng(seed, index):
    """Inputs of round ``index`` (0 is set-up) of the run with ``seed``."""
    return np.random.default_rng([seed, index])


def draw_offset(rng):
    return float(rng.uniform(*OFFSET_BAND))


def draw_seed(rng):
    return int(rng.integers(2 ** 32))


def record_faults(record, trials, n_sc):
    if record.trials != trials:
        return f"record has {record.trials} trials, asked for {trials}"
    if not 0.0 <= record.avg_throughput_bits <= 6 * n_sc:
        return f"throughput {record.avg_throughput_bits!r} outside [0, {6 * n_sc}]"
    if not 0.0 <= record.stopped_fraction <= 1.0:
        return f"stopped fraction {record.stopped_fraction!r} outside [0, 1]"
    return ""


def not_above(record, bound):
    """True unless ``record``'s throughput exceeds ``bound``'s by 2 combined stderr."""
    slack = 2.0 * math.hypot(record.stderr_bits, bound.stderr_bits)
    return record.avg_throughput_bits <= bound.avg_throughput_bits + slack


def profile_faults(profile, cfg):
    """Calibration identity and peak position of one calibrated profile."""
    v = np.asarray(profile.variances)
    want = cfg.link.symbol_power * 10.0 ** (-cfg.link.sir_db / 10.0)
    if abs(v.mean() - want) > 1e-9 * want:
        return f"mean variance {v.mean()!r}, calibration asks {want!r}"
    n_sc = v.size
    centre = cfg.nb.normalized_freq * n_sc
    gap = abs((int(np.argmax(v)) - centre + n_sc / 2) % n_sc - n_sc / 2)
    if gap > 1.0:
        return f"profile peaks {gap:.2f} bins from F_n*N = {centre:.2f}"
    return ""


def captured_profile(calls, cfg):
    """The profile run_sweep computed for ``cfg``'s interferer, if it was seen."""
    for _name, args, kwargs, result in calls:
        used = args[0] if args else kwargs.get("cfg")
        if used is not None and used.nb == cfg.nb and used.link.sir_db == cfg.link.sir_db:
            return result
    return None


def attempt(errors, ops, call, *args, **kwargs):
    """``call(*args, **kwargs)``, or None with its error recorded against ``ops``."""
    try:
        return call(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - a raising call is a failed operation
        errors.update({op: repr(exc) for op in ops})
        return None


def sweep_digest(records):
    return [dataclasses.asdict(r) for r in records]


class OffsetSweep:
    """scripts/run_fn_sweep.py in small: SIRs over the same offsets at 20 dB."""

    name = "offset-sweep"
    overrides = {"link.avg_snr_db": 20.0}
    captures = (("interference", "calibrated_profile"),)
    sirs = (-20.0, -10.0, 0.0)
    offsets = 2
    trials = 200
    ops = len(sirs) * offsets

    def spec(self, grid, trials, seed, sir):
        return experiments.SweepSpec(experiments.SweepKind.FN, grid, trials, seed,
                                     fixed={"link.sir_db": sir})

    def setup(self, cfg, rng):
        experiments.run_sweep(self.spec((draw_offset(rng),), 1, draw_seed(rng), self.sirs[0]),
                              cfg, workers=1)

    def inputs(self, rng):
        grid = tuple(sorted(draw_offset(rng) for _ in range(self.offsets)))
        return {"grid": grid, "seed": draw_seed(rng)}

    def run(self, cfg, inp):
        out, errors = {}, {}
        for s, sir in enumerate(self.sirs):
            ops = range(s * self.offsets, (s + 1) * self.offsets)
            records = attempt(errors, ops, experiments.run_sweep,
                              self.spec(inp["grid"], self.trials, inp["seed"], sir), cfg,
                              workers=1)
            if records is not None:
                out[sir] = records
        return out, errors

    def check(self, cfg, inp, out, calls):
        bad = {}
        n_sc = cfg.ofdm.num_subcarriers
        for s, sir in enumerate(self.sirs):
            for o, fn in enumerate(inp["grid"]):
                op = s * self.offsets + o
                if sir not in out:
                    continue
                if len(out[sir]) != self.offsets:
                    bad[op] = f"{len(out[sir])} records for {self.offsets} offsets"
                    continue
                record = out[sir][o]
                fault = record_faults(record, self.trials, n_sc)
                if not fault and s > 0 and self.sirs[s - 1] in out \
                        and not not_above(out[self.sirs[s - 1]][o], record):
                    fault = f"throughput at SIR {sir:g} dB below SIR {self.sirs[s - 1]:g} dB"
                if not fault:
                    cfg_x = config.validate(config.updated(
                        cfg, {"link.sir_db": sir, "nb.normalized_freq": fn}))
                    profile = captured_profile(calls, cfg_x) \
                        or interference.calibrated_profile(cfg_x)
                    fault = profile_faults(profile, cfg_x)
                if fault:
                    bad[op] = fault
        return bad

    def digest(self, out):
        return {str(sir): sweep_digest(records) for sir, records in out.items()}


class LoadingSweep:
    """One sweep per round at a fresh offset, with sampled trials re-checked."""

    captures = (("interference", "calibrated_profile"),)

    def spec(self, grid, trials, seed, fn):
        return experiments.SweepSpec(self.kind, grid, trials, seed,
                                     fixed={"nb.normalized_freq": fn})

    @property
    def ops(self):
        return len(self.grid)

    def setup(self, cfg, rng):
        experiments.run_sweep(self.spec(self.grid[:1], 1, draw_seed(rng), draw_offset(rng)),
                              cfg, workers=1)

    def inputs(self, rng):
        return {"fn": draw_offset(rng), "seed": draw_seed(rng), "sample_seed": draw_seed(rng)}

    def run(self, cfg, inp):
        errors = {}
        records = attempt(errors, range(self.ops), experiments.run_sweep,
                          self.spec(self.grid, self.trials, inp["seed"], inp["fn"]), cfg,
                          workers=1)
        return records, errors

    def check(self, cfg, inp, records, calls):
        if records is None:
            return {}
        if len(records) != len(self.grid):
            return {i: f"{len(records)} records for {len(self.grid)} grid points"
                    for i in range(self.ops)}
        bad = {}
        n_sc = cfg.ofdm.num_subcarriers
        cfg_f = config.validate(config.updated(cfg, {"nb.normalized_freq": inp["fn"]}))
        profile = captured_profile(calls, cfg_f) or interference.calibrated_profile(cfg_f)
        rng = np.random.default_rng(inp["sample_seed"])
        for i, (x, record) in enumerate(zip(self.grid, records)):
            fault = record_faults(record, self.trials, n_sc)
            if not fault and i > 0 and not self.ordered(records[i - 1], record):
                fault = f"throughput at {x:g} is out of order with {self.grid[i - 1]:g}"
            if not fault:
                fault = self.sampled_trial(config.validate(config.updated(
                    cfg_f, {self.grid_key: x})), profile, rng)
            if fault:
                bad[i] = fault
        return bad

    def sampled_trial(self, cfg, profile, rng):
        """One trial rebuilt from public calls and re-loaded by the plain greedy."""
        realization = channel.draw_realization(cfg.channel, cfg.ofdm, rng)
        gammas = link.sinr(realization.gains_sq, cfg.link.symbol_power, cfg.link.noise_variance,
                           cfg.link.est_error_var, profile.variances)
        result = allocator.allocate(gammas, cfg.link.target_ber, cfg.ofdm.cp_loss_factor)
        return reference.check_allocation(result, gammas, cfg.link.target_ber,
                                          cfg.ofdm.cp_loss_factor)

    def digest(self, records):
        return sweep_digest(records or [])


class DeepLoading(LoadingSweep):
    """The estimation-error axis at SIR -20 dB: nearly every trial strips all 4N steps."""

    name = "deep-loading"
    overrides = {"link.sir_db": -20.0}
    kind = experiments.SweepKind.SIGMA_H
    grid_key = "link.est_error_var"
    grid = (0.01, 0.1, 1.0)
    trials = 1200

    def ordered(self, before, after):
        """Throughput does not increase with sigma_h^2."""
        return not_above(after, before)


class LightLoading(LoadingSweep):
    """The SNR saturation region at SIR 20 dB: about 20 iterations per trial."""

    name = "light-loading"
    overrides = {"link.sir_db": 20.0}
    kind = experiments.SweepKind.SNR
    grid_key = "link.avg_snr_db"
    grid = (40.0, 45.0, 60.0)
    trials = 3000

    def ordered(self, before, after):
        """Throughput does not decrease with SNR."""
        return not_above(before, after)


class Oracle:
    """The model's cross-checks, with no allocation loop.

    The measure_ber generators are seeded apart from the workload seed: a
    3-sigma band misses 0.27% of random draws, and the share of failed
    operations must not depend on the seed.
    """

    name = "oracle"
    overrides = {}
    captures = ()
    mc_blocks = 10_000
    premise_symbols = 4096
    ladder = ((link.Constellation.BPSK, 6.0), (link.Constellation.QPSK, 6.0),
              (link.Constellation.QAM16, 13.0), (link.Constellation.QAM64, 19.0))
    ber_bits = 1_000_000
    ber_seed = 20180112
    ops = 3 + len(ladder)  # calibrated_profile, mc_variance, gaussian_premise_report, ladder

    def setup(self, cfg, rng):
        cfg_s = config.validate(config.updated(cfg, {"nb.normalized_freq": draw_offset(rng)}))
        profile = interference.calibrated_profile(cfg_s)
        interference.mc_variance(cfg_s, profile.symbol_power, 1,
                                 np.random.default_rng(draw_seed(rng)))

    def inputs(self, rng):
        return {"fn": draw_offset(rng), "mc_seed": draw_seed(rng), "alloc_seed": draw_seed(rng)}

    def run(self, cfg, inp):
        out, errors = {}, {}
        cfg_r = config.validate(config.updated(cfg, {"nb.normalized_freq": inp["fn"]}))
        profile = attempt(errors, (0, 1, 2), interference.calibrated_profile, cfg_r)
        if profile is not None:
            out["profile"] = profile
            out["mc"] = attempt(errors, (1,), interference.mc_variance, cfg_r,
                                profile.symbol_power, self.mc_blocks,
                                np.random.default_rng(inp["mc_seed"]))
            out["premise"] = attempt(errors, (2,), self.premise, cfg_r, profile,
                                     inp["alloc_seed"])
        cp = cfg_r.ofdm.cp_loss_factor
        for i, (constellation, sinr_db) in enumerate(self.ladder):
            out[int(constellation)] = attempt(
                errors, (3 + i,), verifier.measure_ber, constellation,
                10.0 ** (sinr_db / 10.0), cp, self.ber_bits,
                np.random.default_rng([self.ber_seed, int(constellation)]))
        return {key: value for key, value in out.items() if value is not None}, errors

    def premise(self, cfg, profile, seed):
        """gaussian_premise_report for the first drawn allocation that meets its target."""
        rng = np.random.default_rng(seed)
        for _draw in range(100):
            realization = channel.draw_realization(cfg.channel, cfg.ofdm, rng)
            gammas = link.sinr(realization.gains_sq, cfg.link.symbol_power,
                               cfg.link.noise_variance, cfg.link.est_error_var,
                               profile.variances)
            result = allocator.allocate(gammas, cfg.link.target_ber, cfg.ofdm.cp_loss_factor)
            if result.status is allocator.AllocationStatus.MET:
                return verifier.gaussian_premise_report(cfg, realization, result, profile,
                                                        self.premise_symbols, rng)
        raise RuntimeError("no allocation met its target in 100 channel draws")

    def check(self, cfg, inp, out, calls):
        bad = {}
        cfg_r = config.validate(config.updated(cfg, {"nb.normalized_freq": inp["fn"]}))
        if "profile" in out:
            fault = profile_faults(out["profile"], cfg_r)
            if fault:
                bad[0] = fault
        if "mc" in out:
            bad.update(self.mc_faults(cfg_r, out["profile"], out["mc"]))
        if "premise" in out:
            p = out["premise"]
            g, s = p["gaussian_mean_ber"], p["synthesized_mean_ber"]
            if not (0.0 <= g <= 0.5 and 0.0 <= s <= 0.5 and p["abs_difference"] == abs(g - s)):
                bad[2] = f"premise report out of range: {p}"
        cp = cfg_r.ofdm.cp_loss_factor
        for i, (constellation, sinr_db) in enumerate(self.ladder):
            measured = out.get(int(constellation))
            if measured is None:
                continue
            mean, std = reference.measured_ber_band(constellation, 10.0 ** (sinr_db / 10.0),
                                                    cp, measured.bits_sent)
            if abs(measured.bit_errors - mean) > 3.0 * std:
                bad[3 + i] = (f"{constellation.name}: {measured.bit_errors} bit errors, "
                              f"exact Gray BER expects {mean:.1f} +- {std:.1f}")
        return bad

    def mc_faults(self, cfg, analytic, mc):
        a, m = np.asarray(analytic.variances), np.asarray(mc.variances)
        strong = a > 0.01 * a.max()
        worst = float(np.max(np.abs(m[strong] - a[strong]) / a[strong]))
        if worst >= 0.05:
            return {1: f"MC profile {worst:.3%} from the analytic one"}
        # Parseval under the 1/sqrt(N) FFT: the profile sums to N times the
        # mean sample power, which is sigma_b^2/T times the truncated pulse energy
        power = float(m.sum()) / m.size
        energy = reference.truncated_rrc_energy(cfg.nb.rolloff, cfg.nb.pulse_span_symbols)
        want = analytic.symbol_power / cfg.nb.symbol_period_s * energy
        if abs(power - want) > 0.02 * want:
            return {1: f"MC sample power {power!r}, quadrature gives {want!r}"}
        return {}

    def digest(self, out):
        d = {}
        for key, value in out.items():
            if key in ("profile", "mc"):
                d[key] = np.asarray(value.variances).tolist()
            elif key == "premise":
                d[key] = value
            else:
                d[str(key)] = [value.bits_sent, value.bit_errors]
        return d


WORKLOADS = {w.name: w for w in (OffsetSweep(), DeepLoading(), LightLoading(), Oracle())}
