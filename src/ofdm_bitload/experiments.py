"""Monte Carlo throughput sweeps over interferer offset, SNR, and
channel-estimation error variance.

Reproducibility contract: every trial derives its own random stream from
(base_seed, grid point, trial index) via numpy SeedSequence spawn keys, and
aggregation runs over fixed-size chunks in trial order, so results are
bit-identical for any worker count.
"""

from __future__ import annotations

import enum
import json
import math
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .allocator import AllocationResult, AllocationStatus, allocate
from .channel import draw_realization
from .config import SystemConfig, config_as_dict, updated, validate
from .errors import DomainError
from .interference import InterferenceProfile, calibrated_profile
from .link import sinr

_CHUNK = 256  # fixed aggregation granularity, independent of workers

CSV_HEADER = "x,avg_throughput_bits,stderr_bits,stopped_fraction,trials,seed"


class SweepKind(enum.Enum):
    FN = "fn"
    SNR = "snr"
    SIGMA_H = "sigma_h"


_GRID_KEY = {
    SweepKind.FN: "nb.normalized_freq",
    SweepKind.SNR: "link.avg_snr_db",
    SweepKind.SIGMA_H: "link.est_error_var",
}


@dataclass(frozen=True)
class SweepSpec:
    kind: SweepKind
    grid: tuple
    trials: int
    base_seed: int
    fixed: dict = field(default_factory=dict)

    def validated(self) -> "SweepSpec":
        if len(self.grid) == 0:
            raise DomainError("sweep grid must be non-empty")
        if not all(math.isfinite(x) for x in self.grid):
            raise DomainError("sweep grid values must be finite")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise DomainError("sweep grid must be strictly increasing")
        if self.trials < 1:
            raise DomainError("trials must be >= 1")
        return self


@dataclass(frozen=True)
class SweepRecord:
    x: float
    avg_throughput_bits: float
    stderr_bits: float
    stopped_fraction: float
    trials: int
    seed: int


def trial_stream(base_seed: int, trial_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=base_seed, spawn_key=(trial_index,)))


_KIND_ID = {SweepKind.FN: 1, SweepKind.SNR: 2, SweepKind.SIGMA_H: 3}


def point_seed(base_seed: int, kind: SweepKind, point_index: int) -> int:
    """64-bit per-grid-point seed, stable across worker layouts."""
    words = np.random.SeedSequence(
        entropy=base_seed,
        spawn_key=(_KIND_ID[kind], point_index)).generate_state(2)
    return int(words[0]) << 32 | int(words[1])


def trial_sinrs(cfg: SystemConfig, profile: InterferenceProfile,
                trial_index: int, base_seed: int = 0) -> np.ndarray:
    """Per-subcarrier SINRs of one trial: its own channel draw under ``profile``."""
    rng = trial_stream(base_seed, trial_index)
    realization = draw_realization(cfg.channel, cfg.ofdm, rng)
    return sinr(realization.gains_sq, cfg.link.symbol_power,
                cfg.link.noise_variance, cfg.link.est_error_var,
                profile.variances)


def run_trial(cfg: SystemConfig, profile: InterferenceProfile,
              trial_index: int, base_seed: int = 0) -> AllocationResult:
    """One channel draw, one SINR vector, one allocation."""
    return allocate(trial_sinrs(cfg, profile, trial_index, base_seed),
                    cfg.link.target_ber, cfg.ofdm.cp_loss_factor)


def _chunk_stats(cfg: SystemConfig, profile: InterferenceProfile,
                 start: int, stop: int, base_seed: int) -> tuple[int, int, int]:
    s = s2 = stopped = 0
    for t in range(start, stop):
        result = run_trial(cfg, profile, t, base_seed)
        bits = result.throughput_bits
        s += bits
        s2 += bits * bits
        stopped += result.status is AllocationStatus.TRANSMISSION_STOPPED
    return s, s2, stopped


def _pool_chunk(args):
    return _chunk_stats(*args)


def _aggregate(cfg, profile, trials, base_seed, workers) -> tuple[float, float, float]:
    bounds = [(i, min(i + _CHUNK, trials)) for i in range(0, trials, _CHUNK)]
    if workers > 1 and len(bounds) > 1:
        tasks = [(cfg, profile, a, b, base_seed) for a, b in bounds]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            stats = list(pool.map(_pool_chunk, tasks))
    else:
        stats = [_chunk_stats(cfg, profile, a, b, base_seed) for a, b in bounds]
    s = sum(st[0] for st in stats)
    s2 = sum(st[1] for st in stats)
    stopped = sum(st[2] for st in stats)
    avg = s / trials
    var = (s2 - s * s / trials) / (trials - 1) if trials > 1 else 0.0
    stderr = float(np.sqrt(max(var, 0.0) / trials))
    return avg, stderr, stopped / trials


def run_sweep(spec: SweepSpec, cfg: SystemConfig, workers: int = 1) -> list[SweepRecord]:
    """One SweepRecord per grid value, each under its own calibrated profile."""
    spec = spec.validated()
    cfg = validate(updated(cfg, spec.fixed))
    grid_key = _GRID_KEY[spec.kind]
    records = []
    for i, x in enumerate(spec.grid):
        cfg_x = validate(updated(cfg, {grid_key: x}))
        profile = calibrated_profile(cfg_x)
        seed = point_seed(spec.base_seed, spec.kind, i)
        avg, stderr, stopped = _aggregate(cfg_x, profile, spec.trials, seed, workers)
        records.append(SweepRecord(x=float(x), avg_throughput_bits=avg,
                                   stderr_bits=stderr, stopped_fraction=stopped,
                                   trials=spec.trials, seed=seed))
    return records


def _atomic_write(path, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sweep_csv(records: list[SweepRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(f"{r.x!r},{r.avg_throughput_bits!r},{r.stderr_bits!r},"
                     f"{r.stopped_fraction!r},{r.trials},{r.seed}")
    return "\n".join(lines) + "\n"


def write_sweep_csv(records: list[SweepRecord], path) -> None:
    _atomic_write(path, sweep_csv(records))


def write_sweep_json(records: list[SweepRecord], spec: SweepSpec,
                     cfg: SystemConfig, path) -> None:
    """Provenance sidecar: resolved config + spec + records, re-run sufficient."""
    payload = {
        "sweep": {"kind": spec.kind.value, "grid": list(spec.grid),
                  "trials": spec.trials, "base_seed": spec.base_seed,
                  "fixed": dict(spec.fixed)},
        "config": config_as_dict(validate(updated(cfg, spec.fixed))),
        "records": [asdict(r) for r in records],
    }
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
