"""Monte Carlo throughput sweeps over interferer offset, SNR, and
channel-estimation error variance.

Reproducibility contract: every trial derives its own random stream from
(base_seed, grid point, trial index) via numpy SeedSequence spawn keys, and
each chunk returns exact integer sums of whole-bit throughputs, so results
are bit-identical for any worker count. A chunk computes its trials' channel
normals in arrays (``streams.trial_normals``), bit for bit the draws of
each trial's own ``trial_stream``.
"""

from __future__ import annotations

import enum
import math
import multiprocessing
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .allocator import AllocationResult, _loaded_bits, allocate
from .channel import _from_normals
from .config import _KEY_MAP, SystemConfig, updated
from .errors import DomainError, _check_integer
from .interference import InterferenceProfile, _profile_key, calibrated_profile
from .link import sinr
from .streams import trial_normals

_CHUNK = 256  # trials per pool task and per draw; the integer sums do not depend on it
# The most trials a sweep point takes. run_sweep lists every (point, chunk)
# task before any trial runs, about 100 bytes each: at this bound the list
# holds 34 MiB over the 9-point default SNR grid and 58 MiB over the
# 16-point F_n grid (tracemalloc), where 10^9 trials would hold GiBs.
_MAX_TRIALS = 10 ** 7


class SweepKind(enum.Enum):
    """A sweep axis; its value is the config key the grid sets."""

    FN = "nb.normalized_freq"
    SNR = "link.avg_snr_db"
    SIGMA_H = "link.est_error_var"


@dataclass(frozen=True)
class SweepSpec:
    kind: SweepKind
    grid: tuple
    trials: int
    base_seed: int
    fixed: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.grid) == 0:
            raise DomainError("sweep grid must be non-empty")
        if not all(isinstance(x, numbers.Real) and math.isfinite(x) for x in self.grid):
            raise DomainError("sweep grid values must be finite real numbers")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise DomainError("sweep grid must be strictly increasing")
        _check_integer("trials", self.trials, 1)
        _check_integer("base_seed", self.base_seed, 0)
        if self.trials > _MAX_TRIALS:
            raise DomainError(f"trials must be at most {_MAX_TRIALS}")
        for key in self.fixed:  # keys only: run_sweep judges a value against its cfg
            if key not in _KEY_MAP:
                raise DomainError(f"unknown config key: {key}")
            if key == self.kind.value:
                raise DomainError(f"fixed sets {key}, which the sweep's grid sets")


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
                start: int, stop: int, base_seed: int) -> np.ndarray:
    """SINRs of trials start..stop-1, one row each, each from its own channel draw."""
    normals = trial_normals(base_seed, start, stop, 2 * cfg.channel.num_taps)
    gains_sq = _from_normals(cfg.channel, cfg.ofdm, normals).gains_sq
    return sinr(gains_sq, cfg.link.symbol_power, cfg.link.noise_variance,
                cfg.link.est_error_var, profile.variances)


def run_trial(cfg: SystemConfig, profile: InterferenceProfile,
              trial_index: int, base_seed: int = 0) -> AllocationResult:
    """One channel draw, one SINR vector, one allocation."""
    _check_integer("trial_index", trial_index, 0)
    _check_integer("base_seed", base_seed, 0)
    return allocate(trial_sinrs(cfg, profile, trial_index, trial_index + 1, base_seed)[0],
                    cfg.link.target_ber, cfg.ofdm.cp_loss_factor)


def _chunk_stats(cfg: SystemConfig, profile: InterferenceProfile,
                 start: int, stop: int, base_seed: int) -> tuple[int, int, int]:
    """Throughput sum, sum of squares and stopped count of trials start..stop-1."""
    g = trial_sinrs(cfg, profile, start, stop, base_seed)
    # a met row carries bits; a stopped row ends with none
    bits = _loaded_bits(g, cfg.link.target_ber, cfg.ofdm.cp_loss_factor).tolist()
    return sum(bits), sum(b * b for b in bits), bits.count(0)


def run_sweep(spec: SweepSpec, cfg: SystemConfig, workers: int = 1) -> list[SweepRecord]:
    """One SweepRecord per grid value, with one profile per distinct interferer.

    With ``workers`` > 1 and several chunks per point, one pool runs them all.
    The pool has at most one process per CPU: the records are the same for
    any worker count, and a spawned pool starts up to ``max_workers`` processes.
    """
    _check_integer("workers", workers, 1)
    workers = min(workers, os.cpu_count() or 1)
    cfg, n = updated(cfg, spec.fixed), int(spec.trials)  # int: a numpy count would reach the CSV
    bounds = [(a, min(a + _CHUNK, n)) for a in range(0, n, _CHUNK)]
    seeds = [point_seed(spec.base_seed, spec.kind, i) for i in range(len(spec.grid))]
    tasks, profiles = [], {}
    for x, seed in zip(spec.grid, seeds):
        cfg_x = updated(cfg, {spec.kind.value: x})
        key = _profile_key(cfg_x)
        if key not in profiles:
            profiles[key] = calibrated_profile(cfg_x)
        tasks += [(cfg_x, profiles[key], a, b, seed) for a, b in bounds]
    if workers > 1 and len(bounds) > 1:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            stats = list(pool.map(_chunk_stats, *zip(*tasks)))
    else:
        stats = [_chunk_stats(*task) for task in tasks]
    records = []
    for i, (x, seed) in enumerate(zip(spec.grid, seeds)):
        s, s2, stopped = (sum(c) for c in zip(*stats[i * len(bounds):(i + 1) * len(bounds)]))
        var = (s2 - s * s / n) / (n - 1) if n > 1 else 0.0
        records.append(SweepRecord(x=float(x), avg_throughput_bits=s / n,
                                   stderr_bits=float(np.sqrt(max(var, 0.0) / n)),
                                   stopped_fraction=stopped / n, trials=n, seed=seed))
    return records
