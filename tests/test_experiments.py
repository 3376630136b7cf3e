import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ofdm_bitload import (AllocationStatus, DomainError, InterferenceProfile,
                          SweepKind, SweepSpec, SystemConfig, calibrated_profile,
                          run_sweep, run_trial, updated)
from ofdm_bitload import experiments
from ofdm_bitload.config import config_as_dict
from ofdm_bitload.cli import main
from ofdm_bitload.experiments import _chunk_stats, point_seed, trial_stream


@pytest.fixture(scope="module")
def profile(base_cfg):
    return calibrated_profile(base_cfg)


class TestSeeding:
    def test_trial_streams_reproducible(self):
        a = trial_stream(7, 3).standard_normal(4)
        b = trial_stream(7, 3).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_trial_streams_distinct(self):
        a = trial_stream(7, 3).standard_normal(4)
        b = trial_stream(7, 4).standard_normal(4)
        c = trial_stream(8, 3).standard_normal(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_point_seed_stable_and_distinct(self):
        assert point_seed(0, SweepKind.FN, 0) == point_seed(0, SweepKind.FN, 0)
        seen = {point_seed(0, kind, i)
                for kind in SweepKind for i in range(50)}
        assert len(seen) == 3 * 50

    def test_point_seed_is_64_bit(self):
        s = point_seed(123, SweepKind.SNR, 5)
        assert 0 <= s < 2 ** 64


class TestRunTrial:
    def test_deterministic(self, base_cfg, profile):
        a = run_trial(base_cfg, profile, 0, base_seed=42)
        b = run_trial(base_cfg, profile, 0, base_seed=42)
        assert a.loads == b.loads
        assert a.throughput_bits == b.throughput_bits
        assert a.mean_ber == b.mean_ber

    def test_trials_differ(self, base_cfg, profile):
        a = run_trial(base_cfg, profile, 0, base_seed=42)
        b = run_trial(base_cfg, profile, 1, base_seed=42)
        assert a.loads != b.loads

    def test_met_at_baseline(self, base_cfg, profile):
        result = run_trial(base_cfg, profile, 0, base_seed=0)
        assert result.status is AllocationStatus.MET
        assert result.mean_ber <= base_cfg.link.target_ber
        assert 0 < result.throughput_bits <= 768

    @pytest.mark.parametrize("trial_index, base_seed", [(1.5, 0), (-1, 0), (True, 0), (0, -1)])
    def test_index_and_seed_not_nonnegative_integers(self, base_cfg, profile,
                                                      trial_index, base_seed):
        # unchecked, the draw would take 1.5 as trial 1 (np.arange truncates)
        # and fail on -1 with a ValueError from numpy's seeding
        with pytest.raises(DomainError, match="trial_index|base_seed"):
            run_trial(base_cfg, profile, trial_index, base_seed)

    def test_flat_zero_interference_beats_baseline(self, base_cfg, profile):
        clean = InterferenceProfile(np.zeros(base_cfg.ofdm.num_subcarriers), float("nan"))
        for t in range(5):
            with_nb = run_trial(base_cfg, profile, t, base_seed=3)
            without = run_trial(base_cfg, clean, t, base_seed=3)
            assert without.throughput_bits >= with_nb.throughput_bits


# a point where most trials stop transmission, one where ~20 steps suffice,
# and one where ~270 steps take the full sort
CHUNK_POINTS = {
    "stopped-heavy": {"link.sir_db": -20.0, "link.est_error_var": 1.0},
    "light": {"link.sir_db": 20.0, "link.avg_snr_db": 45.0},
    "full": {"link.sir_db": 0.0},
}


class TestChunkStats:
    @pytest.mark.parametrize("point", sorted(CHUNK_POINTS))
    @settings(max_examples=12, deadline=None)
    @given(start=st.integers(0, 600), length=st.integers(1, 40),
           seed=st.integers(0, 2 ** 64 - 1))
    def test_equals_sums_over_run_trial(self, point, start, length, seed):
        # the batched chunk (blocks of rows, each row through one of the
        # three exits) against one run_trial per trial
        cfg = updated(SystemConfig(), CHUNK_POINTS[point])
        profile = calibrated_profile(cfg)
        results = [run_trial(cfg, profile, t, seed) for t in range(start, start + length)]
        bits = [r.throughput_bits for r in results]
        stopped = sum(r.status is AllocationStatus.TRANSMISSION_STOPPED for r in results)
        assert _chunk_stats(cfg, profile, start, start + length, seed) \
            == (sum(bits), sum(b * b for b in bits), stopped)


class TestSweepSpec:
    def test_valid(self):
        SweepSpec(SweepKind.SNR, (0.0, 5.0), 10, 0)

    def test_empty_grid(self):
        with pytest.raises(DomainError):
            SweepSpec(SweepKind.SNR, (), 10, 0)

    def test_non_increasing_grid(self):
        with pytest.raises(DomainError):
            SweepSpec(SweepKind.SNR, (5.0, 5.0), 10, 0)

    def test_zero_trials(self):
        with pytest.raises(DomainError):
            SweepSpec(SweepKind.SNR, (0.0,), 0, 0)

    @pytest.mark.parametrize("grid", [(float("nan"), 1.0), (0.0, float("inf")),
                                      (float("nan"),), ("a",), (0.0, "5"), (None,), (1j,)])
    def test_non_finite_grid(self, grid):
        # "b <= a" is False for NaN, so the ordering check alone lets it through;
        # a value that is not a real number would raise TypeError there
        with pytest.raises(DomainError, match="finite"):
            SweepSpec(SweepKind.SNR, grid, 10, 0)

    @pytest.mark.parametrize("trials", [2.5, 10.0, True, np.bool_(True), "10"])
    def test_trials_not_a_positive_integer(self, trials):
        with pytest.raises(DomainError, match="trials"):
            SweepSpec(SweepKind.SNR, (0.0,), trials, 0)

    def test_trials_bounded(self):
        # run_sweep lists every chunk's task before any trial runs
        SweepSpec(SweepKind.SNR, (0.0,), experiments._MAX_TRIALS, 0)
        with pytest.raises(DomainError, match="trials must be at most"):
            SweepSpec(SweepKind.SNR, (0.0,), experiments._MAX_TRIALS + 1, 0)

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, False, "0"])
    def test_base_seed_not_a_nonnegative_integer(self, seed):
        with pytest.raises(DomainError, match="base_seed"):
            SweepSpec(SweepKind.SNR, (0.0,), 10, seed)

    @pytest.mark.parametrize("kind, key", [(kind, kind.value) for kind in SweepKind] + [
        (SweepKind.SNR, key) for key in ("link", "avg_snr_db", "link.avg_snr")])
    def test_fixed_key_is_a_config_key_the_grid_does_not_set(self, kind, key):
        # the grid would overwrite its own key without a word
        with pytest.raises(DomainError, match="grid sets|unknown config key"):
            SweepSpec(kind, (0.0,), 10, 0, fixed={"link.sir_db": 0.0, key: 3.0})

    def test_fixed_value_is_checked_by_run_sweep(self, base_cfg):
        # a value is judged against the caller's config, before any trial runs
        spec = SweepSpec(SweepKind.SNR, (0.0,), 10, 0, fixed={"link.target_ber": 0.7})
        with pytest.raises(DomainError, match="target_ber"):
            run_sweep(spec, base_cfg)

    def test_numpy_integers_count(self, base_cfg):
        # and give the same record, down to its reprs, which the CSV writes
        spec = SweepSpec(SweepKind.SNR, (20.0,), np.int64(3), np.uint32(5))
        [record] = run_sweep(spec, base_cfg)
        assert repr(record) == repr(run_sweep(SweepSpec(SweepKind.SNR, (20.0,), 3, 5),
                                              base_cfg)[0])


class TestRunSweep:
    def test_snr_sweep_shape_and_types(self, base_cfg):
        spec = SweepSpec(SweepKind.SNR, (10.0, 20.0, 30.0), 40, 1)
        records = run_sweep(spec, base_cfg)
        assert [r.x for r in records] == [10.0, 20.0, 30.0]
        for r in records:
            assert r.trials == 40
            assert 0.0 <= r.stopped_fraction <= 1.0
            assert 0.0 <= r.avg_throughput_bits <= 768
            assert r.stderr_bits >= 0.0

    def test_fixed_overrides_apply(self, base_cfg):
        spec = SweepSpec(SweepKind.SNR, (20.0,), 20, 2,
                         fixed={"link.sir_db": 20.0})
        rich = run_sweep(spec, base_cfg)[0]
        spec_poor = SweepSpec(SweepKind.SNR, (20.0,), 20, 2,
                              fixed={"link.sir_db": -20.0})
        poor = run_sweep(spec_poor, base_cfg)[0]
        assert rich.avg_throughput_bits > poor.avg_throughput_bits

    @pytest.mark.parametrize("kind, grid, calls", [
        (SweepKind.SNR, (10.0, 20.0, 30.0), 1),
        (SweepKind.SIGMA_H, (0.0, 0.01, 0.1), 1),
        (SweepKind.FN, (0.3, 0.5, 0.52), 3)], ids=["snr", "sigma_h", "fn"])
    def test_sweep_profiles_are_the_calibrated_ones(self, base_cfg, monkeypatch,
                                                    kind, grid, calls):
        # SNR and sigma_h^2 do not enter the profile, so their sweeps build
        # one; each point still aggregates exactly the trials run_trial gives
        # under a calibrated_profile built for that point alone
        built = []
        monkeypatch.setattr(experiments, "calibrated_profile",
                            lambda cfg: built.append(cfg) or calibrated_profile(cfg))
        records = run_sweep(SweepSpec(kind, grid, 4, 5), base_cfg)
        assert len(built) == calls
        for x, record in zip(grid, records):
            cfg = updated(base_cfg, {kind.value: x})
            results = [run_trial(cfg, calibrated_profile(cfg), t, record.seed)
                       for t in range(4)]
            assert record.avg_throughput_bits == sum(r.throughput_bits for r in results) / 4
            assert record.stopped_fraction == sum(
                r.status is AllocationStatus.TRANSMISSION_STOPPED for r in results) / 4

    def test_failed_profile_raises_before_any_trial(self, base_cfg, monkeypatch):
        # every point's profile is built before the first chunk runs
        def fail_last(cfg):
            if cfg.nb.normalized_freq == 0.52:
                raise DomainError("no profile")
            return calibrated_profile(cfg)
        chunks = []
        monkeypatch.setattr(experiments, "calibrated_profile", fail_last)
        monkeypatch.setattr(experiments, "_chunk_stats", lambda *task: chunks.append(task))
        with pytest.raises(DomainError, match="no profile"):
            run_sweep(SweepSpec(SweepKind.FN, (0.3, 0.52), 4, 0), base_cfg)
        assert chunks == []

    def test_fn_sweep_recomputes_profile(self, base_cfg):
        # distinct interferer offsets must not produce identical averages
        spec = SweepSpec(SweepKind.FN, (0.5, 0.52), 30, 9,
                         fixed={"link.sir_db": -20.0})
        a, b = run_sweep(spec, base_cfg)
        assert a.avg_throughput_bits != b.avg_throughput_bits

    @pytest.mark.parametrize("workers", [0, -1, 1.5, 2.0, "2", True])
    def test_workers_below_one_rejected(self, base_cfg, workers):
        # a float reaches the pool only at two chunks per point or more, where
        # it is a TypeError; checked first, every value fails the same way
        spec = SweepSpec(SweepKind.SNR, (20.0,), 5, 0)
        with pytest.raises(DomainError, match="workers"):
            run_sweep(spec, base_cfg, workers=workers)

    @pytest.mark.parametrize("cpus, pools", [(2, [2]), (1, [])])
    def test_workers_capped_at_cpu_count(self, base_cfg, monkeypatch, cpus, pools):
        # a spawned pool may start max_workers processes; this one maps in-process
        built = []

        class InProcessPool:
            def __init__(self, max_workers, mp_context):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        spec = SweepSpec(SweepKind.SNR, (20.0,), 300, 5)  # two chunks
        assert run_sweep(spec, base_cfg, workers=64) == run_sweep(spec, base_cfg)
        assert built == pools

    def test_bad_fixed_key_rejected(self, base_cfg):
        with pytest.raises(DomainError):
            run_sweep(SweepSpec(SweepKind.SNR, (20.0,), 5, 0, fixed={"nope.nope": 1.0}),
                      base_cfg)


class TestOutputs:
    """The files the CLI writes from a sweep's records."""

    def test_json_sidecar(self, base_cfg, tmp_path, capsys, sweep_reference_csv):
        out = tmp_path / "sweep.csv"
        assert main(["sweep-snr", "--trials", "5", "--seed", "3", "--workers", "1",
                     "--output", str(out), "--grid", "10", "--sir-db", "10"]) == 0
        cfg = updated(base_cfg, {"link.sir_db": 10.0})
        records = run_sweep(SweepSpec(SweepKind.SNR, (10.0,), 5, 3), cfg)
        assert out.read_text() == sweep_reference_csv(records)
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert payload["sweep"] == {"kind": "snr", "grid": [10.0], "trials": 5,
                                    "base_seed": 3, "fixed": {}}
        assert payload["config"] == config_as_dict(cfg)
        assert payload["records"] == [dataclasses.asdict(r) for r in records]

    def test_atomic_write_leaves_no_temp_files(self, tmp_path, capsys):
        assert main(["sweep-snr", "--trials", "5", "--workers", "1",
                     "--output", str(tmp_path / "out.csv"), "--grid", "20"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.json"]
