"""The array-drawn trial streams against numpy's own Generator.

A sweep computes each trial's first 2L standard normals in arrays
(``streams.trial_normals``) and redraws a row that leaves the ziggurat's fast
path from its seeded PCG64 state. A seed at or above 2^128 or an index at or
above 2^32 takes its state words from numpy's SeedSequence and then the same
path. numpy's Generator is the reference throughout: a numpy release that
changed its streams would fail here and in the frozen outputs together.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ofdm_bitload import calibrated_profile, draw_realization, sinr, updated
from ofdm_bitload import streams
from ofdm_bitload.experiments import trial_sinrs, trial_stream
from ofdm_bitload.streams import trial_normals


def numpy_rows(seed, start, stop, count):
    return np.array([trial_stream(seed, t).standard_normal(count)
                     for t in range(start, stop)])


# 64-bit base seeds, seeds around 2^128, where the pool takes a fifth word,
# and far above it
SEEDS = st.one_of(st.integers(0, 2 ** 64 - 1), st.integers(2 ** 128 - 4, 2 ** 128 + 4),
                  st.integers(2 ** 200, 2 ** 200 + 2 ** 64))
# trial indices near 0, across 2^32, where the spawn key takes a second word,
# and far above it
STARTS = st.one_of(st.integers(0, 1000), st.integers(2 ** 32 - 20, 2 ** 32 + 4),
                   st.integers(2 ** 40, 2 ** 40 + 1000))


@example(seed=0, start=2 ** 32 - 3, length=6, taps=5)
@example(seed=2 ** 128 - 1, start=0, length=4, taps=1)
@example(seed=2 ** 128, start=2 ** 32 - 2, length=4, taps=1)
@example(seed=2 ** 200 + 7, start=2 ** 40, length=3, taps=128)
@example(seed=2 ** 64 - 1, start=0, length=20, taps=128)  # nearly every row is redrawn
@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, start=STARTS, length=st.integers(1, 20), taps=st.integers(1, 128))
def test_rows_equal_numpy(seed, start, length, taps):
    count = 2 * taps
    np.testing.assert_array_equal(trial_normals(seed, start, start + length, count),
                                  numpy_rows(seed, start, start + length, count))


def off_fast_path(seed, start, stop, count):
    """Which trial streams have a word among their first ``count`` that the
    ziggurat's fast path rejects, read from numpy's own raw words."""
    words = np.array([trial_stream(seed, t).bit_generator.random_raw(count)
                      for t in range(start, stop)], dtype=np.uint64)
    rabs = words >> np.uint64(9) & np.uint64((1 << 52) - 1)
    return ~(rabs < streams._KI[(words & np.uint64(0xFF)).astype(np.intp)]).all(axis=1)


def test_most_rows_take_the_array_path():
    # about 1.4% of draws leave the ziggurat's fast path, so 13% of rows at
    # 10 draws; those rows are redrawn from their seeded state
    off = off_fast_path(7, 0, 256, 10)
    assert 0 < off.mean() < 0.2
    np.testing.assert_array_equal(trial_normals(7, 0, 256, 10), numpy_rows(7, 0, 256, 10))


@pytest.mark.parametrize("seed", [0, 2 ** 63 + 5, 2 ** 128 - 1, 2 ** 128])
def test_rows_off_the_fast_path_redrawn_from_their_state(seed):
    # at 128 taps nearly every row leaves the fast path; each is redrawn from
    # its own seeded state on one Generator, so no row depends on the one
    # before it, on either side of 2^32 and of a seed of 2^128
    start, stop = 2 ** 32 - 20, 2 ** 32 + 20
    assert off_fast_path(seed, start, stop, 256).mean() > 0.75
    np.testing.assert_array_equal(trial_normals(seed, start, stop, 256),
                                  numpy_rows(seed, start, stop, 256))


def test_sinrs_equal_one_draw_per_generator(base_cfg):
    # the chunk's one FFT and one sinr give each trial's own draw_realization,
    # inside the arrays' seeding, at a seed above it and across 2^32
    cfg = updated(base_cfg, {"link.sir_db": -20.0})
    profile = calibrated_profile(cfg)
    for seed, start in ((2 ** 63 + 11, 100), (2 ** 128 + 3, 100), (5, 2 ** 32 - 128)):
        got = trial_sinrs(cfg, profile, start, start + 256, seed)
        for i, t in enumerate(range(start, start + 256)):
            gains_sq = draw_realization(cfg.channel, cfg.ofdm, trial_stream(seed, t)).gains_sq
            np.testing.assert_array_equal(got[i], sinr(gains_sq, cfg.link.symbol_power,
                                                       cfg.link.noise_variance,
                                                       cfg.link.est_error_var,
                                                       profile.variances))


@pytest.mark.parametrize("seed, start", [(-1, 0), (0, -1)])
def test_negative_seed_or_index_rejected_as_numpy_does(seed, start):
    with pytest.raises(ValueError):
        trial_stream(seed, start)
    with pytest.raises(ValueError):
        trial_normals(seed, start, start + 2, 4)
