import dataclasses
from pathlib import Path

import numpy as np
import pytest

from ofdm_bitload import SweepRecord, SystemConfig, validate


def _reference_csv(header, rows) -> str:
    """CSV text as the CLI writes it: the header line, then each value's repr."""
    lines = [",".join(header)] + [",".join(repr(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


@pytest.fixture(autouse=True)
def _in_tmp_path(tmp_path, monkeypatch):
    """Every test runs in its own empty directory, so none writes into the checkout."""
    monkeypatch.chdir(tmp_path)


@pytest.fixture
def cfg() -> SystemConfig:
    return validate(SystemConfig())


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def reference_csv():
    return _reference_csv


@pytest.fixture
def sweep_reference_csv():
    """A sweep's CSV text: the SweepRecord field names, then one row per record."""
    names = [f.name for f in dataclasses.fields(SweepRecord)]
    return lambda records: _reference_csv(
        names, ([getattr(r, name) for name in names] for r in records))


@pytest.fixture
def frozen_dir() -> Path:
    """tests/data/: the sweep CSVs that scripts/make_frozen_csvs.py froze."""
    return Path(__file__).resolve().parent / "data"
