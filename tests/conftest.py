import dataclasses
import importlib.util
import platform
import time
from pathlib import Path

import numpy as np
import pytest
import scipy

from ofdm_bitload import SweepRecord, SystemConfig

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
FROZEN_DIR = Path(__file__).resolve().parent / "data"
# the versions tests/data/ was frozen under; the CSV bytes may change with them
FROZEN_VERSIONS = {"Python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"}


def _reference_csv(header, rows) -> str:
    """CSV text as the CLI writes it: the header line, then each value's repr."""
    lines = [",".join(header)] + [",".join(repr(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


@pytest.fixture(autouse=True)
def _in_tmp_path(tmp_path, monkeypatch):
    """Every test runs in its own empty directory, so none writes into the checkout."""
    monkeypatch.chdir(tmp_path)


@pytest.fixture(scope="session")
def base_cfg() -> SystemConfig:
    # frozen, and valid once built, so one instance serves every test
    return SystemConfig()


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
    """tests/data/: the output CSVs that scripts/make_frozen_csvs.py froze."""
    return FROZEN_DIR


@pytest.fixture(scope="session")
def regenerated_csvs(tmp_path_factory):
    """(directory, names, seconds): scripts/make_frozen_csvs.py's CSVs, written
    once per session, so the 10^4-trial golden point runs once per tier-1 run.

    seconds is the wall time of the load and the write_csvs call.
    """
    out_dir = tmp_path_factory.mktemp("regenerated")
    start = time.monotonic()
    spec = importlib.util.spec_from_file_location("make_frozen_csvs",
                                                  SCRIPTS / "make_frozen_csvs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    names = module.write_csvs(out_dir)
    return out_dir, names, time.monotonic() - start


@pytest.fixture
def assert_frozen(regenerated_csvs):
    """Check that the regenerated CSV `name` equals, byte for byte, the one
    frozen in tests/data/ under FROZEN_VERSIONS.

    Outputs stay bit-identical, so a mismatch under those versions is a fault;
    the message names the first differing line and the running versions next
    to the frozen ones. The files are re-frozen (by running that script) only
    for a change that is deliberately more exact, with the old and new digests
    recorded in CHANGES.md.
    """
    out_dir = regenerated_csvs[0]
    running = {"Python": platform.python_version(), "numpy": np.__version__,
               "scipy": scipy.__version__}
    versions = ", ".join(f"{lib} {running[lib]} (frozen under {frozen})"
                         for lib, frozen in FROZEN_VERSIONS.items())

    def check(name):
        got = (out_dir / name).read_text().splitlines()
        want = (FROZEN_DIR / name).read_text().splitlines()
        diff = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                    min(len(got), len(want)))
        assert (out_dir / name).read_bytes() == (FROZEN_DIR / name).read_bytes(), \
            f"{name} line {diff + 1}: {got[diff:diff + 1]} != frozen " \
            f"{want[diff:diff + 1]}; running {versions}"
    return check
