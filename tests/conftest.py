"""Shared fixtures: small deterministic datasets and windows.

The full 176 K-tuple dataset takes seconds to generate; tests use a
truncated 1-day variant (still geo-temporally skewed) cached per session.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.data.lausanne import LausanneConfig, LausanneDataset, generate_lausanne_dataset
from repro.data.tuples import TupleBatch
from repro.storage.shards import ShardRouter
from repro.storage.tiered import TieredShardRouter

from leaks import assert_released, open_resources

# Hypothesis profiles.  ``tier1``, the default, is derandomized: every
# run draws the same examples, so a failure in the tier-1 suite shows up
# on every run and on every machine.  ``deep`` draws fresh examples each
# run; the CI jobs that re-run suites under pytest-timeout ask for it
# (``--hypothesis-profile=deep``).  Neither sets an example count: each
# test's own ``max_examples`` holds under both.
settings.register_profile("tier1", derandomize=True)
settings.register_profile("deep", derandomize=False)
settings.load_profile("tier1")


def pytest_configure(config):
    # A profile named on the command line wins over the default, also
    # where this file is imported after hypothesis' plugin has read it.
    profile = config.getoption("--hypothesis-profile", None)
    if profile:
        settings.load_profile(profile)


@pytest.fixture(scope="session")
def small_dataset() -> LausanneDataset:
    """One simulated day, ~5.9 K tuples, deterministic."""
    return generate_lausanne_dataset(LausanneConfig(days=1, target_tuples=0, seed=7))


@pytest.fixture(scope="session")
def small_batch(small_dataset) -> TupleBatch:
    return small_dataset.tuples


@pytest.fixture(scope="session")
def daytime_window(small_batch) -> TupleBatch:
    """A contiguous in-service window of 240 tuples around 10:00."""
    anchor = 10.0 * 3600.0
    pos = int(np.searchsorted(small_batch.t, anchor))
    start = min(pos, len(small_batch) - 240)
    return small_batch.slice(start, start + 240)


@pytest.fixture()
def router_over(tmp_path_factory):
    """``router_over(store, grid, h)`` builds the shard router over the
    named window store (one of ``router_over.stores``); durable ones get
    a fresh data directory and are closed when the test ends."""
    opened = []

    def make(store: str, grid, h: int) -> ShardRouter:
        if store == "resident":
            return ShardRouter(grid, h=h)
        router = TieredShardRouter(
            grid, h=h, data_dir=tmp_path_factory.mktemp("tier")
        )
        opened.append(router)
        return router

    make.stores = ("resident", "segment")
    yield make
    for router in opened:
        router.close()


@pytest.fixture()
def tiny_batch() -> TupleBatch:
    """Twelve hand-written tuples on a 4x3 grid with a linear field."""
    xs, ys, ts, ss = [], [], [], []
    for j in range(3):
        for i in range(4):
            xs.append(100.0 * i)
            ys.append(100.0 * j)
            ts.append(60.0 * (4 * j + i))
            ss.append(400.0 + 0.5 * (100.0 * i) + 0.25 * (100.0 * j))
    return TupleBatch(np.array(ts), np.array(xs), np.array(ys), np.array(ss))


@pytest.fixture()
def leak_check():
    """Fail a test that leaves open file descriptors or running threads
    behind: a durable router or engine not closed, a pack or WAL file
    not released.  Checks nothing where ``/proc`` is absent
    (:mod:`leaks`)."""
    before = open_resources()
    yield
    assert_released(before)
