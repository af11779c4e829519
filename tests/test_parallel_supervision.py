"""Worker-supervision tests for the two process-pool layers.

The scenario under test is always the same: a pool worker dies hard
(SIGKILL — an OOM kill or segfault, not an exception) while a map is in
flight.  Before supervision, ``multiprocessing.Pool`` respawned the worker
but never completed its lost task, so ``shard_map`` hung forever;
``map_parallel`` raised an opaque pool error.  Both layers now detect the
death and re-run the map serially in-process with a ``RuntimeWarning`` —
and because every mapped function is pure, the fallback results are
bit-identical to the healthy parallel path.
"""

import gc
import os
import signal

import pytest

from repro import parallel
from repro.engine.batch import map_parallel
from repro.parallel import (
    _close_shard_pool,
    in_pool_worker,
    mark_pool_worker,
    shard_map,
    shard_workers,
)

KILL_ITEM = 13


def _square(item):
    return item * item


def _square_or_die(item):
    """Square the item — but SIGKILL the process on ``KILL_ITEM`` if this is
    a pool worker.  In the serial fallback (main process) it is pure."""
    if item == KILL_ITEM and in_pool_worker():
        os.kill(os.getpid(), signal.SIGKILL)
    return item * item


@pytest.fixture(autouse=True)
def _fresh_pool(monkeypatch):
    monkeypatch.delenv(parallel.SHARD_ENV, raising=False)
    _close_shard_pool()
    yield
    _close_shard_pool()


class TestPoolWorkerFlag:
    def test_main_process_is_not_a_pool_worker(self):
        assert in_pool_worker() is False

    def test_mark_pool_worker_sets_flag(self, monkeypatch):
        monkeypatch.setattr(parallel, "_pool_worker", False)
        try:
            mark_pool_worker()
            assert in_pool_worker() is True
            # The inherited heap is frozen out of the cyclic collector.
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
        monkeypatch.setattr(parallel, "_pool_worker", False)

    def test_shard_workers_disabled_inside_pool_worker(self, monkeypatch):
        monkeypatch.setenv(parallel.SHARD_ENV, "4")
        assert shard_workers() == 4
        monkeypatch.setattr(parallel, "_pool_worker", True)
        assert shard_workers() is None


class TestShardMapSupervision:
    def test_healthy_map_matches_serial(self, monkeypatch):
        monkeypatch.setenv(parallel.SHARD_ENV, "2")
        items = list(range(20))
        assert shard_map(_square, items) == [i * i for i in items]

    def test_worker_death_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setenv(parallel.SHARD_ENV, "2")
        items = list(range(20))
        with pytest.warns(RuntimeWarning, match="pass-shard worker died"):
            results = shard_map(_square_or_die, items)
        assert results == [i * i for i in items]
        # The broken pool was torn down; the next call builds a fresh one
        # and works normally.
        assert shard_map(_square, items) == [i * i for i in items]


class TestMapParallelSupervision:
    def test_healthy_map_matches_serial(self):
        items = list(range(8))
        assert map_parallel(_square, items, processes=2) == [i * i for i in items]

    def test_worker_death_falls_back_to_serial(self):
        items = list(range(20))
        with pytest.warns(RuntimeWarning, match="batch worker died"):
            results = map_parallel(_square_or_die, items, processes=2)
        assert results == [i * i for i in items]

    def test_inside_pool_worker_stays_serial(self, monkeypatch):
        monkeypatch.setattr(parallel, "_pool_worker", True)
        items = list(range(4))
        assert map_parallel(_square, items, processes=4) == [i * i for i in items]
