"""Worker-supervision tests for the batch orchestrator's process pool.

The scenario under test is always the same: a pool worker dies hard
(SIGKILL — an OOM kill or segfault, not an exception) while a map is in
flight.  ``map_parallel`` detects the death and re-runs the map serially
in-process with a ``RuntimeWarning`` — and because every mapped function is
pure, the fallback results are bit-identical to the healthy parallel path.
"""

import gc
import multiprocessing
import os
import signal

import pytest

from repro.engine import batch
from repro.engine.batch import in_pool_worker, map_parallel, mark_pool_worker

KILL_ITEM = 13


def _square(item):
    return item * item


def _square_or_die(item):
    """Square the item — but SIGKILL the process on ``KILL_ITEM`` if this is
    a pool worker.  In the serial fallback (main process) it is pure."""
    if item == KILL_ITEM and in_pool_worker():
        os.kill(os.getpid(), signal.SIGKILL)
    return item * item


def _pid(_item):
    return os.getpid()


def _nested_map(_item):
    """Report this worker's flag, its pid and the pids a nested map ran in."""
    return in_pool_worker(), os.getpid(), map_parallel(_pid, range(3), processes=2)


class TestPoolWorkerFlag:
    def test_main_process_is_not_a_pool_worker(self):
        assert in_pool_worker() is False

    def test_mark_pool_worker_sets_flag(self, monkeypatch):
        monkeypatch.setattr(batch, "_pool_worker", False)
        try:
            mark_pool_worker()
            assert in_pool_worker() is True
            # The inherited heap is frozen out of the cyclic collector.
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
        monkeypatch.setattr(batch, "_pool_worker", False)

    def test_daemonic_process_is_a_pool_worker(self, monkeypatch):
        # ``multiprocessing.Pool`` workers are daemonic and are never marked.
        monkeypatch.setattr(multiprocessing.current_process(), "_config", {"daemon": True})
        assert in_pool_worker() is True


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
        monkeypatch.setattr(batch, "_pool_worker", True)
        items = list(range(4))
        assert map_parallel(_square, items, processes=4) == [i * i for i in items]

    def test_worker_runs_a_nested_map_in_process(self):
        # A job body inside a real pool worker sees the flag, so its own
        # map never forks a second level of workers.
        for flagged, worker_pid, nested_pids in map_parallel(_nested_map, range(2), processes=2):
            assert flagged is True
            assert worker_pid != os.getpid()
            assert nested_pids == [worker_pid] * 3
