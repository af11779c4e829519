"""Process-pool primitives shared by the engine and the core procedures.

This module sits *below* ``repro.core``: it imports nothing from the
package, so ``core`` procedures (``findGroup``'s sharded scoring) can use
the pass-shard pool at module level without creating an import cycle with
``repro.engine`` (which re-exports these names as part of its orchestration
API).

Two parallelism levels exist and deliberately never stack:

* the **batch orchestrator** (``repro.engine.batch``) fans whole
  specifications over a per-call pool;
* **pass sharding** (``REPRO_SHARD_PASSES``) fans the independent units
  *inside* one decomposition over the persistent pool kept here — and
  :func:`shard_workers` reports ``None`` inside daemonic pool workers, so a
  spec already running under the orchestrator stays serial.
"""

from __future__ import annotations

import atexit
import gc
import multiprocessing
import os
import signal
import warnings
from typing import Callable, List, Optional, Sequence

#: Environment switch for sharding the independent units *inside* one
#: decomposition.  ``1``/``true`` uses one worker per CPU; an integer > 1
#: forces that worker count; unset/0 keeps the serial path, which is the
#: bit-identical default.
SHARD_ENV = "REPRO_SHARD_PASSES"

#: How often the in-flight shard map checks pool-worker liveness (seconds).
#: Purely a supervision cadence — results return the instant they are ready.
WORKER_POLL_SECONDS = 0.05

_shard_pool_instance = None
_shard_pool_size = 0

#: True inside any worker process this package forked (set by the pool
#: initializer).  ``multiprocessing.Pool`` workers are daemonic and already
#: self-identify; ``concurrent.futures`` process workers are not, so the
#: flag keeps the "two parallelism levels never stack" invariant across
#: both pool flavours.
_pool_worker = False


def mark_pool_worker() -> None:
    """Pool initializer: flag this process as a fork-pool worker.

    Also detaches inherited signal plumbing: a forked worker shares the
    parent's signal wakeup fd (asyncio's self-pipe) and Python-level
    handlers, so a SIGTERM delivered to the *worker* (e.g. by
    ``ProcessPoolExecutor`` tearing down a broken pool) would be echoed
    into the parent's event loop as if the parent itself were signalled —
    triggering a spurious graceful shutdown.  The worker must own its own
    signal fate.

    Everything inherited from the parent is also frozen out of the cyclic
    collector: a full collection in a worker then walks only what its jobs
    allocated, instead of stalling whichever job triggers it for the whole
    inherited heap (modules, numpy, the service's state: several ms per
    collection, against a few ms for a whole warm-hit job).
    """
    global _pool_worker
    _pool_worker = True
    gc.freeze()
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # non-main thread or closed fd: nothing shared
        pass
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass


def in_pool_worker() -> bool:
    """True in a process forked by any of this package's worker pools."""
    return _pool_worker or multiprocessing.current_process().daemon


def pool_context():
    """The fork context where available (workers inherit nothing they need,
    but fork is far cheaper than spawn for short-lived shard calls)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def shard_workers() -> Optional[int]:
    """Worker count for pass sharding, or ``None`` when disabled.

    Sharding is always disabled inside daemonic pool workers: a spec already
    running under the batch orchestrator cannot fork a nested pool, so the
    two parallelism levels compose by never stacking.
    """
    value = os.environ.get(SHARD_ENV, "").strip().lower()
    if not value or value in ("0", "false", "no", "off"):
        return None
    if in_pool_worker():
        return None
    try:
        count = int(value)
    except ValueError:
        count = 0
    if count > 1:
        return count
    return os.cpu_count() or 1


def _close_shard_pool() -> None:
    """Terminate the persistent pass-shard pool (atexit + test hygiene)."""
    global _shard_pool_instance, _shard_pool_size
    if _shard_pool_instance is not None:
        _shard_pool_instance.terminate()
        _shard_pool_instance.join()
        _shard_pool_instance = None
        _shard_pool_size = 0


def _shard_pool(workers: int):
    """A persistent fork pool reused across pass-shard calls.

    Workers receive everything they need in the payload, so an old pool is
    never stale; it is only rebuilt when the requested size changes.
    """
    global _shard_pool_instance, _shard_pool_size
    if _shard_pool_instance is None or _shard_pool_size != workers:
        _close_shard_pool()
        _shard_pool_instance = pool_context().Pool(
            workers, initializer=mark_pool_worker
        )
        _shard_pool_size = workers
        atexit.register(_close_shard_pool)
    return _shard_pool_instance


def _pool_worker_pids(pool) -> Optional[frozenset]:
    """The pool's current worker PIDs, or ``None`` if unobservable."""
    processes = getattr(pool, "_pool", None)
    if not processes:
        return None
    return frozenset(proc.pid for proc in processes)


def shard_map(func: Callable, items: Sequence) -> list:
    """Map ``func`` over ``items`` on the pass-shard pool (serial fallback).

    Results come back in item order, so callers that pick "the first best"
    are bit-identical to the serial loop.  With sharding disabled, one item,
    or a single worker this *is* the serial loop.

    The map is supervised: a pool worker that dies mid-map (OOM kill,
    segfault, SIGKILL) would otherwise lose its in-flight task and hang the
    ``map`` forever — ``multiprocessing.Pool`` respawns the worker but never
    completes the lost task.  The in-flight result is therefore polled
    against the worker PID set; on any death the broken pool is torn down
    and the whole map re-runs serially in-process (``func`` is pure, so the
    serial rerun is bit-identical), with a ``RuntimeWarning`` naming the
    fallback.
    """
    items = list(items)
    workers = shard_workers()
    if workers is None or workers <= 1 or len(items) <= 1:
        return [func(item) for item in items]
    pool = _shard_pool(workers)
    initial_pids = _pool_worker_pids(pool)
    async_result = pool.map_async(func, items, chunksize=1)
    while True:
        async_result.wait(WORKER_POLL_SECONDS)
        if async_result.ready():
            return async_result.get()
        current_pids = _pool_worker_pids(pool)
        if initial_pids is not None and current_pids != initial_pids:
            # A worker died and was respawned (or the pool lost workers):
            # its in-flight task is gone and the map would hang.
            _close_shard_pool()
            warnings.warn(
                "a pass-shard worker died mid-map; re-running this map "
                "serially in-process (results are unaffected)",
                RuntimeWarning,
                stacklevel=2,
            )
            return [func(item) for item in items]


def shard_chunks(items: Sequence, parts: int) -> List[list]:
    """Split ``items`` into at most ``parts`` contiguous, order-preserving runs."""
    items = list(items)
    if not items:
        return []
    parts = max(1, min(parts, len(items)))
    size = (len(items) + parts - 1) // parts
    return [items[i : i + size] for i in range(0, len(items), size)]
