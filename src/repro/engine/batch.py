"""Batch orchestrator: run many specifications through pipelines concurrently.

The evaluation harness and the benchmark sweeps both face the same
workload shape — dozens of independent ``(specification, pipeline
config)`` decomposition jobs — so this module gives them one engine-level
front door:

* :func:`decompose_cached` — the one cached decompose step: content key,
  then load from an optional on-disk
  :class:`~repro.engine.cache.DecompositionCache`, or decompose and store;
* :func:`run_job` / :func:`job_fingerprint` — the job API surface: one
  builder-described job run end to end through the job index and
  :func:`decompose_cached`, returning a structured :class:`JobOutcome`.
  This is the worker body shared by the orchestrator below and the HTTP
  front-end (``repro.service``);
* :class:`BatchOrchestrator` — fan a list of :class:`BatchJob` out over a
  ``multiprocessing`` pool, with every worker sharing the same cache
  directory (writes are atomic, no locking needed);
* :func:`map_parallel` — the fan-out under the orchestrator: a fork pool,
  or an in-process loop for one worker;
* :func:`mark_pool_worker` / :func:`pool_context` — the worker-pool
  plumbing shared with the HTTP front-end's worker pool.

Parallelism exists only at this whole-job level: one decomposition always
runs serially in one process.

Jobs carry a *spec builder* (an importable callable plus arguments) rather
than built expressions: ``Anf``/``Context`` objects are cheap to rebuild and
expensive to ship between processes.  Outcomes cross back with their
decomposition as the cache's record dict (a packed term set pickles as one
raw ``uint64`` buffer), rebuilt into a full :class:`Decomposition` in the
parent, so a batch result is indistinguishable from an in-process run
(modulo context identity).
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import os
import signal
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..anf.canonical import canonical_spec_digest
from ..anf.expression import Anf
from ..core.decompose import Decomposition, DecompositionOptions
from .cache import (
    ENGINE_CACHE_EPOCH,
    SCHEMA,
    DecompositionCache,
    cache_key,
    deserialize_decomposition,
    serialize_decomposition,
)
from .cost import estimate_batch_job
from .pipeline import Pipeline


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------
@dataclass
class BatchJob:
    """One decomposition job: a spec builder plus a pipeline configuration.

    ``builder(*args, **kwargs)`` must return either a mapping of output
    expressions or a spec bundle exposing ``outputs`` (and optionally
    ``input_words``), as every ``repro.benchcircuits`` builder does.  The
    builder must be picklable (any module-level function is).
    """

    name: str
    builder: Callable[..., object]
    args: tuple = ()
    kwargs: Dict[str, object] = field(default_factory=dict)
    options: Optional[DecompositionOptions] = None


def _spec_parts(spec: object) -> Tuple[Mapping[str, Anf], Optional[List[List[str]]]]:
    """Outputs and input words of whatever a spec builder returned."""
    if isinstance(spec, Mapping):
        return spec, None
    outputs = getattr(spec, "outputs", None)
    if outputs is None:
        raise TypeError(
            f"spec builder returned {type(spec).__name__}, which has no 'outputs'"
        )
    return outputs, getattr(spec, "input_words", None)


def job_fingerprint(builder: Callable, args: tuple, kwargs: Mapping[str, object],
                    config_key: str) -> str:
    """Stable fingerprint of a job's (builder identity, arguments, config).

    This is the *job-level* key: it identifies "run this builder with these
    arguments under this pipeline configuration" without building the spec.
    The content-addressed :func:`~repro.engine.cache.cache_key` stays the
    source of truth below it.  Public because the service front-end
    (``repro.service``) deduplicates in-flight submissions by exactly this
    fingerprint.
    """
    rendered = "|".join((
        SCHEMA,
        ENGINE_CACHE_EPOCH,
        f"{getattr(builder, '__module__', '?')}:{getattr(builder, '__qualname__', repr(builder))}",
        repr(args),
        repr(sorted(kwargs.items())),
        config_key,
    ))
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


@dataclass
class JobOutcome:
    """The result of one decomposition job.

    ``decomposition`` is the result: on a miss (or with no cache) the
    object the pipeline computed, on a hit the one decoded from the cache;
    ``cache_hit`` says whether it was loaded rather than computed;
    ``content_key``/``job_key`` are the cache coordinates it was stored (or
    found) under, when a cache was in play.

    In-process an outcome is handed over as it is.  Pickled across a
    process boundary (a batch worker's result), its decomposition travels
    as its record dict (a packed term set is one raw ``uint64`` buffer)
    and is decoded on arrival.
    """

    decomposition: Decomposition
    seconds: float
    cache_hit: bool
    content_key: Optional[str] = None
    job_key: Optional[str] = None

    def __reduce__(self):
        return (_outcome_from_record, (
            serialize_decomposition(self.decomposition), self.seconds,
            self.cache_hit, self.content_key, self.job_key,
        ))


def _outcome_from_record(record: dict, *fields) -> JobOutcome:
    return JobOutcome(deserialize_decomposition(record), *fields)


def decompose_cached(
    outputs: Mapping[str, Anf],
    options: DecompositionOptions | None = None,
    input_words: Sequence[Sequence[str]] | None = None,
    cache: DecompositionCache | None = None,
) -> JobOutcome:
    """Decompose ``outputs``, or load the result by its content key.

    With a ``cache``, the canonical spec digest plus the pipeline's config
    key is looked up first (the outcome carries it as ``content_key``) and
    the result is persisted after a miss.  Hits go through
    :meth:`DecompositionCache.load`, so a record that parses but does not
    decode is quarantined and recomputed.
    """
    start = time.perf_counter()
    pipeline = Pipeline.from_options(options)
    content_key = decomposition = None
    if cache is not None:
        digest = canonical_spec_digest(outputs, input_words)
        content_key = cache_key(digest, pipeline.config_key())
        decomposition = cache.load(content_key)
    hit = decomposition is not None
    if not hit:
        decomposition = pipeline.run(outputs, input_words=input_words, options=options)
        if cache is not None:
            cache.store(content_key, decomposition)
    return JobOutcome(decomposition, time.perf_counter() - start, hit, content_key)


def run_job(
    builder: Callable[..., object],
    args: tuple = (),
    kwargs: Mapping[str, object] | None = None,
    options: DecompositionOptions | None = None,
    cache_dir: str | os.PathLike | None = None,
) -> JobOutcome:
    """Run one decomposition job end to end; the engine's job API surface.

    This is the worker body shared by the batch orchestrator and the service
    front-end: with a cache, the job index is consulted first (a hit skips
    rebuilding and re-hashing the specification entirely and decodes the
    stored record); on an index miss the spec is built and handed to
    :func:`decompose_cached`, and the job index is pointed at its content
    key.
    """
    kwargs = dict(kwargs or {})
    cache = DecompositionCache(cache_dir) if cache_dir else None
    start = time.perf_counter()
    job_key = None
    if cache is not None:
        config_key = Pipeline.from_options(options).config_key()
        job_key = job_fingerprint(builder, args, kwargs, config_key)
        content_key = cache.load_index(job_key)
        if content_key is not None:
            decomposition = cache.load(content_key)
            if decomposition is not None:
                return JobOutcome(decomposition, time.perf_counter() - start, True,
                                  content_key, job_key)
    outputs, input_words = _spec_parts(builder(*args, **kwargs))
    outcome = decompose_cached(outputs, options, input_words, cache)
    if cache is not None:
        cache.store_index(job_key, outcome.content_key)
    outcome.seconds = time.perf_counter() - start
    outcome.job_key = job_key
    return outcome


def _execute_job(payload: tuple) -> JobOutcome:
    """Pool-worker wrapper around :func:`run_job` (picklable payload tuple)."""
    return run_job(*payload)


# ----------------------------------------------------------------------
# Worker pools
# ----------------------------------------------------------------------
#: True inside any worker process this package forked (set by the pool
#: initializer).  ``multiprocessing.Pool`` workers are daemonic and already
#: self-identify; ``concurrent.futures`` process workers (the orchestrator's
#: and the service's) are not, so the flag is what keeps a job body already
#: running in a worker from forking a second level of workers.
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
    but fork is far cheaper than spawn for short-lived jobs)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _pool_processes(requested: Optional[int], num_items: int) -> int:
    if requested is not None:
        return max(1, min(requested, num_items))
    return max(1, min(os.cpu_count() or 1, num_items))


def map_parallel(func: Callable, items: Sequence, processes: Optional[int] = None) -> list:
    """Apply a picklable function to every item, forking when it pays off.

    ``processes=1`` (or a single item) degrades to a plain in-process loop,
    which keeps the orchestrator usable in environments where forking is
    restricted (set ``processes=1`` there).

    The pool is a :class:`~concurrent.futures.ProcessPoolExecutor`, whose
    broken-pool detection is the supervision primitive: when any worker dies
    mid-batch (OOM kill, segfault, SIGKILL) every pending future raises
    :class:`BrokenProcessPool` instead of hanging.  The whole map then
    re-runs serially in-process with a ``RuntimeWarning`` — ``func`` is pure,
    so the rerun produces identical results.
    """
    items = list(items)
    if not items:
        return []
    if in_pool_worker():
        # A job body already running under a worker pool must not fork a
        # second level of workers.
        return [func(item) for item in items]
    workers = _pool_processes(processes, len(items))
    if workers == 1:
        return [func(item) for item in items]
    try:
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=pool_context(),
            initializer=mark_pool_worker,
        ) as pool:
            return list(pool.map(func, items, chunksize=1))
    except BrokenProcessPool:
        warnings.warn(
            "a batch worker died mid-run; re-running the batch serially "
            "in-process (results are unaffected)",
            RuntimeWarning,
            stacklevel=2,
        )
        return [func(item) for item in items]


# ----------------------------------------------------------------------
# The orchestrator
# ----------------------------------------------------------------------
class BatchOrchestrator:
    """Run decomposition jobs concurrently against a shared on-disk cache.

    The cache is content-addressed (canonical spec digest + pipeline config);
    on top of it a job index keyed by the builder's qualified name and
    arguments lets warm re-runs skip spec construction and hashing entirely.
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike | None = None,
        processes: Optional[int] = None,
    ) -> None:
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.processes = processes
        if self.cache_dir is not None:
            # Create the directory up front so concurrent workers never race
            # on mkdir, and so a bad path fails in the parent.
            DecompositionCache(self.cache_dir)

    def run(self, jobs: Sequence[BatchJob]) -> Dict[str, JobOutcome]:
        """Execute every job; returns ``{job name: JobOutcome}``.

        Job names must be unique — they key the result dict.
        """
        jobs = list(jobs)
        names = [job.name for job in jobs]
        if len(set(names)) != len(names):
            raise ValueError("batch job names must be unique")
        # Dispatch longest-first (LPT): the cost model prices each job
        # pre-execution so the pool never starts its heaviest job last and
        # idles N-1 workers behind one straggler.  The sort key is the
        # estimate, the tiebreaker is submission order (sorted() is stable).
        order = sorted(
            range(len(jobs)),
            key=lambda i: -estimate_batch_job(
                jobs[i].builder, jobs[i].args, jobs[i].kwargs
            ),
        )
        payloads = [
            (job.builder, job.args, dict(job.kwargs), job.options, self.cache_dir)
            for job in (jobs[i] for i in order)
        ]
        outcomes = map_parallel(_execute_job, payloads, processes=self.processes)
        by_name = {names[i]: outcome for i, outcome in zip(order, outcomes)}
        # Callers iterate results in submission order; undo the LPT shuffle.
        return {name: by_name[name] for name in names}
