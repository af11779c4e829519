"""Job specifications and the worker body of the decomposition service.

A *job spec* is the JSON document a client POSTs to ``/jobs``.  This module
owns its whole lifecycle below the HTTP layer:

* :func:`parse_job_spec` validates the raw JSON into a :class:`JobSpec`
  (every rejection raises :class:`SpecError` with a structured detail the
  server renders as an HTTP 400);
* ``JobSpec.digest()`` is the canonical in-flight deduplication key: two
  submissions digest equal iff they would run the identical computation
  (same builder + arguments + pipeline configuration + synthesis
  parameters), built on :func:`repro.engine.batch.job_fingerprint` so it
  agrees with the on-disk cache's job index;
* :func:`execute_job` is the pool-worker body: it routes the spec through
  :func:`repro.engine.batch.run_job` (job index + content-keyed records)
  and, for ``synthesize`` jobs, on through
  :func:`repro.engine.cache.synthesize_cached` (structuring + technology
  mapping, or a :class:`~repro.engine.cache.SynthesisCache` hit),
  returning a JSON-ready result summary.

Everything here is stdlib + the existing engine; the HTTP server never
imports spec builders and the workers never see a socket.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import time
import uuid
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Mapping, Optional

from .. import faults
from ..benchcircuits import (
    adder_spec,
    comparator_spec,
    counter_spec,
    lod_spec,
    lzd_spec,
    majority_spec,
    three_input_adder_spec,
)
from ..core.decompose import DecompositionOptions
from ..core.structure import decomposition_to_netlist
from ..engine.batch import job_fingerprint, run_job
from ..engine.cache import SynthesisCache, decomposition_digest, synthesize_cached
from ..engine.pipeline import Pipeline
from ..synth import default_library, synthesize_netlist

#: Circuits a job may name, mirroring ``benchmarks/run_bench.py``.  The
#: builders are module-level callables, so they are picklable and their
#: qualified names key the cache's job index.
CIRCUITS: Dict[str, Callable] = {
    "adder": adder_spec,
    "comparator": comparator_spec,
    "counter": counter_spec,
    "lod": lod_spec,
    "lzd": lzd_spec,
    "majority": majority_spec,
    "three_input_adder": three_input_adder_spec,
}

KINDS = ("decompose", "synthesize")
OBJECTIVES = ("delay", "area", "balanced")

#: Hard width ceiling: the 15/16-bit Table 1 circuits are the current stress
#: floor; anything wider is minutes of work a single POST should not be able
#: to demand from a shared server.
MAX_WIDTH = 20

#: Ceiling on the artificial per-job delay (a load-testing hook, see below).
MAX_DELAY_MS = 10_000

#: Ceiling on a spec's per-job wall-clock timeout override (seconds).
MAX_JOB_TIMEOUT = 600.0

#: Ceiling on a spec's retry-count override.
MAX_JOB_RETRIES = 10

#: Ceiling on an admission client identifier (spec ``client`` field or
#: ``X-Repro-Client`` header); the charset keeps metric keys printable.
MAX_CLIENT_LEN = 64
_CLIENT_RE = re.compile(r"[A-Za-z0-9._-]+")

#: DecompositionOptions fields a spec may set (everything tunable; the
#: block prefix stays fixed so cache records remain interchangeable).
_OPTION_FIELDS = {
    f.name: f.type
    for f in dataclasses.fields(DecompositionOptions)
    if f.name != "block_prefix"
}


class SpecError(ValueError):
    """A rejected job spec; ``detail`` is the structured 400 payload."""

    def __init__(self, message: str, field_name: str | None = None) -> None:
        super().__init__(message)
        self.detail = {"message": message}
        if field_name is not None:
            self.detail["field"] = field_name


def _require(condition: bool, message: str, field_name: str | None = None) -> None:
    if not condition:
        raise SpecError(message, field_name)


@dataclass(frozen=True)
class JobSpec:
    """A validated, normalised job specification."""

    kind: str
    circuit: str
    width: int
    options: DecompositionOptions
    objective: str = "balanced"
    verify: bool = False
    delay_ms: int = 0
    #: Per-job wall-clock timeout override (seconds); ``None`` uses the
    #: server default.  Scheduling policy, so deliberately NOT part of the
    #: dedup digest: the result of a computation does not depend on it.
    timeout: Optional[float] = None
    #: Per-job retry-budget override for attempts lost to worker crashes;
    #: ``None`` uses the server default.  Also excluded from the digest.
    max_retries: Optional[int] = None
    #: Admission identity (quota accounting); the ``X-Repro-Client`` header
    #: takes precedence over this field.  Pure scheduling policy — excluded
    #: from the digest, so two clients asking for the same computation
    #: still deduplicate onto one execution.
    client: Optional[str] = None

    def payload(self) -> dict:
        """Canonical JSON-ready form (worker payload + digest input)."""
        payload = {
            "kind": self.kind,
            "circuit": self.circuit,
            "width": self.width,
            "options": dataclasses.asdict(self.options),
            "objective": self.objective,
            "verify": self.verify,
            "delay_ms": self.delay_ms,
        }
        if self.timeout is not None:
            payload["timeout"] = self.timeout
        if self.max_retries is not None:
            payload["max_retries"] = self.max_retries
        if self.client is not None:
            payload["client"] = self.client
        return payload

    def job_key(self) -> str:
        """The engine-level job fingerprint (builder + args + pipeline).

        This is exactly the key the worker's ``run_job`` uses for the
        on-disk job index, which lets the admission layer ask "is this
        decomposition already on disk?" before pricing a submission.
        """
        return job_fingerprint(
            CIRCUITS[self.circuit],
            (self.width,),
            {},
            Pipeline.from_options(self.options).config_key(),
        )

    def digest(self) -> str:
        """The in-flight deduplication key.

        Builds on the engine's job fingerprint (builder identity + arguments
        + exact pipeline configuration), then folds in the service-level
        parameters that change what a job *returns* (kind, synthesis
        objective, verify flag, test delay) — two specs digest equal iff
        serving one result satisfies both submissions.
        """
        base = self.job_key()
        extra = json.dumps(
            {
                "kind": self.kind,
                "objective": self.objective if self.kind == "synthesize" else None,
                "verify": self.verify,
                "delay_ms": self.delay_ms,
            },
            sort_keys=True,
        )
        return hashlib.sha256(f"{base}|{extra}".encode("utf-8")).hexdigest()


def parse_job_spec(data: object) -> JobSpec:
    """Validate a decoded JSON document into a :class:`JobSpec`.

    Raises :class:`SpecError` (→ HTTP 400) on any malformed field; unknown
    top-level keys and unknown option names are rejected rather than
    ignored, so typos never silently run a different computation.
    """
    _require(isinstance(data, dict), "job spec must be a JSON object")
    known = {"kind", "circuit", "width", "options", "objective", "verify",
             "delay_ms", "timeout", "max_retries", "client"}
    for key in data:
        _require(key in known, f"unknown field {key!r}", key)

    kind = data.get("kind", "decompose")
    _require(kind in KINDS, f"kind must be one of {list(KINDS)}", "kind")

    circuit = data.get("circuit")
    _require(
        isinstance(circuit, str) and circuit in CIRCUITS,
        f"circuit must be one of {sorted(CIRCUITS)}",
        "circuit",
    )

    width = data.get("width")
    _require(
        isinstance(width, int) and not isinstance(width, bool)
        and 1 <= width <= MAX_WIDTH,
        f"width must be an integer in [1, {MAX_WIDTH}]",
        "width",
    )

    raw_options = data.get("options", {})
    _require(isinstance(raw_options, dict), "options must be a JSON object", "options")
    for name, value in raw_options.items():
        _require(name in _OPTION_FIELDS, f"unknown option {name!r}", "options")
        expected = _OPTION_FIELDS[name]
        if expected == "bool" or expected is bool:
            _require(isinstance(value, bool), f"option {name!r} must be a boolean", "options")
        else:
            _require(
                isinstance(value, int) and not isinstance(value, bool) and value >= 1,
                f"option {name!r} must be a positive integer",
                "options",
            )
    options = DecompositionOptions(**raw_options)

    objective = data.get("objective", "balanced")
    _require(objective in OBJECTIVES, f"objective must be one of {list(OBJECTIVES)}", "objective")

    verify = data.get("verify", False)
    _require(isinstance(verify, bool), "verify must be a boolean", "verify")

    delay_ms = data.get("delay_ms", 0)
    _require(
        isinstance(delay_ms, int) and not isinstance(delay_ms, bool)
        and 0 <= delay_ms <= MAX_DELAY_MS,
        f"delay_ms must be an integer in [0, {MAX_DELAY_MS}]",
        "delay_ms",
    )

    timeout = data.get("timeout")
    if timeout is not None:
        _require(
            isinstance(timeout, (int, float)) and not isinstance(timeout, bool)
            and 0 < timeout <= MAX_JOB_TIMEOUT,
            f"timeout must be a number in (0, {MAX_JOB_TIMEOUT}] seconds",
            "timeout",
        )
        timeout = float(timeout)

    max_retries = data.get("max_retries")
    if max_retries is not None:
        _require(
            isinstance(max_retries, int) and not isinstance(max_retries, bool)
            and 0 <= max_retries <= MAX_JOB_RETRIES,
            f"max_retries must be an integer in [0, {MAX_JOB_RETRIES}]",
            "max_retries",
        )

    client = data.get("client")
    if client is not None:
        _require(
            isinstance(client, str) and 1 <= len(client) <= MAX_CLIENT_LEN
            and _CLIENT_RE.fullmatch(client) is not None,
            "client must be 1-"
            f"{MAX_CLIENT_LEN} characters from [A-Za-z0-9._-]",
            "client",
        )

    return JobSpec(
        kind=kind,
        circuit=circuit,
        width=width,
        options=options,
        objective=objective,
        verify=verify,
        delay_ms=delay_ms,
        timeout=timeout,
        max_retries=max_retries,
        client=client,
    )


def spec_from_payload(payload: Mapping) -> JobSpec:
    """Rebuild a :class:`JobSpec` from ``JobSpec.payload()`` (worker side)."""
    return JobSpec(
        kind=payload["kind"],
        circuit=payload["circuit"],
        width=payload["width"],
        options=DecompositionOptions(**payload["options"]),
        objective=payload["objective"],
        verify=payload["verify"],
        delay_ms=payload["delay_ms"],
        timeout=payload.get("timeout"),
        max_retries=payload.get("max_retries"),
        client=payload.get("client"),
    )


# ----------------------------------------------------------------------
# Worker body
# ----------------------------------------------------------------------
def execute_job(payload: Mapping, cache_dir: Optional[str]) -> dict:
    """Run one job spec end to end; the (picklable) pool-worker body.

    ``delay_ms`` sleeps *before* the engine runs — it exists so tests and
    the load generator can hold a job in flight deterministically and watch
    the thundering-herd deduplication, and it is part of the job digest so
    it never blurs distinct submissions together.

    The returned dict is JSON-ready: decomposition metrics (plus synthesis
    area/delay for ``synthesize`` jobs), the cache coordinates, and whether
    the decomposition was a disk hit.
    """
    spec = spec_from_payload(payload)
    if spec.delay_ms:
        time.sleep(spec.delay_ms / 1000.0)
    # Named fault site for the chaos harness: REPRO_FAULT_SPEC can kill or
    # delay this worker at the start of the job body, filtered by
    # "<circuit>-<width>".  Inert (one env lookup) when unarmed.
    faults.hit("worker.job", tag=f"{spec.circuit}-{spec.width}")
    start = time.perf_counter()
    outcome = run_job(
        CIRCUITS[spec.circuit],
        (spec.width,),
        options=spec.options,
        cache_dir=cache_dir,
    )
    decomposition = outcome.decomposition
    result: dict = {
        "kind": spec.kind,
        "circuit": spec.circuit,
        "width": spec.width,
        "decomposition_cached": outcome.cache_hit,
        "engine_seconds": round(outcome.seconds, 4),
        "blocks": len(decomposition.blocks),
        "levels": decomposition.num_levels,
        "block_literals": decomposition.total_block_literals(),
        "output_literals": sum(
            expr.literal_count for expr in decomposition.outputs.values()
        ),
        "content_key": outcome.content_key,
    }
    if spec.verify:
        result["verified"] = bool(decomposition.verify())
    if spec.kind == "synthesize":
        library = default_library()
        synthesis, hit = synthesize_cached(
            SynthesisCache(f"{cache_dir}/synth") if cache_dir else None,
            lambda: decomposition_digest(decomposition),
            library,
            {"flow": "service", "objective": spec.objective},
            lambda: synthesize_netlist(
                decomposition_to_netlist(
                    decomposition, library=library, objective=spec.objective
                ),
                library,
                name=spec.circuit,
            ),
        )
        result["synthesis_cached"] = hit
        result["area"] = round(synthesis.area, 1)
        result["delay"] = round(synthesis.delay, 3)
        result["cells"] = synthesis.num_cells
    result["seconds"] = round(time.perf_counter() - start, 4)
    return result


# ----------------------------------------------------------------------
# The server-side job record
# ----------------------------------------------------------------------
class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


def new_job_id() -> str:
    return uuid.uuid4().hex[:16]


@dataclass
class Job:
    """One submission's server-side record (dedup subscribers get their own)."""

    id: str
    spec: JobSpec
    digest: str
    state: JobState = JobState.QUEUED
    submitted_at: float = field(default_factory=time.time)
    finished_at: Optional[float] = None
    deduplicated: bool = False
    primary_id: Optional[str] = None
    result: Optional[dict] = None
    error: Optional[str] = None
    #: Structured failure description (``type`` + context) alongside the
    #: human-readable ``error`` string — what clients branch on.
    error_detail: Optional[dict] = None
    #: Execution attempts the computation behind this job consumed
    #: (0 while queued/deduplicated, >1 after worker-death retries).
    attempts: int = 0
    #: True when brownout degradation stripped optional work (the
    #: ``verify`` flag) from the submitted spec before execution.
    degraded: bool = False

    def finish(self, result: Optional[dict], error: Optional[str],
               error_detail: Optional[dict] = None) -> None:
        self.result = result
        self.error = error
        self.error_detail = error_detail if error is not None else None
        self.state = JobState.FAILED if error is not None else JobState.DONE
        self.finished_at = time.time()

    @property
    def latency_seconds(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def status(self) -> dict:
        """The ``GET /jobs/<id>`` JSON body."""
        body: dict = {
            "id": self.id,
            "state": self.state.value,
            "digest": self.digest,
            "spec": self.spec.payload(),
            "submitted_at": self.submitted_at,
            "deduplicated": self.deduplicated,
        }
        if self.primary_id is not None:
            body["primary_id"] = self.primary_id
        if self.finished_at is not None:
            body["finished_at"] = self.finished_at
            body["latency_seconds"] = round(self.latency_seconds, 4)
        if self.attempts:
            body["attempts"] = self.attempts
        if self.degraded:
            body["degraded"] = True
        if self.result is not None:
            body["result"] = self.result
        if self.error is not None:
            body["error"] = self.error
        if self.error_detail is not None:
            body["error_detail"] = self.error_detail
        return body
