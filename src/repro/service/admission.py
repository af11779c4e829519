"""Admission control for the job service: cost quotas, shedding, brownout.

This layer sits between request parsing and the supervised executor in
:mod:`repro.service.server`.  Every submission is priced *before* execution
by the shared width-weighted cost model (:mod:`repro.engine.cost`), and
three defenses are applied in order:

1. **Brownout degradation** — under sustained pressure the server sheds
   *optional* work before rejecting anyone: first ``degraded`` (the
   ``verify`` flag is stripped from incoming specs), then ``cache_only``
   (expensive jobs whose decomposition is not already on disk are refused).
   Both transitions are hysteretic: pressure must sit above the high
   watermark for a hold period to escalate and below the low watermark for
   the same period to step back down, so the state cannot flap.
2. **Load shedding** — when the estimated cost queued behind the executor
   (or the raw queue depth) would cross its watermark, expensive requests
   get a structured HTTP 429 with ``Retry-After``; cheap requests
   (``cost <= cheap_cost``) still admit so light clients keep their
   latency budget through the storm.
3. **Per-client token buckets** — each client (the ``X-Repro-Client``
   header, else the spec's ``client`` field, else ``"default"``) holds a
   bucket refilled in cost units per second.  A job is affordable when the
   bucket holds ``min(cost, burst)`` tokens; charging may drive the
   balance negative (debt), which is what paces a client whose single jobs
   are worth several seconds of refill.

In-flight dedup subscribers bypass shedding and are charged a nominal
cost — attaching to an existing computation adds no engine work, and
punishing it would defeat the service's core invariant.

Everything here is synchronous, owned by the server's single event loop,
and observable: :meth:`AdmissionController.snapshot` feeds the
``admission`` block of ``GET /metrics``.  The controller clock is
injectable for deterministic unit tests.

Tunables come from ``REPRO_ADMISSION_*`` environment variables (see
``docs/TUNABLES.md``) rather than CLI flags: they are operating-point
policy, expected to differ per deployment, and the overload benchmark
(``run_loadgen.py --overload``) arms a deliberately tiny configuration in
the server it launches.
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

__all__ = [
    "ADMIT",
    "CACHE_ONLY",
    "AdmissionConfig",
    "AdmissionController",
    "Decision",
    "SHED",
    "THROTTLE",
    "TokenBucket",
    "admission_config_from_env",
]

# Decision actions.
ADMIT = "admit"
THROTTLE = "throttle"  # per-client quota exhausted
SHED = "shed"  # global queue watermark crossed
CACHE_ONLY = "cache_only"  # brownout floor: cold expensive work refused

#: Nominal charge for attaching to an in-flight computation.
DEDUP_COST = 1.0

#: Hard cap on distinct client buckets; beyond it the least-recently-seen
#: bucket is evicted so arbitrary header values cannot grow memory.
MAX_CLIENTS = 1024

_BROWNOUT_STATES = ("normal", "degraded", "cache_only")


def _env_float(name: str, default: float, minimum: float) -> float:
    """A float tunable from the environment — warn-and-default on garbage,
    warn-and-clamp below ``minimum``, so a typo'd tunable is visible instead
    of silently running the wrong configuration (and never an import-time
    crash)."""
    value = os.environ.get(name, "").strip()
    if not value:
        return default
    try:
        parsed = float(value)
    except ValueError:
        warnings.warn(
            f"ignoring malformed ${name}={value!r} (expected a number); "
            f"using the default {default}",
            RuntimeWarning,
            stacklevel=2,
        )
        return default
    if parsed < minimum:
        warnings.warn(
            f"${name}={parsed} is below the minimum {minimum}; clamping",
            RuntimeWarning,
            stacklevel=2,
        )
        return minimum
    return parsed


@dataclass(frozen=True)
class AdmissionConfig:
    """Operating point of the admission layer.  Defaults are deliberately
    generous — a single-box development server should never notice the
    layer exists; production deployments tighten them via environment."""

    #: Master switch; ``REPRO_ADMISSION=0`` disables the layer entirely.
    enabled: bool = True
    #: Per-client refill rate, cost units (~ms of engine time) per second.
    rate: float = 2000.0
    #: Per-client bucket capacity; also the affordability ceiling, so a
    #: single job costing more than ``burst`` is still admittable (it
    #: drives the bucket into debt instead of being forever unaffordable).
    burst: float = 20000.0
    #: Global watermark: estimated cost units admitted but not yet settled.
    max_queue_cost: float = 50000.0
    #: Global watermark: admitted-but-unsettled job count.
    max_queue_depth: int = 512
    #: Jobs at or below this cost are "cheap": they are never shed by the
    #: global watermarks (only their own client's quota can stop them).
    cheap_cost: float = 50.0
    #: Brownout engages when pressure (queued cost / max_queue_cost) holds
    #: at or above ``brownout_high`` for ``brownout_hold`` seconds …
    brownout_high: float = 0.75
    #: … and steps back down after the same hold at or below this.
    brownout_low: float = 0.25
    brownout_hold: float = 2.0
    #: Idle client buckets are dropped after this many seconds.
    client_ttl: float = 600.0


def admission_config_from_env() -> AdmissionConfig:
    """Build the admission operating point from ``REPRO_ADMISSION_*``."""
    enabled = os.environ.get("REPRO_ADMISSION", "").strip().lower() not in (
        "0",
        "false",
        "off",
        "no",
    )
    return AdmissionConfig(
        enabled=enabled,
        rate=_env_float("REPRO_ADMISSION_RATE", 2000.0, 1.0),
        burst=_env_float("REPRO_ADMISSION_BURST", 20000.0, 1.0),
        max_queue_cost=_env_float("REPRO_ADMISSION_MAX_QUEUE_COST", 50000.0, 1.0),
        max_queue_depth=int(
            _env_float("REPRO_ADMISSION_MAX_QUEUE_DEPTH", 512, 1)
        ),
        cheap_cost=_env_float("REPRO_ADMISSION_CHEAP_COST", 50.0, 0.0),
        brownout_high=_env_float("REPRO_ADMISSION_BROWNOUT_HIGH", 0.75, 0.01),
        brownout_low=_env_float("REPRO_ADMISSION_BROWNOUT_LOW", 0.25, 0.0),
        brownout_hold=_env_float("REPRO_ADMISSION_BROWNOUT_HOLD", 2.0, 0.0),
        client_ttl=_env_float("REPRO_ADMISSION_CLIENT_TTL", 600.0, 1.0),
    )


class TokenBucket:
    """Cost-unit token bucket with debt.

    Affordability is gated on ``min(cost, burst)`` so one job worth more
    than a full bucket can still run — charging it simply drives the
    balance negative, and the client waits out the debt before its next
    admission.  Refill is lazy (computed from elapsed time on each use).
    """

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float, now: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.updated = now

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self.updated)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated = now

    def try_charge(self, cost: float, now: float) -> float:
        """Charge ``cost`` if affordable; returns 0.0 on success, else the
        seconds until the charge would become affordable (never charges
        in that case)."""
        self._refill(now)
        need = min(cost, self.burst)
        if self.tokens >= need:
            self.tokens -= cost
            return 0.0
        return (need - self.tokens) / self.rate


@dataclass
class Decision:
    """Outcome of one admission decision, consumed by the server."""

    action: str  # ADMIT | THROTTLE | SHED | CACHE_ONLY
    client: str
    cost: float
    cost_class: str  # "cheap" | "standard" | "heavy"
    dedup: bool = False
    retry_after: float = 0.0
    brownout: str = "normal"
    registered: bool = field(default=False, compare=False)


class _BrownoutTracker:
    """Hysteretic three-state machine: normal -> degraded -> cache_only.

    Driven by every pressure observation (admissions, settlements and
    metrics scrapes).  Escalates one level after pressure holds at or
    above ``high`` for ``hold`` seconds, de-escalates one level after it
    holds at or below ``low`` for ``hold`` seconds; in the band between
    the watermarks both hold timers reset, which is what prevents
    flapping.
    """

    __slots__ = ("high", "low", "hold", "level", "engaged", "cleared",
                 "_above_since", "_below_since")

    def __init__(self, high: float, low: float, hold: float) -> None:
        self.high = high
        self.low = low
        self.hold = hold
        self.level = 0
        self.engaged = 0  # times brownout left "normal"
        self.cleared = 0  # times brownout returned to "normal"
        self._above_since: Optional[float] = None
        self._below_since: Optional[float] = None

    @property
    def state(self) -> str:
        return _BROWNOUT_STATES[self.level]

    def observe(self, pressure: float, now: float) -> str:
        if pressure >= self.high:
            self._below_since = None
            if self._above_since is None:
                self._above_since = now
            elif now - self._above_since >= self.hold:
                if self.level < len(_BROWNOUT_STATES) - 1:
                    if self.level == 0:
                        self.engaged += 1
                    self.level += 1
                self._above_since = now  # re-arm for the next escalation
        elif pressure <= self.low:
            self._above_since = None
            if self._below_since is None:
                self._below_since = now
            elif now - self._below_since >= self.hold:
                if self.level > 0:
                    self.level -= 1
                    if self.level == 0:
                        self.cleared += 1
                self._below_since = now
        else:
            self._above_since = None
            self._below_since = None
        return self.state


class AdmissionController:
    """Prices, meters and (when necessary) refuses job submissions.

    The protocol with the server is two-phase so a fault injected between
    the decision and the launch cannot leak queued cost:

    - :meth:`decide` charges the client's bucket and returns a
      :class:`Decision`, but does **not** touch the global queue books;
    - :meth:`register` (called only for admitted jobs, after the
      ``admission.admit`` fault site) adds the job's cost to the queue
      books; :meth:`settle` removes it when the job reaches a terminal
      state.

    Single-threaded by design: every method runs on the server's event
    loop (or under the caller's control in tests).
    """

    def __init__(
        self,
        config: AdmissionConfig,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config
        self.clock = clock
        self._buckets: Dict[str, TokenBucket] = {}
        self._last_seen: Dict[str, float] = {}
        self._brownout = _BrownoutTracker(
            config.brownout_high, config.brownout_low, config.brownout_hold
        )
        self.queue_cost = 0.0
        self.queue_depth = 0
        self.queue_cost_by_class: Dict[str, float] = {
            "cheap": 0.0, "standard": 0.0, "heavy": 0.0,
        }
        self.admitted = 0
        self.throttled = 0
        self.shed = 0
        self.cache_only_rejects = 0
        self.degraded_jobs = 0

    # -- pricing -------------------------------------------------------
    def classify(self, cost: float) -> str:
        if cost <= self.config.cheap_cost:
            return "cheap"
        if cost >= self.config.burst / 2.0:
            return "heavy"
        return "standard"

    @property
    def pressure(self) -> float:
        return self.queue_cost / self.config.max_queue_cost

    def brownout_state(self, now: Optional[float] = None) -> str:
        """Current brownout state; observing advances the hold timers, so
        metrics scrapes and new submissions both drive recovery."""
        now = self.clock() if now is None else now
        return self._brownout.observe(self.pressure, now)

    # -- the decision --------------------------------------------------
    def decide(
        self,
        client: str,
        cost: float,
        *,
        cached: bool = False,
        dedup: bool = False,
    ) -> Decision:
        now = self.clock()
        self._evict_idle(now)
        state = self._brownout.observe(self.pressure, now)
        charge = DEDUP_COST if dedup else cost
        cost_class = self.classify(charge)
        cheap = cost_class == "cheap"

        # Brownout floor: cold expensive work is refused outright while in
        # cache_only — the queue is already past saturation, so only jobs
        # that collapse to a disk read (or dedup attach) may pass.
        if state == "cache_only" and not (dedup or cached or cheap):
            self.cache_only_rejects += 1
            return Decision(
                CACHE_ONLY, client, charge, cost_class,
                retry_after=max(self.config.brownout_hold, 1.0),
                brownout=state,
            )

        # Global shedding: dedup attaches add no work and cheap jobs are
        # exempt; everything else must fit under both watermarks.
        if not dedup and not cheap:
            over_cost = self.queue_cost + charge > self.config.max_queue_cost
            over_depth = self.queue_depth >= self.config.max_queue_depth
            if over_cost or over_depth:
                self.shed += 1
                overflow = self.queue_cost + charge - self.config.max_queue_cost
                retry = max(
                    self.config.brownout_hold,
                    overflow / self.config.rate if overflow > 0 else 0.0,
                )
                return Decision(
                    SHED, client, charge, cost_class,
                    retry_after=retry, brownout=state,
                )

        # Per-client quota.
        bucket = self._bucket(client, now)
        wait = bucket.try_charge(charge, now)
        if wait > 0.0:
            self.throttled += 1
            return Decision(
                THROTTLE, client, charge, cost_class,
                retry_after=wait, brownout=state,
            )

        self.admitted += 1
        return Decision(
            ADMIT, client, charge, cost_class, dedup=dedup, brownout=state,
        )

    def register(self, decision: Decision) -> None:
        """Book an admitted job's cost into the global queue accounting.
        Dedup attaches are excluded — their work is already booked under
        the primary submission."""
        if decision.action != ADMIT or decision.dedup or decision.registered:
            return
        decision.registered = True
        self.queue_cost += decision.cost
        self.queue_depth += 1
        self.queue_cost_by_class[decision.cost_class] += decision.cost

    def settle(self, decision: Optional[Decision]) -> None:
        """Release a registered job's cost when it reaches a terminal
        state, and give the brownout tracker a fresh observation so
        recovery does not wait for the next submission."""
        if decision is not None and decision.registered:
            decision.registered = False
            self.queue_cost = max(0.0, self.queue_cost - decision.cost)
            self.queue_depth = max(0, self.queue_depth - 1)
            by_class = self.queue_cost_by_class
            by_class[decision.cost_class] = max(
                0.0, by_class[decision.cost_class] - decision.cost
            )
        self._brownout.observe(self.pressure, self.clock())

    # -- bookkeeping ---------------------------------------------------
    def _bucket(self, client: str, now: float) -> TokenBucket:
        bucket = self._buckets.get(client)
        if bucket is None:
            if len(self._buckets) >= MAX_CLIENTS:
                oldest = min(self._last_seen, key=self._last_seen.__getitem__)
                del self._buckets[oldest]
                del self._last_seen[oldest]
            bucket = TokenBucket(self.config.rate, self.config.burst, now)
            self._buckets[client] = bucket
        self._last_seen[client] = now
        return bucket

    def _evict_idle(self, now: float) -> None:
        ttl = self.config.client_ttl
        expired = [c for c, seen in self._last_seen.items() if now - seen > ttl]
        for client in expired:
            del self._buckets[client]
            del self._last_seen[client]

    def snapshot(self) -> Dict[str, object]:
        """The ``admission`` block of ``GET /metrics``."""
        return {
            "enabled": self.config.enabled,
            "admitted": self.admitted,
            "throttled": self.throttled,
            "shed": self.shed,
            "cache_only_rejects": self.cache_only_rejects,
            "degraded_jobs": self.degraded_jobs,
            "queue_cost": round(self.queue_cost, 3),
            "queue_depth": self.queue_depth,
            "queue_cost_by_class": {
                k: round(v, 3) for k, v in self.queue_cost_by_class.items()
            },
            "pressure": round(self.pressure, 4),
            "active_clients": len(self._buckets),
            "brownout": {
                "state": self.brownout_state(),
                "engaged": self._brownout.engaged,
                "cleared": self._brownout.cleared,
            },
        }
