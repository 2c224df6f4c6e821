"""The analysis daemon's core: configuration, admission, dispatch.

:class:`ServiceCore` is the transport-independent heart of the daemon:
admission -> cache -> pool dispatch, plus the health/stats/metrics
introspection bodies.  The front door,
:class:`~repro.service.aserver.AsyncAnalysisServer`, owns the listening
socket and one coroutine per connection; it calls the core around its
own waiting primitive, so the job pipeline stays apart from the
transport.

Every stage stamps ``service.*`` telemetry into the core's live
:class:`~repro.telemetry.MetricsRegistry`; ``stats`` serializes the
same snapshot a ``--report`` run would.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..telemetry import MetricsRegistry
from ..telemetry.obs import latency_summary, render_prometheus, wall_now_us
from .admission import ACTION_ADMIT, AdmissionController
from .cache import ResultCache
from .jobs import JobSpec, cache_key, resolve_spec
from .observe import NULL_OBSERVABILITY, ServiceObservability
from .pool import Job, WorkerPool
from .protocol import (
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
)

#: extra seconds the front door waits past a job's deadline before
#: declaring the pool lost (belt and braces: the pool itself enforces
#: deadlines).
_GRACE_S = 10.0

#: fallback deadline for jobs that don't carry one.
DEFAULT_DEADLINE_S = 120.0


@dataclass
class ServiceConfig:
    """Daemon configuration (CLI flags map 1:1 onto these fields)."""

    socket_path: str | None = None
    host: str = "127.0.0.1"
    port: int | None = None
    workers: int = 2
    queue_capacity: int = 8
    default_deadline_s: float = DEFAULT_DEADLINE_S
    cache_entries: int = 256
    max_retries: int = 1
    respawn_limit: int = 3
    #: shed fidelity before jobs under overload (``--no-degrade`` clears).
    degrade: bool = True
    #: admit the test-only "chaos" job kind (crash/hang injection).
    allow_chaos: bool = False
    #: flight recorder, metrics sampler and per-job traces
    #: (``--no-observe`` clears).
    observe: bool = True
    #: where flight-recorder dumps land (default: the daemon's cwd).
    obs_dir: str | None = None
    #: metrics-window sampling period for the background sampler.
    sample_interval_s: float = 1.0

    def address(self) -> str:
        if self.port is not None:
            return f"tcp://{self.host}:{self.port}"
        return f"unix://{self.socket_path}"


@dataclass
class PreparedJob:
    """An admitted, cache-missed job ready for pool submission."""

    spec: JobSpec
    key: str
    degraded: bool
    reason: str
    deadline_s: float
    t0: float = field(default=0.0)

    @property
    def grace_deadline_s(self) -> float:
        """How long the front door may wait before declaring the job lost."""
        return self.deadline_s + _GRACE_S


class ServiceCore:
    """Transport-independent daemon core: admission -> cache -> pool.

    Owns the registry, admission controller, result cache, observability
    seam and worker pool, and exposes the job pipeline as three steps a
    front door calls around its own waiting primitive:

    ``prepare(request)``
        runs admission and the cache probe; returns either a finished
        response (rejected, or cache hit) or a :class:`PreparedJob`.
    ``make_job(prepared, done_cb, ...)``
        builds the pool :class:`~repro.service.pool.Job`, wiring the
        completion callback and, for streamed jobs, the partial callback.
    ``finish(prepared, job)`` / ``lost_response()``
        folds the completed (or lost) job into the wire response,
        populating the cache on success.

    The front door awaits an ``asyncio`` event poked by the job's
    ``done_cb`` between steps two and three.
    """

    def __init__(self, config: ServiceConfig, registry: MetricsRegistry | None = None):
        self.config = config
        self.registry = registry if registry is not None else MetricsRegistry(enabled=True)
        self.admission = AdmissionController(
            config.queue_capacity, degrade=config.degrade
        )
        self.cache = ResultCache(config.cache_entries, registry=self.registry)
        if config.observe:
            self.obs = ServiceObservability(
                self.registry,
                dump_dir=config.obs_dir,
                sample_interval_s=config.sample_interval_s,
            )
        else:
            self.obs = NULL_OBSERVABILITY
        self.pool = WorkerPool(
            workers=config.workers,
            registry=self.registry,
            max_retries=config.max_retries,
            respawn_limit=config.respawn_limit,
            obs=self.obs,
        )
        self._started_at = 0.0

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Start observability and the pool (the front door binds first,
        so ``server.start`` records the resolved address)."""
        self._started_at = time.monotonic()
        self.obs.start()
        self.obs.event(
            "server.start", address=self.config.address(),
            workers=self.config.workers, capacity=self.config.queue_capacity,
        )
        self.pool.start()
        self.registry.gauge("service.workers").set(self.config.workers)

    def stop(self) -> None:
        self.pool.stop()
        self.obs.event("server.stop")
        self.obs.stop()

    # -- job pipeline --------------------------------------------------------
    def prepare(self, request: dict, trace_id: str = "") -> tuple[dict | None, PreparedJob | None]:
        """Admission + cache probe; (response, None) or (None, prepared)."""
        registry = self.registry
        registry.counter("service.jobs.received").inc()
        t0 = time.monotonic()
        spec = resolve_spec(request, allow_chaos=self.config.allow_chaos)

        a0 = wall_now_us()
        depth = self.pool.depth()
        decision = self.admission.decide(depth, spec.kind, spec.fidelity)
        self.obs.event(
            "admission", action=decision.action, job_kind=spec.kind, depth=depth,
            requested=spec.fidelity, resolved=decision.fidelity,
            reason=decision.reason, trace_id=trace_id,
        )
        if trace_id:
            self.obs.span_at(
                "server.admission", a0, wall_now_us() - a0,
                trace_id=trace_id, action=decision.action, depth=depth,
                fidelity=decision.fidelity,
            )
        if decision.action != ACTION_ADMIT:
            registry.counter("service.jobs.rejected").inc()
            return {
                "status": STATUS_REJECTED,
                "reason": decision.reason,
                "retry_after_s": 0.5,
            }, None
        degraded = decision.degraded
        spec.fidelity = decision.fidelity
        if degraded:
            registry.counter("service.jobs.degraded").inc()
        registry.counter("service.jobs.admitted").inc()

        key = cache_key(spec)
        if spec.cache:
            cached = self.cache.get(key)
            if cached is not None:
                if trace_id:
                    self.obs.instant_at(
                        "server.cache_hit", wall_now_us(), trace_id=trace_id
                    )
                return self.job_response(
                    cached, degraded, decision.reason, cached=True, t0=t0
                ), None

        deadline = spec.deadline_s or self.config.default_deadline_s
        return None, PreparedJob(spec, key, degraded, decision.reason, deadline, t0)

    def make_job(
        self, prepared: PreparedJob, done_cb, trace_id: str = "", partial_cb=None,
    ) -> Job:
        """Build the pool job; ``partial_cb`` set means a streamed job."""
        job = Job(prepared.spec, prepared.key, deadline_s=prepared.deadline_s)
        job.degraded = prepared.degraded
        job.degrade_reason = prepared.reason
        if trace_id:
            job.trace_id = trace_id
            job.payload["_trace"] = trace_id
        if partial_cb is not None:
            job.stream = True
            job.partial_cb = partial_cb
        job.done_cb = done_cb
        return job

    def finish(self, prepared: PreparedJob, job: Job) -> dict:
        """Fold a completed job into its response (caching on success)."""
        if job.status == STATUS_OK:
            if prepared.spec.cache and job.result is not None:
                self.cache.put(prepared.key, job.result)
            return self.job_response(
                job.result, prepared.degraded, prepared.reason, t0=prepared.t0
            )
        return {"status": job.status, "error": job.error}

    def lost_response(self) -> dict:
        """A job the pool never finished (the front door's never-hang
        guarantee fired past deadline + grace)."""
        self.registry.counter("service.jobs.lost").inc()
        return {"status": STATUS_ERROR, "error": "job lost by the pool"}

    def job_response(
        self, result: dict, degraded: bool, reason: str, cached: bool = False,
        t0: float = 0.0,
    ) -> dict:
        response = {
            "status": STATUS_DEGRADED if degraded else STATUS_OK,
            "result": result,
            "cached": cached,
        }
        if degraded:
            response["reason"] = reason
        if t0:
            from ..telemetry import LATENCY_BUCKETS_S

            self.registry.histogram(
                "service.latency.respond_s", LATENCY_BUCKETS_S
            ).observe(time.monotonic() - t0)
        return response

    # -- introspection -------------------------------------------------------
    def health(self) -> dict:
        return {
            "ok": self.pool.alive_workers() > 0,
            "address": self.config.address(),
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "workers_alive": self.pool.alive_workers(),
            "queue_depth": self.pool.depth(),
            "queue_capacity": self.config.queue_capacity,
            "degrade_enabled": self.admission.degrade_enabled,
        }

    def stats(self) -> dict:
        return {
            "health": self.health(),
            "pool": self.pool.stats(),
            "cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "entries": len(self.cache),
            },
            "metrics": self.registry.as_dict(),
        }

    def metrics(self, dump: bool = False) -> dict:
        """The ``metrics`` request body: exposition + derived summary.

        The JSON snapshot, Prometheus text and p50/p95/p99 + shed-rate
        summary come straight off the live registry, so they work even
        with observability disabled; the observability extras (sample
        series, flight-dump paths, session id) ride along when the seam
        is on.  ``dump=True`` additionally writes a flight-recorder
        artifact and reports its path.
        """
        payload = {
            "json": self.registry.as_dict(),
            "prometheus": render_prometheus(self.registry),
            "summary": latency_summary(self.registry),
        }
        payload.update(self.obs.metrics_payload(dump=dump))
        return payload


__all__ = [
    "DEFAULT_DEADLINE_S",
    "PreparedJob",
    "ServiceConfig",
    "ServiceCore",
]
