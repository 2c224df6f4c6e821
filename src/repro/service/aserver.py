"""The analysis daemon: admission -> cache -> pool behind the shared front door.

:class:`AsyncAnalysisServer` is the DIFT-as-a-service daemon.  The
listener, the event-loop thread and its sync facade, the per-connection
frame loop and the ``stats`` / ``health`` / ``metrics`` / ``shutdown``
verbs are the shared :class:`~repro.service.server.FrameServer`'s; the
daemon adds the job pipeline.  Every job request runs admission, probes
the result cache, and on a miss hands off to the blocking
:class:`~repro.service.pool.WorkerPool` and *awaits* completion without
holding a thread.  The completion path is callback-shaped —
``Job.done_cb`` pokes an :class:`asyncio.Event` through
``loop.call_soon_threadsafe`` — so hundreds of concurrent waiters cost
hundreds of suspended coroutines, not hundreds of parked threads.  The
wait is bounded by the job deadline plus a grace period, so a client
is *never* left hanging even if the pool misbehaves.

**Streaming.**  A job request carrying ``"stream": true`` receives
incremental ``partial`` frames (``{"status": "partial", "seq": n,
"op": ...}``) as the worker produces result sections, followed by the
normal terminal frame.  The terminal frame is byte-identical to what a
blocking submit would have returned — it remains the canonical
cacheable result, so :class:`~repro.service.client.ServiceClient` and
the result cache work unchanged — and reassembling every op
(:func:`~repro.service.protocol.reassemble`) reproduces its ``result``
byte for byte.  Partial ``seq`` numbers restart at 1 on a crash-retry;
the shared exactly-once cursor drops the replayed prefix.  A streamed
exchange may legitimately carry *zero* partial frames (cache hit,
rejection) — consumers key off ``status`` alone.

Every stage stamps ``service.*`` telemetry into the daemon's live
:class:`~repro.telemetry.MetricsRegistry`; ``stats`` serializes the
same snapshot a ``--report`` run would.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from ..jobs import JobSpec
from ..telemetry import LATENCY_BUCKETS_S, MetricsRegistry
from ..telemetry.obs import new_trace_id, wall_now_us
from .admission import ACTION_ADMIT, AdmissionController
from .cache import ResultCache
from .jobs import cache_key, resolve_spec
from .pool import Job, WorkerPool
from .protocol import (
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_PARTIAL,
    STATUS_REJECTED,
)
from .server import DEFAULT_DEADLINE_S, FrameServer, ListenConfig

#: extra seconds the daemon waits past a job's deadline before
#: declaring the pool lost (belt and braces: the pool itself enforces
#: deadlines).
_GRACE_S = 10.0


@dataclass
class ServiceConfig(ListenConfig):
    """Daemon configuration (CLI flags map 1:1 onto these fields)."""

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
        """How long the daemon may wait before declaring the job lost."""
        return self.deadline_s + _GRACE_S


class AsyncAnalysisServer(FrameServer):
    """Event-loop analysis daemon; see the module docstring."""

    prefix = "aserver"
    summary_prefix = "service"

    def __init__(self, config: ServiceConfig, registry: MetricsRegistry | None = None):
        super().__init__(config, registry)
        self.admission = AdmissionController(
            config.queue_capacity, degrade=config.degrade
        )
        self.cache = ResultCache(config.cache_entries, registry=self.registry)
        self.pool = WorkerPool(
            workers=config.workers,
            registry=self.registry,
            max_retries=config.max_retries,
            respawn_limit=config.respawn_limit,
            obs=self.obs,
        )

    # -- lifecycle -----------------------------------------------------------
    async def _on_start(self) -> None:
        # After bind, so ``server.start`` records the resolved address.
        self.obs.event(
            "server.start", address=self.config.address(),
            workers=self.config.workers, capacity=self.config.queue_capacity,
        )
        self.pool.start()
        self.registry.gauge("service.workers").set(self.config.workers)
        self.registry.gauge("aserver.enabled").set(1)

    async def _on_stop(self) -> None:
        self.pool.stop()
        self.obs.event("server.stop")

    # -- job requests --------------------------------------------------------
    async def _dispatch(self, request: dict, writer: asyncio.StreamWriter) -> dict:
        w0 = wall_now_us()
        want_trace = bool(request.get("trace")) and self.obs.enabled
        trace_id = ""
        if want_trace:
            trace_id = str(request.get("trace_id") or "") or new_trace_id()
        stream = bool(request.get("stream"))
        response, worker_events = await self._admit_and_run(
            request, trace_id, stream, writer
        )
        if want_trace:
            self.obs.span_at(
                "server.handle", w0, wall_now_us() - w0,
                trace_id=trace_id, status=response.get("status"),
            )
            response["trace"] = {
                "trace_id": trace_id,
                "events": self.obs.trace_events(trace_id) + list(worker_events),
            }
        return response

    async def _admit_and_run(
        self, request: dict, trace_id: str, stream: bool,
        writer: asyncio.StreamWriter,
    ) -> tuple[dict, list]:
        loop = asyncio.get_running_loop()
        response, prepared = self.prepare(request, trace_id)
        if response is not None:
            return response, []

        done = asyncio.Event()
        queue: asyncio.Queue | None = asyncio.Queue() if stream else None

        # Both callbacks fire on pool slot threads; call_soon_threadsafe
        # serializes them into the loop in causal order, so by the time
        # the sentinel (or the bare done-set) runs, every partial that
        # preceded job completion is already queued.
        def done_cb() -> None:
            loop.call_soon_threadsafe(done.set)
            if queue is not None:
                loop.call_soon_threadsafe(queue.put_nowait, None)

        partial_cb = None
        if stream:
            def partial_cb(seq: int, op: dict) -> None:
                loop.call_soon_threadsafe(queue.put_nowait, (seq, op))

        job = self.make_job(prepared, done_cb, trace_id, partial_cb=partial_cb)
        self.pool.submit(job)

        if stream:
            relay = self.partial_relay(writer)
            lost = await self._relay_partials(queue, relay, prepared.grace_deadline_s)
            if lost:
                return self.lost_response(), []
        else:
            try:
                await asyncio.wait_for(done.wait(), timeout=prepared.grace_deadline_s)
            except asyncio.TimeoutError:
                return self.lost_response(), []
        return self.finish(prepared, job), job.worker_events

    @staticmethod
    async def _relay_partials(queue: asyncio.Queue, relay, budget_s: float) -> bool:
        """Forward partial frames until the done sentinel; True if lost."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + budget_s
        while True:
            remaining = deadline - loop.time()
            if remaining <= 0:
                return True
            try:
                item = await asyncio.wait_for(queue.get(), timeout=remaining)
            except asyncio.TimeoutError:
                return True
            if item is None:
                return False  # job finished; terminal frame follows
            seq, op = item
            await relay({"status": STATUS_PARTIAL, "seq": seq, "op": op})

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
        """A job the pool never finished (the never-hang guarantee fired
        past deadline + grace)."""
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
        stats = super().stats()
        stats["pool"] = self.pool.stats()
        return stats


__all__ = ["AsyncAnalysisServer", "PreparedJob", "ServiceConfig"]
