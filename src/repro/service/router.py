"""Consistent-hash router: one front door over N analysis daemons.

The scale-out tier.  A :class:`RouterServer` listens on the same frame
protocol as the daemons behind it, shards job requests across backends
by :func:`~repro.service.jobs.program_key` on a consistent-hash ring
(:class:`HashRing`, virtual nodes), and relays frames — including
streamed ``partial`` frames — between client and backend.  Clients use
the unmodified :class:`~repro.service.client.ServiceClient`; the router
is protocol-transparent.

**Placement.**  Hashing the *program* (not the request) means repeat
analyses of one program land on one backend, so that backend's result
cache and warm worker state keep their hit rates under fan-out.  The
ring uses virtual nodes so a join/leave moves only ~K/N keys, and the
orphaned keys alone: placement of every key owned by a surviving
backend is untouched (``tests/test_router.py`` proves both properties
over 100 seeds).

**Health.**  A background probe loop polls every backend's ``health``
verb.  Consecutive failures mark a backend *down* (flight-recorder
event, excluded from the ring walk); a later success marks it back
*up*.  Operators can *drain* a backend (``{"kind": "drain", ...}``):
in-flight jobs complete, new placements skip it, and ``undrain``
restores it — a planned mark-down.

**Crash rerouting.**  A backend dying mid-job (connection drop, torn
frame) triggers a bounded retry on the next ring node, excluding the
corpse.  A backend that dies *without* closing its sockets (SIGKILL
leaving orphaned workers holding the listener FD, a hung accept loop)
is caught the same way: every in-flight exchange races the backend's
mark-down event, so the probe loop's verdict aborts stuck relays in
probe time instead of job-deadline time.  Jobs are pure functions of their spec, so re-execution is
safe; for *streamed* jobs the replacement backend replays its partial
ops from ``seq`` 1 and the router forwards only ``seq > last-relayed``
— deterministic re-execution makes the replayed prefix identical, so
the client still observes an exactly-once, gap-free op stream.

**Back-pressure.**  The router republishes backend admission signals
instead of hiding them: a ``rejected`` response puts its backend in a
short cooldown during which the router sheds that backend's keys
locally (no connection churn against a saturated daemon), and a health
report showing a full queue does the same.  Degraded responses are
counted as pressure signals too.  All of it lands in ``router.*``
metrics so :func:`~repro.telemetry.obs.latency_summary` renders the
router's own p50/p95/p99 + shed/reject rates.

The listener, the event-loop thread and its sync facade (``repro
route``, tests), the per-connection frame loop, the control verbs and
the exactly-once relay cursor are the shared
:class:`~repro.service.server.FrameServer`'s, as for the daemon.  The
router adds ``drain`` / ``undrain``, the startup probes and health
loop, relay and reroute, and a drain before every stop: new jobs are
rejected while in-flight relays finish (bounded), whether the stop
came from :meth:`RouterServer.stop` or a ``shutdown`` request.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import time
from bisect import bisect_right
from dataclasses import dataclass, field

from ..jobs import JobSpec
from ..telemetry import LATENCY_BUCKETS_S, MetricsRegistry
from .cache import ResultCache
from .client import _parse_address
from .jobs import CHAOS_KIND, cache_key, program_key, resolve_spec
from .protocol import (
    ProtocolError,
    RESULT_STATUSES,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_PARTIAL,
    STATUS_REJECTED,
    FrameAssembler,
    encode,
)
from .server import DEFAULT_DEADLINE_S, FrameServer, ListenConfig, read_frame

#: extra seconds past a job deadline before the router declares a
#: backend unresponsive (the backend's own grace is 10s; stay outside).
_GRACE_S = 15.0


# ---------------------------------------------------------------------------
# Consistent hashing
# ---------------------------------------------------------------------------
class HashRing:
    """Consistent-hash ring with virtual nodes.

    Each node is hashed ``vnodes`` times onto a 64-bit ring; a key maps
    to the first vnode clockwise from its hash.  ``exclude`` lets the
    router walk past down/draining nodes without mutating the ring, so
    a transient outage reroutes keys while every healthy node's
    placement stays byte-stable.
    """

    def __init__(self, nodes=(), vnodes: int = 64):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._nodes: set[str] = set()
        self._ring: list[tuple[int, str]] = []
        self._hashes: list[int] = []
        for node in nodes:
            self._nodes.add(str(node))
        self._rebuild()

    @staticmethod
    def _hash(data: str) -> int:
        return int.from_bytes(
            hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest(), "big"
        )

    def _rebuild(self) -> None:
        ring = [
            (self._hash(f"{node}#{i}"), node)
            for node in self._nodes
            for i in range(self.vnodes)
        ]
        ring.sort()
        self._ring = ring
        self._hashes = [h for h, _ in ring]

    def add(self, node: str) -> None:
        if node not in self._nodes:
            self._nodes.add(node)
            self._rebuild()

    def remove(self, node: str) -> None:
        if node in self._nodes:
            self._nodes.discard(node)
            self._rebuild()

    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, key: str, exclude=frozenset()) -> str | None:
        """The node owning ``key``, skipping ``exclude``; None if none left."""
        ring = self._ring
        if not ring:
            return None
        start = bisect_right(self._hashes, self._hash(key)) % len(ring)
        seen: set[str] = set()
        for step in range(len(ring)):
            node = ring[(start + step) % len(ring)][1]
            if node in seen:
                continue
            if node not in exclude:
                return node
            seen.add(node)
        return None


def routing_key(spec: JobSpec) -> str:
    """What the ring hashes: the program's identity.

    Chaos jobs have no program; their params (mode, flag path) make a
    stable stand-in so tests can steer placement deterministically.
    """
    if spec.kind == CHAOS_KIND:
        params = json.dumps(spec.params, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(params.encode("utf-8")).hexdigest()[:16]
        return f"chaos:{digest}"
    return program_key(spec)


# ---------------------------------------------------------------------------
# Router configuration and backend bookkeeping
# ---------------------------------------------------------------------------
@dataclass
class RouterConfig(ListenConfig):
    """Router tier configuration (CLI flags map 1:1 onto these fields)."""

    #: backend daemon addresses (unix:///path, tcp://host:port, host:port).
    backends: list[str] = field(default_factory=list)
    #: virtual nodes per backend on the hash ring.
    vnodes: int = 64
    health_interval_s: float = 0.5
    health_timeout_s: float = 2.0
    #: consecutive probe failures before a backend is marked down.
    down_after: int = 2
    #: reroute attempts after a backend dies mid-job.
    retries: int = 1
    cache_entries: int = 256
    default_deadline_s: float = DEFAULT_DEADLINE_S


class BackendState:
    """Live router-side view of one backend daemon."""

    def __init__(self, address: str):
        self.address = address
        self.healthy = False
        #: set on mark-down, re-armed on mark-up; in-flight exchanges
        #: race against it so a backend that turns into a black hole
        #: (SIGKILLed daemon whose orphaned workers keep the listener
        #: FD alive, hung accept loop) aborts relays in probe-time, not
        #: job-deadline time.
        self.down = asyncio.Event()
        self.draining = False
        self.consecutive_failures = 0
        self.in_flight = 0
        #: loop-clock instant until which the router sheds this
        #: backend's keys locally (set by rejected responses / full
        #: queues in health reports).
        self.saturated_until = 0.0
        self.last_health: dict | None = None
        self.last_error = ""
        self.jobs_relayed = 0

    def routable(self) -> bool:
        return self.healthy and not self.draining

    def snapshot(self) -> dict:
        return {
            "healthy": self.healthy,
            "draining": self.draining,
            "in_flight": self.in_flight,
            "jobs_relayed": self.jobs_relayed,
            "consecutive_failures": self.consecutive_failures,
            "last_error": self.last_error,
            "queue_depth": (self.last_health or {}).get("queue_depth"),
            "queue_capacity": (self.last_health or {}).get("queue_capacity"),
        }


class RouterServer(FrameServer):
    """The consistent-hash router tier; see the module docstring."""

    prefix = "router"
    summary_prefix = "router"

    def __init__(self, config: RouterConfig, registry: MetricsRegistry | None = None):
        super().__init__(config, registry)
        if not config.backends:
            raise ValueError("router needs at least one backend address")
        self.cache = ResultCache(config.cache_entries)
        self.ring = HashRing(config.backends, vnodes=config.vnodes)
        self.backends: dict[str, BackendState] = {
            address: BackendState(address) for address in config.backends
        }
        self._draining = False
        self._health_task: asyncio.Task | None = None

    # -- lifecycle -----------------------------------------------------------
    async def _on_start(self) -> None:
        config = self.config
        self.obs.event(
            "router.start", address=config.address(),
            backends=list(config.backends), vnodes=config.vnodes,
        )
        self.registry.gauge("router.backends.total").set(len(self.backends))
        await asyncio.gather(*(self._probe(b) for b in self.backends.values()))
        self._health_task = asyncio.ensure_future(self._health_loop())

    async def _drain(self, timeout_s: float) -> None:
        """Reject new jobs while in-flight relays finish (bounded)."""
        self._draining = True
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        while any(b.in_flight for b in self.backends.values()) and loop.time() < deadline:
            await asyncio.sleep(0.05)

    async def _on_stop(self) -> None:
        self._health_task.cancel()
        await asyncio.gather(self._health_task, return_exceptions=True)
        self.obs.event("router.stop")

    # -- health probing ------------------------------------------------------
    async def _health_loop(self) -> None:
        interval = self.config.health_interval_s
        while True:
            await asyncio.sleep(interval)
            await asyncio.gather(*(self._probe(b) for b in self.backends.values()))

    async def _probe(self, backend: BackendState) -> None:
        try:
            response = await asyncio.wait_for(
                self._exchange(backend.address, {"kind": "health"}),
                timeout=self.config.health_timeout_s,
            )
            body = response.get("health") if isinstance(response, dict) else None
            if isinstance(body, dict):
                ok = bool(body.get("ok"))
                if not ok:
                    backend.last_error = "backend reports unhealthy"
            else:
                # Not a health report (``[1]``, ``{"health": 5}``): a failed
                # probe, where a crash would end the health loop for good.
                ok = False
                body = None
                backend.last_error = "malformed health response"
        except (OSError, ProtocolError, ConnectionError, asyncio.TimeoutError) as exc:
            ok = False
            body = None
            backend.last_error = str(exc) or type(exc).__name__
        if ok:
            backend.consecutive_failures = 0
            backend.last_health = body
            if not backend.healthy:
                backend.healthy = True
                backend.down = asyncio.Event()
                self.registry.counter("router.backend.markups").inc()
                self.obs.event("router.backend.up", backend=backend.address)
            # A full queue in the health report is the same signal as a
            # rejected response: shed this backend's keys for one
            # probe interval instead of hammering a saturated daemon.
            depth = body.get("queue_depth")
            capacity = body.get("queue_capacity")
            if depth is not None and capacity is not None and depth >= capacity:
                loop = asyncio.get_running_loop()
                backend.saturated_until = max(
                    backend.saturated_until, loop.time() + self.config.health_interval_s
                )
                self.registry.counter("router.backpressure.signals").inc()
        else:
            backend.consecutive_failures += 1
            if backend.healthy and backend.consecutive_failures >= self.config.down_after:
                self._mark_down(backend, backend.last_error)
        self.registry.gauge("router.backends.healthy").set(
            sum(1 for b in self.backends.values() if b.healthy)
        )

    def _mark_down(self, backend: BackendState, reason: str) -> None:
        if backend.healthy:
            backend.healthy = False
            backend.down.set()
            backend.consecutive_failures = max(
                backend.consecutive_failures, self.config.down_after
            )
            self.registry.counter("router.backend.markdowns").inc()
            self.obs.event(
                "router.backend.down", backend=backend.address, reason=str(reason)
            )
            self.registry.gauge("router.backends.healthy").set(
                sum(1 for b in self.backends.values() if b.healthy)
            )

    # -- backend I/O ---------------------------------------------------------
    async def _open_backend(self, address: str):
        family, target = _parse_address(address)
        if family == "unix":
            return await asyncio.open_unix_connection(target)
        return await asyncio.open_connection(target[0], target[1])

    async def _exchange(self, address: str, request: dict, relay=None) -> dict:
        """Forward one request to a backend and return its terminal frame,
        passing any ``partial`` frames before it to ``relay``."""
        reader, writer = await self._open_backend(address)
        try:
            writer.write(encode(request))
            await writer.drain()
            assembler = FrameAssembler()
            while True:
                frame = await read_frame(reader, assembler)
                if frame is None:
                    raise ProtocolError(f"backend {address} closed mid-exchange")
                if relay is not None and isinstance(frame, dict) \
                        and frame.get("status") == STATUS_PARTIAL:
                    await relay(frame)
                    continue
                return frame
        finally:
            writer.close()
            with contextlib.suppress(OSError, ConnectionError):
                await writer.wait_closed()

    # -- client requests -----------------------------------------------------
    def _set_drain(self, request: dict, draining: bool) -> dict:
        address = request.get("backend")
        backend = self.backends.get(address) if isinstance(address, str) else None
        if backend is None:
            return {
                "status": STATUS_ERROR,
                "error": f"unknown backend {address!r} "
                         f"(have: {', '.join(sorted(self.backends))})",
            }
        backend.draining = draining
        self.obs.event(
            "router.backend.drain" if draining else "router.backend.undrain",
            backend=address, in_flight=backend.in_flight,
        )
        return {
            "status": STATUS_OK,
            "drain": {
                "backend": address,
                "draining": draining,
                "in_flight": backend.in_flight,
            },
        }

    # -- job relay -----------------------------------------------------------
    async def _dispatch(self, request: dict, writer: asyncio.StreamWriter) -> dict:
        kind = request.get("kind")
        if kind in ("drain", "undrain"):
            return self._set_drain(request, draining=(kind == "drain"))
        registry = self.registry
        registry.counter("router.jobs.received").inc()
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        if self._draining:
            registry.counter("router.jobs.rejected").inc()
            return {
                "status": STATUS_REJECTED,
                "reason": "router draining",
                "retry_after_s": 1.0,
            }
        # Chaos policing is the backend's job (its allow_chaos flag);
        # the router resolves the spec only for routing + cache keys.
        spec = resolve_spec(request, allow_chaos=True)
        want_trace = bool(request.get("trace"))
        key = cache_key(spec)
        if spec.cache and not want_trace:
            cached = self.cache.get(key)
            if cached is not None:
                registry.counter("router.cache.hits").inc()
                registry.counter("router.jobs.completed").inc()
                self._observe_latency(loop.time() - t0)
                return {"status": STATUS_OK, "result": cached, "cached": True}

        response = await self._relay_with_reroute(spec, request, writer)
        status = response.get("status")
        if status == STATUS_REJECTED:
            registry.counter("router.jobs.rejected").inc()
        elif status in RESULT_STATUSES:
            registry.counter("router.jobs.completed").inc()
            if status != STATUS_OK:
                registry.counter("router.jobs.degraded").inc()
                registry.counter("router.backpressure.signals").inc()
            elif spec.cache and not want_trace and response.get("result") is not None:
                self.cache.put(key, response["result"])
        self._observe_latency(loop.time() - t0)
        return response

    def _observe_latency(self, elapsed_s: float) -> None:
        self.registry.histogram(
            "router.latency.total_s", LATENCY_BUCKETS_S
        ).observe(elapsed_s)

    async def _relay_with_reroute(
        self, spec: JobSpec, request: dict, writer: asyncio.StreamWriter
    ) -> dict:
        registry = self.registry
        loop = asyncio.get_running_loop()
        key = routing_key(spec)
        budget_s = (spec.deadline_s or self.config.default_deadline_s) + _GRACE_S
        deadline = loop.time() + budget_s
        excluded: set[str] = set()
        attempts_left = self.config.retries
        # One relay cursor across attempts: a replacement backend replays
        # partials from seq 1, and only seq > last-forwarded reaches the
        # client.
        relay = self.partial_relay(writer)

        while True:
            unroutable = {
                a for a, b in self.backends.items() if not b.routable()
            }
            address = self.ring.node(key, exclude=excluded | unroutable)
            if address is None:
                registry.counter("router.jobs.unroutable").inc()
                return {
                    "status": STATUS_ERROR,
                    "error": "no healthy backend available",
                }
            backend = self.backends[address]
            now = loop.time()
            if backend.saturated_until > now:
                return {
                    "status": STATUS_REJECTED,
                    "reason": f"backpressure: backend {address} at capacity",
                    "retry_after_s": round(backend.saturated_until - now, 3),
                }
            backend.in_flight += 1
            # Race the exchange against this backend's mark-down: a
            # daemon that dies without closing its sockets (SIGKILL
            # with orphaned workers holding the listener FD, a hung
            # accept loop) would otherwise stall the relay for the full
            # job budget.  The probe loop notices in bounded time; the
            # moment it marks the backend down we abandon the exchange
            # and reroute like any other mid-job transport failure.
            exchange = asyncio.ensure_future(self._exchange(address, request, relay))
            marked_down = asyncio.ensure_future(backend.down.wait())
            try:
                await asyncio.wait(
                    {exchange, marked_down},
                    timeout=max(0.05, deadline - now),
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if exchange.done():
                    response = exchange.result()
                else:
                    exchange.cancel()
                    with contextlib.suppress(
                        asyncio.CancelledError, OSError, ProtocolError,
                        ConnectionError,
                    ):
                        await exchange
                    if not marked_down.done():
                        return {
                            "status": STATUS_ERROR,
                            "error": f"backend {address} unresponsive past deadline",
                        }
                    raise ConnectionError(
                        f"backend {address} marked down mid-job"
                    )
            except (OSError, ProtocolError, ConnectionError) as exc:
                self._mark_down(backend, f"failed mid-job: {exc}")
                excluded.add(address)
                if attempts_left <= 0:
                    registry.counter("router.jobs.failed").inc()
                    return {
                        "status": STATUS_ERROR,
                        "error": f"backend {address} failed mid-job: {exc}",
                    }
                attempts_left -= 1
                registry.counter("router.jobs.rerouted").inc()
                self.obs.event(
                    "router.reroute", job_kind=spec.kind, from_backend=address,
                    error=str(exc) or type(exc).__name__,
                )
                continue
            finally:
                marked_down.cancel()
                backend.in_flight -= 1
            backend.jobs_relayed += 1
            if response.get("status") == STATUS_REJECTED:
                # Republish the admission verdict as local back-pressure:
                # shed this backend's keys until its advertised retry-after.
                cooldown = float(response.get("retry_after_s") or 0.5)
                backend.saturated_until = max(
                    backend.saturated_until, loop.time() + cooldown
                )
                registry.counter("router.backpressure.signals").inc()
            return response

    # -- introspection -------------------------------------------------------
    def health(self) -> dict:
        routable = sum(1 for b in self.backends.values() if b.routable())
        return {
            "ok": routable > 0 and not self._draining,
            "role": "router",
            "address": self.config.address(),
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "draining": self._draining,
            "backends_total": len(self.backends),
            "backends_healthy": sum(1 for b in self.backends.values() if b.healthy),
            "backends_routable": routable,
            "backends": {a: b.snapshot() for a, b in self.backends.items()},
        }


__all__ = [
    "BackendState",
    "HashRing",
    "RouterConfig",
    "RouterServer",
    "routing_key",
]
