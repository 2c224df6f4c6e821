"""Per-daemon observability: trace spans, flight ring, metrics sampler.

One :class:`ServiceObservability` is owned by one front door (a daemon
or a router, :class:`~repro.service.server.FrameServer`) and, in a
daemon, shared (by reference) with its
:class:`~repro.service.pool.WorkerPool`.  It bundles the three
tentpole pieces behind a single seam:

* a :class:`~repro.telemetry.obs.WallSpanTracer` holding the service
  tier's wall-clock spans, tagged with per-job trace ids so one job's
  client → server → admission → pool → worker story filters out of the
  shared ring;
* a :class:`~repro.telemetry.obs.FlightRecorder` ring of structured
  events, dumped to ``flight-<session>-<n>.json`` artifacts on worker
  crash, crash-loop slot death, deadline cancellation, or on demand;
* a :class:`~repro.telemetry.obs.MetricsWindow` the background sampler
  thread fills with registry snapshots every ``sample_interval_s``.

Cost discipline matches the telemetry package: the disabled counterpart
is :data:`NULL_OBSERVABILITY`, whose hooks are argument-swallowing
no-ops, so instrumented service code calls ``obs.event(...)`` /
``obs.span_at(...)`` unconditionally and a daemon started with
``observe=False`` (``repro serve --no-observe``) pays one attribute
load per hook on the job path — and nothing at all on the per-record /
per-instruction paths, which this module never touches.
"""

from __future__ import annotations

import os
import threading

from ..telemetry import MetricsRegistry
from ..util.artifacts import run_artifact_dir
from ..telemetry.obs import (
    FlightRecorder,
    MetricsWindow,
    WallSpanTracer,
    chrome_trace,
    latency_summary,
    new_trace_id,
    render_prometheus,
)


class ServiceObservability:
    """Live observability state for one daemon; see the module docstring."""

    enabled = True

    def __init__(
        self,
        registry: MetricsRegistry,
        dump_dir: str | None = None,
        sample_interval_s: float = 1.0,
        ring_events: int = 512,
        max_spans: int = 4096,
        window_samples: int = 600,
    ):
        self.registry = registry
        self.session = new_trace_id()
        # Crash artifacts land in a dedicated subdirectory (created on
        # first dump) instead of littering the working directory.
        self.dump_dir = run_artifact_dir("flights", dump_dir)
        self.sample_interval_s = sample_interval_s
        self.flight = FlightRecorder(ring_events)
        self.tracer = WallSpanTracer(enabled=True, max_events=max_spans)
        self.window = MetricsWindow(window_samples)
        self.dumps: list[str] = []
        self._dump_lock = threading.Lock()
        self._stop = threading.Event()
        self._sampler: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "ServiceObservability":
        """Start the background metrics sampler (idempotent)."""
        if self._sampler is None or not self._sampler.is_alive():
            self._stop.clear()
            self._sampler = threading.Thread(
                target=self._sample_loop, name="service-obs-sampler", daemon=True
            )
            self._sampler.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._sampler is not None:
            self._sampler.join(timeout=2.0)
            self._sampler = None

    def _sample_loop(self) -> None:
        # Sample immediately so even a short-lived daemon has one point.
        self.window.sample(self.registry)
        while not self._stop.wait(timeout=self.sample_interval_s):
            self.window.sample(self.registry)

    # -- hooks (the pool and server call these unconditionally) --------------
    def event(self, kind: str, **fields) -> None:
        """Record one structured flight-recorder event."""
        self.flight.record(kind, **fields)

    def span_at(self, name: str, ts_us: int, dur_us: int, tid: int = 0, **args) -> None:
        self.tracer.span_at(name, ts_us, dur_us, tid=tid, **args)

    def instant_at(self, name: str, ts_us: int, tid: int = 0, **args) -> None:
        self.tracer.instant_at(name, ts_us, tid=tid, **args)

    def trace_events(self, trace_id: str) -> list[dict]:
        """This process's span events for one job's trace id."""
        return self.tracer.chrome_events(trace_id)

    def crash_dump(self, reason: str, **extra) -> str | None:
        """Dump the flight ring to a JSON artifact; returns its path."""
        with self._dump_lock:
            name = f"flight-{self.session}-{len(self.dumps) + 1:03d}.json"
            path = os.path.join(self.dump_dir, name)
            try:
                os.makedirs(self.dump_dir, exist_ok=True)
                self.flight.dump(path, reason, session=self.session, **extra)
            except OSError:
                return None
            self.dumps.append(path)
        self.flight.record("flight.dump", reason=reason, path=path)
        return path

    # -- exposition ----------------------------------------------------------
    def metrics_payload(self, dump: bool = False) -> dict:
        """The observability extras a ``metrics`` response carries."""
        payload = {
            "session": self.session,
            "series": self.window.series(),
            "flight_events": self.flight.recorded,
            "dumps": list(self.dumps),
        }
        if dump:
            payload["dump_path"] = self.crash_dump("on-demand")
        return payload

    def session_trace(self) -> dict:
        """Every span the daemon holds, as one Chrome trace object."""
        return chrome_trace(self.tracer.chrome_events())


class _NullObservability:
    """Disabled seam: every hook is a no-op, every read is empty."""

    enabled = False
    session = ""
    dumps: list[str] = []

    def start(self) -> "_NullObservability":
        return self

    def stop(self) -> None:
        pass

    def event(self, kind: str, **fields) -> None:
        pass

    def span_at(self, name: str, ts_us: int, dur_us: int, tid: int = 0, **args) -> None:
        pass

    def instant_at(self, name: str, ts_us: int, tid: int = 0, **args) -> None:
        pass

    def trace_events(self, trace_id: str) -> list[dict]:
        return []

    def crash_dump(self, reason: str, **extra) -> None:
        return None

    def metrics_payload(self, dump: bool = False) -> dict:
        return {}

    def session_trace(self) -> dict:
        return chrome_trace([])


#: Shared disabled instance (stateless, so sharing is safe).
NULL_OBSERVABILITY = _NullObservability()

__all__ = [
    "NULL_OBSERVABILITY",
    "ServiceObservability",
    "latency_summary",
    "render_prometheus",
]
