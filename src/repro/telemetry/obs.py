"""Observability primitives: wall-clock spans, Prometheus text, rings.

The engine's :class:`~repro.telemetry.spans.SpanTracer` stamps spans in
deterministic *modeled cycles* — perfect inside one run, useless across
the analysis service's processes, whose hops (client socket write,
server handler, admission, pool dispatch, worker execute) happen on
different wall clocks.  This module adds the service tier's currency:

* :func:`wall_now_us` — one shared clock, epoch microseconds, readable
  from any process on the host so spans from client, server and worker
  land on a single comparable timeline.
* :class:`WallSpanTracer` — a :class:`SpanTracer` whose clock is wall
  time, whose event buffers are *bounded* (a daemon runs forever; a
  trace ring must not grow forever) and which can emit spans
  *retroactively* (:meth:`~WallSpanTracer.span_at`) — the service
  learns a stage's duration after the fact, across threads, so open
  span bookkeeping would be a liability.
* :func:`render_prometheus` / :func:`histogram_quantile` /
  :func:`latency_summary` — text exposition and derived p50/p95/p99 +
  shed rate over a live :class:`~repro.telemetry.metrics.MetricsRegistry`.
* :class:`FlightRecorder` — a fixed-size ring of structured events
  (admission verdicts, dispatch/steal decisions, worker lifecycle),
  dumped to a JSON artifact when something dies.  The DIFT-coprocessor
  line of work consumes a compact out-of-band event stream for exactly
  this reason: when the main path crashes, the last N events are the
  story.
* :class:`MetricsWindow` — a bounded in-memory time series of registry
  snapshots, the ``repro stats`` sparkline source.

Everything here is host-side observability: it never touches modeled
cycles, and the no-op seam lives one level up
(:mod:`repro.service.observe`), so a disabled daemon pays one
attribute load per hook.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from collections import deque

from .metrics import MetricsRegistry
from .spans import Span, SpanTracer

#: flight-recorder dump schema; bump the suffix on breaking changes.
FLIGHT_SCHEMA = "repro.flight_recorder/v1"


def wall_now_us() -> int:
    """Epoch microseconds: one clock every process on the host shares."""
    return time.time_ns() // 1000


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (uuid4-derived, collision-safe here)."""
    return uuid.uuid4().hex[:16]


def span_event(
    name: str,
    ts_us: int,
    dur_us: int,
    pid: int = 0,
    tid: int = 0,
    cat: str = "service",
    **args,
) -> dict:
    """One complete ("X") Chrome trace event as a plain JSON-safe dict.

    This is the *wire* form worker processes ship back to the server and
    the client merges into the final trace file — no Span objects cross
    a process boundary.
    """
    return {
        "ph": "X",
        "name": name,
        "cat": cat,
        "pid": int(pid),
        "tid": int(tid),
        "ts": int(ts_us),
        "dur": int(max(0, dur_us)),
        "args": args,
    }


def chrome_trace(events: list[dict], clock: str = "wall-epoch-us") -> dict:
    """Wrap event dicts into the file Perfetto/chrome://tracing load."""
    return {
        "traceEvents": list(events),
        "displayTimeUnit": "ms",
        "otherData": {"clock": clock},
    }


class WallSpanTracer(SpanTracer):
    """A bounded, wall-clocked :class:`SpanTracer` for long-lived daemons.

    Differences from the engine tracer it subclasses:

    * the clock is :func:`wall_now_us`, not modeled cycles;
    * ``events`` / ``instants`` are rings (``deque(maxlen=...)``) so a
      daemon tracing for days keeps the last ``max_events``, not all;
    * :meth:`span_at` records an interval retroactively from explicit
      timestamps — the natural shape for a server that measures a stage
      with two clock reads on different threads;
    * :meth:`chrome_events` exports plain event dicts stamped with this
      process's real pid, optionally filtered to one trace id.
    """

    def __init__(self, enabled: bool = True, max_events: int = 4096):
        super().__init__(enabled=enabled, cycle_clock=wall_now_us)
        self.max_events = max_events
        self.events = deque(maxlen=max_events)
        self.instants = deque(maxlen=max_events)
        self._lock = threading.Lock()

    def span_at(
        self, name: str, ts_us: int, dur_us: int, cat: str = "service",
        tid: int = 0, **args,
    ) -> None:
        """Record an already-finished interval (thread-safe)."""
        if not self.enabled:
            return
        span = Span.__new__(Span)
        span.name = name
        span.cat = cat
        span.tid = tid
        span.ts = int(ts_us)
        span.dur = int(max(0, dur_us))
        span.wall_ns = span.dur * 1000
        span.args = args
        span._tracer = self
        span._wall0 = 0
        with self._lock:
            self.events.append(span)

    def instant_at(
        self, name: str, ts_us: int, cat: str = "service", tid: int = 0, **args
    ) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.instants.append((name, cat, tid, int(ts_us), args))

    def chrome_events(self, trace_id: str | None = None) -> list[dict]:
        """Event dicts (this pid), optionally only one trace's spans."""
        pid = os.getpid()
        with self._lock:
            spans = list(self.events)
            instants = list(self.instants)
        out: list[dict] = []
        for s in spans:
            if trace_id is not None and s.args.get("trace_id") != trace_id:
                continue
            out.append(span_event(s.name, s.ts, s.dur, pid=pid, tid=s.tid,
                                  cat=s.cat, **s.args))
        for name, cat, tid, ts, args in instants:
            if trace_id is not None and args.get("trace_id") != trace_id:
                continue
            out.append({"ph": "i", "name": name, "cat": cat, "pid": pid,
                        "tid": tid, "ts": ts, "s": "t", "args": args})
        return out


# ---------------------------------------------------------------------------
# Prometheus-style exposition and derived latency/shed summaries
# ---------------------------------------------------------------------------
def _prom_name(name: str) -> str:
    """``service.jobs.received`` -> ``service_jobs_received``."""
    return "".join(c if (c.isalnum() or c == "_") else "_" for c in name)


def _prom_value(value: float) -> str:
    if isinstance(value, float) and value != int(value):
        return repr(value)
    return str(int(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry as Prometheus text exposition (version 0.0.4 shape).

    Counters get the conventional ``_total`` suffix; histograms expose
    cumulative ``_bucket{le=...}`` series plus ``_sum`` / ``_count``.
    """
    snapshot = registry.as_dict()
    lines: list[str] = []
    for name, value in (snapshot.get("counters") or {}).items():
        pname = _prom_name(name) + "_total"
        lines.append(f"# TYPE {pname} counter")
        lines.append(f"{pname} {_prom_value(value)}")
    for name, value in (snapshot.get("gauges") or {}).items():
        pname = _prom_name(name)
        lines.append(f"# TYPE {pname} gauge")
        lines.append(f"{pname} {_prom_value(value)}")
    for name, hist in (snapshot.get("histograms") or {}).items():
        pname = _prom_name(name)
        lines.append(f"# TYPE {pname} histogram")
        cumulative = 0
        for bound, count in zip(hist["buckets"], hist["counts"]):
            cumulative += count
            lines.append(f'{pname}_bucket{{le="{bound}"}} {cumulative}')
        lines.append(f'{pname}_bucket{{le="+Inf"}} {hist["count"]}')
        lines.append(f"{pname}_sum {repr(float(hist['sum']))}")
        lines.append(f"{pname}_count {hist['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def histogram_quantile(hist: dict, q: float) -> float | None:
    """Estimate quantile ``q`` from a histogram's ``as_dict`` form.

    Standard bucket-walk estimate with linear interpolation inside the
    winning bucket; observations in the overflow bucket answer with the
    last finite bound (a floor, like PromQL's ``histogram_quantile``).
    Returns None for an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    total = hist.get("count", 0)
    if not total:
        return None
    rank = q * total
    bounds = hist["buckets"]
    counts = hist["counts"]
    cumulative = 0
    for i, bound in enumerate(bounds):
        prev = cumulative
        cumulative += counts[i]
        if cumulative >= rank:
            lo = bounds[i - 1] if i > 0 else 0.0
            inside = counts[i]
            frac = (rank - prev) / inside if inside else 1.0
            return lo + (bound - lo) * min(1.0, max(0.0, frac))
    return float(bounds[-1])


def latency_summary(registry: MetricsRegistry, prefix: str = "service") -> dict:
    """p50/p95/p99 latency (ms) + shed/reject rates from live metrics.

    Derived entirely from the ``<prefix>.*`` instruments a tier stamps
    (``service.*`` for a daemon, ``router.*`` for the router), so it
    works on any registry snapshot — live over the wire, or post-mortem
    from a ``stats`` dump.
    """
    flat = registry.flat()
    received = flat.get(f"{prefix}.jobs.received", 0)
    degraded = flat.get(f"{prefix}.jobs.degraded", 0)
    rejected = flat.get(f"{prefix}.jobs.rejected", 0)
    hist = registry.histograms.get(f"{prefix}.latency.total_s")
    quantiles: dict[str, float | None] = {"p50_ms": None, "p95_ms": None, "p99_ms": None}
    if hist is not None:
        data = hist.as_dict()
        for key, q in (("p50_ms", 0.5), ("p95_ms", 0.95), ("p99_ms", 0.99)):
            value = histogram_quantile(data, q)
            quantiles[key] = None if value is None else round(value * 1e3, 3)
    return {
        "jobs_received": int(received),
        "jobs_completed": int(flat.get(f"{prefix}.jobs.completed", 0)),
        "shed_rate": round(degraded / received, 4) if received else 0.0,
        "reject_rate": round(rejected / received, 4) if received else 0.0,
        **quantiles,
    }


# ---------------------------------------------------------------------------
# Flight recorder and metrics window
# ---------------------------------------------------------------------------
class FlightRecorder:
    """Fixed-size ring of structured events; dumps JSON post-mortems.

    Recording is a lock + dict append — cheap enough to run always-on
    at the service's job granularity (admission verdicts, dispatches,
    worker lifecycle), never per instruction.
    """

    def __init__(self, capacity: int = 512):
        if capacity < 1:
            raise ValueError("flight recorder needs capacity >= 1")
        self.capacity = capacity
        self._events: deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self.recorded = 0

    def record(self, kind: str, **fields) -> None:
        with self._lock:
            self._seq += 1
            self.recorded += 1
            self._events.append({"seq": self._seq, "t_us": wall_now_us(),
                                 "kind": kind, **fields})

    def snapshot(self) -> list[dict]:
        with self._lock:
            return list(self._events)

    def dump(self, path, reason: str, **extra) -> dict:
        """Write the ring to ``path`` as one JSON artifact; returns it."""
        payload = {
            "schema": FLIGHT_SCHEMA,
            "reason": reason,
            "t_us": wall_now_us(),
            "capacity": self.capacity,
            "recorded": self.recorded,
            **extra,
            "events": self.snapshot(),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=False)
            fh.write("\n")
        return payload


class MetricsWindow:
    """Bounded time series of flat registry snapshots (scrape history)."""

    def __init__(self, capacity: int = 600):
        if capacity < 1:
            raise ValueError("metrics window needs capacity >= 1")
        self.capacity = capacity
        self._samples: deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def sample(self, registry: MetricsRegistry) -> dict:
        entry = {"t_us": wall_now_us(), "values": registry.flat()}
        with self._lock:
            self._samples.append(entry)
        return entry

    def series(self) -> list[dict]:
        with self._lock:
            return list(self._samples)

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)


__all__ = [
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "MetricsWindow",
    "WallSpanTracer",
    "chrome_trace",
    "histogram_quantile",
    "latency_summary",
    "new_trace_id",
    "render_prometheus",
    "span_event",
    "wall_now_us",
]
