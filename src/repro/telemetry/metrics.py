"""Metrics registry: counters, gauges and fixed-bucket histograms.

Every tool in this repo produces quantitative claims (bytes/instr,
slowdown, queue stalls, commits vs aborts, ...) yet kept ad-hoc
counters before this module existed.  The registry gives them one
uniform, zero-dependency home:

* **Counter** — monotone count (records stored, propagations, aborts).
* **Gauge** — last-value or high-water measurement (buffer occupancy
  peak, tainted-location high-water mark).
* **Histogram** — fixed upper-bound buckets plus an overflow bucket
  (scheduler segment lengths, record sizes).

Cost discipline mirrors the VM's hookless "native run" path: a
disabled registry hands out shared no-op instruments, so instrumented
code can call ``counter.inc()`` unconditionally and a disabled run
pays one attribute load, no allocation, and never perturbs the
deterministic cycle model (telemetry never calls ``add_overhead``).

**Thread safety.**  The analysis service mutates one live registry from
its event loop and many pool threads at once, so every *mutator* is
atomic: each instrument owns a private lock taken around its
read-modify-write (``inc`` / ``set_max`` / ``observe``; plain ``set``
is a single store but takes it too for uniformity), and the registry
takes a registry-wide lock around instrument creation, so two threads racing
``registry.counter(name)`` always receive the same object.  *Reads* are
deliberately lock-free: ``value`` is one attribute load (atomic in
CPython), and snapshot methods (``as_dict`` / ``flat``) hold only the
registry lock for a stable key set — a snapshot taken mid-hammer may be
momentarily stale but never torn, which is all a metrics scrape needs.
Single-threaded hot loops keep their own local counters and bulk-``inc``
at publish time, so the per-instrument lock is uncontended where speed
matters.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass, field


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n


class Gauge:
    """A point-in-time measurement; ``set_max`` tracks high-water marks."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def set_max(self, value: float) -> None:
        with self._lock:
            if value > self.value:
                self.value = value


class Histogram:
    """Fixed-bucket histogram.

    ``buckets`` are ascending inclusive upper bounds; one implicit
    overflow bucket catches everything above the last bound, so
    ``counts`` has ``len(buckets) + 1`` entries.
    """

    __slots__ = ("name", "buckets", "counts", "total", "sum", "_lock")

    def __init__(self, name: str, buckets: tuple[float, ...]):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name!r} needs ascending bucket bounds")
        self.name = name
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(buckets) + 1)
        self.total = 0
        self.sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.counts[bisect.bisect_left(self.buckets, value)] += 1
            self.total += 1
            self.sum += value

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "buckets": list(self.buckets),
                "counts": list(self.counts),
                "count": self.total,
                "sum": self.sum,
            }


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


#: Shared no-op instruments handed out by disabled registries.
_NULL_COUNTER = _NullCounter("null")
_NULL_GAUGE = _NullGauge("null")
_NULL_HISTOGRAM = _NullHistogram("null", (1.0,))

#: Default bucket ladder (powers of four) for size/length distributions.
DEFAULT_BUCKETS: tuple[float, ...] = (1, 4, 16, 64, 256, 1024, 4096, 16384)

#: Bucket ladder for host-side latencies in seconds (sub-millisecond up
#: to a minute) — used by the analysis service's per-stage spans.
LATENCY_BUCKETS_S: tuple[float, ...] = (
    0.001, 0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 15.0, 60.0,
)


class MetricsRegistry:
    """Namespace of instruments, keyed by dotted metric name.

    Instruments are created on first use and returned on every later
    request, so ``registry.counter("vm.instructions")`` is both the
    declaration and the lookup.  A disabled registry returns shared
    no-op instruments and serializes to an empty dict.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL_COUNTER
        c = self.counters.get(name)
        if c is None:
            with self._lock:
                c = self.counters.setdefault(name, Counter(name))
        return c

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NULL_GAUGE
        g = self.gauges.get(name)
        if g is None:
            with self._lock:
                g = self.gauges.setdefault(name, Gauge(name))
        return g

    def histogram(self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        if not self.enabled:
            return _NULL_HISTOGRAM
        h = self.histograms.get(name)
        if h is None:
            with self._lock:
                h = self.histograms.setdefault(name, Histogram(name, buckets))
        return h

    def as_dict(self) -> dict:
        """JSON-serializable snapshot, sorted for deterministic output."""
        if not self.enabled:
            return {}
        with self._lock:
            counters = sorted(self.counters)
            gauges = sorted(self.gauges)
            histograms = sorted(self.histograms)
        return {
            "counters": {k: self.counters[k].value for k in counters},
            "gauges": {k: self.gauges[k].value for k in gauges},
            "histograms": {
                k: self.histograms[k].as_dict() for k in histograms
            },
        }

    def flat(self) -> dict[str, float]:
        """Counters and gauges as one flat name -> value mapping."""
        out: dict[str, float] = {}
        with self._lock:
            counters = sorted(self.counters)
            gauges = sorted(self.gauges)
        for k in counters:
            out[k] = self.counters[k].value
        for k in gauges:
            out[k] = self.gauges[k].value
        return out


#: The registry instrumented code falls back to when none is supplied.
NULL_REGISTRY = MetricsRegistry(enabled=False)
