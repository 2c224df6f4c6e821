"""Unified telemetry: metrics registry, cycle-stamped spans, run reports.

The paper's contribution is quantitative (16 B/instr -> 0.8 B/instr,
540x -> 19x, 48% multicore overhead, 976M -> 3175 dependences); this
package gives every one of those figures a live, scriptable runtime
counterpart:

* :class:`MetricsRegistry` — counters / gauges / fixed-bucket
  histograms, shared by every subsystem, no-op when disabled.
* :class:`SpanTracer` — intervals stamped with deterministic cycle
  time, exported as Chrome trace-event JSON (open in Perfetto).
* :class:`RunReport` — machine-readable JSON summary of one run
  (status, instructions, base/overhead cycles, all metrics).

The :class:`Telemetry` facade bundles one registry + one tracer and is
what gets threaded through :class:`~repro.vm.machine.Machine`,
:class:`~repro.runner.ProgramRunner` and the CLI's ``--report`` /
``--trace`` options.  ``NULL_TELEMETRY`` is the disabled singleton;
like the VM's hookless native-run path, it makes instrumentation free
when nobody is looking and never touches the modeled cycle counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .metrics import (
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS_S,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .obs import (
    FlightRecorder,
    MetricsWindow,
    WallSpanTracer,
    histogram_quantile,
    latency_summary,
    new_trace_id,
    render_prometheus,
    wall_now_us,
)
from .report import REPORT_SCHEMA, RunReport, validate_report
from .spans import NULL_TRACER, Span, SpanTracer, validate_chrome_trace


@dataclass
class Telemetry:
    """One registry + one tracer, threaded through a run."""

    registry: MetricsRegistry = field(default_factory=lambda: NULL_REGISTRY)
    tracer: SpanTracer = field(default_factory=lambda: NULL_TRACER)

    @property
    def enabled(self) -> bool:
        return self.registry.enabled or self.tracer.enabled

    @classmethod
    def on(cls) -> "Telemetry":
        """A fresh, enabled telemetry bundle."""
        return cls(registry=MetricsRegistry(enabled=True), tracer=SpanTracer(enabled=True))


#: Disabled singleton: shared no-op instruments, zero modeled cost.
NULL_TELEMETRY = Telemetry()

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS_S",
    "NULL_REGISTRY",
    "Span",
    "SpanTracer",
    "NULL_TRACER",
    "WallSpanTracer",
    "FlightRecorder",
    "MetricsWindow",
    "histogram_quantile",
    "latency_summary",
    "new_trace_id",
    "render_prometheus",
    "wall_now_us",
    "validate_chrome_trace",
    "RunReport",
    "REPORT_SCHEMA",
    "validate_report",
    "Telemetry",
    "NULL_TELEMETRY",
]
