"""The inline DIFT engine: a thin driver over a propagation kernel.

:class:`DIFTEngine` subscribes to the VM hook bus, resolves a
:class:`~repro.dift.kernel.PropagationKernel` for its
:class:`~repro.dift.policy.TaintPolicy` and wires one of two paths:

* per event — each ``InstrEvent`` runs the kernel's taint rules
  (:meth:`~repro.dift.kernel.PropagationKernel.step`) and the returned
  cycles are charged at once.  This serves the reference kernel
  without summaries (lineage's set labels always land here) and every
  telemetry-enabled machine, whose span stamps read the cycle clock
  mid-run;
* batched — the one :class:`~repro.dift.kernel.RecordEncoder` packs
  events into micro-batches of packed records that the kernel (array, or
  any kernel under function summaries) propagates at flush points.
  Every read of :attr:`~DIFTEngine.shadow`, :attr:`~DIFTEngine.stats`
  or :attr:`~DIFTEngine.alerts` drains the pending records first.

The kernel documents the taint rules themselves: sources, register and
memory flows, sinks, and the ``propagate_addresses`` variant the E11
bench ablates.

Cost model: each instrumented instruction charges the kernel's
``check_cycles`` (the inline test-and-skip stub) plus
``policy.propagate_cycles`` when any input is tainted.  The multicore
simulator (§2.1) runs the same taint rules on a helper core instead and
charges those cycles there.
"""

from __future__ import annotations

from ..vm.errors import AttackDetected
from ..vm.events import Hook
from ..vm.machine import Machine
from .kernel import (
    DEFAULT_KERNEL_BATCH,
    RECORD_SIZE,
    DIFTStats,
    RecordEncoder,
    SinkRule,
    TaintAlert,
    build_kernel,
    publish_taint_metrics,
    select_kernel,
)
from .policy import TaintPolicy
from .shadow import ShadowState
from .summaries import SummaryKernel, summarizable


class DIFTEngine(Hook):
    """Inline DIFT: propagation runs on the application core.

    Attach with :meth:`attach`; the engine charges its overhead to the
    machine's cycle counters unless ``charge_overhead=False``.

    ``kernel="reference"`` runs the taint rules per event;
    ``kernel="array"`` (what ``kernel=None`` resolves to for the two
    scalar-label policies, see :func:`~repro.dift.kernel.select_kernel`)
    packs instruction events into micro-batches of ``kernel_batch``
    records and propagates them through the specialized batch loop,
    with observables proven bit-identical by the differential suite.  ``summaries=True`` wraps
    either kernel in the function-summary layer for the scalar-label
    policies.
    """

    def __init__(
        self,
        policy: TaintPolicy,
        source_channels: frozenset[int] | None = None,
        sinks: list[SinkRule] | None = None,
        propagate_addresses: bool = False,
        charge_overhead: bool = True,
        kernel: str | None = None,
        kernel_batch: int = DEFAULT_KERNEL_BATCH,
        summaries: bool = False,
        summary_cache=None,
    ):
        self.policy = policy
        #: resolved propagation kernel ("array"|"reference") and why an
        #: array request fell back ("policy"), if it did.
        self.kernel_name, self.kernel_fallback = select_kernel(kernel, policy)
        if kernel_batch < 1:
            raise ValueError("kernel batch size must be >= 1")
        self.kernel_batch = kernel_batch
        self._summaries = summaries and summarizable(policy)
        self._summary_cache = summary_cache
        self.charge_overhead = charge_overhead
        self.machine: Machine | None = None
        self._kernel = build_kernel(
            self.kernel_name,
            policy,
            source_channels=source_channels,
            sinks=sinks,
            propagate_addresses=propagate_addresses,
        )
        self.sinks = self._kernel.sinks
        #: the record encoder, once attach() engaged batching.
        self._encoder: RecordEncoder | None = None

    def attach(self, machine: Machine) -> "DIFTEngine":
        self.machine = machine
        # Telemetry-enabled machines stamp cycle totals into trace spans
        # mid-run; batching defers overhead charging to flush points and
        # would shift those stamps, so they keep the per-event path
        # (observables are identical either way — only span timestamps
        # would move).
        if (
            self.kernel_name == "array" or self._summaries
        ) and not machine.telemetry.enabled:
            self._enable_batching(machine)
        else:
            step = self._kernel.step
            if self.charge_overhead:
                cycles = machine.cycles

                def on_instruction(ev) -> None:
                    cycles.overhead += step(ev)

                self.on_instruction = on_instruction
            else:
                self.on_instruction = step
        machine.hooks.subscribe(self)
        return self

    def _enable_batching(self, machine: Machine) -> None:
        kern = self._kernel
        if self._summaries:
            # Summaries ride the record stream, so they engage batching
            # for the reference kernel too (wrapped, not replaced).
            kern = self._kernel = SummaryKernel(kern, cache=self._summary_cache)
        # The stream is contiguous from here on, so the kernel's own
        # running seq numbers every record.
        kern.seq = machine.seq
        register = kern.register_template
        self._encoder = RecordEncoder(
            lambda ev: register(ev.pc, ev.instr, ev.reg_reads, ev.reg_writes, ev.channel),
            kern.wide,
            self._flush,
            self.kernel_batch * RECORD_SIZE,
            markers=self._summaries,
        )
        self.on_instruction = self._encoder.on_instruction

    # -- batched views -------------------------------------------------------
    # The encoder defers propagation, so every external read of
    # shadow/stats/alerts drains pending records first.  Per-event
    # engines have no encoder and skip straight through.
    def _drain(self) -> None:
        encoder = self._encoder
        if encoder is None:
            return
        encoder.cut()
        if encoder.batch:
            self._flush()
        if self._summaries:
            # Resolve a region still buffered for matching so the
            # observables below are exact.  Settling mid-run only costs
            # elision (pass-through resumes afterwards), never
            # correctness — and any later raise still escapes at its
            # own record's flush.
            n0 = len(self._kernel.alerts)
            extra = self._kernel.settle()
            encoder.patch(self._kernel.alerts, n0)
            self._charge(extra)

    def _flush(self) -> None:
        batch = self._encoder.batch
        data = bytes(batch)
        del batch[:]
        kern = self._kernel
        n0 = len(kern.alerts)
        try:
            effects = kern.propagate_batch(data)
        except AttackDetected:
            self._encoder.patch(kern.alerts, n0)
            if kern.raised_effects is not None:
                self._charge(kern.raised_effects.overhead)
            raise
        self._encoder.patch(kern.alerts, n0)
        self._charge(effects.overhead)

    def _charge(self, cycles: int) -> None:
        if cycles and self.charge_overhead:
            self.machine.add_overhead(cycles)

    @property
    def shadow(self) -> ShadowState:
        self._drain()
        return self._kernel.shadow

    @property
    def stats(self) -> DIFTStats:
        self._drain()
        return self._kernel.stats

    @property
    def alerts(self) -> list[TaintAlert]:
        self._drain()
        return self._kernel.alerts

    def on_run_end(self) -> None:
        self._drain()

    # -- reporting -----------------------------------------------------------
    def policy_signature(self) -> str:
        """Stable description of the active taint policy + sink rules
        (what the trace-lake manifest records so a stored run's alerts
        can be interpreted without the engine)."""
        sinks = ",".join(
            f"{rule.kind}"
            f"[{'*' if rule.channels is None else '|'.join(map(str, sorted(rule.channels)))}]"
            f":{rule.action}"
            for rule in self.sinks
        )
        policy = type(self.policy).__name__
        return f"{policy}/b{self.policy.label_bytes}/{self.kernel_name}({sinks})"

    def lake_manifest(self) -> dict:
        """JSON-safe manifest fragment for the trace lake: policy
        signature, alert list, and the headline DIFT stats."""
        stats = self.stats
        return {
            "policy": self.policy_signature(),
            "alerts": [
                {
                    "seq": a.seq, "tid": a.tid, "pc": a.pc, "sink": a.sink,
                    "label": str(a.label), "description": a.description,
                    "value": getattr(a, "value", 0),
                    "channel": getattr(a, "channel", -1),
                }
                for a in self.alerts
            ],
            "dift": {
                "instructions": stats.instructions,
                "tainted_instructions": stats.tainted_instructions,
                "sources": stats.sources,
                "sink_checks": stats.sink_checks,
                "taint_rate": stats.taint_rate,
            },
        }

    def publish_telemetry(self, registry) -> None:
        """Dump propagation/alert metrics into a
        :class:`~repro.telemetry.MetricsRegistry`; call after the run."""
        publish_taint_metrics(registry, self.stats, self.alerts, self.shadow)
        if self._encoder is not None:
            # Emitted only when the micro-batcher actually engaged, so
            # per-event runs (telemetry machines included) keep their
            # exact historical metric key set.
            kern = self._kernel
            registry.counter("dift.kernel.batches").inc(kern.batches)
            registry.counter("dift.kernel.records").inc(kern.records_consumed)
            registry.counter("dift.kernel.replayed").inc(kern.records_replayed)
            counters = getattr(kern, "counters", None)
            if counters is not None:  # SummaryKernel per-run counters
                for key, value in counters().items():
                    registry.counter(f"dift.summaries.{key}").inc(value)

    def memory_overhead(self, machine: Machine, guest_word_bytes: int = 4) -> float:
        """Shadow bytes / guest data bytes (the paper's "memory overhead")."""
        guest = max(1, machine.memory.footprint * guest_word_bytes)
        return self.shadow.shadow_bytes / guest


__all__ = ["DIFTEngine", "DIFTStats", "SinkRule", "TaintAlert"]
