"""Helper-core DIFT (§2.1, citing [3] "Dynamic Information Flow
Tracking on Multicores").

The application core executes the program; a helper thread pinned to a
second core performs all taint bookkeeping.  The main core's only DIFT
cost is *enqueueing* a compact message per instruction (plus stalls
when the helper falls behind); the helper pays dequeue + propagation.

Functionally the helper runs the same per-record taint rules as the
inline engine, :meth:`repro.dift.kernel.PropagationKernel.step` on a
:class:`~repro.dift.kernel.ReferenceKernel`, one event at a time
(attacks are still detected — the detection just happens on the helper,
which is how the paper tolerates the extra PC-taint memory overhead
"gracefully").  The returned cycles are the helper's service time; the
timing model splits the costs across the two timelines and reports the
end-to-end overhead the paper measured at ~48% for SPEC integer
programs with hardware-interconnect communication.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dift.kernel import ReferenceKernel, SinkRule, publish_taint_metrics
from ..dift.policy import TaintPolicy
from ..vm.events import Hook, InstrEvent
from ..vm.machine import Machine
from .channel import ChannelModel, QueueSimulator, hardware_interconnect


@dataclass
class HelperReport:
    """Timing outcome of one helper-core DIFT run."""

    base_cycles: int  # uninstrumented guest cycles
    main_cycles: int  # main core: base + enqueue + stalls
    helper_busy_cycles: int  # helper core: dequeue + propagation work
    drain_cycles: int  # helper work outstanding after the guest halts
    messages: int
    stall_cycles: int

    @property
    def total_cycles(self) -> int:
        """Wall-clock: the guest finishes, then the helper drains."""
        return self.main_cycles + self.drain_cycles

    @property
    def overhead(self) -> float:
        """Fractional overhead vs the uninstrumented run (0.48 = 48%)."""
        if self.base_cycles == 0:
            return 0.0
        return self.total_cycles / self.base_cycles - 1.0


class HelperCoreDIFT(Hook):
    """Runs DIFT propagation on a simulated helper core.

    Attach to a machine like the inline engine; afterwards call
    :meth:`report` (using the machine's final cycle counters) for the
    dual-core timing breakdown.
    """

    def __init__(
        self,
        policy: TaintPolicy,
        channel: ChannelModel | None = None,
        sinks: list[SinkRule] | None = None,
        propagate_addresses: bool = False,
    ):
        self.channel = channel or hardware_interconnect()
        # Propagation cycles are the helper's service time; the main core
        # is billed only for the enqueue and for stalls.
        self.kernel = ReferenceKernel(
            policy, sinks=sinks, propagate_addresses=propagate_addresses
        )
        self.queue = QueueSimulator(self.channel)
        self.machine: Machine | None = None

    def attach(self, machine: Machine) -> "HelperCoreDIFT":
        self.machine = machine
        machine.hooks.subscribe(self)
        return self

    @property
    def alerts(self):
        return self.kernel.alerts

    @property
    def shadow(self):
        return self.kernel.shadow

    @property
    def stats(self):
        return self.kernel.stats

    def on_instruction(self, ev: InstrEvent) -> None:
        machine = self.machine
        assert machine is not None
        # Main core: enqueue the (pc, regs, flags) message.
        machine.add_overhead(self.channel.enqueue_cycles)
        # Helper core: dequeue + the policy's propagation work, which
        # the taint rules return as this instruction's service cycles.
        service = self.kernel.step(ev)
        stall = self.queue.enqueue(machine.cycles.total, service)
        if stall:
            machine.add_overhead(stall)

    def publish_telemetry(self, registry) -> None:
        """Dump dual-core channel/stall metrics (and the helper's
        propagation metrics) into a registry; call after the run."""
        kern = self.kernel
        publish_taint_metrics(registry, kern.stats, kern.alerts, kern.shadow)
        rep = self.report()
        registry.counter("multicore.messages").inc(rep.messages)
        registry.counter("multicore.stalls").inc(self.queue.stalls)
        registry.counter("multicore.stall_cycles").inc(rep.stall_cycles)
        registry.gauge("multicore.channel.capacity").set(self.channel.capacity)
        registry.gauge("multicore.queue.peak_depth").set_max(self.queue.peak_depth)
        registry.gauge("multicore.helper.busy_cycles").set(rep.helper_busy_cycles)
        registry.gauge("multicore.helper.drain_cycles").set(rep.drain_cycles)
        registry.gauge("multicore.overhead_fraction").set(rep.overhead)

    def report(self) -> HelperReport:
        machine = self.machine
        assert machine is not None
        main = machine.cycles.total
        return HelperReport(
            base_cycles=machine.cycles.base,
            main_cycles=main,
            helper_busy_cycles=self.queue.helper_free,
            drain_cycles=self.queue.drain(main),
            messages=self.queue.messages,
            stall_cycles=self.queue.stall_cycles,
        )
