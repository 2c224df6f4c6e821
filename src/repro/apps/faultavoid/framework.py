"""The fault-avoidance framework (§3.2, citing [7,8]).

Capture -> avoid -> prevent:

1. **Capture** — programs run under cheap checkpointing/logging; a
   failure yields the event log and a failure signature.
2. **Avoid** — the framework perturbs the *environment* and re-executes
   until the failure disappears.  Three strategies, one per fault class
   the paper studies:

   * ``RescheduleStrategy`` (atomicity violations) — alter scheduling
     decisions: retry with different quanta/seeds until an interleaving
     avoids the violation (a large quantum effectively serializes the
     racy region);
   * ``PadAllocationsStrategy`` (heap buffer overflow) — re-run with
     allocator padding so the overflow lands in slack space instead of
     a neighbouring block;
   * ``FilterInputStrategy`` (malformed user request) — identify the
     failure-inducing input positions via the dynamic slice of the
     failure and sanitize them.

3. **Prevent** — the successful perturbation is recorded as an
   :class:`~repro.apps.faultavoid.patches.EnvironmentPatch`; future runs
   consult the patch file and never exhibit the fault again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...isa.instructions import Opcode
from ...ontrac.tracer import OnlineTracer, OntracConfig
from ...runner import ProgramRunner
from ...slicing.slicer import backward_slice
from ...vm.machine import RunResult
from ...vm.scheduler import RandomScheduler, RoundRobinScheduler
from .patches import EnvironmentPatch, FaultSignature, PatchFile


@dataclass
class AvoidanceAttempt:
    strategy: str
    params: dict
    succeeded: bool
    result: RunResult | None = None


@dataclass
class AvoidanceOutcome:
    failure_kind: str
    failure_pc: int
    attempts: list[AvoidanceAttempt] = field(default_factory=list)
    patch: EnvironmentPatch | None = None

    @property
    def avoided(self) -> bool:
        return self.patch is not None


class RescheduleStrategy:
    """Change scheduling decisions to dodge interleaving-dependent bugs."""

    name = "reschedule"

    def __init__(self, quanta: tuple[int, ...] = (1000, 5000, 200), seeds: tuple[int, ...] = (11, 23)):
        self.quanta = quanta
        self.seeds = seeds

    def attempts(self, runner: ProgramRunner):
        for quantum in self.quanta:
            yield (
                {"quantum": quantum},
                lambda q=quantum: _with_scheduler(runner, lambda: RoundRobinScheduler(q)),
            )
        for seed in self.seeds:
            yield (
                {"seed": seed, "quantum": 500},
                lambda s=seed: _with_scheduler(
                    runner, lambda: RandomScheduler(seed=s, min_quantum=200, max_quantum=800)
                ),
            )

    def to_patch(self, signature: FaultSignature, params: dict) -> EnvironmentPatch:
        quantum = params.get("quantum", 1000)
        return EnvironmentPatch(
            signature=signature,
            strategy="reschedule",
            params={"quantum": quantum},
            description=f"serialize racy region with quantum {quantum}",
        )


class PadAllocationsStrategy:
    """Grow every allocation so small overflows land in slack space."""

    name = "pad-allocations"

    def __init__(self, paddings: tuple[int, ...] = (1, 2, 4, 8)):
        self.paddings = paddings

    def attempts(self, runner: ProgramRunner):
        for padding in self.paddings:
            yield ({"padding": padding}, lambda p=padding: _with_padding(runner, p))

    def to_patch(self, signature: FaultSignature, params: dict) -> EnvironmentPatch:
        return EnvironmentPatch(
            signature=signature,
            strategy="pad-allocations",
            params=params,
            description=f"pad heap allocations by {params['padding']} cells",
        )


class FilterInputStrategy:
    """Sanitize the failure-inducing input positions.

    The positions come from dynamic analysis, not guessing: trace the
    failing run, take the backward slice of the failure, and collect
    the input reads inside it.
    """

    name = "filter-input"

    def __init__(self, replacement: int = 1, channel: int = 0):
        self.replacement = replacement
        self.channel = channel

    def _culprit_positions(self, runner: ProgramRunner) -> list[int]:
        machine = runner.machine()
        tracer = OnlineTracer(runner.program, OntracConfig(buffer_bytes=1 << 22)).attach(machine)
        result = machine.run(max_instructions=runner.max_instructions)
        if result.failure is None:
            return []
        ddg = tracer.dependence_graph()
        # The failure's seq may not be a node (failing instruction was not
        # completed); slice from the latest node at or before it.
        criterion = max(
            (s for s, _ in ddg.node_items() if s <= result.failure.seq), default=None
        )
        if criterion is None:
            return []
        sl = backward_slice(ddg, criterion)
        positions = []
        code = runner.program.code
        for seq in sl.seqs:
            if code[ddg.pc_of(seq)].opcode is Opcode.IN:
                for s, chan, value, index in machine.io.read_log:
                    if s == seq and chan == self.channel and index >= 0:
                        positions.append(index)
        return sorted(set(positions))

    def attempts(self, runner: ProgramRunner):
        positions = self._culprit_positions(runner)
        if positions:
            # Try the most specific filter first (latest read is usually
            # the malformed field), then the whole slice's inputs.
            yield (
                {"positions": [positions[-1]], "replacement": self.replacement,
                 "channel": self.channel},
                lambda: _with_filtered_inputs(runner, [positions[-1]], self.replacement,
                                              self.channel),
            )
            yield (
                {"positions": positions, "replacement": self.replacement,
                 "channel": self.channel},
                lambda: _with_filtered_inputs(runner, positions, self.replacement, self.channel),
            )

    def to_patch(self, signature: FaultSignature, params: dict) -> EnvironmentPatch:
        return EnvironmentPatch(
            signature=signature,
            strategy="filter-input",
            params=params,
            description=f"sanitize input positions {params['positions']}",
        )


def _with_scheduler(runner: ProgramRunner, factory) -> RunResult:
    trial = ProgramRunner(
        runner.program,
        inputs={k: list(v) for k, v in runner.inputs.items()},
        args=runner.args,
        scheduler_factory=factory,
        max_instructions=runner.max_instructions,
    )
    _, result = trial.run()
    return result


def _with_padding(runner: ProgramRunner, padding: int) -> RunResult:
    machine = runner.machine()
    machine.memory.alloc_padding = padding
    return machine.run(max_instructions=runner.max_instructions)


def _with_filtered_inputs(
    runner: ProgramRunner, positions: list[int], replacement: int, channel: int
) -> RunResult:
    inputs = {k: list(v) for k, v in runner.inputs.items()}
    values = inputs.get(channel, [])
    inputs[channel] = [
        replacement if i in set(positions) else v for i, v in enumerate(values)
    ]
    trial = runner.with_inputs(inputs)
    _, result = trial.run()
    return result


class FaultAvoidanceFramework:
    """Tries strategies in a fault-class-appropriate order and records
    the first successful one as an environment patch."""

    def __init__(self, patch_file: PatchFile | None = None):
        self.patch_file = patch_file or PatchFile()

    def _strategy_order(self, failure_kind: str):
        if failure_kind in ("div_zero", "bad_icall", "fail"):
            return [FilterInputStrategy(), PadAllocationsStrategy(), RescheduleStrategy()]
        if failure_kind in ("bad_free",):
            return [PadAllocationsStrategy(), FilterInputStrategy(), RescheduleStrategy()]
        # asserts can come from any class: try cheap env changes in order
        return [RescheduleStrategy(), PadAllocationsStrategy(), FilterInputStrategy()]

    def avoid(self, runner: ProgramRunner) -> AvoidanceOutcome:
        """Given a failing run recipe, find and record an environment fix."""
        _, baseline = runner.run()
        if not baseline.failed:
            raise ValueError("the run does not fail; nothing to avoid")
        signature = FaultSignature(kind=baseline.failure.kind, pc=baseline.failure.pc)
        outcome = AvoidanceOutcome(
            failure_kind=baseline.failure.kind, failure_pc=baseline.failure.pc
        )
        for strategy in self._strategy_order(baseline.failure.kind):
            for params, attempt in strategy.attempts(runner):
                result = attempt()
                ok = not result.failed
                outcome.attempts.append(
                    AvoidanceAttempt(
                        strategy=strategy.name, params=params, succeeded=ok, result=result
                    )
                )
                if ok:
                    patch = strategy.to_patch(signature, params)
                    self.patch_file.record(patch)
                    outcome.patch = patch
                    return outcome
        return outcome
