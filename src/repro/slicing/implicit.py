"""Implicit dependences via predicate switching (§3.1, citing [16]
"Towards Locating Execution Omission Errors", PLDI'07).

An execution-omission error fails because some statements did *not*
execute; dynamic slices cannot contain them.  The fully dynamic fix:
force the omitted code to run by switching the outcome of a single
dynamic predicate instance and re-executing.  If the value at the
slicing criterion changes, an **implicit dependence** from the
criterion to that predicate is verified, and the predicate (plus its
own backward slice) joins the fault-candidate set.

Verification is demand-driven: candidates are tried most-recent-first,
filtered to predicates that statically control a store (the potential-
dependence heuristic from :mod:`repro.slicing.relevant`), so few
re-executions are needed before the root cause is exposed — the paper's
"small number of verifications".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.instructions import Instruction, Opcode
from ..ontrac.packed import PackedDDG
from ..runner import ProgramRunner
from ..vm.events import Hook, InstrEvent
from ..vm.machine import Intervention
from .relevant import branches_with_potential_stores
from .slicer import DEFAULT_KINDS, backward_slice


class PredicateSwitcher(Intervention):
    """Flip the outcome of exactly one dynamic branch instance."""

    def __init__(self, pc: int, occurrence: int):
        self.pc = pc
        self.occurrence = occurrence
        self.fired = False

    def branch_outcome(self, instr: Instruction, occurrence: int, default: bool) -> bool:
        if instr.index == self.pc and occurrence == self.occurrence:
            self.fired = True
            return not default
        return default


class CriterionRecorder(Hook):
    """Records the last value produced at a static pc (register write,
    memory write, or output operand)."""

    def __init__(self, pc: int):
        self.pc = pc
        self.value: int | None = None
        self.seq: int | None = None

    def on_instruction(self, ev: InstrEvent) -> None:
        if ev.pc != self.pc:
            return
        if ev.reg_writes:
            self.value = ev.reg_writes[0][1]
        elif ev.mem_writes:
            self.value = ev.mem_writes[0][1]
        elif ev.io_value is not None:
            self.value = ev.io_value
        elif ev.reg_reads:
            self.value = ev.reg_reads[0][1]
        self.seq = ev.seq


@dataclass
class ImplicitDependence:
    branch_seq: int
    branch_pc: int
    occurrence: int
    switched_value: int | None


@dataclass
class ImplicitSearchResult:
    criterion_pc: int
    baseline_value: int | None
    verified: list[ImplicitDependence] = field(default_factory=list)
    verifications: int = 0
    #: fault-candidate seqs: original slice + verified predicates' closures.
    candidate_seqs: set[int] = field(default_factory=set)
    candidate_pcs: set[int] = field(default_factory=set)


def _occurrence_of(ddg: PackedDDG, seq: int) -> int:
    """0-based dynamic occurrence index of ``seq`` among instances of
    its pc (within the DDG window — exact when the window covers the
    whole run, which re-execution searches arrange)."""
    pc = ddg.pc_of(seq)
    return ddg.instances_of_pc(pc).index(seq)


def find_implicit_dependences(
    runner: ProgramRunner,
    ddg: PackedDDG,
    criterion_pc: int,
    max_verifications: int = 50,
    restrict_to_potential: bool = True,
) -> ImplicitSearchResult:
    """Search for implicit dependences of the last instance of
    ``criterion_pc`` by single-predicate switching.

    ``ddg`` must come from tracing the failing run that ``runner``
    reproduces.  Each verification is one full re-execution with one
    predicate instance flipped.
    """
    criterion_seq = ddg.last_instance_of_pc(criterion_pc)
    if criterion_seq is None:
        raise KeyError(f"criterion pc {criterion_pc} never executed")

    # Baseline value at the criterion.
    baseline = CriterionRecorder(criterion_pc)
    runner.run(hooks=(baseline,))
    result = ImplicitSearchResult(criterion_pc=criterion_pc, baseline_value=baseline.value)

    base_slice = backward_slice(ddg, criterion_seq)
    result.candidate_seqs |= base_slice.seqs
    result.candidate_pcs |= base_slice.pcs

    # Candidate predicates: executed branch instances before the
    # criterion, most recent first, not already explaining the criterion
    # (i.e. outside its dynamic slice), optionally restricted to
    # branches that statically control a store.
    potential = (
        branches_with_potential_stores(runner.program) if restrict_to_potential else None
    )
    branch_ops = (Opcode.BR, Opcode.BRZ)
    candidates = [
        seq
        for seq, pc in sorted(ddg.node_items(), reverse=True)
        if seq < criterion_seq
        and runner.program.code[pc].opcode in branch_ops
        and (potential is None or pc in potential)
    ]

    for seq in candidates:
        if result.verifications >= max_verifications:
            break
        pc = ddg.pc_of(seq)
        occurrence = _occurrence_of(ddg, seq)
        switcher = PredicateSwitcher(pc, occurrence)
        recorder = CriterionRecorder(criterion_pc)
        runner.run(hooks=(recorder,), intervention=switcher)
        result.verifications += 1
        if not switcher.fired:
            continue
        if recorder.value != result.baseline_value:
            # Implicit dependence verified: the predicate's outcome
            # influences the criterion even though no dynamic dependence
            # chain connected them.
            result.verified.append(
                ImplicitDependence(
                    branch_seq=seq,
                    branch_pc=pc,
                    occurrence=occurrence,
                    switched_value=recorder.value,
                )
            )
            closure = backward_slice(ddg, seq, kinds=DEFAULT_KINDS)
            result.candidate_seqs |= closure.seqs | {seq}
            result.candidate_pcs |= closure.pcs | {pc}
    return result
