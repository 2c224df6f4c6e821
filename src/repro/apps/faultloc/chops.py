"""Failure-inducing chops (§3.1, citing [1] "Locating Faulty Code Using
Failure-Inducing Chops").

A chop narrows the fault-candidate set to statements on some dependence
path from a *failure-inducing input* to the observed failure: the
intersection of the input's forward slice with the failure's backward
slice.  [1]'s observation — "the root cause of the bug is often in the
forward slice of the inputs" — is also what justifies ONTRAC's targeted
forward-slice-of-input optimization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...isa.instructions import Opcode
from ...lang.codegen import CompiledProgram
from ...ontrac.packed import PackedDDG
from ...slicing.slicer import chop


@dataclass
class ChopReport:
    source_seq: int
    sink_seq: int
    seqs: set[int] = field(default_factory=set)
    pcs: set[int] = field(default_factory=set)
    lines: set[int] = field(default_factory=set)

    def contains_bug(self, bug_lines: set[int]) -> bool:
        return bool(self.lines & bug_lines)


def failure_inducing_chop(
    ddg: PackedDDG,
    compiled: CompiledProgram,
    input_seq: int,
    failure_seq: int,
) -> ChopReport:
    """Chop between a specific input instance and the failure point."""
    seqs = chop(ddg, input_seq, failure_seq)
    pcs = {ddg.pc_of(s) for s in seqs}
    return ChopReport(
        source_seq=input_seq,
        sink_seq=failure_seq,
        seqs=seqs,
        pcs=pcs,
        lines={compiled.line_of(pc) for pc in pcs if compiled.line_of(pc)},
    )


def input_instances(ddg: PackedDDG, program) -> list[int]:
    """All dynamic IN instances in the window (candidate chop sources)."""
    return sorted(
        seq
        for seq, pc in ddg.node_items()
        if program.code[pc].opcode is Opcode.IN
    )


def best_chop(
    ddg: PackedDDG,
    compiled: CompiledProgram,
    failure_seq: int,
) -> ChopReport | None:
    """Smallest non-empty chop over all input instances — the
    failure-inducing input is the one whose chop is tightest."""
    best: ChopReport | None = None
    for seq in input_instances(ddg, compiled.program):
        report = failure_inducing_chop(ddg, compiled, seq, failure_seq)
        if len(report.seqs) <= 1:  # no path from this input to the failure
            continue
        if best is None or len(report.seqs) < len(best.seqs):
            best = report
    return best
