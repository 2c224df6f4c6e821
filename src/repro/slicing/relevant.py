"""Relevant slicing via potential dependences.

Execution-omission errors leave no dynamic trace, so prior work extended
dynamic slices with *potential dependences*: a predicate is potentially
relevant to a later load if taking its other outcome could have executed
a store the load would have seen.  Because the check is static and
conservative, relevant slices are "overly large" (§3.1) — which is
exactly what the fully-dynamic predicate-switching approach in
:mod:`repro.slicing.implicit` improves on.  E7 compares the two sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.cfg import EXIT_BLOCK, build_cfgs
from ..isa.dominance import Dominance
from ..isa.instructions import Opcode
from ..isa.program import Program
from ..ontrac.packed import PackedDDG
from .slicer import DEFAULT_KINDS, DynamicSlice, backward_slice


def branches_with_potential_stores(program: Program) -> set[int]:
    """Static pcs of conditional branches whose controlled region (from
    the branch to its immediate post-dominator) contains a memory write.

    Such a branch could, under its other outcome, have (not) executed a
    store — a potential dependence source for any later load.
    """
    result: set[int] = set()
    for cfg in build_cfgs(program).values():
        dom = Dominance(cfg)
        for block in cfg.blocks:
            br = cfg.branch_instruction(block.bid)
            if br is None:
                continue
            stop = dom.immediate_postdominator(block.bid)
            # Collect blocks control-dependent on this branch by walking
            # each successor's post-dominator chain up to the ipdom.
            region: set[int] = set()
            for succ in block.succs:
                node = succ
                while node != stop and node != EXIT_BLOCK:
                    region.add(node)
                    node = dom.immediate_postdominator(node)
            for bid in region:
                for instr in cfg.instructions(bid):
                    # Calls are conservatively assumed to store (the
                    # callee may write memory the analysis cannot see).
                    if instr.opcode in (
                        Opcode.STORE,
                        Opcode.PUSH,
                        Opcode.CALL,
                        Opcode.ICALL,
                    ):
                        result.add(br.index)
                        break
                if br.index in result:
                    break
    return result


@dataclass
class RelevantSlice:
    base: DynamicSlice
    #: branch instances added through potential dependences.
    potential_branches: set[int] = field(default_factory=set)
    seqs: set[int] = field(default_factory=set)
    pcs: set[int] = field(default_factory=set)

    def __len__(self) -> int:
        return len(self.seqs)


def relevant_slice(
    ddg: PackedDDG,
    program: Program,
    criterion: int,
    kinds=DEFAULT_KINDS,
) -> RelevantSlice:
    """Backward slice plus the conservative potential-dependence closure.

    Every executed instance (before the criterion) of a branch that
    statically controls a store is added, together with its own backward
    slice — the conservative over-approximation the paper criticizes.
    """
    base = backward_slice(ddg, criterion, kinds=kinds)
    potential_pcs = branches_with_potential_stores(program)
    result = RelevantSlice(base=base, seqs=set(base.seqs), pcs=set(base.pcs))
    # seqs_of_pcs preserves node-insertion order on both DDG flavors, so
    # potential_branches accumulate exactly as the nodes-dict loop did.
    for seq in ddg.seqs_of_pcs(potential_pcs):
        if seq > criterion:
            continue
        if seq in result.seqs:
            continue
        result.potential_branches.add(seq)
        sub = backward_slice(ddg, seq, kinds=kinds)
        result.seqs |= sub.seqs
        result.pcs |= sub.pcs
    result.seqs.add(criterion)
    return result
