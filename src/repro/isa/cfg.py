"""Control-flow graphs over mini-ISA functions.

Basic blocks are maximal single-entry/single-exit instruction ranges.
ONTRAC's first optimization ("eliminate storage of dependences within a
basic block that can be directly inferred by static examination of the
binary") is defined in terms of these blocks, and the dynamic
control-dependence detector needs the block-level post-dominator tree,
so the CFG is a load-bearing substrate, not just a pretty printer.

CALL/ICALL instructions do *not* end a block here: intraprocedural
analyses treat calls as opaque fall-through instructions (as the paper's
binary-level analyses do), while the interprocedural effects are handled
dynamically by the tracer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .instructions import Instruction, Opcode, Operand
from .program import Function, Program

#: Virtual exit block id used by post-dominator analysis.
EXIT_BLOCK = -1


@dataclass
class BasicBlock:
    """Instructions ``[start, end)`` (global indices) with CFG edges."""

    bid: int
    start: int
    end: int
    succs: list[int] = field(default_factory=list)
    preds: list[int] = field(default_factory=list)

    def __contains__(self, index: int) -> bool:
        return self.start <= index < self.end

    @property
    def size(self) -> int:
        return self.end - self.start


class CFG:
    """Intraprocedural control-flow graph of one function."""

    def __init__(self, program: Program, function: Function):
        self.program = program
        self.function = function
        self.blocks: list[BasicBlock] = []
        #: global instruction index -> block id.
        self.block_of: dict[int, int] = {}
        self._build()

    # -- construction -------------------------------------------------
    def _leaders(self) -> list[int]:
        fn = self.function
        code = self.program.code
        leaders = {fn.entry}
        for idx in range(fn.entry, fn.end):
            instr = code[idx]
            spec = instr.spec
            if instr.opcode in (Opcode.CALL, Opcode.ICALL):
                continue  # treated as fall-through intraprocedurally
            if spec.is_control:
                for kind, value in zip(spec.operands, instr.operands):
                    if kind is Operand.LABEL and value in fn:
                        leaders.add(value)
                if idx + 1 < fn.end:
                    leaders.add(idx + 1)
        return sorted(leaders)

    def _build(self) -> None:
        fn = self.function
        code = self.program.code
        leaders = self._leaders()
        bounds = leaders + [fn.end]
        for bid, (start, end) in enumerate(zip(bounds, bounds[1:])):
            block = BasicBlock(bid=bid, start=start, end=end)
            self.blocks.append(block)
            for idx in range(start, end):
                self.block_of[idx] = bid
        for block in self.blocks:
            last = code[block.end - 1]
            spec = last.spec
            targets: list[int] = []
            if last.opcode not in (Opcode.CALL, Opcode.ICALL):
                for kind, value in zip(spec.operands, last.operands):
                    if kind is Operand.LABEL and value in fn:
                        targets.append(self.block_of[value])
            falls = spec.falls_through or last.opcode in (Opcode.CALL, Opcode.ICALL)
            if falls and block.end < fn.end:
                targets.append(self.block_of[block.end])
            for t in targets:
                if t not in block.succs:
                    block.succs.append(t)
                    self.blocks[t].preds.append(block.bid)

    # -- queries ------------------------------------------------------
    @property
    def entry_block(self) -> BasicBlock:
        return self.blocks[0]

    def exit_blocks(self) -> list[int]:
        """Blocks ending in RET/HALT/FAIL (or with no successors)."""
        outs = []
        code = self.program.code
        for block in self.blocks:
            last = code[block.end - 1]
            if last.opcode in (Opcode.RET, Opcode.HALT, Opcode.FAIL) or not block.succs:
                outs.append(block.bid)
        return outs

    def instructions(self, bid: int) -> list[Instruction]:
        block = self.blocks[bid]
        return self.program.code[block.start : block.end]

    def branch_instruction(self, bid: int) -> Instruction | None:
        """The conditional branch terminating block ``bid``, if any."""
        last = self.program.code[self.blocks[bid].end - 1]
        return last if last.spec.is_branch else None


def build_cfgs(program: Program) -> dict[str, CFG]:
    """CFG for every function in ``program``."""
    return {fn.name: CFG(program, fn) for fn in program.functions_by_id}
