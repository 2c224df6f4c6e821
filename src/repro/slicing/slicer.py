"""Backward and forward dynamic slicing over the DDG.

A dynamic slice is the transitive closure of data (and optionally
control) dependences from a slicing criterion — a dynamic instruction
instance, usually the instruction that produced a wrong value or the
failure point.  Slices computed from a circular-buffer DDG are
truncated at the history window's edge; :attr:`DynamicSlice.truncated`
reports when that happened, because it means the root cause may predate
the window (the paper's motivation for maximizing window length).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ontrac.packed import PackedDDG
from ..ontrac.records import DepKind
from .engine import backward_closure, forward_closure

#: dependence kinds followed by ordinary (data+control) slicing.
#: IREG/IMEM are the zero-cost statically-recoverable edges the
#: optimized tracer materializes instead of storing bytes for.
DATA_KINDS = frozenset(
    {DepKind.REG, DepKind.MEM, DepKind.IREG, DepKind.IMEM, DepKind.SUMMARY}
)
DEFAULT_KINDS = DATA_KINDS | {DepKind.CONTROL}
#: extension for multithreaded slicing / race detection (§3.1).
MULTITHREADED_KINDS = DEFAULT_KINDS | {DepKind.WAR, DepKind.WAW}


@dataclass
class DynamicSlice:
    """Result of a slicing query."""

    criterion: int
    #: dynamic instances in the slice (includes the criterion).
    seqs: set[int] = field(default_factory=set)
    #: static instructions (pcs) covered by those instances.
    pcs: set[int] = field(default_factory=set)
    #: True when the closure touched the edge of a truncated DDG.
    truncated: bool = False

    def __contains__(self, seq: int) -> bool:
        return seq in self.seqs

    def __len__(self) -> int:
        return len(self.seqs)

    def statement_lines(self, compiled) -> set[int]:
        """Map slice pcs to MiniC source lines via a CompiledProgram."""
        return {compiled.line_of(pc) for pc in self.pcs if compiled.line_of(pc)}


def backward_slice(
    ddg: PackedDDG,
    criterion: int,
    kinds: frozenset[DepKind] = DEFAULT_KINDS,
) -> DynamicSlice:
    """Transitive closure of ``kinds`` dependences ending at ``criterion``."""
    seqs, pcs, truncated = backward_closure(ddg, criterion, kinds)
    return DynamicSlice(
        criterion=criterion, seqs=set(seqs), pcs=set(pcs), truncated=truncated
    )


def forward_slice(
    ddg: PackedDDG,
    criterion: int,
    kinds: frozenset[DepKind] = DEFAULT_KINDS,
) -> DynamicSlice:
    """Everything (transitively) affected by ``criterion``."""
    seqs, pcs, _ = forward_closure(ddg, criterion, kinds)
    return DynamicSlice(criterion=criterion, seqs=set(seqs), pcs=set(pcs))


def last_instance_of_line(ddg: PackedDDG, pcs) -> int | None:
    """The last dynamic instance of a source line: the newest node at
    any of the line's static ``pcs`` (None if none ran in the window).

    A ``while`` line's condition runs after its body's last statement
    on the same line, so the newest instance need not sit at the
    highest pc.
    """
    found = [seq for pc in pcs if (seq := ddg.last_instance_of_pc(pc)) is not None]
    return max(found, default=None)


def slice_at_last_output(ddg: PackedDDG, out_pc: int, **kw) -> DynamicSlice:
    """Backward slice at the last dynamic instance of static pc ``out_pc``."""
    seq = ddg.last_instance_of_pc(out_pc)
    if seq is None:
        raise KeyError(f"pc {out_pc} never executed within the window")
    return backward_slice(ddg, seq, **kw)


def chop(
    ddg: PackedDDG,
    source: int,
    sink: int,
    kinds: frozenset[DepKind] = DEFAULT_KINDS,
) -> set[int]:
    """Failure-inducing chop ([1]): nodes on some dependence path from
    ``source`` to ``sink`` — the intersection of the source's forward
    slice with the sink's backward slice."""
    fwd = forward_slice(ddg, source, kinds=kinds)
    bwd = backward_slice(ddg, sink, kinds=kinds)
    return fwd.seqs & bwd.seqs
