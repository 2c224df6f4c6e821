"""Confidence-based slice pruning (§3.1, citing [17] "Pruning Dynamic
Slices With Confidence", PLDI'06).

The insight of [17]: in a failing run some outputs are typically still
*correct*, and a statement instance whose value flowed (only) into
correct outputs is very likely not the root cause — it has high
confidence.  Pruning removes high-confidence nodes from the slice,
shrinking the fault candidate set.

This implementation computes, for every node in a backward slice, which
output instances its value (transitively) reaches, and assigns:

* confidence 1.0 — reaches at least one correct output and no
  incorrect output (prunable);
* confidence 0.0 — reaches an incorrect output or no output at all
  (kept; "no output" means the value may have corrupted control flow).

That is the boolean skeleton of [17]'s lattice (their fractional
confidences come from value-profile alternatives, which
:mod:`repro.apps.faultloc.value_replace` models separately).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ontrac.packed import PackedDDG
from .engine import backward_closure
from .slicer import DEFAULT_KINDS, DynamicSlice


@dataclass
class PrunedSlice:
    original: DynamicSlice
    kept_seqs: set[int] = field(default_factory=set)
    pruned_seqs: set[int] = field(default_factory=set)
    #: seq -> 1.0 (prunable) or 0.0 (suspect)
    confidence: dict[int, float] = field(default_factory=dict)

    @property
    def reduction(self) -> float:
        """Fraction of the original slice removed by pruning."""
        total = len(self.kept_seqs) + len(self.pruned_seqs)
        return len(self.pruned_seqs) / total if total else 0.0


def prune_slice(
    ddg: PackedDDG,
    sl: DynamicSlice,
    correct_outputs: set[int],
    incorrect_outputs: set[int],
    kinds=DEFAULT_KINDS,
) -> PrunedSlice:
    """Prune ``sl`` given classified output instances (dynamic seqs).

    ``correct_outputs`` / ``incorrect_outputs`` are the seqs of output
    instructions whose emitted values matched / mismatched the expected
    output (callers get them from comparing ``machine.io.output()``
    against an oracle; see :func:`classify_outputs`).
    """
    # Propagate "reaches correct" / "reaches incorrect" backward from
    # the classified outputs.  The multi-source reachability set is the
    # union of the per-target backward closures (closures are
    # transitive), so the indexed engine — and its memo, across the two
    # passes and repeated prune calls — serves each target directly.
    reaches_correct: set[int] = set()
    reaches_incorrect: set[int] = set()
    for targets, marker in ((correct_outputs, reaches_correct),
                            (incorrect_outputs, reaches_incorrect)):
        for target in targets:
            if ddg.has_node(target):
                closure_seqs, _, _ = backward_closure(ddg, target, kinds)
                marker |= closure_seqs

    result = PrunedSlice(original=sl)
    for seq in sl.seqs:
        prunable = (
            seq in reaches_correct
            and seq not in reaches_incorrect
            and seq != sl.criterion
        )
        result.confidence[seq] = 1.0 if prunable else 0.0
        if prunable:
            result.pruned_seqs.add(seq)
        else:
            result.kept_seqs.add(seq)
    return result


def kept_pcs(ddg: PackedDDG, pruned: PrunedSlice) -> set[int]:
    """Static instructions surviving the prune."""
    return {ddg.pc_of(seq) for seq in pruned.kept_seqs}


def classify_outputs(
    ddg: PackedDDG,
    output_events: list[tuple[int, int]],
    expected: list[int],
) -> tuple[set[int], set[int]]:
    """Split output instances into correct/incorrect against an oracle.

    ``output_events`` is ``[(seq, value), ...]`` in emission order (what
    an output-recording hook captured); ``expected`` is the oracle
    value list.  Extra or missing outputs count as incorrect.
    """
    correct: set[int] = set()
    incorrect: set[int] = set()
    for i, (seq, value) in enumerate(output_events):
        if i < len(expected) and value == expected[i]:
            correct.add(seq)
        else:
            incorrect.add(seq)
    return correct, incorrect
