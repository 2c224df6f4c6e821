"""Multithreaded dynamic slicing (§3.1).

The paper extends dynamic slicing to multithreaded programs "in a way
that incorporates write-after-read and write-after-write dependences so
that data races can be detected using dynamic slicing" [8].  ONTRAC
records cross-thread WAR/WAW edges when ``record_war_waw`` is enabled;
this module provides the slice variants that follow them and small
queries over the cross-thread structure that the race detector
(:mod:`repro.races`) builds on.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ontrac.packed import PackedDDG
from ..ontrac.records import DepKind
from .slicer import MULTITHREADED_KINDS, DynamicSlice, backward_slice


def multithreaded_backward_slice(
    ddg: PackedDDG, criterion: int
) -> DynamicSlice:
    """Backward slice following data, control, WAR and WAW dependences."""
    return backward_slice(ddg, criterion, kinds=MULTITHREADED_KINDS)


@dataclass(frozen=True)
class CrossThreadDependence:
    """One dependence whose endpoints run on different threads."""

    kind: DepKind
    consumer_seq: int
    consumer_pc: int
    consumer_tid: int
    producer_seq: int
    producer_pc: int
    producer_tid: int


def cross_thread_dependences(ddg: PackedDDG) -> list[CrossThreadDependence]:
    """All dependences connecting two threads (RAW/WAR/WAW on shared
    memory), in consumer-seq order — the raw material for race
    detection."""
    # Tids and pcs come from the node table (the first row naming a
    # seq), not from the edge row itself.
    shared = (DepKind.MEM, DepKind.WAR, DepKind.WAW)
    found: list[CrossThreadDependence] = []
    for cseq, _cpc, _ctid, pseq, _ppc, kind in ddg.iter_edge_rows():
        if kind not in shared:
            continue
        ctid = ddg.tid_of(cseq)
        ptid = ddg.tid_of(pseq)
        if ptid != ctid:
            found.append(
                CrossThreadDependence(
                    kind=kind,
                    consumer_seq=cseq,
                    consumer_pc=ddg.pc_of(cseq),
                    consumer_tid=ctid,
                    producer_seq=pseq,
                    producer_pc=ddg.pc_of(pseq),
                    producer_tid=ptid,
                )
            )
    return found
