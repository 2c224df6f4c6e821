"""Data-race detection via multithreaded dynamic slicing (§3.1, [8,10]).

The paper extends the DIFT/slicing infrastructure: ONTRAC records
cross-thread RAW/WAR/WAW dependences, and a dependence whose two
endpoints are not ordered by synchronization is a race candidate.  The
detector therefore needs the dependence graph *and* the synchronization
history:

* **lock discipline** — both accesses made while holding a common lock
  are synchronized;
* **happens-before edges** — spawn (parent's prefix precedes the whole
  child), thread exit + join (the whole child precedes the joiner's
  suffix), and barrier generations (everything before a barrier trip
  precedes everything after it) order accesses;
* **dynamically recognized user synchronization** (the [10]
  contribution, in :mod:`repro.races.sync_aware`) — flag-style spin
  loops create ordering too, and the races *on the flag cells
  themselves* are benign synchronization races that other tools report
  and this filter removes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ontrac.packed import PackedDDG
from ..reduction.logging import EventLog, SyncEvent
from ..slicing.multithreaded import CrossThreadDependence, cross_thread_dependences


@dataclass(frozen=True)
class RaceReport:
    """One reported (or filtered) race candidate."""

    dependence: CrossThreadDependence
    #: why it was filtered ("" = reported as a real race).
    filtered: str = ""

    @property
    def is_reported(self) -> bool:
        return not self.filtered


@dataclass
class SyncHistory:
    """Synchronization facts extracted from an event log."""

    #: tid -> list of (lock id, acquire seq, release seq).
    lock_regions: dict[int, list[tuple[int, int, int]]] = field(default_factory=dict)
    #: barrier trip points: ascending seqs at which some barrier released.
    barrier_trips: list[int] = field(default_factory=list)
    #: child tid -> spawn seq (in the parent).
    spawns: dict[int, int] = field(default_factory=dict)
    #: tid -> exit seq.
    exits: dict[int, int] = field(default_factory=dict)
    #: completed joins: (joiner tid, target tid, seq).
    joins: list[tuple[int, int, int]] = field(default_factory=list)

    @classmethod
    def from_event_log(cls, log: EventLog) -> "SyncHistory":
        history = cls()
        open_locks: dict[tuple[int, int], int] = {}
        barrier_seen: dict[int, list[int]] = {}
        for e in log.syncs:
            if e.kind == "lock":
                open_locks[(e.tid, e.obj)] = e.seq
            elif e.kind == "unlock":
                acq = open_locks.pop((e.tid, e.obj), None)
                if acq is not None:
                    history.lock_regions.setdefault(e.tid, []).append((e.obj, acq, e.seq))
            elif e.kind == "barrier":
                barrier_seen.setdefault(e.obj, []).append(e.seq)
            elif e.kind == "spawn":
                history.spawns[e.obj] = e.seq
            elif e.kind == "join-exit":
                history.exits[e.tid] = e.seq
            elif e.kind == "join":
                history.joins.append((e.tid, e.obj, e.seq))
        # A barrier "trip" is a cluster of release events; use the max seq
        # of each consecutive release burst as the ordering point.
        for releases in barrier_seen.values():
            releases.sort()
            history.barrier_trips.extend(releases)
        # Locks still held at the end protect to infinity.
        for (tid, lock_id), acq in open_locks.items():
            history.lock_regions.setdefault(tid, []).append((lock_id, acq, 1 << 60))
        history.barrier_trips.sort()
        return history

    # -- queries ---------------------------------------------------------
    def locks_held(self, tid: int, seq: int) -> set[int]:
        return {
            lock_id
            for lock_id, acq, rel in self.lock_regions.get(tid, [])
            if acq <= seq < rel
        }

    def ordered_by_sync(self, first_seq: int, second_seq: int, first_tid: int,
                        second_tid: int) -> str:
        """Non-empty reason string when the two accesses are ordered by
        spawn/join/barrier happens-before (``first_seq < second_seq``)."""
        # Barrier trip between them orders them.
        for trip in self.barrier_trips:
            if first_seq <= trip <= second_seq:
                return f"barrier trip at seq {trip}"
        # Spawn: parent's access precedes the child's existence.
        spawn = self.spawns.get(second_tid)
        if spawn is not None and first_seq <= spawn and first_tid != second_tid:
            return f"spawn of t{second_tid} at seq {spawn}"
        # Join: the consumer joined the producer thread before its access
        # (mere exit of the producer does not order anything).
        for joiner, target, seq in self.joins:
            if joiner == second_tid and target == first_tid and seq <= second_seq:
                return f"t{second_tid} joined t{first_tid} at seq {seq}"
        return ""


class RaceDetector:
    """Baseline detector: cross-thread dependences minus lock-protected
    and HB-ordered pairs.  (The sync-aware filter in
    :mod:`repro.races.sync_aware` refines this further.)"""

    def __init__(self, ddg: PackedDDG, history: SyncHistory):
        self.ddg = ddg
        self.history = history
        #: cross-thread dependences examined by the last detect() call.
        self.checked = 0

    def detect(self) -> list[RaceReport]:
        reports: list[RaceReport] = []
        self.checked = 0
        for dep in cross_thread_dependences(self.ddg):
            self.checked += 1
            first_seq, first_tid = dep.producer_seq, dep.producer_tid
            second_seq, second_tid = dep.consumer_seq, dep.consumer_tid
            if first_seq > second_seq:
                first_seq, first_tid, second_seq, second_tid = (
                    second_seq,
                    second_tid,
                    first_seq,
                    first_tid,
                )
            common = self.history.locks_held(first_tid, first_seq) & self.history.locks_held(
                second_tid, second_seq
            )
            if common:
                reports.append(
                    RaceReport(dep, filtered=f"common lock {sorted(common)[0]}")
                )
                continue
            reason = self.history.ordered_by_sync(
                first_seq, second_seq, first_tid, second_tid
            )
            if reason:
                reports.append(RaceReport(dep, filtered=reason))
                continue
            reports.append(RaceReport(dep))
        return reports

    def races(self) -> list[RaceReport]:
        return [r for r in self.detect() if r.is_reported]
