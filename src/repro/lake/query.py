"""Re-execution-free queries over stored runs.

Every verb here operates on a :class:`~repro.lake.format.StoredRun`
(mmap'd columns adopted into the packed engine) plus, optionally, the
run's manifest — never on a live VM.  ``slice``/``lineage`` are the
exact :mod:`repro.slicing` closures over the stored columns, so they
are bit-identical to what the live buffer would have answered;
``postmortem`` is the crash-triage summary; ``diff`` compares the
*static dependence edge sets* of run sets.

Edge identity for ``diff``: an edge is ``(consumer, producer, kind)``
with consumer/producer taken in **source-line space** when every run's
manifest carries a ``pc_lines`` map (so a failing buggy build can be
diffed against passing fixed builds whose pcs shifted), falling back to
raw pc space otherwise.  The failing run's suspect set is its edges
minus the union of every passing run's edges — the paper's "deep
analyze the one run that failed" applied across history.
"""

from __future__ import annotations

from ..ontrac.records import DepKind
from ..slicing.slicer import (
    DEFAULT_KINDS,
    DynamicSlice,
    backward_slice,
    forward_slice,
    last_instance_of_line,
)
from .format import StoredRun


def resolve_criterion(
    run: StoredRun,
    seq: int | None = None,
    pc: int | None = None,
    line: int | None = None,
    manifest: dict | None = None,
) -> int:
    """Pick the slicing criterion seq for a stored run.

    Priority: explicit ``seq``; else the last dynamic instance of
    ``pc``; else the last instance of any pc on source ``line`` (needs
    the manifest's ``pc_lines``); else the newest stored instruction.
    """
    ddg = run.ddg()
    if seq is not None:
        return seq
    if pc is not None:
        last = ddg.last_instance_of_pc(pc)
        if last is None:
            raise KeyError(f"pc {pc} has no stored instance in this run")
        return last
    if line is not None:
        pc_lines = (manifest or {}).get("pc_lines")
        if not pc_lines:
            raise KeyError(
                "line criteria need a manifest with a pc_lines map "
                "(incomplete/recovered runs: use --seq or --pc)"
            )
        pcs = [int(p) for p, ln in pc_lines.items() if ln == line]
        last = last_instance_of_line(ddg, pcs)
        if last is None:
            raise KeyError(f"line {line} has no stored instance in this run")
        return last
    newest = run.buffer.newest_seq
    if newest < 0:
        raise KeyError("run holds no trace rows")
    return newest


def slice_stored(
    run: StoredRun,
    criterion: int,
    kinds=DEFAULT_KINDS,
    direction: str = "backward",
) -> DynamicSlice:
    """The ordinary dynamic slice, over the stored columns."""
    ddg = run.ddg()
    if direction == "forward":
        return forward_slice(ddg, criterion, kinds)
    return backward_slice(ddg, criterion, kinds)


def lineage_stored(run: StoredRun, criterion: int, kinds=DEFAULT_KINDS) -> DynamicSlice:
    """Forward lineage: everything the criterion value flowed into."""
    return forward_slice(run.ddg(), criterion, kinds)


def slice_lines(sl: DynamicSlice, manifest: dict | None) -> list[int]:
    """Source lines of a stored-run slice via the manifest's pc map."""
    pc_lines = (manifest or {}).get("pc_lines") or {}
    lines = {pc_lines.get(str(pc), 0) for pc in sl.pcs}
    lines.discard(0)
    return sorted(lines)


# -- postmortem ---------------------------------------------------------------
def postmortem(run: StoredRun, manifest: dict | None = None, tail: int = 12) -> dict:
    """Crash-triage summary of a stored run: what was executing, what
    the window held, what alerts fired — all without the program."""
    buf = run.buffer
    ddg = run.ddg()
    stats = ddg.stats() if buf._rows else {"nodes": 0, "edges": 0}
    hot: dict[int, int] = {}
    for _seq, pc in ddg.node_items():
        hot[pc] = hot.get(pc, 0) + 1
    hottest = sorted(hot.items(), key=lambda kv: (-kv[1], kv[0]))[:8]
    records = buf.records
    last = [
        str(records[i]) for i in range(max(0, len(records) - tail), len(records))
    ]
    report = {
        "run": (manifest or {}).get("run", run.path),
        "recovered": run.recovered,
        "complete": buf.stats.evicted == 0,
        "rows": buf._rows,
        "total_rows": buf.stats.appended,
        "evicted": buf.stats.evicted,
        "window": [buf.oldest_seq, buf.newest_seq],
        "graph": stats,
        "hot_pcs": [{"pc": pc, "nodes": n} for pc, n in hottest],
        "tail": last,
        "alerts": (manifest or {}).get("alerts", []),
    }
    pc_lines = (manifest or {}).get("pc_lines")
    if pc_lines:
        for entry in report["hot_pcs"]:
            entry["line"] = pc_lines.get(str(entry["pc"]), 0)
    return report


# -- cross-run diff -----------------------------------------------------------
def edge_signatures(run: StoredRun, manifest: dict | None = None) -> set[tuple]:
    """The run's static dependence-edge set.

    One signature per distinct ``(consumer, producer, kind)`` with
    endpoints in line space when the manifest maps pcs to lines, pc
    space otherwise.
    """
    pc_lines = (manifest or {}).get("pc_lines")
    sigs: set[tuple] = set()
    if pc_lines:
        lookup = {int(p): ln for p, ln in pc_lines.items()}
        for cseq, cpc, tid, pseq, ppc, kind in run.ddg().iter_edge_rows():
            sigs.add((
                lookup.get(cpc, -cpc - 1), lookup.get(ppc, -ppc - 1), kind.value,
            ))
    else:
        for cseq, cpc, tid, pseq, ppc, kind in run.ddg().iter_edge_rows():
            sigs.add((cpc, ppc, kind.value))
    return sigs


def diff_edge_sets(failing: set[tuple], passing: list[set[tuple]]) -> list[tuple]:
    union: set[tuple] = set()
    for s in passing:
        union |= s
    return sorted(failing - union)


def diff_runs(
    lake,
    failing_id: str,
    passing_ids: list[str],
    kinds=None,
) -> dict:
    """Which dependence edges appear in the failing run but in **no**
    passing run?  ``lake`` is a :class:`~repro.lake.store.TraceLake`;
    ids may be unique prefixes.  Line space is used iff every involved
    run's manifest has a pc→line map."""
    failing_id = lake.resolve(failing_id)
    passing_ids = [lake.resolve(p) for p in passing_ids]
    manifests = {rid: lake.manifest(rid) for rid in [failing_id, *passing_ids]}
    line_space = all(
        (m or {}).get("pc_lines") for m in manifests.values()
    )
    wanted = None if kinds is None else {k.value for k in kinds}

    def _sigs(rid: str) -> set[tuple]:
        with lake.open(rid) as run:
            sigs = edge_signatures(
                run, manifests[rid] if line_space else None,
            )
        if wanted is not None:
            sigs = {s for s in sigs if s[2] in wanted}
        return sigs

    failing = _sigs(failing_id)
    passing = [_sigs(rid) for rid in passing_ids]
    suspects = diff_edge_sets(failing, passing)
    # The symmetric story for omission bugs: edges EVERY passing run
    # exercises that the failing run never did point at the computation
    # the bug omitted (the suspects above point at what it did instead).
    common = passing[0].copy() if passing else set()
    for s in passing[1:]:
        common &= s
    missing = sorted(common - failing)
    return {
        "space": "line" if line_space else "pc",
        "failing": failing_id,
        "passing": passing_ids,
        "failing_edges": len(failing),
        "passing_edges": len(set().union(*passing)) if passing else 0,
        "suspects": [
            {"consumer": c, "producer": p, "kind": k} for c, p, k in suspects
        ],
        "missing": [
            {"consumer": c, "producer": p, "kind": k} for c, p, k in missing
        ],
    }


def suspect_lines(diff: dict) -> set[int]:
    """Source lines implicated by a line-space diff result: endpoints
    of the failing run's extra edges and of the edges it is missing."""
    if diff["space"] != "line":
        return set()
    out = set()
    for edge in diff["suspects"] + diff.get("missing", []):
        for end in (edge["consumer"], edge["producer"]):
            if isinstance(end, int) and end > 0:
                out.add(end)
    return out


__all__ = [
    "DepKind",
    "diff_edge_sets",
    "diff_runs",
    "edge_signatures",
    "lineage_stored",
    "postmortem",
    "resolve_criterion",
    "slice_lines",
    "slice_stored",
    "suspect_lines",
]
