"""Aggregate BENCH_*.json benchmark snapshots into BENCH_trend.json.

Each ``BENCH_<name>.json`` in the repo root is one experiment's headline
numbers for the current checkout (written by ``repro experiment --bench``
or the CI benchmarks job; ``BENCH_lake.json`` carries the trace-lake
stored-query latencies and spill overhead).  This tool folds them into a
per-commit trend file so regressions are visible across the PR sequence:

    {"schema": "repro.bench_trend/v1",
     "entries": [{"commit": "...", "commit_date": "...",
                  "experiments": {"service": {...headline...}, ...}}]}

Re-running on the same commit replaces that commit's entry (benchmarks
are rerun, not appended), so the latest numbers win.  Numbers measured
on a tree whose tracked files (other than the ``BENCH_*.json`` outputs
themselves) differ from HEAD are not HEAD's numbers: such an entry is
keyed by HEAD but marked ``"dirty": true``.  A dirty entry only ever
replaces HEAD's dirty entry, never its clean one, and sorts after it.

Usage: python tools/bench_trend.py [--root DIR] [--out FILE]
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import subprocess
import sys
from pathlib import Path

TREND_SCHEMA = "repro.bench_trend/v1"


def _git(root: Path, *args: str) -> str:
    out = subprocess.run(
        ["git", *args], cwd=root, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def tree_is_dirty(root: Path) -> bool:
    """Whether any tracked file other than a ``BENCH_*.json`` output
    differs from HEAD (staged or not)."""
    changed = _git(root, "diff", "--name-only", "HEAD").splitlines()
    return any(not fnmatch.fnmatch(name, "BENCH_*.json") for name in changed)


def _describe(entry: dict) -> str:
    commit = str(entry.get("commit", "?"))[:12]
    if entry.get("dirty"):
        return f"{commit} + uncommitted changes (dirty)"
    return commit


def collect_bench(root: Path) -> dict[str, dict]:
    """Headline dicts of every BENCH_*.json in ``root``, keyed by experiment."""
    experiments: dict[str, dict] = {}
    for path in sorted(root.glob("BENCH_*.json")):
        if path.name == "BENCH_trend.json":
            continue
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            print(f"bench_trend: skipping {path.name}: {exc}", file=sys.stderr)
            continue
        if not isinstance(data, dict):
            print(f"bench_trend: skipping {path.name}: not an object", file=sys.stderr)
            continue
        name = data.get("experiment") or path.stem[len("BENCH_"):]
        headline = data.get("headline")
        entry = {"headline": headline if isinstance(headline, dict) else {}}
        if data.get("notes"):
            entry["notes"] = data["notes"]
        experiments[name] = entry
    return experiments


def headline_deltas(prev_entry: dict | None, latest_entry: dict) -> list[str]:
    """Per-experiment numeric drift vs the previous commit's entry.

    Every lookup is ``.get``-tolerant: experiments appear and disappear
    across the PR sequence (a new BENCH_*.json mid-history must not
    KeyError against entries that predate it), and headline keys are
    free to evolve.  New experiments/keys report as ``new``.  The first
    line names both entries, marking a dirty one.
    """
    lines = [
        f"{_describe(prev_entry) if prev_entry else '(none)'} -> {_describe(latest_entry)}"
    ]
    prev_exps = (prev_entry or {}).get("experiments") or {}
    for name, entry in sorted((latest_entry.get("experiments") or {}).items()):
        headline = entry.get("headline") or {}
        prev_headline = (prev_exps.get(name) or {}).get("headline") or {}
        for key, value in sorted(headline.items()):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            old = prev_headline.get(key)
            if isinstance(old, (int, float)) and not isinstance(old, bool):
                delta = value - old
                lines.append(f"{name}.{key}: {old:g} -> {value:g} ({delta:+g})")
            else:
                lines.append(f"{name}.{key}: {value:g} (new)")
    return lines


def update_trend(root: Path, out: Path) -> dict:
    experiments = collect_bench(root)
    if not experiments:
        raise SystemExit("bench_trend: no BENCH_*.json files found")
    commit = _git(root, "rev-parse", "HEAD")
    commit_date = _git(root, "show", "-s", "--format=%cI", "HEAD")
    dirty = tree_is_dirty(root)

    trend = {"schema": TREND_SCHEMA, "entries": []}
    if out.exists():
        try:
            prev = json.loads(out.read_text())
            if prev.get("schema") == TREND_SCHEMA:
                trend["entries"] = [
                    e
                    for e in prev.get("entries", [])
                    if e.get("commit") != commit or bool(e.get("dirty")) != dirty
                ]
        except (OSError, ValueError) as exc:
            print(f"bench_trend: resetting corrupt {out.name}: {exc}", file=sys.stderr)

    entry = {"commit": commit, "commit_date": commit_date, "experiments": experiments}
    if dirty:
        entry["dirty"] = True
    trend["entries"].append(entry)
    trend["entries"].sort(key=lambda e: (e.get("commit_date", ""), bool(e.get("dirty"))))
    out.write_text(json.dumps(trend, indent=1, sort_keys=True) + "\n")
    return trend


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None, help="repo root (default: tool's parent)")
    parser.add_argument("--out", default=None, help="output file (default: ROOT/BENCH_trend.json)")
    args = parser.parse_args(argv)
    root = Path(args.root) if args.root else Path(__file__).resolve().parent.parent
    out = Path(args.out) if args.out else root / "BENCH_trend.json"
    trend = update_trend(root, out)
    latest = trend["entries"][-1]
    names = ", ".join(sorted(latest["experiments"]))
    print(
        f"bench_trend: {out} now has {len(trend['entries'])} entr"
        f"{'y' if len(trend['entries']) == 1 else 'ies'}; "
        f"latest {_describe(latest)} covers: {names}"
    )
    prev = trend["entries"][-2] if len(trend["entries"]) > 1 else None
    for line in headline_deltas(prev, latest):
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
