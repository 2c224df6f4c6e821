"""The trace lake: a persistent store of spilled runs plus manifests.

Layout under the lake root (default ``<cwd>/lake``, overridable via
``REPRO_LAKE_DIR`` or an explicit ``root=``):

``<root>/runs/<run-id>/trace.rlk`` — the spill file (:mod:`.format`);
``<root>/runs/<run-id>/manifest.json`` — JSON manifest: run key
(program hash, input hash, seed, fidelity), policy signature, alert
list, telemetry summary, trace facts and the pc→source-line map that
lets cross-run ``diff`` compare runs of *different builds* of one
program in source-line space.

A run directory containing ``trace.rlk`` but no manifest is an
**incomplete** run — the writer died before close.  It still lists and
still answers queries through the spill reader's readable-prefix
recovery; that is the crash postmortem story.

Retention is explicit, never background: :meth:`TraceLake.gc` drops
oldest-first beyond a run-count or byte budget, and
:meth:`TraceLake.compact` rewrites a run's many small chunk sections
into dense max-size chunks (a replay through a fresh packed buffer —
obviously exact, and cheap because compaction is rare and explicit).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import time

from ..ontrac.packed import _MAX_CHUNK_ROWS, PackedTraceBuffer
from ..util.artifacts import run_artifact_dir
from .format import (
    LakeFormatError,
    SpillWriter,
    StoredRun,
    buffer_state,
    open_spill,
    spill_buffer,
)

MANIFEST_SCHEMA = "repro.lake.manifest/v1"
TRACE_FILE = "trace.rlk"
MANIFEST_FILE = "manifest.json"

_SAN = re.compile(r"[^A-Za-z0-9_.-]+")


def _sanitize(part: str) -> str:
    return _SAN.sub("-", str(part)) or "x"


def input_hash(inputs: dict | None) -> str:
    """Stable short hash of a ``{channel: [values]}`` input map."""
    canon = json.dumps(
        sorted((int(ch), list(vals)) for ch, vals in (inputs or {}).items()),
        separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def program_hash(source: str) -> str:
    return "src-" + hashlib.sha256(source.encode()).hexdigest()[:16]


def _alert_dict(alert) -> dict:
    return {
        "seq": alert.seq,
        "tid": alert.tid,
        "pc": alert.pc,
        "sink": alert.sink,
        "label": str(alert.label),
        "description": alert.description,
        "value": getattr(alert, "value", 0),
        "channel": getattr(alert, "channel", -1),
    }


class RunInfo:
    """One lake run as listed (manifest may be absent: incomplete)."""

    __slots__ = ("run_id", "path", "manifest", "bytes", "mtime")

    def __init__(self, run_id, path, manifest, bytes_, mtime):
        self.run_id = run_id
        self.path = path
        self.manifest = manifest
        self.bytes = bytes_
        self.mtime = mtime

    @property
    def complete(self) -> bool:
        return self.manifest is not None

    @property
    def program(self) -> str:
        return (self.manifest or {}).get("program", "?")


class PendingRun:
    """A reserved run directory whose spill file is being written.

    Hand :attr:`spill_path` to the tracer
    (``OntracConfig(spill_path=...)``); call :meth:`finish` after the
    run to seal the spill and write the manifest.  If the process dies
    before ``finish`` the directory remains as an incomplete run with a
    recoverable trace prefix.
    """

    def __init__(self, lake: "TraceLake", run_id: str, key: dict):
        self.lake = lake
        self.run_id = run_id
        self.key = key
        self.dir = os.path.join(lake.runs_dir, run_id)
        self.spill_path = os.path.join(self.dir, TRACE_FILE)

    def finish(
        self,
        *,
        tracer=None,
        buffer=None,
        compiled=None,
        dift=None,
        alerts=None,
        registry=None,
        notes=None,
    ) -> str:
        """Seal the spill (or spill ``buffer`` post-hoc) and write the
        manifest; returns the run id."""
        buf = buffer
        if tracer is not None and buf is None:
            buf = tracer.buffer
        if buf is None:
            raise ValueError("finish needs a tracer or a buffer")
        spilled_to = getattr(buf, "spill_path", None)
        if spilled_to:
            buf.close()
            if os.path.abspath(spilled_to) != os.path.abspath(self.spill_path):
                shutil.copyfile(spilled_to, self.spill_path)
        elif not os.path.exists(self.spill_path):
            if not isinstance(buf, PackedTraceBuffer):
                raise ValueError("the lake stores packed buffers only")
            spill_buffer(buf, self.spill_path)
        manifest = self.lake._build_manifest(
            self.run_id, self.key, buf, self.spill_path,
            compiled=compiled, dift=dift, alerts=alerts,
            registry=registry, notes=notes,
        )
        tmp = self.spill_path + ".manifest.tmp"
        with open(tmp, "w") as f:
            json.dump(manifest, f, indent=1, sort_keys=True)
        os.replace(tmp, os.path.join(self.dir, MANIFEST_FILE))
        return self.run_id


class TraceLake:
    """Persistent store of spilled runs; see the module docstring."""

    def __init__(self, root: str | None = None):
        self.root = run_artifact_dir("lake", root)
        self.runs_dir = os.path.join(self.root, "runs")

    # -- recording ------------------------------------------------------------
    def begin_run(
        self,
        *,
        program: str,
        input_hash: str = "",
        seed: int = 0,
        fidelity: str = "full",
    ) -> PendingRun:
        """Reserve a run directory for a run about to execute.

        Runs are keyed by (program hash, input hash, seed, fidelity);
        re-recording the same key gets a ``-rN`` suffix so every run is
        addressable.
        """
        key = {
            "program": program,
            "input_hash": input_hash,
            "seed": int(seed),
            "fidelity": fidelity,
        }
        base = "--".join((
            _sanitize(program),
            _sanitize(input_hash) if input_hash else "noinput",
            f"s{int(seed)}",
            _sanitize(fidelity),
        ))
        os.makedirs(self.runs_dir, exist_ok=True)
        attempt = 0
        while True:
            run_id = base if attempt == 0 else f"{base}--r{attempt + 1}"
            try:
                os.makedirs(os.path.join(self.runs_dir, run_id))
            except FileExistsError:
                attempt += 1
                continue
            return PendingRun(self, run_id, key)

    def put(
        self,
        buffer: PackedTraceBuffer,
        *,
        program: str,
        input_hash: str = "",
        seed: int = 0,
        fidelity: str = "full",
        compiled=None,
        dift=None,
        alerts=None,
        registry=None,
        notes=None,
    ) -> str:
        """Record a finished in-memory trace as a lake run (post-hoc)."""
        pending = self.begin_run(
            program=program, input_hash=input_hash, seed=seed, fidelity=fidelity,
        )
        return pending.finish(
            buffer=buffer, compiled=compiled, dift=dift,
            alerts=alerts, registry=registry, notes=notes,
        )

    def _build_manifest(
        self, run_id, key, buf, spill_path,
        *, compiled=None, dift=None, alerts=None, registry=None, notes=None,
    ) -> dict:
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "run": run_id,
            "created_s": time.time(),
            **key,
            "trace": {
                "rows": len(buf),
                "total_rows": buf.stats.appended,
                "evicted": buf.stats.evicted,
                "bytes": os.path.getsize(spill_path),
                "modeled_bytes": buf.stats.appended_bytes,
                "window": [buf.oldest_seq, buf.newest_seq],
                "monotone": True,
                "chunks": buf.chunk_count,
            },
        }
        if dift is not None:
            manifest.update(dift.lake_manifest())
        if alerts is not None:
            manifest["alerts"] = [_alert_dict(a) for a in alerts]
        manifest.setdefault("alerts", [])
        if registry is not None:
            manifest["telemetry"] = registry.flat()
        if compiled is not None:
            manifest["pc_lines"] = {
                str(pc): line for pc, line in sorted(compiled.line_map.items())
            }
        if notes:
            manifest["notes"] = notes
        return manifest

    # -- listing / opening -----------------------------------------------------
    def runs(self) -> list[RunInfo]:
        """Every run, oldest first (incomplete runs included)."""
        out = []
        if not os.path.isdir(self.runs_dir):
            return out
        for name in sorted(os.listdir(self.runs_dir)):
            rdir = os.path.join(self.runs_dir, name)
            trace = os.path.join(rdir, TRACE_FILE)
            if not os.path.isfile(trace):
                continue
            manifest = self.manifest(name)
            total = 0
            for fname in os.listdir(rdir):
                try:
                    total += os.path.getsize(os.path.join(rdir, fname))
                except OSError:
                    pass
            out.append(RunInfo(name, rdir, manifest, total, os.path.getmtime(trace)))
        out.sort(key=lambda r: (r.mtime, r.run_id))
        return out

    def manifest(self, run_id: str) -> dict | None:
        path = os.path.join(self.runs_dir, run_id, MANIFEST_FILE)
        try:
            with open(path) as f:
                return json.load(f)
        except (OSError, ValueError):
            return None

    def open(self, run_id: str) -> StoredRun:
        path = os.path.join(self.runs_dir, run_id, TRACE_FILE)
        if not os.path.isfile(path):
            raise LakeFormatError(f"no such lake run: {run_id}")
        return open_spill(path)

    def resolve(self, prefix: str) -> str:
        """Resolve a unique run-id prefix (CLI convenience)."""
        names = [r.run_id for r in self.runs()]
        if prefix in names:
            return prefix
        hits = [n for n in names if n.startswith(prefix)]
        if len(hits) == 1:
            return hits[0]
        if not hits:
            raise LakeFormatError(f"no such lake run: {prefix}")
        raise LakeFormatError(
            f"ambiguous run prefix {prefix!r}: {', '.join(hits[:4])}..."
        )

    # -- retention -------------------------------------------------------------
    def gc(self, keep_runs: int | None = None, max_bytes: int | None = None) -> dict:
        """Drop oldest runs beyond the count/byte budgets (explicit,
        never background).  Returns a summary dict."""
        runs = self.runs()
        total = sum(r.bytes for r in runs)
        dropped = []
        while runs and (
            (keep_runs is not None and len(runs) > keep_runs)
            or (max_bytes is not None and total > max_bytes)
        ):
            victim = runs.pop(0)
            shutil.rmtree(victim.path, ignore_errors=True)
            total -= victim.bytes
            dropped.append(victim.run_id)
        return {
            "dropped": dropped,
            "kept": len(runs),
            "bytes": total,
        }

    def compact(self, run_id: str) -> dict:
        """Rewrite one run's spill, merging small chunk sections into
        dense max-size chunks.  Exact by construction: the live rows are
        replayed through a fresh packed buffer and the original buffer
        state is carried over, so every query observable (epoch,
        completeness, slices) is unchanged."""
        run_id = self.resolve(run_id)
        path = os.path.join(self.runs_dir, run_id, TRACE_FILE)
        with open_spill(path) as stored:
            before_sections = len(stored.index)
            state = dict(stored.state)
            fresh = PackedTraceBuffer(
                capacity_bytes=max(int(state["capacity_bytes"]), 1)
            )
            from ..ontrac.records import KIND_CODES

            for rec in stored.buffer:
                fresh.append_row(
                    KIND_CODES[rec.kind], rec.consumer_seq, rec.consumer_pc,
                    rec.producer_seq, rec.producer_pc, rec.tid,
                )
            tmp = path + ".compact.tmp"
            writer = SpillWriter(tmp)
            live = []
            for c in fresh._chunks:
                if not c.n:
                    continue
                cid = writer.add_chunk_from(c)
                live.append({"id": cid, "head": c.head})
            # Keep the original run's bookkeeping (stats/epoch/window),
            # not the replay's: the file is a representation change only.
            writer.close(live, state)
        os.replace(tmp, path)
        with open_spill(path) as stored:
            after_sections = len(stored.index)
        return {
            "run": run_id,
            "sections_before": before_sections,
            "sections_after": after_sections,
            "max_rows_per_section": _MAX_CHUNK_ROWS,
        }

    # -- telemetry -------------------------------------------------------------
    def publish_telemetry(self, registry) -> None:
        runs = self.runs()
        registry.gauge("lake.runs").set(len(runs))
        registry.gauge("lake.bytes").set(sum(r.bytes for r in runs))
        registry.gauge("lake.incomplete_runs").set(
            sum(1 for r in runs if not r.complete)
        )
