"""Trace lake: spill-format round trips, crash recovery, the run store
and re-execution-free stored-run queries."""

import os
import signal
import struct
import subprocess
import sys
import textwrap

import pytest

from repro.lake import (
    FORMAT_VERSION,
    LakeFormatError,
    SpillingPackedTraceBuffer,
    TraceLake,
    diff_runs,
    input_hash,
    open_spill,
    postmortem,
    program_hash,
    resolve_criterion,
    slice_stored,
    spill_buffer,
    suspect_lines,
)
from repro.ontrac import (
    DepKind,
    DepRecord,
    OntracConfig,
    PackedDDG,
    PackedTraceBuffer,
)
from repro.runner import ProgramRunner
from repro.slicing import backward_slice, forward_slice
from repro.util.rng import DeterministicRng
from repro.workloads import corpus, matmul

EDGE_KINDS = [DepKind.REG, DepKind.MEM, DepKind.IREG, DepKind.IMEM,
              DepKind.CONTROL, DepKind.SUMMARY, DepKind.WAR, DepKind.WAW]


def _fill(buf, rng, n):
    """Append a seeded random dependence stream (mirrors the packed
    store's own property tests)."""
    for consumer in range(n):
        buf.append(DepRecord(DepKind.INSTR, consumer, consumer % 13,
                             tid=consumer % 3))
        if consumer:
            for _ in range(rng.randint(0, 3)):
                producer = rng.randint(0, consumer - 1)
                kind = EDGE_KINDS[rng.randint(0, len(EDGE_KINDS) - 1)]
                buf.append(DepRecord(kind, consumer, consumer % 13,
                                     producer, producer % 13,
                                     tid=consumer % 3))


def _assert_same_answers(stored, live_buf, rng, queries=4):
    """Stored-run slices must be bit-identical to the live buffer's."""
    live = PackedDDG(live_buf)
    got = PackedDDG(stored.buffer)
    assert sorted(got.node_items()) == sorted(live.node_items())
    assert stored.buffer.epoch == live_buf.epoch
    assert got.complete == live.complete
    nodes = sorted(s for s, _ in live.node_items())
    for _ in range(queries):
        crit = nodes[rng.randint(0, len(nodes) - 1)]
        kinds = frozenset(k for k in EDGE_KINDS if rng.randint(0, 1)) \
            or frozenset({DepKind.REG})
        for fn in (backward_slice, forward_slice):
            a = fn(got, crit, kinds)
            b = fn(live, crit, kinds)
            assert (a.seqs, a.pcs, a.truncated) == (b.seqs, b.pcs, b.truncated)


# --- format round trips ------------------------------------------------------
class TestSpillFormat:
    def test_post_hoc_spill_round_trip(self, tmp_path):
        rng = DeterministicRng(7)
        buf = PackedTraceBuffer(capacity_bytes=1 << 20)
        _fill(buf, rng, 200)
        path = str(tmp_path / "t.rlk")
        spill_buffer(buf, path)
        with open_spill(path) as stored:
            assert not stored.recovered
            assert stored.rows == len(buf)
            assert stored.total_rows == buf.stats.appended
            _assert_same_answers(stored, buf, rng)

    def test_spilling_buffer_matches_plain(self, tmp_path):
        """Streaming spill (seal-time sections + footer) equals the
        in-memory buffer bit for bit — including under eviction."""
        for capacity in (700, 1 << 20):
            rng = DeterministicRng(11)
            rng2 = DeterministicRng(11)
            plain = PackedTraceBuffer(capacity_bytes=capacity)
            path = str(tmp_path / f"s{capacity}.rlk")
            spilling = SpillingPackedTraceBuffer(capacity, path)
            _fill(plain, rng, 300)
            _fill(spilling, rng2, 300)
            assert spilling.epoch == plain.epoch
            spilling.close()
            spilling.close()  # idempotent
            with open_spill(path) as stored:
                assert not stored.recovered
                assert stored.buffer.stats.evicted == plain.stats.evicted
                _assert_same_answers(stored, plain, rng)
                if capacity == 700:
                    assert plain.stats.evicted > 0
                    # Evicted history is in the file even though the
                    # live window dropped it.
                    assert len(stored.index) * 1 >= stored.buffer.chunk_count

    def test_overflow_side_table_round_trip(self, tmp_path):
        """Out-of-column values (wide pcs/tids, far producers) survive
        the side-table encoding."""
        buf = PackedTraceBuffer(capacity_bytes=1 << 20)
        big_seq = 1 << 40
        buf.append(DepRecord(DepKind.INSTR, 0, 70_000, tid=66_000))
        buf.append(DepRecord(DepKind.INSTR, big_seq, 5, tid=1))
        buf.append(DepRecord(DepKind.MEM, big_seq + 1, 80_000, 0, 90_000,
                             tid=70_001))
        path = str(tmp_path / "over.rlk")
        spill_buffer(buf, path)
        with open_spill(path) as stored:
            want = [(r.kind, r.consumer_seq, r.consumer_pc, r.producer_seq,
                     r.producer_pc, r.tid) for r in buf.records]
            got = [(r.kind, r.consumer_seq, r.consumer_pc, r.producer_seq,
                    r.producer_pc, r.tid) for r in stored.buffer.records]
            assert got == want
            assert any(c.over for c in stored.buffer._chunks)

    def test_empty_run(self, tmp_path):
        buf = PackedTraceBuffer(capacity_bytes=4096)
        path = str(tmp_path / "empty.rlk")
        spill_buffer(buf, path)
        with open_spill(path) as stored:
            assert stored.rows == 0
            assert not stored.recovered
            report = postmortem(stored)
            assert report["rows"] == 0
            assert report["graph"] == {"nodes": 0, "edges": 0}
            with pytest.raises(KeyError):
                resolve_criterion(stored)

    def test_hundred_seed_stored_slices_bit_identical(self, tmp_path):
        """100 seeded random streams through the spilling buffer; the
        reopened file must answer every slice exactly like the live
        in-memory buffer — including truncation under eviction."""
        for seed in range(100):
            rng = DeterministicRng(seed)
            rng2 = DeterministicRng(seed)
            capacity = (600, 4096, 1 << 20)[seed % 3]
            n = 40 + (seed % 4) * 40
            live = PackedTraceBuffer(capacity_bytes=capacity)
            path = str(tmp_path / f"p{seed}.rlk")
            spilling = SpillingPackedTraceBuffer(capacity, path)
            _fill(live, rng, n)
            _fill(spilling, rng2, n)
            spilling.close()
            with open_spill(path) as stored:
                _assert_same_answers(stored, live, rng, queries=3)
            os.unlink(path)


# --- corruption & recovery ---------------------------------------------------
class TestRecovery:
    def _spilled(self, tmp_path, seed=3, n=400, capacity=1 << 20):
        rng = DeterministicRng(seed)
        path = str(tmp_path / "r.rlk")
        buf = SpillingPackedTraceBuffer(capacity, path)
        _fill(buf, rng, n)
        buf.close()
        return path

    def test_version_mismatch_rejected(self, tmp_path):
        path = self._spilled(tmp_path)
        with open(path, "r+b") as f:
            f.seek(8)
            f.write(struct.pack("<H", FORMAT_VERSION + 1))
        with pytest.raises(LakeFormatError, match="version"):
            open_spill(path)

    def test_not_a_spill_rejected(self, tmp_path):
        path = str(tmp_path / "junk.rlk")
        with open(path, "wb") as f:
            f.write(b"definitely not a spill file" * 4)
        with pytest.raises(LakeFormatError):
            open_spill(path)
        with open(path, "wb") as f:
            f.write(b"x")
        with pytest.raises(LakeFormatError, match="truncated"):
            open_spill(path)

    def test_torn_footer_recovers_all_sections(self, tmp_path):
        path = self._spilled(tmp_path)
        with open_spill(path) as clean:
            sections = list(clean.index)
            clean_rows = clean.rows
        # Chop the trailer: the footer index is unreachable but every
        # section is intact.
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) - 10)
        with open_spill(path) as stored:
            assert stored.recovered
            assert len(stored.index) == len(sections)
            assert stored.rows == clean_rows
            crit = resolve_criterion(stored)
            assert slice_stored(stored, crit).seqs

    def test_corrupt_footer_crc_recovers(self, tmp_path):
        path = self._spilled(tmp_path)
        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            f.seek(size - 30)  # inside the JSON footer
            f.write(b"\xff")
        with open_spill(path) as stored:
            assert stored.recovered
            assert stored.rows > 0

    def test_truncated_mid_section_keeps_prefix(self, tmp_path):
        path = self._spilled(tmp_path)
        with open_spill(path) as clean:
            sections = list(clean.index)
        assert len(sections) >= 2
        with open(path, "r+b") as f:
            f.truncate(sections[1]["off"] + 40)  # torn second section
        with open_spill(path) as stored:
            assert stored.recovered
            assert len(stored.index) == 1
            assert stored.rows == sections[0]["n"]
            assert PackedDDG(stored.buffer).complete  # prefix is self-contained
            crit = resolve_criterion(stored)
            sl = slice_stored(stored, crit)
            assert not sl.truncated or stored.buffer.stats.evicted == 0

    def test_sigkilled_writer_leaves_readable_prefix(self, tmp_path):
        """kill -9 mid-run: the spill must reopen as a recovered prefix
        with working queries — the crash-postmortem contract."""
        path = str(tmp_path / "killed.rlk")
        child = textwrap.dedent(f"""
            from repro.lake.format import SpillingPackedTraceBuffer
            from repro.ontrac import DepKind, DepRecord

            buf = SpillingPackedTraceBuffer(1 << 20, {path!r})
            seq = 0
            while True:
                buf.append(DepRecord(DepKind.INSTR, seq, seq % 13, tid=0))
                if seq:
                    buf.append(DepRecord(DepKind.REG, seq, seq % 13,
                                         seq - 1, (seq - 1) % 13, tid=0))
                seq += 1
                if seq % 2000 == 0:
                    print(seq, flush=True)
        """)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, "-c", child],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        try:
            for line in proc.stdout:
                if int(line) >= 20_000:
                    break
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == -signal.SIGKILL
        with open_spill(path) as stored:
            assert stored.recovered
            assert stored.rows > 0
            seqs = [r.consumer_seq for r in stored.buffer]
            assert seqs == sorted(seqs)
            crit = resolve_criterion(stored)
            sl = slice_stored(stored, crit)
            assert sl.seqs and crit in sl.seqs


# --- the run store -----------------------------------------------------------
class TestTraceLake:
    def _record(self, lake, seed=0, scale=1):
        w = matmul(scale)
        pending = lake.begin_run(
            program=program_hash(w.compiled.source),
            input_hash=input_hash(w.inputs), seed=seed,
        )
        _, tracer, _ = w.runner().run_traced(
            OntracConfig(spill_path=pending.spill_path)
        )
        return pending.finish(tracer=tracer, compiled=w.compiled), tracer

    def test_record_list_open_resolve(self, tmp_path):
        lake = TraceLake(str(tmp_path))
        run_id, tracer = self._record(lake)
        runs = lake.runs()
        assert [r.run_id for r in runs] == [run_id]
        assert runs[0].complete
        manifest = runs[0].manifest
        assert manifest["schema"].startswith("repro.lake.manifest/")
        assert manifest["trace"]["rows"] == len(tracer.buffer)
        assert manifest["pc_lines"]
        assert lake.resolve(run_id[:10]) == run_id
        with pytest.raises(LakeFormatError, match="no such"):
            lake.resolve("nope")
        with lake.open(run_id) as stored:
            assert stored.rows == len(tracer.buffer)
            live = tracer.dependence_graph()
            crit = max(s for s, _ in live.node_items())
            a = slice_stored(stored, crit)
            b = backward_slice(live, crit)
            assert (a.seqs, a.pcs, a.truncated) == (b.seqs, b.pcs, b.truncated)

    def test_same_key_runs_stay_addressable(self, tmp_path):
        lake = TraceLake(str(tmp_path))
        first, _ = self._record(lake, seed=5)
        second, _ = self._record(lake, seed=5)
        assert first != second
        assert second.endswith("--r2")
        with pytest.raises(LakeFormatError, match="ambiguous"):
            lake.resolve(first[:10])

    def test_incomplete_run_listed_and_queryable(self, tmp_path):
        lake = TraceLake(str(tmp_path))
        pending = lake.begin_run(program="dead", input_hash="", seed=0)
        buf = SpillingPackedTraceBuffer(1 << 20, pending.spill_path)
        _fill(buf, DeterministicRng(1), 600)
        # No close(), no finish(): the writer "died" here.
        del buf
        (info,) = lake.runs()
        assert not info.complete
        with lake.open(info.run_id) as stored:
            assert stored.recovered
            assert stored.rows > 0
            assert slice_stored(stored, resolve_criterion(stored)).seqs

    def test_gc_drops_oldest_first(self, tmp_path):
        lake = TraceLake(str(tmp_path))
        ids = [self._record(lake, seed=s)[0] for s in range(3)]
        summary = lake.gc(keep_runs=2)
        assert summary["dropped"] == [ids[0]]
        assert [r.run_id for r in lake.runs()] == ids[1:]
        summary = lake.gc(max_bytes=0)
        assert summary["kept"] == 0
        assert lake.runs() == []

    def test_compact_preserves_query_observables(self, tmp_path):
        lake = TraceLake(str(tmp_path))
        pending = lake.begin_run(program="many-chunks", input_hash="")
        buf = SpillingPackedTraceBuffer(1 << 20, pending.spill_path)
        rng = DeterministicRng(9)
        _fill(buf, rng, 1500)  # several seed-size chunk sections
        run_id = pending.finish(buffer=buf)
        with lake.open(run_id) as stored:
            before = {
                "epoch": stored.buffer.epoch,
                "rows": stored.rows,
                "nodes": sorted(PackedDDG(stored.buffer).node_items()),
            }
            crit = resolve_criterion(stored)
            ref = slice_stored(stored, crit)
        summary = lake.compact(run_id)
        assert summary["sections_after"] <= summary["sections_before"]
        with lake.open(run_id) as stored:
            assert stored.buffer.epoch == before["epoch"]
            assert stored.rows == before["rows"]
            assert sorted(PackedDDG(stored.buffer).node_items()) == before["nodes"]
            got = slice_stored(stored, crit)
            assert (got.seqs, got.pcs, got.truncated) == \
                (ref.seqs, ref.pcs, ref.truncated)

    def test_telemetry_gauges(self, tmp_path):
        from repro.telemetry import MetricsRegistry

        lake = TraceLake(str(tmp_path))
        self._record(lake)
        registry = MetricsRegistry()
        lake.publish_telemetry(registry)
        flat = registry.flat()
        assert flat["lake.runs"] == 1
        assert flat["lake.bytes"] > 0
        assert flat["lake.incomplete_runs"] == 0


# --- cross-run diff ----------------------------------------------------------
class TestDiff:
    def test_diff_localizes_wrong_variable(self, tmp_path):
        lake = TraceLake(str(tmp_path))
        (bug,) = [b for b in corpus() if b.name == "wrong-variable"]
        _, tr, _ = bug.runner(failing=True).run_traced(OntracConfig())
        failing = lake.put(tr.buffer, program=program_hash(bug.source),
                           input_hash=input_hash(bug.failing_inputs),
                           compiled=bug.compiled)
        passing = []
        for inputs in (bug.failing_inputs, bug.passing_inputs):
            runner = ProgramRunner(
                bug.fixed_compiled.program,
                inputs={k: list(v) for k, v in inputs.items()},
                max_instructions=2_000_000,
            )
            _, tr, _ = runner.run_traced(OntracConfig())
            passing.append(lake.put(
                tr.buffer, program=program_hash(bug.fixed_source),
                input_hash=input_hash(inputs), compiled=bug.fixed_compiled,
            ))
        diff = diff_runs(lake, failing, passing)
        assert diff["space"] == "line"
        assert diff["suspects"]
        assert suspect_lines(diff) & bug.bug_lines

    def test_diff_without_manifests_falls_back_to_pc_space(self, tmp_path):
        lake = TraceLake(str(tmp_path))
        ids = []
        for seed in range(2):
            buf = PackedTraceBuffer(capacity_bytes=1 << 20)
            _fill(buf, DeterministicRng(seed), 60)
            ids.append(lake.put(buf, program="raw", seed=seed))
        diff = diff_runs(lake, ids[0], [ids[1]])
        assert diff["space"] == "pc"
        assert suspect_lines(diff) == set()
