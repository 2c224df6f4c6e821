"""Trace lake — stored-run fidelity, query latency and spill overhead.

Not a paper claim: the lake is the host-side persistence story for the
paper's "log cheap, analyze the one run that matters later" workflow.
Three gates:

* the ``lake`` experiment must prove stored-run slice/lineage/
  postmortem answers bit-identical to the live in-memory buffer for
  every suite workload, with spill-enabled tracing within 1.15x of
  no-spill tracing, and cross-run diff localizing the injected bug on
  at least two buggy-corpus families;
* a backward slice over a stored trace of >=10M rows (synthesized
  directly in the spill format — 512-seq blocks of bounded dependence
  chains, the template section reused so synthesis is cheap) must
  complete in under 100 ms both cold (the first query after opening
  the file: it decodes only the sections the closure touches) and warm
  (memo-cold criteria in the same block) — the "query years of history
  like a local buffer" number;
* opening the multi-hundred-MB file must stay cheap (mmap + footer
  index, no column copies) — reported, not gated, as is the cold
  ``last_instance_of_pc`` resolution of the sliced criterion.

``REPRO_BENCH_LAKE_ROWS`` overrides the synthetic row count (the CI
smoke step uses a smaller trace; the latency gates apply at any scale).
"""

import os
import tempfile
import time
from array import array

from conftest import report

from repro.harness.experiments import run_lake
from repro.lake import open_spill
from repro.lake.format import SpillWriter
from repro.ontrac.records import KIND_CODES, KIND_MBYTES, DepKind
from repro.slicing import backward_slice

_BLOCK = 512  # seqs per independent dependence chain (bounds closures)
_FANIN = 8  # REG edges per consumer
#: cold and warm stored-slice latency bound (ms).
TARGET_SLICE_MS = 100.0


def _synthesize(path: str, target_rows: int) -> int:
    """Write a >=target_rows spill file of bounded dependence chains.

    One template section — an INSTR node then ``_BLOCK - 1`` consumers
    of ``_FANIN`` REG edges each, every producer one seq back — is
    appended repeatedly with only ``cseq_base`` advanced, so the column
    bytes are built once and synthesis is I/O-bound.
    """
    reg = KIND_CODES[DepKind.REG]
    instr = KIND_CODES[DepKind.INSTR]
    offs = [0] + [s for s in range(1, _BLOCK) for _ in range(_FANIN)]
    n = len(offs)
    kind_b = bytes([instr] + [reg] * (n - 1))
    off_b = array("I", offs).tobytes()
    cpc_b = array("H", [(o * 7) % 1000 for o in offs]).tobytes()
    pdelta_b = array("I", [0] + [1] * (n - 1)).tobytes()
    ppc_b = array("H", [0] + [((o - 1) * 7) % 1000 for o in offs[1:]]).tobytes()
    tid_b = array("H", bytes(2 * n)).tobytes()

    sections = (target_rows + n - 1) // n
    writer = SpillWriter(path)
    live = []
    for i in range(sections):
        base = i * _BLOCK
        cid = writer.add_chunk(
            base, n, kind_b, off_b, cpc_b, pdelta_b, ppc_b, tid_b,
            seq_range=(base, base + _BLOCK - 1), pc_range=(0, 999),
        )
        live.append({"id": cid, "head": 0})
    rows = sections * n
    modeled = KIND_MBYTES[instr] * sections + KIND_MBYTES[reg] * (rows - sections)
    writer.close(live, {
        "capacity_bytes": max(modeled, 1),
        "current_bytes": modeled,
        "monotone": True,
        "last_cseq": sections * _BLOCK - 1,
        "rows": rows,
        "stats": {
            "appended": rows, "appended_bytes": modeled,
            "evicted": 0, "evicted_bytes": 0,
            "peak_bytes": modeled, "eviction_passes": 0,
        },
    })
    return rows


def test_trace_lake(benchmark):
    result = benchmark.pedantic(run_lake, rounds=1, iterations=1)

    target_rows = int(os.environ.get("REPRO_BENCH_LAKE_ROWS", 10_000_000))
    fd, path = tempfile.mkstemp(suffix=".rlk", prefix="repro-bench-lake-")
    os.close(fd)
    try:
        rows = _synthesize(path, target_rows)
        t0 = time.perf_counter()
        run = open_spill(path)
        cold_open_ms = (time.perf_counter() - t0) * 1e3
        try:
            ddg = run.ddg()
            last_block = (rows // ((_BLOCK - 1) * _FANIN + 1) - 1) * _BLOCK
            # The newest seq's pc occurs once per block, so its last
            # instance is the last block's newest seq.
            t0 = time.perf_counter()
            crit = ddg.last_instance_of_pc(((_BLOCK - 1) * 7) % 1000)
            cold_resolve_ms = (time.perf_counter() - t0) * 1e3
            assert crit == last_block + _BLOCK - 1
            # The first slice of the opened file decodes only the
            # sections its closure reaches; later memo-cold criteria in
            # the same block reuse those decodes.
            t0 = time.perf_counter()
            sl = backward_slice(ddg, crit)
            cold_slice_ms = (time.perf_counter() - t0) * 1e3
            assert len(sl.seqs) == _BLOCK
            warm_slice_ms = float("inf")
            for crit in range(last_block + _BLOCK - 2, last_block + _BLOCK - 8, -1):
                t0 = time.perf_counter()
                sl = backward_slice(ddg, crit)
                warm_slice_ms = min(
                    warm_slice_ms, (time.perf_counter() - t0) * 1e3
                )
                assert len(sl.seqs) == crit - last_block + 1
        finally:
            run.close()
        file_bytes = os.path.getsize(path)
    finally:
        os.unlink(path)

    result.headline.update({
        "stored_rows": float(rows),
        "stored_file_mb": file_bytes / 2**20,
        "cold_open_ms": cold_open_ms,
        "cold_resolve_ms": cold_resolve_ms,
        "cold_slice_ms": cold_slice_ms,
        "warm_slice_ms": warm_slice_ms,
        "target_cold_slice_ms": TARGET_SLICE_MS,
        "target_warm_slice_ms": TARGET_SLICE_MS,
    })
    report(result)
    headline = result.headline
    assert headline["identical"] == 1.0
    assert headline["spill_overhead"] <= headline["target_spill_overhead"]
    assert headline["diff_localized_families"] >= headline["target_localized_families"]
    assert rows >= target_rows
    assert cold_slice_ms < TARGET_SLICE_MS
    assert warm_slice_ms < TARGET_SLICE_MS
