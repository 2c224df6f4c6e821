"""Packed dependence store — slicing wall clock and real residency.

Not a paper claim: the columnar packed store + indexed slicing engine
only change how fast the *host* answers slice queries and how many real
bytes the trace window occupies.  This benchmark traces the E1 ONTRAC
workload suite once, answers an identical criterion batch with the
indexed engine and with the test-side dict oracle
(``tests/ddg_oracle.py``: dicts built from the same stored records,
then breadth-first closures), asserts every slice's (seqs, pcs,
truncated) triple matches, and requires the >=3x query speedup the
indexed engine was built for.  The store's measured (tracemalloc)
residency is held to its recorded figure.  The headline also records
``trace_host_ratio``, the host time of traced over plain runs (the
suite plus the call-heavy family, best of the passes), ungated: what
ONTRAC costs the host rather than the cycle model.
"""

import gc
import time
import tracemalloc

from conftest import report

from repro.harness.experiments import ExperimentResult, experiment
from repro.ontrac import OntracConfig
from repro.slicing import DEFAULT_KINDS, backward_slice
from repro.telemetry import MetricsRegistry
from repro.workloads import call_heavy_suite, suite
from tests.ddg_oracle import OracleDDG

#: the store's recorded residency (42.6 B/instr measured on CPython
#: 3.11, x86-64) plus 5% headroom; tracemalloc counts are deterministic
#: for one interpreter build, so this catches layout growth, not noise.
MAX_PACKED_BYTES_PER_INSTR = 42.6 * 1.05


@experiment(
    "slicing",
    claim=(
        "packed columnar store: >=3x backward slicing over the dict "
        "oracle + BFS on the same records, slices bit-identical"
    ),
    commentary=(
        "Another wall-clock experiment: over the same traced records, the "
        "packed store's indexed engine answers the criterion batch >=3x "
        "faster than the test-side dict oracle plus its BFS (which must "
        "build one node entry + edge-list entry per record before its "
        "first query), with every slice's (seqs, pcs, truncated) asserted "
        "identical. "
        "The headline separates the paper's *modeled* bytes/instruction "
        "(the wire format ONTRAC accounts, ~3.7 B/instr here) from the "
        "*measured* tracemalloc bytes the store actually occupies: the "
        "15-byte column rows land within ~12x of the modeled figure "
        "(allocator-granular chunks, consumer index included), held at "
        "their recorded ~42.6 B/instr (+5%) by bench_slicing — real "
        "memory is the resource E3 trades for history."
    ),
    register=False,
)
def run_slicing(scale: int = 1, repeats: int = 3) -> ExperimentResult:
    """Backward-slicing wall clock and measured trace-store residency of
    the packed columnar store + indexed engine, against the dict oracle
    over the same records.

    Every suite workload is traced once; both sides answer the same
    deterministic criterion batch — a spread of dynamic instances, each
    queried twice, the fault-localization access pattern the closure
    memo exists for.  Every slice's (seqs, pcs, truncated) triple is
    asserted equal between the sides, so the speedup column can never
    hide a semantic difference.  The timed region is graph construction
    plus the query batch: that is what `slice`/fault-localization
    callers actually pay, and it is where a dict graph loses (one node
    entry and edge-list entry per record before the first query).

    Residency is measured, not modeled: tracemalloc's traced delta from
    freeing the column chunks after a run — the implementation-metric
    counterpart to the paper's modeled ``bytes_per_instruction`` (see
    EXPERIMENTS.md).
    """
    result = ExperimentResult(
        headers=["workload", "dict BFS s", "packed s", "speedup", "identical"]
    )
    n_criteria = 24

    def criteria_of(ddg):
        seqs = sorted(s for s, _ in ddg.node_items())
        if len(seqs) > n_criteria:
            step = len(seqs) // n_criteria
            picked = seqs[::step][:n_criteria]
        else:
            picked = list(seqs)
        return picked + picked  # repeated criteria exercise the memo

    def packed_pass(tracer, crits):
        ddg = tracer.dependence_graph()
        states = []
        for c in crits:
            s = backward_slice(ddg, c)
            states.append((c, s.seqs, s.pcs, s.truncated))
        return states, ddg

    def oracle_pass(tracer, crits):
        oracle = OracleDDG.of(tracer.buffer)
        return [(c, *oracle.backward_slice(c, DEFAULT_KINDS)) for c in crits], oracle

    def timed(slice_pass, tracer, crits):
        """One timed graph-construction + query batch; returns the
        elapsed time, the comparable slice states, and the graph."""
        t0 = time.perf_counter()
        states, graph = slice_pass(tracer, crits)
        elapsed = time.perf_counter() - t0
        states = [(c, tuple(sorted(seqs)), tuple(sorted(pcs)), trunc)
                  for c, seqs, pcs, trunc in states]
        return elapsed, states, graph

    def resident_store_bytes(w):
        """tracemalloc delta from freeing the trace store post-run."""
        gc.collect()
        tracemalloc.start()
        _, tracer, _ = w.runner().run_traced(OntracConfig())
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        tracer.buffer.release()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        return max(before - after, 1), max(tracer.stats.instructions, 1)

    def trace_host_ratio(workloads):
        """Host time of traced runs over plain runs of ``workloads``,
        each side its best of ``repeats`` interleaved passes."""
        best_plain = best_traced = float("inf")
        for _ in range(repeats):
            gc.collect()
            t0 = time.perf_counter()
            for w in workloads:
                w.runner().run()
            t1 = time.perf_counter()
            for w in workloads:
                w.runner().run_traced(OntracConfig())
            t2 = time.perf_counter()
            best_plain = min(best_plain, t1 - t0)
            best_traced = min(best_traced, t2 - t1)
        return best_traced / best_plain

    registry = MetricsRegistry()
    dict_total = packed_total = 0.0
    packed_resident = 0
    instructions_total = 0
    modeled_bytes = 0
    all_identical = True
    for w in suite(scale):
        _, tracer, _ = w.runner().run_traced(OntracConfig())
        # The criterion batch is picked outside the timed region (it is
        # workload state, not slicing work).
        crits = criteria_of(tracer.dependence_graph())
        best_dict = best_packed = float("inf")
        dict_states = packed_states = None
        packed_ddg = None
        for _ in range(repeats):
            elapsed, states, _ = timed(oracle_pass, tracer, crits)
            if elapsed < best_dict:
                best_dict, dict_states = elapsed, states
            elapsed, states, ddg = timed(packed_pass, tracer, crits)
            if elapsed < best_packed:
                best_packed, packed_states = elapsed, states
                packed_ddg = ddg
        identical = dict_states == packed_states
        all_identical = all_identical and identical
        dict_total += best_dict
        packed_total += best_packed
        result.rows.append(
            [w.name, best_dict, best_packed, best_dict / best_packed, identical]
        )
        packed_ddg.publish_telemetry(registry)
        tracer.publish_telemetry(registry)
        modeled_bytes += tracer.stats.stored_bytes
        resident, instrs = resident_store_bytes(w)
        packed_resident += resident
        instructions_total += instrs
    result.rows.append(
        ["suite pass", dict_total, packed_total, dict_total / packed_total, ""]
    )
    if not all_identical:
        result.notes = "SLICE MISMATCH — indexed engine diverged from the dict oracle"
    result.headline = {
        "slice_speedup": dict_total / packed_total,
        "target_speedup": 3.0,
        "identical": float(all_identical),
        # paper metric (modeled wire bytes) vs implementation metric
        # (measured resident store bytes) at the same window.
        "modeled_bytes_per_instr": modeled_bytes / instructions_total,
        "measured_packed_bytes_per_instr": packed_resident / instructions_total,
        # what tracing costs the host, not the model: traced over plain
        # wall time on the suite and the call-heavy family (ungated).
        "trace_host_ratio": trace_host_ratio(suite(scale) + call_heavy_suite(scale)),
    }
    result.metrics = registry.flat()
    return result


def test_packed_slicing(benchmark):
    result = benchmark.pedantic(run_slicing, rounds=1, iterations=1)
    report(result)
    assert result.headline["identical"] == 1.0
    assert result.headline["slice_speedup"] >= result.headline["target_speedup"]
    assert result.headline["measured_packed_bytes_per_instr"] <= MAX_PACKED_BYTES_PER_INSTR
    # The introspection counters prove the indexed engine actually ran:
    # repeated criteria must hit the closure memo, and the tracer must
    # have appended into packed column chunks.
    assert result.metrics["slicing.queries"] > 0
    assert result.metrics["slicing.memo_hits"] > 0
    assert result.metrics["slicing.rows_scanned"] > 0
    assert result.metrics["ontrac.store.chunks"] > 0
