"""Analysis service — throughput scaling, overload shedding, cache hits.

Wraps :func:`repro.harness.experiments.run_service`, which stands up
real daemons on Unix sockets and measures three things the service
subsystem promises:

* **Worker scaling** — the same cache-defeating job mix against a
  1-worker and a 4-worker daemon.  Job execution is process-per-worker,
  so with >=2 usable CPUs the 4-worker daemon must clear >=1.5x the
  1-worker throughput; on one CPU the workers time-share a core and the
  ratio is only recorded (the same gating as the experiment fan-out
  in ``bench_parallel``).
* **Overload** — a burst of 2.5x the admission capacity against one
  worker.  The invariant asserted is the paper's logging/replay split
  as live policy: every request gets an answer (zero hangs, zero
  crashes), overload degrades fidelity first and REJECTs only at the
  capacity wall.
* **Cache idempotency** — a repeated slice job must be served from
  cache, byte-identical to the cold result, and >=5x faster.

The overload daemon also reports its latency SLO (p50/p95/p99 from the
``service.latency.total_s`` histogram plus shed rate) — the same
numbers a production ``repro stats`` scrape derives.  The experiment
runs with observability at its default; the obs layer must not change
the shedding outcome (with ``ServiceConfig(observe=False)`` the same
gates hold — the hooks are no-op attribute loads off the hot path, and
only explicitly traced jobs ship spans).

The merged result lands in ``BENCH_service.json``.
"""

from conftest import report

from repro.harness.experiments import run_service


def test_service(benchmark):
    result = benchmark.pedantic(
        lambda: run_service(jobs=12, scale=2), rounds=1, iterations=1
    )
    report(result)

    # Never-hang is the hard contract, regardless of host shape.
    assert result.headline["overload_hangs"] == 0.0
    # The burst must be fully accounted for: every job answered with a
    # definite status, shedding via degraded/rejected rather than crashes.
    answered = (
        result.headline["overload_ok"]
        + result.headline["overload_degraded"]
        + result.headline["overload_rejected"]
    )
    assert answered == 10.0
    # Overload at 2.5x capacity must actually shed something.
    assert result.headline["overload_degraded"] + result.headline["overload_rejected"] > 0

    # The SLO rollup must be derivable from the daemon's own histogram:
    # completed jobs imply a real latency distribution, and the shed
    # rate must agree with the response counts above.
    assert result.headline["slo_p50_ms"] > 0.0
    assert result.headline["slo_p50_ms"] <= result.headline["slo_p95_ms"]
    assert result.headline["slo_p95_ms"] <= result.headline["slo_p99_ms"]
    # shed rate counts fidelity shedding (degraded), not capacity rejects
    assert result.headline["shed_rate"] == result.headline["overload_degraded"] / 10.0

    # Cached repeats: bit-identical and >=5x faster than the cold run.
    assert result.headline["cache_identical"] == 1.0
    assert result.headline["cache_speedup"] >= 5.0

    # Throughput scaling is host-dependent: with one usable CPU the four
    # workers time-share a core, so the ratio is only recorded.
    if result.headline["usable_cpus"] >= 2:
        assert result.headline["worker_scaling"] >= 1.5
