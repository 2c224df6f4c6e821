"""Regenerate EXPERIMENTS.md by running every declared experiment.

The sections follow `repro.harness.experiments.EXPERIMENTS` in
declaration order: the paper's E1..E12, then the wall-clock
experiments.  Each section prints the experiment's declared claim,
its result table, headline and telemetry, its declared commentary
and its host wall-clock time.  `benchmarks/bench_slicing.py` declares
`slicing` outside the registry (its baseline is the test-side dict
oracle `tests/ddg_oracle.py`, which the CLI cannot import), so it is
rendered as one extra section after the registry's.

Usage: python tools/generate_experiments_md.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks"), str(ROOT)]

from repro.harness.experiments import EXPERIMENTS, Experiment  # noqa: E402

HEADER = """# EXPERIMENTS — paper vs. measured

Generated by `python tools/generate_experiments_md.py` (every table below
is produced by the same `repro.harness.experiments` runners the
`benchmarks/` suite wraps; regenerate after any change).

The paper's evaluation is a set of in-text quantitative claims rather
than numbered tables/figures; DESIGN.md §4 maps each claim to an
experiment id. Our substrate is a deterministic interpreter with a
cycle cost model, not the authors' 2008 testbed, so **absolute numbers
are not comparable; shapes, orderings and ratio structure are** — each
experiment's assertions (see `benchmarks/`) encode exactly the shape
that must hold.

Each section also quotes a **Telemetry** line: counters/gauges from the
unified metrics registry (`repro.telemetry`), the same snapshot
`python -m repro experiments <id> --report out.json` serializes.

**Wall-clock vs modeled cycles.** Every number in E1–E12 is in *modeled
cycles* from the deterministic cost model — the currency in which the
paper's slowdowns and ratios are reproduced. Host wall-clock time is
*not* part of those claims: the fast execution path (the array
propagation kernel, the default for the bool and PC policies) makes the
simulator itself faster without moving a single modeled number, and
the differential suite holds each fast implementation to its reference (bit-identical cycle counts, record
streams and taint sets). Each section's **Wall-clock** line reports how long the
host took to run that experiment (also serialized as `wall_time_s` in
`--report` output) so the modeled and host costs sit side by side.
{count} experiments deal in wall-clock (and real bytes) on purpose, each
in its own section below the paper's: {ids}.

"""


def render(experiments: list[Experiment]) -> str:
    """Run ``experiments`` in order; return EXPERIMENTS.md's text."""
    wall_clock = [e.id for e in experiments if not e.paper]
    sections = [HEADER.format(
        count=len(wall_clock), ids=", ".join(f"`{i}`" for i in wall_clock)
    )]
    for exp in experiments:
        result = exp.run()
        sections.append(f"## {exp.id} — {exp.claim}\n")
        sections.append("```")
        sections.append(result.table())
        sections.append("```")
        if result.notes:
            sections.append(f"\n*{result.notes}*")
        headline = ", ".join(f"{k} = {v:.3g}" for k, v in result.headline.items())
        sections.append(f"\n**Headline:** {headline}")
        if result.metrics:
            shown = list(result.metrics.items())[:10]
            metrics = ", ".join(f"`{k}` = {v:.6g}" for k, v in shown)
            more = len(result.metrics) - len(shown)
            # The CLI runs exactly the registry's experiments.
            if exp.id in EXPERIMENTS:
                more_via = f"`experiments {exp.id} --report`"
            else:
                more_via = f"`BENCH_{exp.id}.json`"
            suffix = f" (+{more} more via {more_via})" if more else ""
            sections.append(f"\n**Telemetry:** {metrics}{suffix}")
        sections.append(f"\n{exp.commentary}")
        sections.append(f"\n**Wall-clock:** {result.wall_time_s:.1f} s on this host\n")
        print(f"{exp.id} done in {result.wall_time_s:.1f}s")
    return "\n".join(sections)


def main() -> None:
    from bench_slicing import run_slicing

    out = ROOT / "EXPERIMENTS.md"
    out.write_text(render([*EXPERIMENTS.values(), run_slicing.declaration]))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
