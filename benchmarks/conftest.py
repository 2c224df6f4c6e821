"""Benchmark-suite configuration.

Every benchmark wraps one experiment runner from
``repro.harness.experiments`` (the same code EXPERIMENTS.md quotes) in
pytest-benchmark, then prints the reproduced table and the
paper-vs-measured headline so `pytest benchmarks/ --benchmark-only -s`
regenerates the paper's evaluation.

Each reported result is also persisted as ``BENCH_<experiment>.json``
(:meth:`ExperimentResult.to_json`: claim, headline, telemetry metrics,
notes and wall time), so runs leave a machine-readable record next to
the human-readable table.  Set ``REPRO_BENCH_REPORT_DIR`` to
redirect the files (default: current working directory).

The repository root is put on ``sys.path`` so a benchmark can import
its test-side oracle (``bench_slicing`` uses ``tests/ddg_oracle.py``)
however pytest was started.
"""

import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def require_numpy():
    """Skip (not fail) array-kernel speedup gates on hosts without
    numpy — the fallback path is correct but cannot beat itself."""
    from repro.dift.kernel import numpy_available

    if not numpy_available():
        pytest.skip("numpy unavailable: array kernel falls back to reference")


def report(result):
    """Print an ExperimentResult's console form and persist its JSON
    form as ``BENCH_<experiment>.json``."""
    print()
    print(result.summary())
    out_dir = Path(os.environ.get("REPRO_BENCH_REPORT_DIR", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{result.experiment}.json"
    with open(path, "w") as fh:
        json.dump(result.to_json(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"bench report: {path}")
