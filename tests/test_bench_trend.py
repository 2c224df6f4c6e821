"""``tools/bench_trend.py``: one trend entry per commit, and numbers
measured on an uncommitted tree never pass for the commit's own."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_trend.py"
_spec = importlib.util.spec_from_file_location("bench_trend", TOOL)
bench_trend = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trend)

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="requires git")


def _git(root, *args):
    subprocess.run(["git", *args], cwd=root, check=True, capture_output=True)


def _bench(root, value):
    (root / "BENCH_demo.json").write_text(
        json.dumps({"experiment": "demo", "headline": {"speedup": value}})
    )


@pytest.fixture
def repo(tmp_path):
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "config", "user.email", "bench@example.com")
    _git(tmp_path, "config", "user.name", "bench")
    (tmp_path / "code.py").write_text("x = 1\n")
    _bench(tmp_path, 1.0)
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "base")
    return tmp_path


def _run(root):
    out = root / "BENCH_trend.json"
    bench_trend.update_trend(root, out)
    return json.loads(out.read_text())["entries"]


def _speedups(entries):
    return [
        (bool(e.get("dirty")), e["experiments"]["demo"]["headline"]["speedup"])
        for e in entries
    ]


def test_clean_run_writes_one_unmarked_entry(repo):
    _bench(repo, 2.0)  # rewritten bench outputs alone keep the tree clean
    entries = _run(repo)
    assert _speedups(entries) == [(False, 2.0)]
    assert "dirty" not in entries[0]


def test_dirty_run_is_marked_and_keeps_the_clean_entry(repo):
    _run(repo)
    (repo / "code.py").write_text("x = 2\n")
    _bench(repo, 3.0)
    entries = _run(repo)
    assert _speedups(entries) == [(False, 1.0), (True, 3.0)]
    assert entries[0]["commit"] == entries[1]["commit"]
    lines = bench_trend.headline_deltas(entries[0], entries[1])
    assert lines[0].endswith("+ uncommitted changes (dirty)")
    assert "demo.speedup: 1 -> 3 (+2)" in lines


def test_staged_changes_count_as_dirty(repo):
    (repo / "new.py").write_text("y = 1\n")
    _git(repo, "add", "new.py")
    assert bench_trend.tree_is_dirty(repo)


def test_reruns_replace_only_their_own_kind(repo):
    _run(repo)
    (repo / "code.py").write_text("x = 2\n")
    _bench(repo, 3.0)
    _run(repo)
    _bench(repo, 4.0)
    assert _speedups(_run(repo)) == [(False, 1.0), (True, 4.0)]  # dirty rerun
    _git(repo, "checkout", "code.py")
    _bench(repo, 5.0)
    assert _speedups(_run(repo)) == [(False, 5.0), (True, 4.0)]  # clean rerun
