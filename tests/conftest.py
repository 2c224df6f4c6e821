"""Shared fixtures and helpers for the test suite."""

import ast
import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lang import compile_source
from repro.runner import ProgramRunner
from repro.vm import Machine, RunStatus


def compile_and_run(src, inputs=None, scheduler=None, max_instructions=2_000_000, hooks=()):
    """Compile MiniC, run it, return (machine, result, compiled)."""
    cp = compile_source(src)
    m = Machine(cp.program, scheduler=scheduler)
    for chan, values in (inputs or {}).items():
        m.io.provide(chan, values)
    for hook in hooks:
        m.hooks.subscribe(hook)
    res = m.run(max_instructions=max_instructions)
    return m, res, cp


def runner_for(src, inputs=None, scheduler_factory=None, max_instructions=2_000_000):
    """Compile MiniC into a reproducible ProgramRunner; returns (runner, compiled)."""
    cp = compile_source(src)
    runner = ProgramRunner(
        cp.program,
        inputs={k: list(v) for k, v in (inputs or {}).items()},
        scheduler_factory=scheduler_factory,
        max_instructions=max_instructions,
    )
    return runner, cp


def numpy_modules_loaded_by(child: str) -> list[str]:
    """Run ``child`` (dedented Python source) in a fresh interpreter with
    ``src`` on its path; return the first few numpy modules it left in
    ``sys.modules`` (empty when it never imported numpy)."""
    probe = textwrap.dedent(child) + (
        "\nimport sys as _sys\n"
        "print(sorted(m for m in _sys.modules if m.split('.')[0] == 'numpy')[:5])\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return ast.literal_eval(out.stdout.strip().splitlines()[-1])


@pytest.fixture
def minic():
    return compile_and_run


@pytest.fixture
def server_factory(tmp_path):
    """Start analysis daemons, all stopped at teardown.

    ``server_factory(**config)`` takes :class:`~repro.service.ServiceConfig`
    fields; without a ``port`` it binds a fresh Unix socket under
    ``tmp_path``, and flight-recorder dumps land in ``tmp_path / "obs"``.
    """
    from repro.service import AsyncAnalysisServer, ServiceConfig

    servers = []
    counter = itertools.count(1)

    def start(**kwargs) -> AsyncAnalysisServer:
        if "port" not in kwargs:
            kwargs.setdefault("socket_path", str(tmp_path / f"svc{next(counter)}.sock"))
        kwargs.setdefault("obs_dir", str(tmp_path / "obs"))
        server = AsyncAnalysisServer(ServiceConfig(**kwargs)).start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.stop()
