"""Unit tests for the command-line interface."""

import pytest

from repro.cli import _parse_inputs, main


@pytest.fixture
def demo(tmp_path):
    path = tmp_path / "demo.mc"
    path.write_text(
        "fn main() {\n"
        "    var a = in(0);\n"
        "    var b = in(0);\n"
        "    var bad = a + a;\n"
        "    out(a + b, 1);\n"
        "    out(bad, 1);\n"
        "}\n"
    )
    return str(path)


@pytest.fixture
def vulnerable(tmp_path):
    path = tmp_path / "vuln.mc"
    path.write_text(
        "fn safe(x) { out(1, 1); }\n"
        "fn admin(x) { out(2, 1); }\n"
        "fn main() {\n"
        "    var fp = alloc(1);\n"
        "    fp[0] = in(0);\n"
        "    icall(fp[0], 0);\n"
        "}\n"
    )
    return str(path)


class TestParseInputs:
    def test_single_channel(self):
        assert _parse_inputs(["0=1,2,3"]) == {0: [1, 2, 3]}

    def test_multiple_and_repeated(self):
        assert _parse_inputs(["0=1", "3=9,8", "0=2"]) == {0: [1, 2], 3: [9, 8]}

    def test_negative_values(self):
        assert _parse_inputs(["0=-1,-2"]) == {0: [-1, -2]}

    def test_empty(self):
        assert _parse_inputs([]) == {}
        assert _parse_inputs(None) == {}


class TestCommands:
    def test_run(self, demo, capsys):
        code = main(["run", demo, "--input", "0=3,4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: exited" in out
        assert "out[1]: [7, 6]" in out

    def test_run_failure_exit_code(self, tmp_path, capsys):
        path = tmp_path / "f.mc"
        path.write_text("fn main() { fail(1); }\n")
        assert main(["run", str(path)]) == 1
        assert "failure" in capsys.readouterr().out

    def test_disasm(self, demo, capsys):
        assert main(["disasm", demo]) == 0
        out = capsys.readouterr().out
        assert ".func main" in out and "icall" not in out

    def test_trace(self, demo, capsys):
        assert main(["trace", demo, "--input", "0=3,4"]) == 0
        out = capsys.readouterr().out
        assert "B/instr" in out
        assert "DDG:" in out

    def test_trace_naive_stores_more(self, demo, capsys):
        main(["trace", demo, "--input", "0=3,4"])
        optimized = capsys.readouterr().out
        main(["trace", demo, "--input", "0=3,4", "--naive"])
        naive = capsys.readouterr().out

        def rate(text):
            for line in text.splitlines():
                if "B/instr" in line:
                    return float(line.split("(")[1].split()[0])
            raise AssertionError(text)

        assert rate(naive) > rate(optimized)

    def test_slice(self, demo, capsys):
        assert main(["slice", demo, "--input", "0=3,4", "--line", "6"]) == 0
        out = capsys.readouterr().out
        assert "line   4" in out  # the producer of 'bad'
        assert "line   3" not in out  # unrelated input b

    def test_slice_unknown_line(self, demo, capsys):
        assert main(["slice", demo, "--input", "0=3,4", "--line", "99"]) == 2

    def test_attack_clean(self, demo, capsys):
        # no indirect calls, no tainted sinks: the monitor stays quiet
        assert main(["attack", demo, "--input", "0=3,4"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_attack_flags_input_derived_pointer_even_when_benign(self, vulnerable, capsys):
        # the pointer is ALWAYS input-derived in this program: classic
        # DIFT flags it regardless of the value — faithful semantics
        assert main(["attack", vulnerable, "--input", "0=0"]) == 1

    def test_attack_detected_with_root_cause(self, vulnerable, capsys):
        assert main(["attack", vulnerable, "--input", "0=1"]) == 1
        out = capsys.readouterr().out
        assert "ATTACK DETECTED" in out
        assert "root cause: line 5" in out  # fp[0] = in(0)

    def test_compile_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.mc"
        path.write_text("fn main() { x = ; }\n")
        assert main(["run", str(path)]) == 2
        assert "compile error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent.mc"]) == 2

    def test_trace_missing_file(self, capsys):
        assert main(["trace", "/nonexistent.mc"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_slice_missing_file(self, capsys):
        assert main(["slice", "/nonexistent.mc", "--line", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_experiments_unknown_id(self, capsys):
        assert main(["experiments", "E99"]) == 2

    def test_experiments_single(self, capsys):
        assert main(["experiments", "E7"]) == 0
        out = capsys.readouterr().out
        assert "E7" in out and "verifications" in out


class TestErrorHandling:
    """Bad arguments exit non-zero with a one-line message, never a traceback."""

    def test_bad_input_value_is_one_line_error(self, demo, capsys):
        assert main(["run", demo, "--input", "0=abc"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_bad_input_channel_is_one_line_error(self, demo, capsys):
        assert main(["trace", demo, "--input", "ch=1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_unknown_experiment_is_one_line_error(self, capsys):
        from repro.harness import EXPERIMENTS

        assert main(["experiments", "E1", "NOPE"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown experiment NOPE (known: ")
        assert err.count("\n") == 1
        # The message names every declared id.
        known = err[err.index("known: ") + len("known: "):err.rindex(")")]
        assert known.split(", ") == list(EXPERIMENTS)

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2


class TestServiceVerbs:
    def test_serve_needs_exactly_one_transport(self, capsys):
        assert main(["serve"]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert main(["serve", "--socket", "/tmp/x.sock", "--port", "1"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_submit_needs_exactly_one_program(self, capsys):
        assert main(["submit", "trace", "--connect", "/tmp/x.sock"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_submit_rejects_bad_params_json(self, capsys):
        code = main(["submit", "trace", "--connect", "/tmp/x.sock",
                     "--workload", "matmul", "--params", "{not json"])
        assert code == 2
        assert "--params" in capsys.readouterr().err

    def test_submit_connect_failure_is_one_line_error(self, tmp_path, capsys):
        code = main(["submit", "health",
                     "--connect", str(tmp_path / "nothing.sock")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot connect")

    def test_serve_submit_roundtrip(self, server_factory, capsys):
        """In-process daemon + CLI submit: the CI smoke job's core path."""
        import json

        server = server_factory(workers=1)
        code = main(["submit", "trace", "--connect", server.config.address(),
                     "--workload", "matmul", "--fidelity", "log"])
        out = capsys.readouterr().out
        assert code == 0
        response = json.loads(out)
        assert response["status"] == "ok"
        assert response["result"]["fidelity"] == "log"


class TestEntryPoint:
    def test_console_script_points_at_cli_main(self):
        import tomllib
        from pathlib import Path

        import repro.cli

        pyproject = Path(repro.cli.__file__).parents[2] / "pyproject.toml"
        data = tomllib.loads(pyproject.read_text())
        target = data["project"]["scripts"]["repro"]
        module_name, _, attr = target.partition(":")
        assert module_name == "repro.cli"
        assert getattr(repro.cli, attr) is main

    def test_python_m_repro_smoke(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(main.__code__.co_filename).parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0
        for verb in ("run", "trace", "slice", "attack", "serve", "submit"):
            assert verb in proc.stdout


class TestTelemetryOutputs:
    def test_run_report_matches_stdout_totals(self, demo, tmp_path, capsys):
        import json

        from repro.telemetry import validate_report

        report_path = tmp_path / "rep.json"
        assert main(["run", demo, "--input", "0=3,4", "--report", str(report_path)]) == 0
        out = capsys.readouterr().out
        data = json.loads(report_path.read_text())
        validate_report(data)
        assert f"instructions: {data['instructions']}" in out
        assert f"cycles: {data['total_cycles']}" in out
        assert data["tool"] == "run"
        assert data["metrics"]["counters"]["vm.instructions"] == data["instructions"]

    def test_trace_writes_chrome_trace(self, demo, tmp_path, capsys):
        import json

        from repro.telemetry import validate_chrome_trace

        trace_path = tmp_path / "trace.json"
        assert main(["trace", demo, "--input", "0=3,4", "--trace", str(trace_path)]) == 0
        trace = json.loads(trace_path.read_text())
        validate_chrome_trace(trace)
        names = [e["name"] for e in trace["traceEvents"]]
        assert "vm.run" in names

    def test_attack_report_counts_alerts(self, vulnerable, tmp_path, capsys):
        import json

        report_path = tmp_path / "rep.json"
        assert main(
            ["attack", vulnerable, "--input", "0=1", "--report", str(report_path)]
        ) == 1
        data = json.loads(report_path.read_text())
        assert data["extra"]["alerts"] == 1
        assert data["metrics"]["counters"]["dift.alerts"] == 1

    def test_experiments_report(self, tmp_path, capsys):
        import json

        report_path = tmp_path / "exp.json"
        assert main(["experiments", "E7", "--report", str(report_path)]) == 0
        data = json.loads(report_path.read_text())
        assert data[0]["experiment"] == "E7"
        assert data[0]["metrics"]["slicing.verification_runs"] >= 1
