"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run FILE``          — compile & execute a MiniC program
* ``disasm FILE``       — compile and print the mini-ISA disassembly
* ``trace FILE``        — execute under ONTRAC; print tracing statistics
* ``slice FILE --line N`` — trace, then backward-slice the last dynamic
  instance of source line N; print the slice as source lines
* ``attack FILE``       — execute under the DIFT attack monitor
* ``experiments [IDS]`` — run declared experiments (default: the paper's)
* ``serve``             — run the analysis service daemon (one event
  loop, coroutine per connection, streamed partial results)
* ``route``             — run the consistent-hash router over N daemons
* ``submit KIND``       — submit one job (or stats/health/shutdown, or
  the router's drain/undrain) to a running daemon/router and print the
  JSON response (``--stream`` for incremental partial frames)
* ``stats``             — scrape a running daemon's live metrics
  (Prometheus text by default, ``--json`` for the snapshot series,
  ``--dump`` to force a flight-recorder artifact)
* ``lake ls|info|slice|diff|gc`` — query the persistent trace lake:
  list stored runs, postmortem one run, slice it without re-executing,
  diff a failing run's dependence edges against passing runs, and
  apply retention/compaction (``trace --lake`` records runs)

Inputs are passed as ``--input CH=V1,V2,...`` (repeatable).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .dift.engine import DIFTEngine, SinkRule
from .dift.policy import BoolTaintPolicy, PCTaintPolicy
from .lang import CompileError, compile_source
from .ontrac import OnlineTracer, OntracConfig
from .runner import ProgramRunner
from .slicing import backward_slice
from .telemetry import NULL_TELEMETRY, Telemetry, build_report
from .vm import Machine


def _telemetry(args) -> Telemetry:
    """Enabled telemetry iff the user asked for a report or a trace."""
    if getattr(args, "report", None) or getattr(args, "trace", None):
        return Telemetry.on()
    return NULL_TELEMETRY


def _write_outputs(args, telemetry: Telemetry, tool: str, result, extra: dict | None = None) -> None:
    """Write --report / --trace files for one finished run."""
    if getattr(args, "report", None):
        report = build_report(tool, result, telemetry.registry, extra=extra)
        report.write(args.report)
        print(f"report written to {args.report}", file=sys.stderr)
    if getattr(args, "trace", None):
        telemetry.tracer.write(args.trace)
        print(f"chrome trace written to {args.trace} (open in Perfetto)", file=sys.stderr)


def _parse_inputs(pairs: list[str]) -> dict[int, list[int]]:
    inputs: dict[int, list[int]] = {}
    for pair in pairs or []:
        channel_text, _, values_text = pair.partition("=")
        channel = int(channel_text)
        values = [int(v) for v in values_text.split(",") if v != ""]
        inputs.setdefault(channel, []).extend(values)
    return inputs


def _load(path: str):
    source = Path(path).read_text()
    return compile_source(source), source


def cmd_run(args) -> int:
    compiled, _ = _load(args.file)
    telemetry = _telemetry(args)
    machine = Machine(compiled.program, telemetry=telemetry)
    for channel, values in _parse_inputs(args.input).items():
        machine.io.provide(channel, values)
    result = machine.run(max_instructions=args.max_instructions)
    print(f"status: {result.status.value}")
    if result.failure:
        print(f"failure: {result.failure}")
    print(f"instructions: {result.instructions}")
    print(f"cycles: {result.cycles.total}")
    for channel in sorted(machine.io.outputs):
        print(f"out[{channel}]: {machine.io.output(channel)}")
    _write_outputs(args, telemetry, "run", result)
    return 1 if result.failed else 0


def cmd_disasm(args) -> int:
    compiled, _ = _load(args.file)
    sys.stdout.write(compiled.program.disassemble())
    return 0


def cmd_trace(args) -> int:
    compiled, source = _load(args.file)
    telemetry = _telemetry(args)
    inputs = _parse_inputs(args.input)
    runner = ProgramRunner(
        compiled.program,
        inputs=inputs,
        max_instructions=args.max_instructions,
        telemetry=telemetry,
    )
    config = (
        OntracConfig.unoptimized(buffer_bytes=args.buffer)
        if args.naive
        else OntracConfig(buffer_bytes=args.buffer)
    )
    pending = None
    if args.lake:
        from .lake import TraceLake, input_hash, program_hash

        lake = TraceLake(args.lake_root)
        pending = lake.begin_run(
            program=program_hash(source),
            input_hash=input_hash(inputs),
            seed=args.seed,
        )
        config.spill_path = pending.spill_path
    machine, tracer, result = runner.run_traced(config)
    if pending is not None:
        run_id = pending.finish(
            tracer=tracer,
            compiled=compiled,
            registry=telemetry.registry if telemetry.enabled else None,
        )
        print(f"lake run: {run_id}")
    stats = tracer.stats
    print(f"status: {result.status.value}")
    print(f"instructions: {stats.instructions}")
    print(f"stored bytes: {stats.stored_bytes} ({stats.bytes_per_instruction:.2f} B/instr)")
    print(f"slowdown (cycle model): {result.cycles.slowdown:.1f}x")
    print(f"history window: {tracer.buffer.window_instructions()} instructions")
    if stats.skipped:
        print("optimization hits:")
        for reason, count in sorted(stats.skipped.items()):
            print(f"  {reason}: {count}")
    ddg_stats = tracer.dependence_graph().stats()
    print(f"DDG: {ddg_stats}")
    _write_outputs(
        args, telemetry, "trace",
        result, extra={"bytes_per_instruction": stats.bytes_per_instruction},
    )
    return 0


def cmd_slice(args) -> int:
    compiled, source = _load(args.file)
    telemetry = _telemetry(args)
    runner = ProgramRunner(
        compiled.program,
        inputs=_parse_inputs(args.input),
        max_instructions=args.max_instructions,
        telemetry=telemetry,
    )
    _, tracer, result = runner.run_traced(OntracConfig(buffer_bytes=args.buffer))
    ddg = tracer.dependence_graph()
    pcs = compiled.pcs_of_line(args.line)
    if not pcs:
        print(f"error: no code generated for line {args.line}", file=sys.stderr)
        return 2
    criterion = None
    for pc in sorted(pcs, reverse=True):
        criterion = ddg.last_instance_of_pc(pc)
        if criterion is not None:
            break
    if criterion is None:
        print(f"error: line {args.line} never executed in the window", file=sys.stderr)
        return 2
    sl = backward_slice(ddg, criterion)
    # Surface the indexed engine's query counters (slicing.queries, memo
    # hits, rows scanned) in --report.
    ddg.publish_telemetry(telemetry.registry)
    lines = sorted(sl.statement_lines(compiled))
    print(f"criterion: line {args.line} (dynamic instance seq {criterion})")
    print(f"slice: {len(sl.seqs)} dynamic instances, {len(lines)} source lines"
          + (" [TRUNCATED at window edge]" if sl.truncated else ""))
    source_lines = source.splitlines()
    for line in lines:
        text = source_lines[line - 1].strip() if line <= len(source_lines) else "?"
        print(f"  line {line:3d}: {text}")
    _write_outputs(
        args, telemetry, "slice", result,
        extra={
            "criterion_line": args.line,
            "criterion_seq": criterion,
            "slice_instances": len(sl.seqs),
            "slice_lines": lines,
            "truncated": sl.truncated,
        },
    )
    return 0


def cmd_attack(args) -> int:
    compiled, source = _load(args.file)
    telemetry = _telemetry(args)
    machine = Machine(compiled.program, telemetry=telemetry)
    for channel, values in _parse_inputs(args.input).items():
        machine.io.provide(channel, values)
    policy = PCTaintPolicy() if args.policy == "pc" else BoolTaintPolicy()
    sinks = [SinkRule(kind="icall"), SinkRule(kind="out", channels=None)] \
        if args.out_sink else [SinkRule(kind="icall")]
    if args.parallel_helper:
        from .multicore.parallel import ParallelHelperDIFT

        engine = ParallelHelperDIFT(
            policy, sinks=sinks, batch_size=args.batch_size
        ).attach(machine)
    else:
        engine = DIFTEngine(policy, sinks=sinks).attach(machine)
    result = machine.run(max_instructions=args.max_instructions)
    if args.parallel_helper:
        # Detection is asynchronous on the worker: the guest has already
        # finished by the time the helper's verdict lands (the paper's
        # helper-core lag), but alerts and taint are the inline engine's.
        report = engine.finish()
        if report.attack is not None:
            print(f"helper core flagged the run: {report.attack}", file=sys.stderr)
    if telemetry.enabled:
        engine.publish_telemetry(telemetry.registry)
    _write_outputs(
        args, telemetry, "attack", result,
        extra={"policy": args.policy, "alerts": len(engine.alerts)},
    )
    if engine.alerts:
        alert = engine.alerts[0]
        print(f"ATTACK DETECTED: {alert}")
        if args.policy == "pc":
            line = compiled.line_of(alert.label)
            source_lines = source.splitlines()
            text = source_lines[line - 1].strip() if 0 < line <= len(source_lines) else "?"
            print(f"root cause: line {line}: {text}")
        return 1
    print(f"clean: {result.status.value}, output {machine.io.output(1)}")
    return 0


def cmd_experiments(args) -> int:
    import json

    from .harness import EXPERIMENTS, run_all

    unknown = [name for name in args.ids if name not in EXPERIMENTS]
    if unknown:
        print(
            f"error: unknown experiment {', '.join(unknown)}"
            f" (known: {', '.join(EXPERIMENTS)})",
            file=sys.stderr,
        )
        return 2
    results = run_all(args.ids, workers=args.workers, timeout_s=args.timeout)
    for result in results:
        print(result.summary())
        print()
    if getattr(args, "report", None):
        with open(args.report, "w") as fh:
            json.dump([r.to_json() for r in results], fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.report}", file=sys.stderr)
    return 0


def _run_front_door(server_cls, config, banner: str, farewell: str) -> int:
    """Start a daemon or router, print ``banner`` (its ``{address}``
    filled in), serve until a ``shutdown`` request or Ctrl-C."""
    try:
        server = server_cls(config).start()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Printed after bind so an ephemeral --port 0 shows the real port.
    print(banner.format(address=config.address()), flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    print(farewell, flush=True)
    return 0


def cmd_serve(args) -> int:
    from .service import AsyncAnalysisServer, ServiceConfig

    config = ServiceConfig(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        default_deadline_s=args.deadline,
        cache_entries=args.cache_entries,
        degrade=not args.no_degrade,
        allow_chaos=args.allow_chaos,
        observe=not args.no_observe,
        obs_dir=args.obs_dir,
        sample_interval_s=args.sample_interval,
    )
    return _run_front_door(
        AsyncAnalysisServer, config,
        f"serving on {{address}} (workers={config.workers}, "
        f"capacity={config.queue_capacity})",
        "service stopped",
    )


def cmd_route(args) -> int:
    from .service import RouterConfig, RouterServer

    config = RouterConfig(
        backends=list(args.backends),
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        vnodes=args.vnodes,
        health_interval_s=args.health_interval,
        retries=args.retries,
        cache_entries=args.cache_entries,
        default_deadline_s=args.deadline,
        observe=not args.no_observe,
        obs_dir=args.obs_dir,
    )
    return _run_front_door(
        RouterServer, config,
        f"routing on {{address}} ({len(config.backends)} backends, "
        f"vnodes={config.vnodes})",
        "router stopped",
    )


def cmd_submit(args) -> int:
    import json

    from .service import STATUS_DEGRADED, STATUS_OK, STATUS_REJECTED, ServiceClient, ServiceError

    params: dict = {}
    if args.params:
        try:
            params = json.loads(args.params)
        except json.JSONDecodeError as exc:
            print(f"error: --params is not valid JSON: {exc}", file=sys.stderr)
            return 2
        if not isinstance(params, dict):
            print("error: --params must be a JSON object", file=sys.stderr)
            return 2
    if args.line is not None:
        params["line"] = args.line
    is_job = args.kind not in ("stats", "health", "shutdown", "drain", "undrain")
    if is_job and args.kind != "chaos" and (args.workload is None) == (args.file is None):
        print("error: submit needs exactly one of --workload or --file", file=sys.stderr)
        return 2
    if args.kind in ("drain", "undrain") and not args.backend:
        print(f"error: {args.kind} needs --backend ADDR", file=sys.stderr)
        return 2
    source = Path(args.file).read_text() if is_job and args.file else None

    try:
        with ServiceClient(args.connect, timeout_s=args.timeout) as client:
            if args.kind in ("stats", "health"):
                response = client.request({"kind": args.kind})
            elif args.kind in ("drain", "undrain"):
                response = client.request(
                    {"kind": args.kind, "backend": args.backend}
                )
            elif args.kind == "shutdown":
                response = client.shutdown()
            elif args.trace:
                response, _ = client.submit_traced(
                    args.kind,
                    trace_path=args.trace,
                    workload=args.workload,
                    scale=args.scale,
                    source=source,
                    fidelity=args.fidelity,
                    params=params or None,
                    cache=not args.no_cache,
                    deadline_s=args.deadline,
                )
                print(f"chrome trace written to {args.trace} (open in Perfetto)",
                      file=sys.stderr)
            elif args.stream:
                def on_partial(seq: int, op: dict) -> None:
                    print(f"partial {seq}: {json.dumps(op, sort_keys=True)}",
                          file=sys.stderr)

                response, ops = client.submit_stream(
                    args.kind,
                    on_partial=on_partial,
                    workload=args.workload,
                    scale=args.scale,
                    source=source,
                    fidelity=args.fidelity,
                    params=params or None,
                    cache=not args.no_cache,
                    deadline_s=args.deadline,
                )
                print(f"streamed {len(ops)} partial frames", file=sys.stderr)
            else:
                response = client.submit(
                    args.kind,
                    workload=args.workload,
                    scale=args.scale,
                    source=source,
                    fidelity=args.fidelity,
                    params=params or None,
                    cache=not args.no_cache,
                    deadline_s=args.deadline,
                )
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    json.dump(response, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    status = response.get("status")
    if status in (STATUS_OK, STATUS_DEGRADED):
        return 0
    if status == STATUS_REJECTED:
        return 3  # backpressure: distinct from job failure for scripts
    return 1


def cmd_stats(args) -> int:
    import json

    from .service import ServiceClient, ServiceError

    try:
        with ServiceClient(args.connect, timeout_s=args.timeout) as client:
            metrics = client.metrics(dump=args.dump)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        json.dump(metrics, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(metrics.get("prometheus") or "")
    summary = metrics.get("summary") or {}
    if summary:
        line = " ".join(f"{k}={v}" for k, v in summary.items())
        print(f"summary: {line}", file=sys.stderr)
    if args.dump:
        print(f"flight recorder dumped to {metrics.get('dump_path')}",
              file=sys.stderr)
    return 0


def cmd_lake_ls(args) -> int:
    from .lake import TraceLake

    lake = TraceLake(args.root)
    runs = lake.runs()
    if not runs:
        print(f"lake at {lake.root} is empty")
        return 0
    print(f"{'RUN':50} {'ROWS':>9} {'BYTES':>10} {'ALERTS':>6}  STATUS")
    for info in runs:
        if info.complete:
            trace = info.manifest.get("trace", {})
            rows = str(trace.get("rows", "?"))
            alerts = str(len(info.manifest.get("alerts", [])))
            status = "ok"
        else:
            rows, alerts, status = "?", "?", "incomplete"
        print(f"{info.run_id:50} {rows:>9} {info.bytes:>10} {alerts:>6}  {status}")
    return 0


def cmd_lake_info(args) -> int:
    import json

    from .lake import TraceLake, postmortem

    lake = TraceLake(args.root)
    run_id = lake.resolve(args.run)
    manifest = lake.manifest(run_id)
    with lake.open(run_id) as run:
        report = postmortem(run, manifest)
    report["run"] = run_id
    if manifest is not None:
        for key in ("program", "input_hash", "seed", "fidelity", "policy"):
            if key in manifest:
                report[key] = manifest[key]
    json.dump(report, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def cmd_lake_slice(args) -> int:
    from .lake import TraceLake, resolve_criterion, slice_lines, slice_stored

    lake = TraceLake(args.root)
    run_id = lake.resolve(args.run)
    manifest = lake.manifest(run_id)
    with lake.open(run_id) as run:
        try:
            criterion = resolve_criterion(
                run, seq=args.seq, pc=args.pc, line=args.line, manifest=manifest,
            )
            direction = "forward" if args.forward else "backward"
            sl = slice_stored(run, criterion, direction=direction)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        lines = slice_lines(sl, manifest)
        recovered = run.recovered
    print(f"run: {run_id}" + (" [recovered prefix]" if recovered else ""))
    print(f"criterion: seq {criterion} ({direction})")
    print(f"slice: {len(sl.seqs)} dynamic instances, {len(sl.pcs)} pcs"
          + (" [TRUNCATED at window edge]" if sl.truncated else ""))
    if lines:
        print(f"source lines: {', '.join(str(line) for line in lines)}")
    return 0


def cmd_lake_diff(args) -> int:
    import json

    from .lake import TraceLake, diff_runs, suspect_lines

    lake = TraceLake(args.root)
    result = diff_runs(lake, args.failing, args.passing)
    result["suspect_lines"] = sorted(suspect_lines(result))
    json.dump(result, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def cmd_lake_gc(args) -> int:
    import json

    from .lake import TraceLake

    lake = TraceLake(args.root)
    out: dict = {}
    if args.keep is not None or args.max_bytes is not None:
        out["gc"] = lake.gc(keep_runs=args.keep, max_bytes=args.max_bytes)
    if args.compact is not None:
        out["compact"] = lake.compact(args.compact)
    if not out:
        print("error: gc needs --keep, --max-bytes, or --compact RUN",
              file=sys.stderr)
        return 2
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Scalable DIFT and its applications (IPDPS'08 reproduction)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="MiniC source file")
        p.add_argument("--input", action="append", metavar="CH=V1,V2,...",
                       help="input channel values (repeatable)")
        p.add_argument("--max-instructions", type=int, default=10_000_000)
        p.add_argument("--report", metavar="PATH",
                       help="write a machine-readable run report (JSON) to PATH")
        p.add_argument("--trace", metavar="PATH",
                       help="write a Chrome trace-event JSON (Perfetto) to PATH")

    p_run = sub.add_parser("run", help="compile & execute")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_dis = sub.add_parser("disasm", help="print disassembly")
    p_dis.add_argument("file")
    p_dis.set_defaults(func=cmd_disasm)

    p_trace = sub.add_parser("trace", help="execute under ONTRAC")
    common(p_trace)
    p_trace.add_argument("--naive", action="store_true", help="disable all optimizations")
    p_trace.add_argument("--buffer", type=int, default=1 << 22, help="trace buffer bytes")
    p_trace.add_argument("--lake", action="store_true",
                         help="persist the trace into the lake (sealed chunks "
                              "spill as the run executes; a killed run leaves "
                              "a recoverable prefix)")
    p_trace.add_argument("--lake-root", metavar="DIR", default=None,
                         help="lake root for --lake (default ./lake or "
                              "REPRO_LAKE_DIR)")
    p_trace.add_argument("--seed", type=int, default=0,
                         help="run-key seed recorded with --lake")
    p_trace.set_defaults(func=cmd_trace)

    p_slice = sub.add_parser("slice", help="backward dynamic slice of a source line")
    common(p_slice)
    p_slice.add_argument("--line", type=int, required=True)
    p_slice.add_argument("--buffer", type=int, default=1 << 22)
    p_slice.set_defaults(func=cmd_slice)

    p_attack = sub.add_parser("attack", help="run under the DIFT attack monitor")
    common(p_attack)
    p_attack.add_argument("--policy", choices=("bool", "pc"), default="pc")
    p_attack.add_argument("--out-sink", action="store_true",
                          help="also treat output channels as sinks")
    p_attack.add_argument("--parallel-helper", action="store_true",
                          help="run the DIFT engine in a real worker process "
                               "over the shared-memory ring (asynchronous "
                               "detection, identical alerts/taint)")
    p_attack.add_argument("--batch-size", type=int, default=None,
                          help="ring messages per flush for --parallel-helper "
                               "(default: 256)")
    p_attack.set_defaults(func=cmd_attack)

    p_exp = sub.add_parser("experiments", help="run declared experiments")
    p_exp.add_argument("ids", nargs="*",
                       help="experiment ids (an unknown id lists the known "
                            "ones); default: the paper's experiments")
    p_exp.add_argument("--report", metavar="PATH",
                       help="write per-experiment results + metrics (JSON) to PATH")
    p_exp.add_argument("--workers", type=int, default=None,
                       help="fan experiments out over N worker processes "
                            "(results stay in selection order; failures fall "
                            "back to sequential)")
    p_exp.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-experiment timeout in seconds when --workers "
                            "is used")
    p_exp.set_defaults(func=cmd_experiments)

    p_serve = sub.add_parser("serve", help="run the analysis service daemon")
    p_serve.add_argument("--socket", metavar="PATH",
                         help="Unix socket path to listen on")
    p_serve.add_argument("--port", type=int, metavar="N",
                         help="TCP port to listen on (0 = ephemeral)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="analysis worker processes (default 2)")
    p_serve.add_argument("--queue-capacity", type=int, default=8,
                         help="admitted-job ceiling before REJECTED (default 8)")
    p_serve.add_argument("--deadline", type=float, default=120.0, metavar="S",
                         help="default per-job deadline in seconds")
    p_serve.add_argument("--cache-entries", type=int, default=256,
                         help="result cache capacity (jobs)")
    p_serve.add_argument("--no-degrade", action="store_true",
                         help="never shed fidelity under load "
                              "(jobs run full or get REJECTED)")
    p_serve.add_argument("--allow-chaos", action="store_true",
                         help="admit test-only chaos jobs (crash/hang injection)")
    p_serve.add_argument("--no-observe", action="store_true",
                         help="disable observability (tracing, flight "
                              "recorder, metrics sampler)")
    p_serve.add_argument("--obs-dir", metavar="DIR", default=None,
                         help="directory for flight-recorder dump artifacts "
                              "(default: current directory)")
    p_serve.add_argument("--sample-interval", type=float, default=1.0,
                         metavar="S",
                         help="metrics time-series sampling period in "
                              "seconds (default: 1.0)")
    p_serve.set_defaults(func=cmd_serve)

    p_route = sub.add_parser(
        "route", help="run the consistent-hash router over N daemons"
    )
    p_route.add_argument("--backends", required=True, nargs="+", metavar="ADDR",
                         help="backend daemon addresses (unix:///path, "
                              "tcp://host:port, host:port, or socket paths)")
    p_route.add_argument("--socket", metavar="PATH",
                         help="Unix socket path to listen on")
    p_route.add_argument("--port", type=int, metavar="N",
                         help="TCP port to listen on (0 = ephemeral)")
    p_route.add_argument("--host", default="127.0.0.1")
    p_route.add_argument("--vnodes", type=int, default=64,
                         help="virtual nodes per backend on the hash ring "
                              "(default 64)")
    p_route.add_argument("--health-interval", type=float, default=0.5,
                         metavar="S",
                         help="backend health-probe period (default 0.5s)")
    p_route.add_argument("--retries", type=int, default=1,
                         help="reroute attempts after a backend dies mid-job "
                              "(default 1)")
    p_route.add_argument("--cache-entries", type=int, default=256,
                         help="router-level result cache capacity (jobs)")
    p_route.add_argument("--deadline", type=float, default=120.0, metavar="S",
                         help="default per-job deadline in seconds")
    p_route.add_argument("--no-observe", action="store_true",
                         help="disable the router's flight recorder/sampler")
    p_route.add_argument("--obs-dir", metavar="DIR", default=None,
                         help="directory for flight-recorder dump artifacts")
    p_route.set_defaults(func=cmd_route)

    p_submit = sub.add_parser(
        "submit", help="submit one job to a running analysis service"
    )
    p_submit.add_argument("kind",
                          choices=("trace", "slice", "attack", "lineage",
                                   "chaos", "stats", "health", "shutdown",
                                   "drain", "undrain"),
                          help="job kind, or a control request (drain/undrain "
                               "are router verbs)")
    p_submit.add_argument("--backend", metavar="ADDR", default=None,
                          help="backend address for drain/undrain")
    p_submit.add_argument("--connect", required=True, metavar="ADDR",
                          help="unix:///path, tcp://host:port, or a socket path")
    p_submit.add_argument("--workload", metavar="NAME",
                          help="named workload (matmul, sort, hashloop, rle, bfs, fsm)")
    p_submit.add_argument("--file", metavar="PATH", help="MiniC source file to submit")
    p_submit.add_argument("--scale", type=int, default=1)
    p_submit.add_argument("--fidelity", choices=("full", "dift", "log"), default=None,
                          help="requested fidelity (default full)")
    p_submit.add_argument("--line", type=int, default=None,
                          help="slice criterion source line (slice jobs)")
    p_submit.add_argument("--params", metavar="JSON",
                          help="extra job params as a JSON object")
    p_submit.add_argument("--no-cache", action="store_true",
                          help="bypass the server's result cache")
    p_submit.add_argument("--deadline", type=float, default=None, metavar="S",
                          help="per-job deadline in seconds")
    p_submit.add_argument("--timeout", type=float, default=150.0, metavar="S",
                          help="client-side response timeout")
    p_submit.add_argument("--trace", metavar="PATH",
                          help="trace the job end to end and write the merged "
                               "client+server+worker Chrome trace to PATH")
    p_submit.add_argument("--stream", action="store_true",
                          help="request streamed partial results (prints each "
                               "partial op to stderr as it arrives; the final "
                               "JSON on stdout is unchanged)")
    p_submit.set_defaults(func=cmd_submit)

    p_stats = sub.add_parser(
        "stats", help="scrape a running daemon's live metrics exposition"
    )
    p_stats.add_argument("--connect", required=True, metavar="ADDR",
                         help="unix:///path, tcp://host:port, or a socket path")
    p_stats.add_argument("--json", action="store_true",
                         help="print the JSON snapshot (registry, summary, "
                              "sample series) instead of Prometheus text")
    p_stats.add_argument("--dump", action="store_true",
                         help="also dump the flight recorder to an artifact")
    p_stats.add_argument("--timeout", type=float, default=30.0, metavar="S",
                         help="client-side response timeout")
    p_stats.set_defaults(func=cmd_stats)

    p_lake = sub.add_parser(
        "lake", help="query the persistent trace lake (stored runs)"
    )
    lake_sub = p_lake.add_subparsers(dest="lake_command", required=True)

    def lake_common(p):
        p.add_argument("--root", metavar="DIR", default=None,
                       help="lake root (default ./lake or REPRO_LAKE_DIR)")

    pl_ls = lake_sub.add_parser("ls", help="list stored runs")
    lake_common(pl_ls)
    pl_ls.set_defaults(func=cmd_lake_ls)

    pl_info = lake_sub.add_parser(
        "info", help="manifest + postmortem summary of one run"
    )
    lake_common(pl_info)
    pl_info.add_argument("run", help="run id (unique prefix ok)")
    pl_info.set_defaults(func=cmd_lake_info)

    pl_slice = lake_sub.add_parser(
        "slice", help="re-execution-free dynamic slice of a stored run"
    )
    lake_common(pl_slice)
    pl_slice.add_argument("run", help="run id (unique prefix ok)")
    pl_slice.add_argument("--seq", type=int, default=None,
                          help="criterion dynamic sequence number")
    pl_slice.add_argument("--pc", type=int, default=None,
                          help="criterion: last stored instance of this pc")
    pl_slice.add_argument("--line", type=int, default=None,
                          help="criterion: last stored instance of this "
                               "source line (needs a manifest)")
    pl_slice.add_argument("--forward", action="store_true",
                          help="forward lineage instead of backward slice")
    pl_slice.set_defaults(func=cmd_lake_slice)

    pl_diff = lake_sub.add_parser(
        "diff", help="dependence edges in the failing run but no passing run"
    )
    lake_common(pl_diff)
    pl_diff.add_argument("--failing", required=True, metavar="RUN",
                         help="the failing run (unique prefix ok)")
    pl_diff.add_argument("--passing", required=True, nargs="+", metavar="RUN",
                         help="passing runs to subtract")
    pl_diff.set_defaults(func=cmd_lake_diff)

    pl_gc = lake_sub.add_parser(
        "gc", help="retention: drop oldest runs and/or compact one run"
    )
    lake_common(pl_gc)
    pl_gc.add_argument("--keep", type=int, default=None, metavar="N",
                       help="keep at most N newest runs")
    pl_gc.add_argument("--max-bytes", type=int, default=None, metavar="B",
                       help="drop oldest runs until the lake is under B bytes")
    pl_gc.add_argument("--compact", metavar="RUN", default=None,
                       help="rewrite RUN's spill into dense max-size chunks")
    pl_gc.set_defaults(func=cmd_lake_gc)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CompileError as exc:
        print(f"compile error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Malformed argument values (e.g. --input CH=V with a non-integer)
        # are user errors, not crashes: one line on stderr, exit 2.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
