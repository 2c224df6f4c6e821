"""Edge cases for the batch propagation kernels (reference vs array).

The differential suite proves the kernels agree on whole workloads;
these tests pin down the boundaries where a batch kernel could
plausibly diverge: empty batches, batches split exactly at a sink
record, an ``AttackDetected`` raised mid-batch, overflow-clamped sink
payloads, addresses beyond the i64 payload, multithreaded streams,
fallback resolution, and an adopted shadow.
"""

import ast
import sys
import warnings
from pathlib import Path

import pytest

from repro.apps.lineage.tracer import LineagePolicy
from repro.dift import BoolTaintPolicy, DIFTEngine, PCTaintPolicy, ShadowState, SinkRule
from repro.dift import kernel as kernel_module
from repro.dift.kernel import (
    K_SINK,
    K_SKIP,
    RECORD,
    RECORD_SIZE,
    RecordStreamCapture,
    build_kernel,
    select_kernel,
)
from repro.dift.summaries import SummaryKernel
from repro.isa.instructions import Instruction, Opcode
from repro.lang import compile_source
from repro.runner import ProgramRunner
from repro.vm import Machine, RunStatus
from repro.vm.errors import AttackDetected
from repro.workloads import race_kernels

from .conftest import numpy_modules_loaded_by
from .test_dift import ATTACK_SRC

# A stream with a sink in the middle: plenty of propagation on both
# sides of the first ``out`` so splits and selection probes get real
# work before and after the boundary.
TAINT_SRC = """
fn main() {
    var buf = alloc(16);
    var acc = 0;
    var i = 0;
    while (i < 16) {
        buf[i] = in(0) + i;
        acc = acc + buf[i];
        i = i + 1;
    }
    out(acc, 1);
    var tail = 0;
    var j = 0;
    while (j < 16) {
        tail = tail + buf[j];
        j = j + 1;
    }
    out(tail, 1);
}
"""

RECORD_SINKS = [SinkRule(kind="out", action="record")]


def capture_stream(src, inputs=None):
    """Run ``src`` with no DIFT attached, capturing its record stream."""
    cp = compile_source(src)
    m = Machine(cp.program)
    for chan, values in (inputs or {}).items():
        m.io.provide(chan, values)
    cap = RecordStreamCapture().attach(m)
    res = m.run()
    cap.finish()
    return m, res, cap


def inline_run(src, inputs=None, sinks=None, kernel="reference"):
    """The ground truth: a stock engine attached to a live machine."""
    cp = compile_source(src)
    m = Machine(cp.program)
    for chan, values in (inputs or {}).items():
        m.io.provide(chan, values)
    eng = DIFTEngine(BoolTaintPolicy(), sinks=sinks, kernel=kernel).attach(m)
    res = m.run()
    return m, res, eng


def kernel_state(kern):
    """Every observable a consumer can read off a kernel."""
    return (
        str(kern.alerts),
        kern.stats,
        dict(kern.shadow.regs),
        kern.shadow.mem_items(),
        kern.shadow.peak_locations,
        kern.seq,
    )


def live_records(chunk):
    """Records in a packed chunk that stand for one instruction each."""
    return sum(k != K_SKIP for k, *_rest in RECORD.iter_unpack(chunk))


def record_offsets(chunk, kind):
    """Byte offsets of every record of ``kind`` in a packed chunk."""
    return [
        i * RECORD_SIZE
        for i, (k, *_rest) in enumerate(RECORD.iter_unpack(chunk))
        if k == kind
    ]


@pytest.mark.parametrize("name", ["reference", "array"])
def test_empty_batch_is_a_noop(name):
    kern = build_kernel(name, BoolTaintPolicy(), sinks=RECORD_SINKS)
    effects = kern.propagate_batch(b"")
    assert effects.records == 0
    assert effects.instructions == 0
    assert effects.overhead == 0
    assert not effects.raised
    assert kern.seq == 0
    assert kernel_state(kern)[:5] == ("[]", kern.stats, {}, {}, 0)


def test_batch_split_exactly_at_sink_record():
    _, res, cap = capture_stream(TAINT_SRC, inputs={0: list(range(16))})
    assert res.status is RunStatus.EXITED
    stream = b"".join(cap.chunks)
    sink_off = record_offsets(stream, K_SINK)[0]
    # The sink must be interior — records on both sides of each split,
    # and live ones, so every split batch propagates.
    assert 0 < sink_off < len(stream) - RECORD_SIZE
    assert live_records(stream[:sink_off]) and live_records(stream[sink_off + RECORD_SIZE :])

    splits = {
        "whole": [stream],
        # sink record is the *last* record of the first batch
        "sink-ends-batch": [stream[: sink_off + RECORD_SIZE], stream[sink_off + RECORD_SIZE :]],
        # sink record is the *first* record of the second batch
        "sink-starts-batch": [stream[:sink_off], stream[sink_off:]],
    }
    states = {}
    for name in ("reference", "array"):
        for label, chunks in splits.items():
            kern = cap.prime(build_kernel(name, BoolTaintPolicy(), sinks=RECORD_SINKS))
            for chunk in chunks:
                kern.propagate_batch(chunk)
            states[(name, label)] = kernel_state(kern)
    baseline = states[("reference", "whole")]
    assert all(state == baseline for state in states.values()), states
    # Both sinks fired, on tainted data.
    assert baseline[1].sink_checks == 2
    assert baseline[0].count("TaintAlert") == 2


def test_raise_mid_batch_freezes_state_at_reference_point():
    # Run the machine *without* DIFT so execution sails past the
    # hijacked icall and the stream keeps going after the sink record.
    inputs = {0: [33] + [0] * 32 + [1]}
    src = ATTACK_SRC.replace("alloc(4)", "alloc(32)")
    _, res, cap = capture_stream(src, inputs=inputs)
    assert res.status is RunStatus.EXITED
    stream = b"".join(cap.chunks)
    sink_off = record_offsets(stream, K_SINK)[0]
    # Live records follow the sink, so the raise must stop the batch.
    assert live_records(stream[sink_off + RECORD_SIZE :])

    states, effects = {}, {}
    for name in ("reference", "array"):
        kern = cap.prime(build_kernel(name, BoolTaintPolicy(), sinks=[SinkRule(kind="icall")]))
        with pytest.raises(AttackDetected):
            kern.propagate_batch(stream)
        states[name] = kernel_state(kern)
        effects[name] = kern.raised_effects
    assert states["array"] == states["reference"]
    ref, arr = effects["reference"], effects["array"]
    assert arr.raised and ref.raised
    assert (arr.records, arr.instructions, arr.tainted, arr.overhead) == (
        ref.records,
        ref.instructions,
        ref.tainted,
        ref.overhead,
    )
    # Frozen exactly at the raising record: the sequence number equals
    # the instruction count consumed, and no post-sink record leaked in.
    assert states["reference"][5] == ref.instructions
    assert ref.instructions < cap.instructions


@pytest.mark.parametrize("name", ["reference", "array"])
def test_overflow_sink_fixup_round_trip(name):
    # 2**70 overflows the i64 record payload; the capture clamps it and
    # parks the true value in the fixup side table.
    src = """
    fn main() {
        var x = in(0);
        var big = 1;
        var i = 0;
        while (i < 70) { big = big * 2; i = i + 1; }
        out(big + x, 1);
    }
    """
    inputs = {0: [3]}
    _, _, inline_eng = inline_run(src, inputs=inputs, sinks=RECORD_SINKS)
    true_values = [al.value for al in inline_eng.alerts]
    assert true_values == [2**70 + 3]

    _, _, cap = capture_stream(src, inputs=inputs)
    assert cap.fixups  # the clamp actually happened
    kern = cap.prime(build_kernel(name, BoolTaintPolicy(), sinks=RECORD_SINKS))
    for chunk in cap.chunks:
        kern.propagate_batch(chunk)
    assert [al.value for al in kern.alerts] != true_values  # clamped on the wire
    patched = cap.patch_alerts(kern.alerts)
    assert [al.value for al in patched] == true_values
    assert [al.seq for al in patched] == [al.seq for al in inline_eng.alerts]


@pytest.mark.parametrize("summaries", [False, True], ids=["plain", "summaries"])
@pytest.mark.parametrize("name", ["reference", "array"])
def test_every_alert_at_a_clamped_sink_gets_its_true_value(name, summaries):
    # Two rules match the same ``out``: both alerts share the sink's
    # seq, and each must carry the unclamped value, as per event.
    src = """
    fn main() {
        var x = in(0);
        var big = 1;
        var i = 0;
        while (i < 70) { big = big * 2; i = i + 1; }
        out(big + x, 1);
    }
    """
    sinks = [
        SinkRule(kind="out", action="record"),
        SinkRule(kind="out", channels=frozenset({1}), action="record"),
    ]
    m = Machine(compile_source(src).program)
    m.io.provide(0, [3])
    eng = DIFTEngine(
        BoolTaintPolicy(), sinks=sinks, kernel=name, summaries=summaries
    ).attach(m)
    m.run()
    assert [al.value for al in eng.alerts] == [2**70 + 3] * 2


# Guest addresses are unbounded ints and memory does no bounds checks:
# cells at 2**64 and below -2**63, a block whose size is past the i64
# payload and the blocks allocated after it.  ``poke`` sometimes writes
# through the wide pointer, so a summarized call site meets a wide
# record; the loop keeps in-range traffic flowing around wide taint.
WIDE_SRC = """
fn poke(p, v) {
    p[1] = v;
    return p[1] + 1;
}

fn main() {
    var buf = alloc(8);
    var big = 4611686018427387904;
    big = big * 4;
    var neg = 0 - big - 5;
    big[0] = in(0);
    neg[1] = in(0);
    var huge = alloc(big);
    var far = alloc(4);
    far[2] = in(0);
    var s = 0;
    var i = 0;
    while (i < 90) {
        buf[i % 8] = in(0) + i;
        s = s + buf[(i + 3) % 8];
        var p = buf;
        if (i % 15 == 7) { p = big; }
        s = s + poke(p, in(0));
        i = i + 1;
    }
    out(big[0] + neg[1], 1);
    out(far[2], 1);
    out(s, 1);
}
"""
WIDE_INPUTS = {0: list(range(300))}


def wide_state(m, res, eng):
    return (
        res.status,
        m.cycles,
        [(str(al), al.value) for al in eng.alerts],
        eng.shadow.mem_items(),
        dict(eng.shadow.regs),
        eng.shadow.peak_locations,
        eng.stats,
    )


def wide_run(**engine_kw):
    m = Machine(compile_source(WIDE_SRC).program)
    m.io.provide(0, WIDE_INPUTS[0])
    eng = DIFTEngine(PCTaintPolicy(), sinks=RECORD_SINKS, **engine_kw).attach(m)
    return wide_state(m, m.run(), eng)


KERNELS = ["reference", "array"]


@pytest.mark.parametrize("summaries", [False, True], ids=["plain", "summaries"])
@pytest.mark.parametrize("name", KERNELS)
def test_wide_addresses_match_per_event_engine(name, summaries):
    truth = wide_run(kernel="reference", summaries=False)
    status, _, alerts, mem, *_ = truth
    assert status is RunStatus.EXITED
    assert len(alerts) == 3
    # ``alloc(big)`` cleared big[0]; poke's big[1] and neg[1] stay tainted.
    assert {2**64 + 1, -(2**64) - 4} <= set(mem)  # nothing clamped or aliased
    # Small batches put wide cells in the shadow while the array kernel
    # selects over in-range batches.
    got = wide_run(kernel=name, summaries=summaries, kernel_batch=64)
    assert got == truth


@pytest.mark.parametrize("summaries", [False, True], ids=["plain", "summaries"])
@pytest.mark.parametrize("name", KERNELS)
def test_wide_addresses_replay_from_capture(name, summaries):
    cp = compile_source(WIDE_SRC)
    m = Machine(cp.program)
    m.io.provide(0, WIDE_INPUTS[0])
    cap = RecordStreamCapture(flush_records=64, markers=summaries).attach(m)
    m.run()
    cap.finish()
    assert cap.wide  # the side table actually carried payloads
    kern = build_kernel(name, PCTaintPolicy(), sinks=RECORD_SINKS)
    if summaries:
        kern = SummaryKernel(kern)
    cap.prime(kern)
    for chunk in cap.chunks:
        kern.propagate_batch(chunk)
    if summaries:
        kern.settle()
    assert not kern.wide  # every payload was consumed exactly once
    truth = wide_run(kernel="reference", summaries=False)
    assert (
        [(str(al), al.value) for al in cap.patch_alerts(kern.alerts)],
        kern.shadow.mem_items(),
        dict(kern.shadow.regs),
        kern.shadow.peak_locations,
        kern.stats,
    ) == truth[2:]


# Two threads spawned with a tainted and a clean argument race on shared
# cells under a lock, reading input as they go.
THREADS_SRC = """
global shared[8];
fn worker(x) {
    var i = 0;
    while (i < 6) {
        lock(1);
        shared[i % 8] = shared[(i + 1) % 8] + x + in(0);
        unlock(1);
        i = i + 1;
    }
    out(shared[x % 8], 1);
}
fn main() {
    var a = spawn(worker, in(0));
    var b = spawn(worker, 3);
    join(a);
    join(b);
    out(shared[0], 1);
}
"""

THREADED = {k.name: k.runner for k in race_kernels()}
THREADED["tainted-threads"] = lambda: ProgramRunner(
    compile_source(THREADS_SRC).program, inputs={0: list(range(40))}
)


def threaded_state(case, **engine_kw):
    runner = THREADED[case]()
    m = runner.machine()
    eng = DIFTEngine(BoolTaintPolicy(), sinks=RECORD_SINKS, **engine_kw).attach(m)
    res = m.run(max_instructions=runner.max_instructions)
    return (
        res.status,
        m.cycles,
        str(eng.alerts),
        eng.shadow.mem_items(),
        dict(eng.shadow.regs),
        eng.shadow.peak_locations,
        eng.stats,
    )


# Threads interleave inside one batch: records of several tids share a
# batch, and a spawn hands the argument's label to the child's r0.
@pytest.mark.parametrize("summaries", [False, True], ids=["plain", "summaries"])
@pytest.mark.parametrize("name", KERNELS)
@pytest.mark.parametrize("case", sorted(THREADED))
def test_threads_match_per_event_engine(case, name, summaries):
    truth = threaded_state(case, kernel="reference", summaries=False)
    if case == "tainted-threads":
        assert truth[2] != "[]"  # taint crossed the spawn and reached a sink
    assert threaded_state(case, kernel=name, summaries=summaries, kernel_batch=8) == truth


@pytest.fixture
def fresh_resolution(monkeypatch):
    """Isolate :func:`select_kernel`'s process state: a zeroed fallback
    counter and an unspent warning.  Returns a setter that, given
    ``False``, makes ``import numpy`` fail for the rest of the test."""
    monkeypatch.setattr(kernel_module, "kernel_fallbacks", {})
    monkeypatch.setattr(kernel_module, "_fallback_warned", False)
    return lambda ok: ok or monkeypatch.setitem(sys.modules, "numpy", None)


#: policy family -> what None/"array" resolve to, whether or not numpy
#: is importable: resolution reads only the request and the policy type.
_RESOLVES = {
    "bool": ("array", None),
    "pc": ("array", None),
    "lineage": ("reference", "policy"),
}
_POLICIES = {
    "bool": BoolTaintPolicy,
    "pc": PCTaintPolicy,
    "lineage": lambda: LineagePolicy(store=None),  # resolution reads the type only
}


@pytest.mark.parametrize("kernel", [None, "array", "reference"])
@pytest.mark.parametrize("numpy_ok", [True, False], ids=["numpy", "no-numpy"])
@pytest.mark.parametrize("policy", sorted(_POLICIES))
def test_kernel_resolution_table(fresh_resolution, policy, numpy_ok, kernel):
    fresh_resolution(numpy_ok)
    if kernel == "reference":
        expected = ("reference", None)  # always honoured, never counted
    else:
        expected = _RESOLVES[policy]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = select_kernel(kernel, _POLICIES[policy]())
    assert got == expected
    fallback = expected[1]
    # Only an explicit "array" request that cannot be honoured warns.
    assert len(caught) == (kernel == "array" and fallback is not None)
    assert kernel_module.kernel_fallbacks == ({fallback: 1} if fallback else {})


def test_unknown_kernel_name_raises():
    with pytest.raises(ValueError, match="unknown propagation kernel 'fast'"):
        select_kernel("fast", BoolTaintPolicy())


def test_kernel_batch_must_be_positive():
    with pytest.raises(ValueError, match="kernel batch size must be >= 1"):
        DIFTEngine(BoolTaintPolicy(), kernel_batch=0)


def test_explicit_array_request_for_wider_policy_warns_once(fresh_resolution):
    class WiderPolicy(BoolTaintPolicy):
        """Anything but the two exact scalar policies must demote."""

    with pytest.warns(RuntimeWarning, match="falling back to the reference kernel"):
        eng = DIFTEngine(WiderPolicy(), kernel="array")
    assert eng.kernel_name == "reference"
    assert eng.kernel_fallback == "policy"
    # Counted every time, warned once.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eng2 = DIFTEngine(WiderPolicy(), kernel="array")
    assert eng2.kernel_fallback == "policy"
    assert kernel_module.kernel_fallbacks == {"policy": 2}


def test_policy_fallback_is_silent_when_implicit(fresh_resolution):
    class WiderPolicy(BoolTaintPolicy):
        """Anything but the two exact scalar policies must demote."""

    fresh_resolution(True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eng = DIFTEngine(WiderPolicy())  # default kernel resolution
    assert eng.kernel_name == "reference"
    assert eng.kernel_fallback == "policy"
    assert kernel_module.kernel_fallbacks == {"policy": 1}


def test_adopted_array_shadow_matches_reference():
    _, _, cap = capture_stream(TAINT_SRC, inputs={0: list(range(16))})
    policy = BoolTaintPolicy()
    adopted = ShadowState(policy)
    arr = cap.prime(build_kernel("array", policy, sinks=RECORD_SINKS, shadow=adopted))
    ref = cap.prime(build_kernel("reference", BoolTaintPolicy(), sinks=RECORD_SINKS))
    for chunk in cap.chunks:
        arr.propagate_batch(chunk)
        ref.propagate_batch(chunk)
    assert arr.shadow is adopted  # the caller's store was used in place
    assert kernel_state(arr) == kernel_state(ref)


def test_attack_job_and_summaries_monitor_never_import_numpy():
    """The batch kernel is pure Python on every host: an ``attack`` job
    and a summaries monitor run in a fresh interpreter load no numpy."""
    loaded = numpy_modules_loaded_by(f"""
        from repro.dift import DIFTEngine, PCTaintPolicy, SinkRule
        from repro.jobs import JobSpec, execute_job
        from repro.workloads.generators import call_heavy

        result = execute_job(JobSpec(kind="attack", source={ATTACK_SRC!r},
                                     params={{"inputs": {{"0": [5, 0, 0, 0, 0, 1]}}}}))
        assert result["attack"]["detected"], result
        machine = call_heavy(iterations=8).runner().machine()
        eng = DIFTEngine(PCTaintPolicy(), sinks=[SinkRule(kind="out", action="record")],
                         summaries=True).attach(machine)
        machine.run()
        assert eng.kernel_name == "array" and eng.stats.tainted_instructions
    """)
    assert loaded == [], f"numpy imported: {loaded}"


def test_register_template_rejects_a_third_read_register():
    # The ISA reads at most two registers per instruction; a wider shape
    # must fail loudly rather than drop a taint source.
    instr = Instruction(Opcode.ADD, (4, 1, 2))
    kern = build_kernel("array", BoolTaintPolicy())
    with pytest.raises(ValueError, match="two read slots"):
        kern.register_template(0, instr, ((1, 0), (2, 0), (3, 0)), ((4, 0),), None)


def test_kernel_module_does_not_import_the_engine():
    # The per-record taint rules live on the kernel; the engine only
    # drives it, so the dependency runs one way.
    package = kernel_module.__package__.split(".")  # ["repro", "dift"]
    imported = set()
    for node in ast.walk(ast.parse(Path(kernel_module.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = ".".join(package[: len(package) - node.level + 1])
                base = f"{parent}.{base}" if base else parent
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
    assert "repro.dift.policy" in imported  # relative imports resolved
    assert "repro.dift.engine" not in imported
