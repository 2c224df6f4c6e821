"""The packed DIFT record stream, pinned by digest.

Two producers pack ``InstrEvent``s into the 24-byte records the
kernels consume: the inline engine's micro-batcher and the
:class:`RecordStreamCapture` bench aid.  The digests below were
recorded from the stream each one produced before they shared a
single encoder; every producer must still emit exactly those bytes,
templates, clamped-sink fixups and wide payloads, with the
summary-mode call markers off and on.
"""

import hashlib

import pytest

from repro.dift import BoolTaintPolicy, DIFTEngine
from repro.dift.kernel import (
    K_SKIP,
    PropagationKernel,
    RecordStreamCapture,
    classify_opcode,
)
from repro.dift.summaries import SummaryKernel
from repro.lang import compile_source
from repro.vm import Machine
from repro.workloads import GeneratorConfig, build_server, generate, suite

from .test_kernel import WIDE_INPUTS, WIDE_SRC

FLUSH = 4096


# Sink payloads past the i64 fields: clamped on the wire, the true
# value parked in the fixup table (``out`` value and ``in`` io value).
CLAMP_SRC = """
fn main() {
    var x = in(0);
    var big = 1;
    var i = 0;
    while (i < 70) { big = big * 2; i = i + 1; }
    out(big + x, 1);
    out(0 - big - x, 2);
    out(x, 1);
}
"""


class _SourceRunner:
    max_instructions = 20_000_000

    def __init__(self, src, inputs):
        self.src, self.inputs = src, inputs

    def machine(self):
        m = Machine(compile_source(self.src).program)
        for chan, values in self.inputs.items():
            m.io.provide(chan, values)
        return m


def _cases():
    cases = {w.name: w.runner for w in suite()}
    cases["server"] = build_server(workers=2, requests=60, seed=7).runner
    for seed in (3, 7):
        cases[f"gen{seed}"] = generate(seed, GeneratorConfig(use_inputs=True)).runner
    cases["wide"] = lambda: _SourceRunner(WIDE_SRC, WIDE_INPUTS)
    cases["clamp"] = lambda: _SourceRunner(CLAMP_SRC, {0: [3, 2**65]})
    return cases


CASES = _cases()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _template_key(pc, instr, reg_reads, reg_writes, channel):
    return (pc, instr.opcode.name, instr.operands, reg_reads, reg_writes, channel)


def _digest(chunks, templates, fixups, wide):
    return {
        "stream": _sha(b"".join(chunks)),
        "templates": _sha(repr([_template_key(*t) for t in templates]).encode()),
        "fixups": _sha(repr(sorted(fixups.items())).encode()),
        "wide": _sha(repr(sorted(wide.items())).encode()),
    }


def _run(case, attach):
    runner = CASES[case]()
    m = runner.machine()
    tool = attach(m)
    m.run(max_instructions=runner.max_instructions)
    return tool


def capture_digest(case, markers):
    cap = _run(
        case, lambda m: RecordStreamCapture(flush_records=FLUSH, markers=markers).attach(m)
    ).finish()
    return _digest(cap.chunks, cap.templates, cap.fixups, cap.wide)


def inline_digest(case, markers, monkeypatch):
    """Stream, templates and wide table as the inline engine's kernel
    receives them, plus its encoder's fixups."""
    chunks, templates, wide = [], [], {}
    outer = SummaryKernel if markers else PropagationKernel
    propagate = outer.propagate_batch
    register = PropagationKernel.register_template

    def recording_propagate(self, records):
        chunks.append(bytes(records))
        wide.update(self.wide)
        return propagate(self, records)

    def recording_register(self, pc, instr, reg_reads, reg_writes, channel):
        if classify_opcode(instr, reg_writes) != K_SKIP:
            templates.append((pc, instr, reg_reads, reg_writes, channel))
        return register(self, pc, instr, reg_reads, reg_writes, channel)

    with monkeypatch.context() as mp:
        mp.setattr(outer, "propagate_batch", recording_propagate)
        mp.setattr(PropagationKernel, "register_template", recording_register)
        eng = _run(
            case,
            lambda m: DIFTEngine(
                BoolTaintPolicy(),
                # Unless summaries engage it, only the array kernel batches.
                kernel=None if markers else "array",
                kernel_batch=FLUSH,
                summaries=markers,
            ).attach(m),
        )
        eng.stats  # drain the tail batch
    return _digest(chunks, templates, eng._encoder.fixups, wide)


# (case, markers) -> sha256 prefixes of what RecordStreamCapture held
# before the producers shared one encoder.  "4f53cda18c2baa0c" is the
# empty table.
PINNED = {
    ('bfs', False): dict(
        stream='3563e976833e4f19', templates='955c1e1f93cb7a56',
        fixups='4f53cda18c2baa0c', wide='4f53cda18c2baa0c',
    ),
    ('bfs', True): dict(
        stream='3db7e632542d3059', templates='955c1e1f93cb7a56',
        fixups='4f53cda18c2baa0c', wide='4f53cda18c2baa0c',
    ),
    ('clamp', False): dict(
        stream='5a449d2aa578fd35', templates='db510e84d3cc0d8c',
        fixups='da2a51b8261f7554', wide='4f53cda18c2baa0c',
    ),
    ('clamp', True): dict(
        stream='62a3cee963c17759', templates='db510e84d3cc0d8c',
        fixups='da2a51b8261f7554', wide='4f53cda18c2baa0c',
    ),
    ('fsm', False): dict(
        stream='5be26f315be5e1a4', templates='8d6e9de6791fe290',
        fixups='4f53cda18c2baa0c', wide='4f53cda18c2baa0c',
    ),
    ('fsm', True): dict(
        stream='9458f082fc986389', templates='8d6e9de6791fe290',
        fixups='4f53cda18c2baa0c', wide='4f53cda18c2baa0c',
    ),
    ('gen3', False): dict(
        stream='6fa7c3ca94a71c89', templates='872bfd98676fe154',
        fixups='4f53cda18c2baa0c', wide='4f53cda18c2baa0c',
    ),
    ('gen3', True): dict(
        stream='e7498941e7a26529', templates='872bfd98676fe154',
        fixups='4f53cda18c2baa0c', wide='4f53cda18c2baa0c',
    ),
    ('gen7', False): dict(
        stream='72748a0acbc54b31', templates='cbef4ee5901809e3',
        fixups='4f53cda18c2baa0c', wide='4f53cda18c2baa0c',
    ),
    ('gen7', True): dict(
        stream='0d9029a40c0eb182', templates='cbef4ee5901809e3',
        fixups='4f53cda18c2baa0c', wide='4f53cda18c2baa0c',
    ),
    ('hashloop', False): dict(
        stream='b75595e1d2693614', templates='8c77e9df48bfe5b0',
        fixups='4f53cda18c2baa0c', wide='4f53cda18c2baa0c',
    ),
    ('hashloop', True): dict(
        stream='b230acfe17bb60d9', templates='8c77e9df48bfe5b0',
        fixups='4f53cda18c2baa0c', wide='4f53cda18c2baa0c',
    ),
    ('matmul', False): dict(
        stream='02015c5748ffee6c', templates='d4e438b1638ee753',
        fixups='4f53cda18c2baa0c', wide='4f53cda18c2baa0c',
    ),
    ('matmul', True): dict(
        stream='2002b86132418019', templates='d4e438b1638ee753',
        fixups='4f53cda18c2baa0c', wide='4f53cda18c2baa0c',
    ),
    ('rle', False): dict(
        stream='8ae5dee0ad1ef0d2', templates='6a1f4a9d790d6ac4',
        fixups='4f53cda18c2baa0c', wide='4f53cda18c2baa0c',
    ),
    ('rle', True): dict(
        stream='344737a62e48e167', templates='6a1f4a9d790d6ac4',
        fixups='4f53cda18c2baa0c', wide='4f53cda18c2baa0c',
    ),
    ('server', False): dict(
        stream='8ca9aee44d75e6ef', templates='500269de6837cb60',
        fixups='4f53cda18c2baa0c', wide='4f53cda18c2baa0c',
    ),
    ('server', True): dict(
        stream='6297c8d39d39967d', templates='500269de6837cb60',
        fixups='4f53cda18c2baa0c', wide='4f53cda18c2baa0c',
    ),
    ('sort', False): dict(
        stream='ccc714f881402ea1', templates='7ec04af1f556ee5b',
        fixups='4f53cda18c2baa0c', wide='4f53cda18c2baa0c',
    ),
    ('sort', True): dict(
        stream='12686c435ce9bab2', templates='7ec04af1f556ee5b',
        fixups='4f53cda18c2baa0c', wide='4f53cda18c2baa0c',
    ),
    ('wide', False): dict(
        stream='bd16c9368fd4ed93', templates='44047278c7db04f2',
        fixups='4f53cda18c2baa0c', wide='7437807c6132a6a5',
    ),
    ('wide', True): dict(
        stream='a18addc0e45f7f3a', templates='44047278c7db04f2',
        fixups='4f53cda18c2baa0c', wide='7437807c6132a6a5',
    ),
}

MARKERS = [False, True]
_ids = lambda markers: "markers" if markers else "plain"  # noqa: E731


@pytest.mark.parametrize("markers", MARKERS, ids=_ids)
@pytest.mark.parametrize("case", sorted(CASES))
def test_capture_reproduces_pinned_stream(case, markers):
    assert capture_digest(case, markers) == PINNED[(case, markers)]


@pytest.mark.parametrize("markers", MARKERS, ids=_ids)
@pytest.mark.parametrize("case", sorted(CASES))
def test_inline_engine_reproduces_pinned_stream(case, markers, monkeypatch):
    assert inline_digest(case, markers, monkeypatch) == PINNED[(case, markers)]

