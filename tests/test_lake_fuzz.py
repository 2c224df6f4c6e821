"""Fuzzing the spill reader: a damaged spill file either opens or
raises :class:`LakeFormatError` — never an untyped error, never a hang.

Every case starts from one real spill file (a traced run whose small
window evicts, so the footer carries non-zero heads) and damages it:
truncation at every section boundary, random bit flips, CRC-valid
garbage footers and CRC-valid footers with a broken schema.  The
footer faults that once escaped as ``KeyError``/``IndexError``/
``TypeError`` (or, for ``head > n``, opened silently) are kept as named
regression inputs, as are footer-named sections whose rows are out of
order, whose payload no longer matches its CRC, or whose header
disagrees with the footer (each once opened, or answered, silently).
"""

import copy
import json
import time
import zlib

import pytest

from repro.lake import LakeFormatError, edge_signatures, open_spill
from repro.lake.format import _CHUNK_HEADER, _FILE_HEADER, _TRAILER, TRAILER_MAGIC
from repro.ontrac import OntracConfig
from repro.slicing import backward_slice
from repro.util.rng import DeterministicRng
from repro.workloads import matmul

N_SEEDS = 240
#: wall-clock bound for one open attempt (a clean open takes ~1 ms).
CASE_SECONDS = 5.0


@pytest.fixture(scope="module")
def spill(tmp_path_factory):
    """(file bytes, footer dict) of one real, evicting spill."""
    path = str(tmp_path_factory.mktemp("fuzz") / "run.rlk")
    config = OntracConfig(buffer_bytes=4096, spill_path=path)
    _, tracer, _ = matmul(4).runner().run_traced(config)
    assert tracer.buffer.stats.evicted > 0
    with open(path, "rb") as f:
        raw = f.read()
    off, length, _, _ = _TRAILER.unpack_from(raw, len(raw) - _TRAILER.size)
    footer = json.loads(raw[off:off + length])
    assert len(footer["chunks"]) >= 2
    assert any(entry["head"] for entry in footer["live"])
    return raw, footer


def with_footer(raw: bytes, footer_bytes: bytes) -> bytes:
    """``raw`` with its footer replaced by ``footer_bytes`` under a
    valid trailer CRC."""
    off, _, _, _ = _TRAILER.unpack_from(raw, len(raw) - _TRAILER.size)
    return raw[:off] + footer_bytes + _TRAILER.pack(
        off, len(footer_bytes), zlib.crc32(footer_bytes), TRAILER_MAGIC
    )


def encode(footer) -> bytes:
    return json.dumps(footer, separators=(",", ":")).encode()


def open_or_reject(tmp_path, data: bytes, label: str) -> bool:
    """True if the file opened (and its window is readable), False if
    it was rejected with LakeFormatError; anything else fails."""
    path = tmp_path / "case.rlk"
    path.write_bytes(data)
    t0 = time.perf_counter()
    try:
        with open_spill(str(path)) as run:
            len(run.buffer)
            run.buffer.window_instructions()
        opened = True
    except LakeFormatError:
        opened = False
    except Exception as exc:  # pragma: no cover - the failure report
        pytest.fail(f"{label}: untyped {type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - t0
    assert elapsed < CASE_SECONDS, f"{label}: took {elapsed:.2f}s"
    return opened


# --- named regression inputs -------------------------------------------------
def _first_live(footer):
    entry = footer["live"][0]
    return entry, footer["chunks"][entry["id"]]


def _drop_chunks(f):
    del f["chunks"]


def _drop_stats(f):
    del f["buffer"]["stats"]


def _live_id_out_of_range(f):
    f["live"][0]["id"] = len(f["chunks"])


def _negative_off(f):
    _first_live(f)[1]["off"] = -64


def _zero_rows(f):
    _first_live(f)[1]["n"] = 0


def _live_not_a_list(f):
    f["live"] = 5


def _head_past_n(f):
    entry, meta = _first_live(f)
    entry["head"] = meta["n"] + 1


def _not_monotone(f):
    # The store holds rows only in consumer-seq order.
    f["buffer"]["monotone"] = False


REGRESSIONS = {
    "missing-chunks": _drop_chunks,
    "missing-buffer-stats": _drop_stats,
    "live-id-out-of-range": _live_id_out_of_range,
    "negative-chunk-off": _negative_off,
    "zero-row-chunk": _zero_rows,
    "live-not-a-list": _live_not_a_list,
    "head-past-n": _head_past_n,
    "monotone-false": _not_monotone,
}


@pytest.mark.parametrize("name", sorted(REGRESSIONS))
def test_schema_fault_raises_lake_format_error(spill, tmp_path, name):
    raw, footer = spill
    broken = copy.deepcopy(footer)
    REGRESSIONS[name](broken)
    path = tmp_path / "case.rlk"
    path.write_bytes(with_footer(raw, encode(broken)))
    with pytest.raises(LakeFormatError):
        open_spill(str(path))


def test_unmodified_footer_rewrite_still_opens(spill, tmp_path):
    # Control for the helpers above: re-encoding the same footer under a
    # fresh CRC must open exactly like the original file.
    raw, footer = spill
    assert open_or_reject(tmp_path, with_footer(raw, encode(footer)), "control")


def test_recovered_out_of_order_chunk_raises_lake_format_error(spill, tmp_path):
    # No footer, so the recovery scan adopts the sections; the first one
    # holds a consumer seq out of order under a recomputed (valid) CRC.
    raw, footer = spill
    meta = footer["chunks"][0]
    off, n = meta["off"], meta["n"]
    data = bytearray(raw[:_TRAILER.unpack_from(raw, len(raw) - _TRAILER.size)[0]])
    payload = off + _CHUNK_HEADER.size
    cseq_off = memoryview(data)[payload + (n + 3) // 4 * 4:][:4 * n].cast("I")
    cseq_off[0] = cseq_off[n - 1] + 1
    cseq_off.release()
    magic, n, base, over, plen, _ = _CHUNK_HEADER.unpack_from(data, off)
    crc = zlib.crc32(data[payload:payload + plen])
    _CHUNK_HEADER.pack_into(data, off, magic, n, base, over, plen, crc)
    path = tmp_path / "case.rlk"
    path.write_bytes(bytes(data))
    with pytest.raises(LakeFormatError, match="out of order"):
        open_spill(str(path))
    # Control: the same prefix without the edit recovers.
    path.write_bytes(raw[:len(data)])
    with open_spill(str(path)) as run:
        assert run.recovered and len(run.buffer)


def swap_interior_rows(data: bytearray, meta: dict) -> None:
    """Swap two interior ``cseq_off`` entries of the section ``meta``
    names, keeping its first and last rows, under a recomputed (valid)
    section CRC."""
    off, n = meta["off"], meta["n"]
    payload = off + _CHUNK_HEADER.size
    cseq_off = memoryview(data)[payload + (n + 3) // 4 * 4:][:4 * n].cast("I")
    j = next(r for r in range(n - 2, 0, -1) if cseq_off[r] > cseq_off[1])
    cseq_off[1], cseq_off[j] = cseq_off[j], cseq_off[1]
    cseq_off.release()
    magic, n, base, over, plen, _ = _CHUNK_HEADER.unpack_from(data, off)
    crc = zlib.crc32(data[payload:payload + plen])
    _CHUNK_HEADER.pack_into(data, off, magic, n, base, over, plen, crc)


def _last_live_section(raw, footer):
    """The footer entry of the last live section and its last row's seq."""
    meta = footer["chunks"][footer["live"][-1]["id"]]
    seq = meta["base"] + memoryview(raw)[
        meta["off"] + _CHUNK_HEADER.size + (meta["n"] + 3) // 4 * 4:
    ][:4 * meta["n"]].cast("I")[-1]
    return meta, seq


def assert_every_reader_rejects(tmp_path, raw, data, seq, match):
    """``data`` (``raw`` with one footer-named section damaged) opens,
    but every reader that touches the section raises; ``raw`` answers
    the same queries."""
    path = tmp_path / "case.rlk"
    path.write_bytes(bytes(data))
    with open_spill(str(path)) as run:
        assert not run.recovered
        ddg = run.ddg()
        queries = {
            "has_node": lambda: ddg.has_node(seq),
            "producers": lambda: ddg.producers(seq),
            "consumers": lambda: ddg.consumers(seq),
            "node_items": lambda: list(ddg.node_items()),
            "edge_rows": lambda: list(ddg.iter_edge_rows()),
            "edge_count": lambda: ddg.edge_count,
            "edge_diff": lambda: edge_signatures(run),
            "slice": lambda: backward_slice(ddg, seq),
            # parsed from the payload, so only after the same check
            "overflow_entries": lambda: run.buffer._chunks[-1].over,
        }
        for name, query in queries.items():
            with pytest.raises(LakeFormatError, match=match):
                query()
    # Control: the unedited file answers the same queries.
    path.write_bytes(raw)
    with open_spill(str(path)) as run:
        ddg = run.ddg()
        assert ddg.has_node(seq) and ddg.producers(seq) and edge_signatures(run)
        assert seq in backward_slice(ddg, seq).seqs


def test_footer_out_of_order_rows_raise_lake_format_error(spill, tmp_path):
    # The footer names the section, so the open checks only its
    # boundaries; every reader that then touches the section must fail
    # rather than answer from the misordered column.
    raw, footer = spill
    meta, seq = _last_live_section(raw, footer)
    data = bytearray(raw)
    swap_interior_rows(data, meta)
    assert_every_reader_rejects(tmp_path, raw, data, seq, "out of order")


def test_footer_section_with_stale_crc_raises_lake_format_error(spill, tmp_path):
    # One row's kind byte rewritten, the section CRC left stale: the
    # open trusts the footer, so the first read of the section must
    # check the payload against its CRC rather than answer from it.
    raw, footer = spill
    meta, seq = _last_live_section(raw, footer)
    data = bytearray(raw)
    data[meta["off"] + _CHUNK_HEADER.size + meta["n"] - 1] = 0xFF
    assert_every_reader_rejects(tmp_path, raw, data, seq, "CRC")


def test_footer_section_header_disagreeing_with_footer_is_rejected(spill, tmp_path):
    # A section header whose row count, base or payload length differs
    # from the footer entry naming it fails the open itself.
    raw, footer = spill
    meta, _ = _last_live_section(raw, footer)
    for field in (1, 2, 4):  # n, base, payload length
        data = bytearray(raw)
        header = list(_CHUNK_HEADER.unpack_from(data, meta["off"]))
        header[field] += 1
        _CHUNK_HEADER.pack_into(data, meta["off"], *header)
        path = tmp_path / "case.rlk"
        path.write_bytes(bytes(data))
        with pytest.raises(LakeFormatError, match="disagrees"):
            open_spill(str(path))


def test_recovered_out_of_order_rows_raise_lake_format_error(spill, tmp_path):
    # No footer: the recovery scan adopts the sections and must check
    # every row, not only the first and last of each section.
    raw, footer = spill
    data = bytearray(raw[:_TRAILER.unpack_from(raw, len(raw) - _TRAILER.size)[0]])
    swap_interior_rows(data, footer["chunks"][0])
    path = tmp_path / "case.rlk"
    path.write_bytes(bytes(data))
    with pytest.raises(LakeFormatError, match="out of order"):
        open_spill(str(path))
    path.write_bytes(raw[:len(data)])
    with open_spill(str(path)) as run:
        assert run.recovered and len(run.buffer)


# --- truncation at every section boundary ------------------------------------
def test_truncation_at_every_boundary(spill, tmp_path):
    raw, footer = spill
    footer_off, _, _, _ = _TRAILER.unpack_from(raw, len(raw) - _TRAILER.size)
    cuts = {0, _FILE_HEADER.size, footer_off, len(raw) - _TRAILER.size, len(raw)}
    for meta in footer["chunks"]:
        cuts.add(meta["off"])
        cuts.add(meta["off"] + _CHUNK_HEADER.size)
    for cut in sorted(cuts):
        for at in (cut - 1, cut, cut + 1):
            if 0 <= at <= len(raw):
                open_or_reject(tmp_path, raw[:at], f"truncate@{at}")


# --- seeded mutations --------------------------------------------------------
_GARBAGE_VALUES = (None, -1, 0, 1, 1 << 40, -(1 << 40), "x", [], {}, 1.5, True)


def _flip_bits(raw, rng):
    data = bytearray(raw)
    for _ in range(rng.randint(1, 8)):
        i = rng.randint(0, len(data) - 1)
        data[i] ^= 1 << rng.randint(0, 7)
    return bytes(data)


def _garbage_footer(raw, footer, rng):
    choice = rng.randint(0, 2)
    if choice == 0:
        body = bytes(rng.randint(0, 255) for _ in range(rng.randint(0, 200)))
    elif choice == 1:
        body = encode(_GARBAGE_VALUES[rng.randint(0, len(_GARBAGE_VALUES) - 1)])
    else:
        body = encode({
            "format": 1,
            "chunks": [{"off": rng.randint(-8, len(raw)), "n": rng.randint(-2, 5000),
                        "base": rng.randint(-8, 8), "over": rng.randint(-1, 3)}
                       for _ in range(rng.randint(0, 3))],
            "live": [{"id": rng.randint(-1, 3), "head": rng.randint(-1, 5000)}
                     for _ in range(rng.randint(0, 3))],
            "buffer": footer["buffer"],
        })
    return with_footer(raw, body)


def _break_schema(raw, footer, rng):
    broken = copy.deepcopy(footer)
    for _ in range(rng.randint(1, 3)):
        # Walk to a random container, then drop or retype one member.
        node = broken
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = keys[rng.randint(0, len(keys) - 1)]
            child = node[key]
            if isinstance(child, (dict, list)) and child and rng.randint(0, 2):
                node = child
                continue
            if isinstance(node, dict) and rng.randint(0, 3) == 0:
                del node[key]
            else:
                node[key] = _GARBAGE_VALUES[rng.randint(0, len(_GARBAGE_VALUES) - 1)]
            break
    return with_footer(raw, encode(broken))


def test_seeded_mutations_open_or_reject(spill, tmp_path):
    raw, footer = spill
    outcomes = {"opened": 0, "rejected": 0}
    for seed in range(N_SEEDS):
        rng = DeterministicRng(seed)
        mutate = (_flip_bits, _garbage_footer, _break_schema)[seed % 3]
        if mutate is _flip_bits:
            data = _flip_bits(raw, rng)
        else:
            data = mutate(raw, footer, rng)
        label = f"seed {seed} ({mutate.__name__})"
        opened = open_or_reject(tmp_path, data, label)
        outcomes["opened" if opened else "rejected"] += 1
    # Both outcomes occur: the fuzzer reaches the validator and the
    # recovery scan, not just one of them.
    assert outcomes["opened"] > 0 and outcomes["rejected"] > 0, outcomes
