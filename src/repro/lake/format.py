"""Append-only spill format for packed dependence chunks.

A spill file is the on-disk twin of a
:class:`~repro.ontrac.packed.PackedTraceBuffer`: the same 15 B/row
column payload (:data:`~repro.ontrac.packed.ROW_PAYLOAD_BYTES`), one
self-describing **chunk section** per sealed chunk, written append-only
while the tracer runs, plus a JSON **footer index** written at close:

``[file header][chunk section]*[footer json][trailer]``

* *File header* (16 B): magic, format version.
* *Chunk section*: a 32 B header (section magic, row count, chunk
  ``cseq_base``, overflow count, payload length, payload CRC32)
  followed by the six column arrays — ``kind``/``cseq_off``/``cpc``/
  ``pdelta``/``ppc``/``tid``, padded so every column lands on its
  natural alignment relative to the file start — and the overflow
  side-table entries (``row, field-tag, value`` triples holding the
  out-of-column values the in-memory store keeps in a per-chunk dict).
* *Footer*: JSON index with per-chunk seq/pc ranges, the live window at
  close (which sections survive, per-chunk eviction head), and the full
  :class:`~repro.ontrac.packed.BufferStats`/``monotone``/``last_cseq``
  buffer state — restoring it makes the adopted buffer's ``epoch``,
  ``complete`` and index caches *bit-identical* to the live one, so
  stored-run slices equal in-memory slices by construction.
* *Trailer* (24 B): footer offset + length + CRC32 + end magic.

Reading never copies column data: :func:`open_spill` mmaps the file and
adopts each section as a real :class:`~repro.ontrac.packed._Chunk`
whose column slots are ``memoryview`` casts straight into the map, so
the existing consumer-span bisects, reverse indexes and the flat edge
view in :mod:`repro.slicing.engine` all run unchanged over the file.

Crash story (the paper's "log cheap, analyze later"): sections are
flushed as chunks seal, so a SIGKILLed writer leaves ``[header]
[sections...][torn tail?]`` with no footer.  :func:`open_spill` then
falls back to a forward scan — adopt every section whose magic, bounds
and CRC check out, stop at the first that does not — and synthesizes
buffer state for the readable prefix (``recovered=True``).  A footer
whose CRC checks out is trusted for bytes, not for shape: every key,
type and range it is read through is validated, and a footer that
fails raises :class:`LakeFormatError` rather than adopting garbage.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from array import array
from collections import Counter

from ..ontrac.packed import (
    ROW_PAYLOAD_BYTES,
    PackedDDG,
    PackedTraceBuffer,
    _Chunk,
)
from ..ontrac.records import KIND_MBYTES

FILE_MAGIC = b"RPLAKE1\n"
TRAILER_MAGIC = b"RLAKEFT\n"
FORMAT_VERSION = 1

_FILE_HEADER = struct.Struct("<8sHH4x")  # magic, version, flags
_CHUNK_HEADER = struct.Struct("<IIqIII4x")  # magic, n, base, over, len, crc
_TRAILER = struct.Struct("<QII8s")  # footer off, footer len, crc, magic
_OVER_ENTRY = struct.Struct("<IIq")  # row, field tag, value

CHUNK_MAGIC = 0x4B4E4843  # "CHNK"

#: buffer-state fields round-tripped through the footer (order matters
#: for nothing but documentation; restoration is by name).
_STATS_FIELDS = (
    "appended", "appended_bytes", "evicted", "evicted_bytes",
    "peak_bytes", "eviction_passes",
)

_LAST_CSEQ_FLOOR = -(1 << 62)


class LakeFormatError(ValueError):
    """The file is not a readable spill of a supported version."""


def _footer_int(table, key: str, where: str, lo: int | None = None,
                hi: int | None = None) -> int:
    """``table[key]`` as an int within ``[lo, hi]``, or LakeFormatError."""
    value = table.get(key) if isinstance(table, dict) else None
    if (
        type(value) is not int
        or (lo is not None and value < lo)
        or (hi is not None and value > hi)
    ):
        raise LakeFormatError(f"footer {where}.{key} is invalid: {value!r}")
    return value


def _pad4(n: int) -> int:
    return (n + 3) & ~3


def _pad8(n: int) -> int:
    return (n + 7) & ~7


def _columns_len(n: int) -> int:
    # kind (pad to 4) + cseq_off + cpc (pad to 4) + pdelta + ppc + tid
    return _pad4(n) + 4 * n + _pad4(2 * n) + 4 * n + 2 * n + 2 * n


def _payload_len(n: int, over_count: int) -> int:
    return _pad8(_pad8(_columns_len(n)) + _OVER_ENTRY.size * over_count)


def buffer_state(buf: PackedTraceBuffer) -> dict:
    """JSON-safe snapshot of the buffer bookkeeping the footer stores."""
    stats = buf.stats
    return {
        "capacity_bytes": buf.capacity_bytes,
        "current_bytes": buf.current_bytes,
        "monotone": buf.monotone,
        "last_cseq": buf._last_cseq,
        "rows": buf._rows,
        "stats": {name: getattr(stats, name) for name in _STATS_FIELDS},
    }


class SpillWriter:
    """Append-only writer for one spill file.

    ``add_chunk``/``add_chunk_from`` append sealed chunk sections
    (flushed immediately so a killed writer loses at most the torn
    tail); ``close`` writes the footer index and trailer.
    """

    def __init__(self, path: str):
        self.path = path
        self._f = open(path, "wb")
        self._f.write(_FILE_HEADER.pack(FILE_MAGIC, FORMAT_VERSION, 0))
        self._f.flush()
        self._index: list[dict] = []
        self._pos = _FILE_HEADER.size
        self.closed = False

    def add_chunk(
        self,
        cseq_base: int,
        n: int,
        kind_b: bytes,
        cseq_off_b: bytes,
        cpc_b: bytes,
        pdelta_b: bytes,
        ppc_b: bytes,
        tid_b: bytes,
        over_items=(),
        seq_range: tuple[int, int] | None = None,
        pc_range: tuple[int, int] | None = None,
    ) -> int:
        """Append one chunk section from raw column bytes; returns the
        section's file id (its position in the footer index)."""
        if self.closed:
            raise LakeFormatError("spill writer is closed")
        if n <= 0:
            raise ValueError("chunk sections must hold at least one row")
        over_items = list(over_items)
        payload = bytearray()
        payload += kind_b
        payload += bytes(_pad4(n) - n)
        payload += cseq_off_b
        payload += cpc_b
        payload += bytes(_pad4(2 * n) - 2 * n)
        payload += pdelta_b
        payload += ppc_b
        payload += tid_b
        payload += bytes(_pad8(len(payload)) - len(payload))
        for (row, tag), value in over_items:
            payload += _OVER_ENTRY.pack(row, tag, value)
        payload += bytes(_pad8(len(payload)) - len(payload))
        over_count = len(over_items)
        if seq_range is None:
            offs = array("I")
            offs.frombytes(cseq_off_b)
            seq_range = (cseq_base + min(offs), cseq_base + max(offs))
        if pc_range is None:
            cpcs = array("H")
            cpcs.frombytes(cpc_b)
            pc_range = (min(cpcs), max(cpcs))
        header = _CHUNK_HEADER.pack(
            CHUNK_MAGIC, n, cseq_base, over_count,
            len(payload), zlib.crc32(payload),
        )
        self._f.write(header)
        self._f.write(payload)
        self._f.flush()
        cid = len(self._index)
        self._index.append({
            "off": self._pos,
            "n": n,
            "base": cseq_base,
            "over": over_count,
            "seq0": seq_range[0], "seq1": seq_range[1],
            "pc0": pc_range[0], "pc1": pc_range[1],
        })
        self._pos += _CHUNK_HEADER.size + len(payload)
        return cid

    def add_chunk_from(self, chunk: _Chunk) -> int:
        """Append the first ``chunk.n`` rows of a live chunk."""
        n = chunk.n
        over = sorted(chunk.over.items()) if chunk.over else ()
        return self.add_chunk(
            chunk.cseq_base, n,
            memoryview(chunk.kind)[:n].tobytes(),
            memoryview(chunk.cseq_off)[:n].tobytes(),
            memoryview(chunk.cpc)[:n].tobytes(),
            memoryview(chunk.pdelta)[:n].tobytes(),
            memoryview(chunk.ppc)[:n].tobytes(),
            memoryview(chunk.tid)[:n].tobytes(),
            over,
        )

    def close(self, live: list[dict], state: dict) -> str:
        """Write the footer index and trailer; ``live`` is the buffer's
        surviving window at close (``[{"id": section, "head": rows
        evicted}, ...]`` in buffer order), ``state`` the
        :func:`buffer_state` snapshot."""
        if self.closed:
            return self.path
        footer = json.dumps({
            "format": FORMAT_VERSION,
            "chunks": self._index,
            "live": live,
            "buffer": state,
        }, separators=(",", ":")).encode()
        self._f.write(footer)
        self._f.write(_TRAILER.pack(
            self._pos, len(footer), zlib.crc32(footer), TRAILER_MAGIC,
        ))
        self._f.flush()
        os.fsync(self._f.fileno())
        self._f.close()
        self.closed = True
        return self.path


class SpillingPackedTraceBuffer(PackedTraceBuffer):
    """A packed buffer that spills every sealed chunk to disk as it
    seals, so the full appended stream (not just the live window)
    survives the process.

    The hot append path is untouched: spilling happens only in
    ``_grow`` — a chunk is sealed exactly when the buffer grows past it
    and sealed chunks never mutate again (eviction only advances their
    ``head``, recorded in the footer at :meth:`close`).  Recycled pool
    chunks were sealed (and therefore spilled) before retirement.
    """

    def __init__(self, capacity_bytes: int, spill_path: str):
        super().__init__(capacity_bytes)
        self.spill_path = spill_path
        self._writer: SpillWriter | None = SpillWriter(spill_path)
        #: id(chunk) -> spill-file section id for already-spilled chunks.
        self._spill_ids: dict[int, int] = {}

    def _grow(self, cseq):
        tail = self._tail
        if tail is not None and tail.n and id(tail) not in self._spill_ids:
            self._spill_ids[id(tail)] = self._writer.add_chunk_from(tail)
        c = super()._grow(cseq)
        # A chunk popped from the recycling pool is a new logical chunk.
        self._spill_ids.pop(id(c), None)
        return c

    def close(self) -> str:
        """Spill the partial tail and write the footer (idempotent)."""
        writer = self._writer
        if writer is None:
            return self.spill_path
        tail = self._tail
        if tail is not None and tail.n and id(tail) not in self._spill_ids:
            self._spill_ids[id(tail)] = writer.add_chunk_from(tail)
        live = [
            {"id": self._spill_ids[id(c)], "head": c.head}
            for c in self._chunks
            if id(c) in self._spill_ids
        ]
        writer.close(live, buffer_state(self))
        self._writer = None
        return self.spill_path


def spill_buffer(buf: PackedTraceBuffer, path: str) -> str:
    """Spill a finished in-memory buffer wholesale (the post-hoc path:
    trace first, decide to keep afterwards)."""
    writer = SpillWriter(path)
    live = []
    for c in buf._chunks:
        if not c.n:
            continue
        cid = writer.add_chunk_from(c)
        live.append({"id": cid, "head": c.head})
    writer.close(live, buffer_state(buf))
    return path


# -- reading -----------------------------------------------------------------
class StoredRun:
    """One mmap'd spill file adopted back into the packed query engine.

    ``buffer`` is a :class:`PackedTraceBuffer` whose chunks are
    zero-copy views into the map; feed it to :meth:`ddg` /
    :func:`~repro.slicing.backward_slice` exactly like a live buffer.
    Closing releases the views — queries made after :meth:`close` fail.
    """

    def __init__(self, path: str):
        import mmap

        self.path = path
        self._file = open(path, "rb")
        size = os.fstat(self._file.fileno()).st_size
        if size < _FILE_HEADER.size:
            self._file.close()
            raise LakeFormatError(f"{path}: truncated spill header")
        self._mm = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        self._mv = memoryview(self._mm)
        self._adopted: list[_Chunk] = []
        self._ddg: PackedDDG | None = None
        try:
            magic, version, _flags = _FILE_HEADER.unpack_from(self._mm, 0)
            if magic != FILE_MAGIC:
                raise LakeFormatError(f"{path}: not a lake spill file")
            if version != FORMAT_VERSION:
                raise LakeFormatError(
                    f"{path}: unsupported spill format version {version}"
                    f" (reader supports {FORMAT_VERSION})"
                )
            footer = self._read_footer()
            if footer is not None:
                self.recovered = False
                self.buffer = self._adopt_footer(footer)
            else:
                self.recovered = True
                self.buffer = self._adopt_recovered()
        except Exception:
            self._release_views()
            self._mm.close()
            self._file.close()
            raise

    # -- layout --------------------------------------------------------------
    def _read_footer(self) -> dict | None:
        mm = self._mm
        size = len(mm)
        if size < _FILE_HEADER.size + _TRAILER.size:
            return None
        off, length, crc, magic = _TRAILER.unpack_from(mm, size - _TRAILER.size)
        if magic != TRAILER_MAGIC:
            return None
        if off < _FILE_HEADER.size or off + length > size - _TRAILER.size:
            return None
        raw = bytes(mm[off:off + length])
        if zlib.crc32(raw) != crc:
            return None
        try:
            footer = json.loads(raw)
        except (ValueError, RecursionError):
            return None
        if not isinstance(footer, dict) or footer.get("format") != FORMAT_VERSION:
            return None
        return footer

    def _adopt_chunk(self, off: int, n: int, base: int, over_count: int) -> _Chunk:
        mv = self._mv
        c = _Chunk.__new__(_Chunk)
        c.cap = n
        c.cseq_base = base
        p = off + _CHUNK_HEADER.size
        c.kind = mv[p:p + n]
        q = p + _pad4(n)
        c.cseq_off = mv[q:q + 4 * n].cast("I")
        q += 4 * n
        c.cpc = mv[q:q + 2 * n].cast("H")
        q += _pad4(2 * n)
        c.pdelta = mv[q:q + 4 * n].cast("I")
        q += 4 * n
        c.ppc = mv[q:q + 2 * n].cast("H")
        q += 2 * n
        c.tid = mv[q:q + 2 * n].cast("H")
        over = None
        if over_count:
            over = {}
            q = p + _pad8(_columns_len(n))
            for row, tag, value in _OVER_ENTRY.iter_unpack(
                bytes(self._mm[q:q + _OVER_ENTRY.size * over_count])
            ):
                over[(row, tag)] = value
        c.over = over
        c.n = n
        c.head = 0
        c.rindex = None
        self._adopted.append(c)
        return c

    def _adopt_footer(self, footer: dict) -> PackedTraceBuffer:
        """Adopt the live sections a CRC-valid footer names, after
        checking every key, type and range the adoption relies on."""
        index = footer.get("chunks")
        live = footer.get("live")
        state = footer.get("buffer")
        if not (isinstance(index, list) and isinstance(live, list)
                and isinstance(state, dict)):
            raise LakeFormatError(
                f"{self.path}: footer needs 'chunks', 'live' and 'buffer'"
            )
        _check_state(state)
        size = len(self._mm)
        chunks = []
        rows = 0
        for entry in live:
            cid = _footer_int(entry, "id", "live[]", 0, len(index) - 1)
            meta = index[cid]
            where = f"chunks[{cid}]"
            off = _footer_int(meta, "off", where, _FILE_HEADER.size)
            n = _footer_int(meta, "n", where, 1)
            base = _footer_int(meta, "base", where)
            over = _footer_int(meta, "over", where, 0)
            head = _footer_int(entry, "head", "live[]", 0, n)
            if off + _CHUNK_HEADER.size + _payload_len(n, over) > size:
                raise LakeFormatError(
                    f"{self.path}: footer references bytes past end of file"
                )
            c = self._adopt_chunk(off, n, base, over)
            c.head = head
            chunks.append(c)
            rows += n - head
        if state["rows"] != rows:
            raise LakeFormatError(
                f"{self.path}: footer counts {state['rows']} live rows,"
                f" its chunks hold {rows}"
            )
        self.index = index
        self.state = state
        return _restore_buffer(chunks, state)

    def _adopt_recovered(self) -> PackedTraceBuffer:
        """No (valid) footer: adopt the readable prefix of sections."""
        mm = self._mm
        size = len(mm)
        pos = _FILE_HEADER.size
        chunks: list[_Chunk] = []
        index: list[dict] = []
        while pos + _CHUNK_HEADER.size <= size:
            magic, n, base, over_count, plen, crc = _CHUNK_HEADER.unpack_from(mm, pos)
            if magic != CHUNK_MAGIC or n <= 0:
                break
            if plen != _payload_len(n, over_count):
                break
            if pos + _CHUNK_HEADER.size + plen > size:
                break
            if zlib.crc32(mm[pos + _CHUNK_HEADER.size:pos + _CHUNK_HEADER.size + plen]) != crc:
                break
            chunks.append(self._adopt_chunk(pos, n, base, over_count))
            index.append({"off": pos, "n": n, "base": base, "over": over_count})
            pos += _CHUNK_HEADER.size + plen
        self.index = index
        # Synthesize the state of a never-evicting buffer holding exactly
        # the recovered rows; evicted=0 keeps the DDG "complete", which is
        # right for the prefix: every stored dependence of a stored node
        # is in the prefix (producers precede consumers in append order).
        rows = 0
        appended_bytes = 0
        monotone = True
        last = _LAST_CSEQ_FLOOR
        for c in chunks:
            rows += c.n
            for code, count in Counter(bytes(c.kind)).items():
                appended_bytes += KIND_MBYTES[code] * count
            offs = list(c.cseq_off)
            if offs != sorted(offs) or c.cseq_base + offs[0] < last:
                monotone = False
            last = max(last, c.cseq_base + max(offs, default=0))
        self.state = {
            "capacity_bytes": max(appended_bytes, 1),
            "current_bytes": appended_bytes,
            "monotone": monotone,
            "last_cseq": last,
            "rows": rows,
            "stats": {
                "appended": rows, "appended_bytes": appended_bytes,
                "evicted": 0, "evicted_bytes": 0,
                "peak_bytes": appended_bytes, "eviction_passes": 0,
            },
        }
        return _restore_buffer(chunks, self.state)

    # -- query surface --------------------------------------------------------
    def ddg(self) -> PackedDDG:
        """The (cached) dependence-graph view over the stored run."""
        if self._ddg is None:
            self._ddg = PackedDDG(self.buffer)
        return self._ddg

    @property
    def rows(self) -> int:
        return self.buffer._rows

    @property
    def total_rows(self) -> int:
        return self.buffer.stats.appended

    def _release_views(self) -> None:
        empty = memoryview(b"")
        for c in self._adopted:
            for name in ("kind", "cseq_off", "cpc", "pdelta", "ppc", "tid"):
                v = getattr(c, name, None)
                if isinstance(v, memoryview):
                    v.release()
                    setattr(c, name, empty)
        self._adopted = []
        self._mv.release()

    def close(self) -> None:
        if self._mm is None:
            return
        self._ddg = None
        self.buffer.release()
        self._release_views()
        self._mm.close()
        self._mm = None
        self._file.close()

    def __enter__(self) -> "StoredRun":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _check_state(state: dict) -> None:
    """Validate a footer's :func:`buffer_state` snapshot."""
    _footer_int(state, "capacity_bytes", "buffer", 1)
    _footer_int(state, "current_bytes", "buffer", 0)
    _footer_int(state, "last_cseq", "buffer")
    _footer_int(state, "rows", "buffer", 0)
    monotone = state.get("monotone")
    if type(monotone) is not bool:
        raise LakeFormatError(f"footer buffer.monotone is invalid: {monotone!r}")
    stats = state.get("stats")
    for name in _STATS_FIELDS:
        _footer_int(stats, name, "buffer.stats", 0)


def _restore_buffer(chunks: list[_Chunk], state: dict) -> PackedTraceBuffer:
    buf = PackedTraceBuffer(capacity_bytes=state["capacity_bytes"])
    buf.current_bytes = state["current_bytes"]
    stats = buf.stats
    for name in _STATS_FIELDS:
        setattr(stats, name, state["stats"][name])
    buf.monotone = state["monotone"]
    buf._last_cseq = state["last_cseq"]
    buf._rows = state["rows"]
    buf._chunks = chunks
    buf._tail = chunks[-1] if chunks else None
    firsts = []
    for c in chunks:
        if c.head < c.n:
            firsts.append(c.cseq_base + c.cseq_off[c.head])
        else:
            # Mirrors the in-memory bookkeeping for a drained tail: the
            # stale entry holds the last evicted row's seq.
            firsts.append(c.cseq_base + c.cseq_off[c.n - 1])
    buf._firsts = firsts
    return buf


def open_spill(path: str) -> StoredRun:
    """mmap a spill file and adopt it into the packed query engine."""
    return StoredRun(path)
