"""Dependence records and the byte-accounting encoder model.

ONTRAC's headline numbers are about *stored bytes per executed
instruction*: 16 B/instr for naive tracing versus 0.8 B/instr with all
optimizations, which is what lets a 16 MB buffer hold a 20 M-instruction
history window.  We therefore model the encoding explicitly: every
record type has a modeled wire size (what the paper's compact encoding
would spend), and the circular buffer evicts by those bytes.

Sizes (modeled on delta-encoded producer references):

=====================  =====  =========================================
record                 bytes  contents
=====================  =====  =========================================
INSTR (naive only)       4    pc of the executed instruction
REG_DEP                  6    producer seq delta + register id
MEM_DEP                  8    producer seq delta + address delta
CONTROL (branch)         1    branch outcome bit stream, amortized
CONTROL (edge)           0    derivable from outcomes + static CFG
SUMMARY                  6    traced ancestor reference
WAR / WAW                8    like MEM_DEP (multithreaded slicing ext.)
TRACE_FORM              16    one-time hot-trace registration
=====================  =====  =========================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class DepKind(enum.Enum):
    # Members are singletons and enums compare by identity, so identity
    # hashing is equivalent to Enum's name-based hash — but resolves at
    # C speed in the KIND_CODES and RECORD_BYTES dict lookups.
    __hash__ = object.__hash__

    INSTR = "instr"  # naive-mode per-instruction record
    REG = "reg"  # register data dependence
    MEM = "mem"  # memory data dependence (RAW)
    IREG = "ireg"  # register dep recoverable from the binary (0 bytes)
    IMEM = "imem"  # memory dep recoverable from a prior record (0 bytes)
    CONTROL = "control"  # dynamic control dependence edge
    BRANCH = "branch"  # branch outcome record (1 byte, no edge)
    SUMMARY = "summary"  # dependence through untraced code
    WAR = "war"  # write-after-read (multithreaded extension)
    WAW = "waw"  # write-after-write (multithreaded extension)


#: modeled stored size per record kind, in bytes.
RECORD_BYTES: dict[DepKind, int] = {
    DepKind.INSTR: 4,
    DepKind.REG: 6,
    DepKind.MEM: 8,
    DepKind.IREG: 0,
    DepKind.IMEM: 0,
    DepKind.CONTROL: 0,
    DepKind.BRANCH: 1,
    DepKind.SUMMARY: 6,
    DepKind.WAR: 8,
    DepKind.WAW: 8,
}

TRACE_FORMATION_BYTES = 16

# --- packed-store encoding tables ------------------------------------------
# The columnar store (repro.ontrac.packed) keeps one unsigned byte per
# row for the kind; these tables fix the code assignment and give the
# hot paths O(1) list lookups for the modeled byte size.
#: DepKind -> small integer code used in the packed kind column.
KIND_CODES: dict[DepKind, int] = {kind: code for code, kind in enumerate(DepKind)}
#: inverse of :data:`KIND_CODES` (code -> DepKind), indexable by code.
KIND_BY_CODE: tuple[DepKind, ...] = tuple(DepKind)
#: modeled stored bytes per kind code (RECORD_BYTES, indexable by code).
KIND_MBYTES: tuple[int, ...] = tuple(RECORD_BYTES[kind] for kind in DepKind)
#: codes of the node-only record kinds (INSTR/BRANCH: producer fields
#: are unused and reconstruct as -1).
NODE_KIND_CODES: frozenset[int] = frozenset(
    (KIND_CODES[DepKind.INSTR], KIND_CODES[DepKind.BRANCH])
)


@dataclass(frozen=True)
class DepRecord:
    """One stored dependence: ``consumer`` depends on ``producer``.

    ``seq`` values are dynamic instruction numbers; ``pc`` values are
    static instruction indices (the statement identity used by slicing
    reports).  For INSTR/BRANCH records the producer fields are unused.
    """

    kind: DepKind
    consumer_seq: int
    consumer_pc: int
    producer_seq: int = -1
    producer_pc: int = -1
    tid: int = 0

    @property
    def bytes(self) -> int:
        return RECORD_BYTES[self.kind]

    def __str__(self) -> str:
        if self.kind in (DepKind.INSTR, DepKind.BRANCH):
            return f"{self.kind.value}@{self.consumer_seq}(pc={self.consumer_pc})"
        return (
            f"{self.kind.value}: {self.consumer_seq}(pc={self.consumer_pc})"
            f" -> {self.producer_seq}(pc={self.producer_pc})"
        )
