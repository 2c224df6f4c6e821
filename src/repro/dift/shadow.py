"""Shadow state: taint labels for registers and memory.

Mirrors the guest's storage one-for-one: a label per (thread, register)
and per memory cell.  Untainted locations are simply absent, so
:attr:`tainted_cells` / :attr:`shadow_bytes` directly measure the
footprint the paper reports as "taint memory overhead".

Memory labels live in one plain ``dict`` (address -> label), shared by
the inline engine, both propagation kernels, the summary layer and the
helpers.  Per-record ``get``/``pop``/``[]=`` is the propagation hot
path, and there a dict beats every paged or columnar layout tried.
"""

from __future__ import annotations

from .policy import TaintPolicy


class ShadowState:
    """Taint labels for one run's registers and memory cells."""

    def __init__(
        self,
        policy: TaintPolicy,
        regs: dict[tuple[int, int], object] | None = None,
        mem: dict[int, object] | None = None,
    ):
        self.policy = policy
        #: (tid, reg) -> label, only for tainted registers.
        self.regs: dict[tuple[int, int], object] = {} if regs is None else regs
        #: address -> label, only for tainted cells.
        self.mem: dict[int, object] = {} if mem is None else mem
        #: high-water mark of simultaneously tainted locations (regs + cells).
        self.peak_locations = 0

    # -- registers -------------------------------------------------------
    def reg(self, tid: int, reg: int) -> object | None:
        return self.regs.get((tid, reg))

    def set_reg(self, tid: int, reg: int, label: object | None) -> None:
        key = (tid, reg)
        if label is None:
            self.regs.pop(key, None)
        else:
            self.regs[key] = label
            self._bump_peak()

    # -- memory ------------------------------------------------------------
    def cell(self, addr: int) -> object | None:
        return self.mem.get(addr)

    def set_cell(self, addr: int, label: object | None) -> None:
        if label is None:
            self.mem.pop(addr, None)
        else:
            self.mem[addr] = label
            self._bump_peak()

    def _bump_peak(self) -> None:
        size = len(self.mem) + len(self.regs)
        if size > self.peak_locations:
            self.peak_locations = size

    def clear_range(self, base: int, size: int) -> None:
        """Untaint ``[base, base+size)`` (used when blocks are freed).

        One pass over ``min(range size, tainted cells)`` entries: when
        the range is wider than the tainted set it scans the keys
        instead, so clearing a huge range that overlaps mostly
        untainted holes never visits every hole.
        """
        mem = self.mem
        if size > len(mem):
            end = base + size
            for addr in [a for a in mem if base <= a < end]:
                del mem[addr]
        else:
            for addr in range(base, base + size):
                mem.pop(addr, None)

    # -- measurement ------------------------------------------------------------
    @property
    def tainted_cells(self) -> int:
        return len(self.mem)

    @property
    def tainted_regs(self) -> int:
        return len(self.regs)

    @property
    def shadow_bytes(self) -> int:
        """Modeled shadow-memory size in bytes."""
        return (len(self.mem) + len(self.regs)) * self.policy.label_bytes

    def mem_items(self) -> dict[int, object]:
        """Tainted cells as a fresh dict (safe to ship or keep)."""
        return dict(self.mem)
