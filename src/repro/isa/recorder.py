"""Trace recorder bridging functional workloads and the timing models.

Workload code does not build :class:`~repro.isa.instr.Instr` objects by hand;
it drives a :class:`TraceRecorder`, which provides one method per event kind
(load, store, clwb, ...).  The recorder can also be put into *fast-forward*
mode while a data structure is being populated (the paper's "#InitOps" are
executed in fast-forward in MarssX86) — during fast-forward nothing is
recorded, but functional execution proceeds normally.

Recording is columnar from the first micro-op: every emission appends raw
values to a :class:`~repro.isa.columns.ColumnBuilder` instead of allocating
an ``Instr`` object per micro-op.  At roughly 13 bytes per micro-op this is
what lets paper-scale runs (tens of millions of micro-ops) record in
hundreds of megabytes instead of tens of gigabytes; it also removes the
row-to-column repacking pass the timing model's fast path used to pay.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.isa.columns import ColumnBuilder
from repro.isa.ops import Op
from repro.isa.trace import Trace

_ALU = int(Op.ALU)
_BRANCH = int(Op.BRANCH)
_LOAD = int(Op.LOAD)
_STORE = int(Op.STORE)
_CLWB = int(Op.CLWB)
_CLFLUSHOPT = int(Op.CLFLUSHOPT)
_CLFLUSH = int(Op.CLFLUSH)
_PCOMMIT = int(Op.PCOMMIT)
_SFENCE = int(Op.SFENCE)
_MFENCE = int(Op.MFENCE)
_XCHG = int(Op.XCHG)


class TraceRecorder:
    """Accumulates micro-ops into columnar buffers.

    Parameters
    ----------
    alu_per_load, alu_per_store:
        ALU padding micro-ops emitted alongside each memory access, modelling
        the address arithmetic / comparison work around pointer dereferences
        in the original C benchmarks.

    The recorded sequence is exposed as :attr:`trace` — a column-backed
    :class:`~repro.isa.trace.Trace` snapshot, rebuilt (and re-memoized)
    only when new micro-ops have been recorded since the last access.
    Assigning to :attr:`trace` replaces the recording (the workbench
    resets it to an empty trace when simulation starts).
    """

    def __init__(self, alu_per_load: int = 1, alu_per_store: int = 1):
        self.restart()
        self.alu_per_load = alu_per_load
        self.alu_per_store = alu_per_store
        self._fast_forward = 0

    # ------------------------------------------------------------------
    # the recorded trace
    # ------------------------------------------------------------------
    @property
    def trace(self) -> Trace:
        view = self._view
        if view is not None and self._view_len == len(self._builder):
            return view
        view = Trace.from_columns(self._builder.snapshot())
        self._view = view
        self._view_len = len(self._builder)
        return view

    def restart(self) -> None:
        """Drop everything recorded so far."""
        self._builder = ColumnBuilder()
        self._view: Optional[Trace] = None
        self._view_len = -1

    # ------------------------------------------------------------------
    # fast-forward control
    # ------------------------------------------------------------------
    @property
    def fast_forwarding(self) -> bool:
        return self._fast_forward > 0

    @contextmanager
    def fast_forward(self) -> Iterator[None]:
        """Suppress recording while populating data structures (re-entrant)."""
        self._fast_forward += 1
        try:
            yield
        finally:
            self._fast_forward -= 1

    # ------------------------------------------------------------------
    # event emission
    # ------------------------------------------------------------------
    def load(self, addr: int, size: int = 8, meta: Optional[str] = None) -> None:
        if self._fast_forward:
            return
        builder = self._builder
        pad = self.alu_per_load
        if pad:
            builder.append_run(_ALU, pad)
        builder.append(_LOAD, addr, size, meta)

    def store(self, addr: int, size: int = 8, meta: Optional[str] = None) -> None:
        if self._fast_forward:
            return
        builder = self._builder
        pad = self.alu_per_store
        if pad:
            builder.append_run(_ALU, pad)
        builder.append(_STORE, addr, size, meta)

    def clwb(self, addr: int, meta: Optional[str] = None) -> None:
        if self._fast_forward:
            return
        self._builder.append(_CLWB, addr, 64, meta)

    def clflushopt(self, addr: int, meta: Optional[str] = None) -> None:
        if self._fast_forward:
            return
        self._builder.append(_CLFLUSHOPT, addr, 64, meta)

    def clflush(self, addr: int, meta: Optional[str] = None) -> None:
        if self._fast_forward:
            return
        self._builder.append(_CLFLUSH, addr, 64, meta)

    def pcommit(self, meta: Optional[str] = None) -> None:
        if self._fast_forward:
            return
        self._builder.append(_PCOMMIT, meta=meta)

    def sfence(self, meta: Optional[str] = None) -> None:
        if self._fast_forward:
            return
        self._builder.append(_SFENCE, meta=meta)

    def mfence(self, meta: Optional[str] = None) -> None:
        if self._fast_forward:
            return
        self._builder.append(_MFENCE, meta=meta)

    def xchg(self, addr: int, meta: Optional[str] = None) -> None:
        if self._fast_forward:
            return
        self._builder.append(_XCHG, addr, 8, meta)

    def compute(self, n: int, branch_every: int = 0) -> None:
        """Emit *n* ALU ops, optionally one BRANCH per *branch_every* ALUs.

        Models loop/comparison overhead that is not adjacent to a specific
        memory access (e.g. key comparisons on register-resident values).
        """
        if self._fast_forward or n <= 0:
            return
        if not branch_every:
            self._builder.append_run(_ALU, n)
            return
        append = self._builder.append
        for i in range(n):
            append(_ALU)
            if (i + 1) % branch_every == 0:
                append(_BRANCH)

    def branch(self) -> None:
        if self._fast_forward:
            return
        self._builder.append(_BRANCH)

    def marker(self, label: str) -> None:
        """Emit a zero-cost marker (an ALU op with ``meta`` set).

        Markers let tests split a trace per logical operation; the timing
        model treats them as ordinary single-cycle ALU work.
        """
        if self._fast_forward:
            return
        self._builder.append(_ALU, meta=label)
