"""Facade that fans persistency instructions out to the attached models.

Workload and transaction code issue ``clwb``/``pcommit``/``sfence`` exactly
once, through a :class:`PersistOps`; the facade forwards each instruction to
whichever back-ends are attached:

* a :class:`~repro.isa.recorder.TraceRecorder` (for the timing models), and/or
* a :class:`~repro.pmem.domain.PersistenceDomain` (for crash semantics).

It also implements the *mode gating*: in ``LOG`` mode persistency
instructions are swallowed, in ``LOG_P`` mode fences are swallowed, so the
same workload source produces all of Figure 8's variants.  Since each
variant issues a subset of the full protocol's micro-ops in the same
order, :func:`project_trace` applies the gating to a recorded
``LOG_P_SF`` trace after the fact.
"""

from __future__ import annotations

import re
from array import array
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.isa.columns import TraceColumns
from repro.isa.ops import PMEM_OPS, Op
from repro.isa.recorder import TraceRecorder
from repro.isa.trace import Trace
from repro.pmem.domain import PersistenceDomain
from repro.txn.modes import PersistMode
from repro.txn.undolog import LOG_TAGS


#: Valid flush-instruction choices for :class:`PersistOps`.
FLUSH_POLICIES = ("clwb", "clflushopt", "clflush")


class PersistOps:
    """Mode-gated dispatcher for persistency instructions.

    ``flush_with`` selects which instruction :meth:`clwb` actually emits —
    the paper uses ``clwb`` (keeps the block cached) and notes that
    ``clflush`` "has a similar functionality but much worse performance"
    (footnote 2); the flush-policy ablation bench quantifies both
    alternatives.
    """

    def __init__(
        self,
        mode: PersistMode,
        recorder: Optional[TraceRecorder] = None,
        domain: Optional[PersistenceDomain] = None,
        flush_with: str = "clwb",
    ):
        if flush_with not in FLUSH_POLICIES:
            raise ValueError(f"flush_with must be one of {FLUSH_POLICIES}")
        self.mode = mode
        self.recorder = recorder
        self.domain = domain
        self.flush_with = flush_with
        # dynamic counts (Figure 9 / Figure 11 inputs)
        self.n_clwb = 0
        self.n_clflushopt = 0
        self.n_pcommit = 0
        self.n_sfence = 0

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Gate as ``BASE`` for the block, then restore the real mode
        (also when the block raises).

        Inside, no persistency instruction is issued and — since a
        :class:`~repro.txn.manager.TxManager` reads its mode from here —
        no undo log is written.  Fast-forward populate runs in this state.
        """
        mode, self.mode = self.mode, PersistMode.BASE
        try:
            yield
        finally:
            self.mode = mode

    # ------------------------------------------------------------------
    def clwb(self, addr: int, meta: Optional[str] = None) -> None:
        if not self.mode.pmem:
            return
        if self.flush_with == "clflushopt":
            self.clflushopt(addr, meta)
            return
        if self.flush_with == "clflush":
            self._clflush(addr, meta)
            return
        self.n_clwb += 1
        if self.recorder is not None:
            self.recorder.clwb(addr, meta)
        if self.domain is not None:
            self.domain.clwb(addr, meta)

    def _clflush(self, addr: int, meta: Optional[str] = None) -> None:
        self.n_clflushopt += 1
        if self.recorder is not None:
            self.recorder.clflush(addr, meta)
        if self.domain is not None:
            # functionally a flush; the serialising cost is a timing matter
            self.domain.clflushopt(addr, meta)

    def clflushopt(self, addr: int, meta: Optional[str] = None) -> None:
        if not self.mode.pmem:
            return
        self.n_clflushopt += 1
        if self.recorder is not None:
            self.recorder.clflushopt(addr, meta)
        if self.domain is not None:
            self.domain.clflushopt(addr, meta)

    def pcommit(self, meta: Optional[str] = None) -> None:
        if not self.mode.pmem:
            return
        self.n_pcommit += 1
        if self.recorder is not None:
            self.recorder.pcommit(meta)
        if self.domain is not None:
            self.domain.pcommit(meta)

    def sfence(self, meta: Optional[str] = None) -> None:
        if not self.mode.fences:
            return
        self.n_sfence += 1
        if self.recorder is not None:
            self.recorder.sfence(meta)
        if self.domain is not None:
            self.domain.sfence(meta)

    # ------------------------------------------------------------------
    def persist_barrier(self, meta: Optional[str] = None) -> None:
        """The paper's ``sfence; pcommit; sfence`` sequence (§2.2)."""
        self.sfence(meta)
        self.pcommit(meta)
        self.sfence(meta)


def _dropped(mode: PersistMode) -> "re.Pattern[bytes]":
    """A bytes class of the ``LOG_P_SF`` opcodes the gating above does
    not issue in *mode*: sfences without :attr:`~PersistMode.fences` and
    the PMEM ops without :attr:`~PersistMode.pmem`.  Without
    :attr:`~PersistMode.logging`, :func:`project_trace` also drops the
    undo log's loads and stores (:func:`_logged_accesses`)."""
    ops = set() if mode.fences else {Op.SFENCE}
    if not mode.pmem:
        ops |= PMEM_OPS
    return re.compile(b"[" + re.escape(bytes(sorted(ops))) + b"]")


def _logged_accesses(columns: TraceColumns, alu_per_load: int, alu_per_store: int):
    """The ``(begin, end)`` op span of each load and store tagged with
    one of :data:`~repro.txn.undolog.LOG_TAGS`, and of the ALU ops
    recorded right before it (``ValueError`` if they are missing).  Only
    the entries whose first meta-index byte is a logged index's are
    visited (a regex over a strided copy of that byte)."""
    meta_idx = columns.meta_idx
    logged = {i for i, meta in enumerate(columns.metas) if meta in LOG_TAGS}
    if not logged:
        return []
    lane = re.escape(array("H", sorted(logged)).tobytes()[::2])
    first_bytes = bytes(memoryview(meta_idx).cast("B")[::2])
    code, alu = columns.ops.tobytes(), bytes([Op.ALU])
    runs = {int(Op.LOAD): alu * alu_per_load, int(Op.STORE): alu * alu_per_store}
    spans = []
    for match in re.finditer(b"[" + lane + b"]", first_bytes):
        at = match.start()
        run = runs.get(code[at])
        if run is None or meta_idx[at] not in logged:
            continue
        begin = at - len(run)
        if begin < 0 or not code.startswith(run, begin):
            raise ValueError(f"logged access at op {at} lacks its ALU padding")
        spans.append((begin, at + 1))
    return spans


def project_trace(
    trace: Trace, mode: PersistMode, alu_per_load: int = 1, alu_per_store: int = 1
) -> Trace:
    """The trace *mode* records, from the ``LOG_P_SF`` *trace* of the
    same populated workload and timed operations: *trace* without what
    the gating above drops in *mode* (:func:`_dropped`).  Without
    logging, the undo log's loads and stores carry one of
    :data:`~repro.txn.undolog.LOG_TAGS` and go with the
    *alu_per_load*/*alu_per_store* ALU ops recorded right before them
    (``ValueError`` if those are missing).  The kept spans are copied
    into exact-size columns and the meta table is rebuilt in
    first-appearance order, byte for byte as *mode* records.
    """
    if mode is PersistMode.LOG_P_SF:
        return trace
    columns = trace.columns()
    cuts = [match.span() for match in _dropped(mode).finditer(columns.ops)]
    if not mode.logging:
        cuts = sorted(cuts + _logged_accesses(columns, alu_per_load, alu_per_store))
    spans, start = [], 0
    for begin, end in cuts:
        if begin > start:
            spans.append((start, begin))
        start = end
    spans.append((start, len(columns.ops)))
    kept = []
    for column in (columns.ops, columns.addrs, columns.sizes, columns.meta_idx):
        raw, width = memoryview(column).cast("B"), column.itemsize
        kept.append(array(column.typecode, b"".join(
            raw[begin * width:end * width] for begin, end in spans
        )))
    order = [old for old in dict.fromkeys(kept[3]) if old]
    if order != list(range(1, len(order) + 1)):
        new = {old: index for index, old in enumerate([0] + order)}
        kept[3] = array("H", [new[old] for old in kept[3]])
    metas = [None] + [columns.metas[old] for old in order]
    return Trace.from_columns(TraceColumns(*kept, metas))
