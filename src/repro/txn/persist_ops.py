"""Facade that fans persistency instructions out to the attached models.

Workload and transaction code issue ``clwb``/``pcommit``/``sfence`` exactly
once, through a :class:`PersistOps`; the facade forwards each instruction to
whichever back-ends are attached:

* a :class:`~repro.isa.recorder.TraceRecorder` (for the timing models), and/or
* a :class:`~repro.pmem.domain.PersistenceDomain` (for crash semantics).

It also implements the *mode gating*: in ``LOG`` mode persistency
instructions are swallowed, in ``LOG_P`` mode fences are swallowed, so the
same workload source produces all of Figure 8's variants.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.isa.recorder import TraceRecorder
from repro.pmem.domain import PersistenceDomain
from repro.txn.modes import PersistMode


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
