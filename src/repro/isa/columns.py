"""Columnar (structure-of-arrays) trace representation.

A recorded trace spends most of its life being *replayed*: every machine
configuration under study re-walks the same few hundred thousand micro-ops,
and the persistent cache re-loads them across processes.  Keeping one
:class:`~repro.isa.instr.Instr` object per micro-op makes each of those
walks pay a Python-object allocation, four slot lookups, and an ``Op``
enum comparison per instruction.

:class:`TraceColumns` packs the same information into parallel
``array`` buffers:

* ``ops``      — ``array('B')`` of raw :class:`~repro.isa.ops.Op` values;
* ``addrs``    — ``array('q')`` byte addresses (0 for non-memory ops);
* ``sizes``    — ``array('H')`` access sizes in bytes;
* ``meta_idx`` — ``array('H')`` indices into the interned ``metas`` string
  table (index 0 is reserved for ``None``).

The arrays are contiguous C buffers: iterating them yields plain ``int``
objects, serialisation is a handful of ``tobytes``/``frombytes`` calls,
and the timing model's fast path never touches an ``Instr`` at all.
``Instr`` rows are materialised lazily, only for consumers that want the
object view (the reference model, analysis helpers, tests).
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, Optional, Sequence

from repro.isa.instr import Instr
from repro.isa.ops import Op

#: Op objects indexed by raw value — one enum construction per op value,
#: ever, instead of one ``Op(value)`` call per materialised instruction.
OPS_BY_VALUE = tuple(Op(value) for value in range(len(Op)))

#: ``meta_idx`` is a u16 with 0 reserved for ``None``.
MAX_METAS = 0xFFFF


class TraceColumns:
    """Packed parallel-array view of a trace (immutable once built)."""

    __slots__ = ("ops", "addrs", "sizes", "meta_idx", "metas")

    def __init__(
        self,
        ops: array,
        addrs: array,
        sizes: array,
        meta_idx: array,
        metas: Sequence[Optional[str]],
    ):
        if not (len(ops) == len(addrs) == len(sizes) == len(meta_idx)):
            raise ValueError("column lengths disagree")
        self.ops = ops
        self.addrs = addrs
        self.sizes = sizes
        self.meta_idx = meta_idx
        #: interned meta strings; ``metas[0]`` is always ``None``
        self.metas: List[Optional[str]] = list(metas)
        if not self.metas or self.metas[0] is not None:
            raise ValueError("metas[0] must be reserved for None")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_instrs(cls, instrs: Iterable[Instr]) -> "TraceColumns":
        """Pack an ``Instr`` sequence into columns (one linear pass)."""
        builder = ColumnBuilder()
        append = builder.append
        for instr in instrs:
            append(instr.op, instr.addr, instr.size & 0xFFFF, instr.meta)
        return cls(builder.ops, builder.addrs, builder.sizes, builder.meta_idx, builder.metas)

    # ------------------------------------------------------------------
    # row materialisation
    # ------------------------------------------------------------------
    def instr(self, index: int) -> Instr:
        """Materialise one row as an :class:`Instr`."""
        instr = Instr.__new__(Instr)
        instr.op = OPS_BY_VALUE[self.ops[index]]
        instr.addr = self.addrs[index]
        instr.size = self.sizes[index]
        instr.meta = self.metas[self.meta_idx[index]]
        return instr

    def instrs(self) -> List[Instr]:
        """Materialise every row (for the object-at-a-time consumers)."""
        op_objs = OPS_BY_VALUE
        metas = self.metas
        new = Instr.__new__
        out: List[Instr] = []
        append = out.append
        for op, addr, size, midx in zip(self.ops, self.addrs, self.sizes, self.meta_idx):
            instr = new(Instr)
            instr.op = op_objs[op]
            instr.addr = addr
            instr.size = size
            instr.meta = metas[midx]
            append(instr)
        return out

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ops)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceColumns):
            return NotImplemented
        return (
            self.ops == other.ops
            and self.addrs == other.addrs
            and self.sizes == other.sizes
            and self.meta_idx == other.meta_idx
            and self.metas == other.metas
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceColumns({len(self)} ops, {len(self.metas) - 1} metas)"


class ColumnBuilder:
    """Appendable column accumulator — the recorder's backing store.

    Recording through a builder keeps a trace columnar from birth: one
    ``array`` append per field instead of one ``Instr`` object per
    micro-op, which is what makes paper-scale traces (tens of millions of
    micro-ops) fit in memory.  :meth:`snapshot` packs the current
    contents into an immutable :class:`TraceColumns` (copying the
    buffers, so later appends never mutate a published snapshot).
    """

    __slots__ = ("ops", "addrs", "sizes", "meta_idx", "metas", "_index_of")

    def __init__(self):
        self.ops = array("B")
        self.addrs = array("q")
        self.sizes = array("H")
        self.meta_idx = array("H")
        self.metas: List[Optional[str]] = [None]
        self._index_of = {None: 0}

    def append(self, op: int, addr: int = 0, size: int = 0,
               meta: Optional[str] = None) -> None:
        idx = self._index_of.get(meta)
        if idx is None:
            idx = len(self.metas)
            if idx > MAX_METAS:
                raise ValueError("too many distinct meta strings for u16 index")
            self._index_of[meta] = idx
            self.metas.append(meta)
        self.ops.append(op)
        self.addrs.append(addr)
        self.sizes.append(size)
        self.meta_idx.append(idx)

    def append_run(self, op: int, n: int) -> None:
        """Append *n* identical metadata-free ops (ALU padding runs)."""
        self.ops.frombytes(bytes([op]) * n)
        self.addrs.frombytes(bytes(8 * n))
        self.sizes.frombytes(bytes(2 * n))
        self.meta_idx.frombytes(bytes(2 * n))

    def snapshot(self) -> TraceColumns:
        return TraceColumns(
            array("B", self.ops),
            array("q", self.addrs),
            array("H", self.sizes),
            array("H", self.meta_idx),
            list(self.metas),
        )

    def __len__(self) -> int:
        return len(self.ops)
