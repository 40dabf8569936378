"""Trace analysis: the workload characterisation behind the paper's §1.

The paper's motivating observation is structural: "persistence
instructions occur in clusters along with expensive fence operations".
These helpers quantify that on any trace:

* :func:`persist_clusters` — maximal runs of persistency/fence
  instructions separated by fewer than ``gap`` ordinary instructions;
* :func:`barrier_distances` — instruction distances between successive
  ``sfence-pcommit-sfence`` barriers (how far speculation must reach);
* :func:`characterise` — the summary used by the characterisation bench.

It also hosts the one-pass pre-analysis behind the timing model's fast
path: :func:`segment_trace` folds a columnar trace into a flat list of
``(compute_run, event, ...)`` entries (see :class:`TraceSegments`), so
the simulator walks one entry per *event* instead of one object per
instruction.  The segmentation is a pure function of the opcode column —
independent of any machine configuration — and is memoized on the trace
alongside its columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.isa.columns import TraceColumns
from repro.isa.ops import Op, FENCE_OPS, PMEM_OPS
from repro.isa.trace import Trace

try:  # segmentation vectorises, and the kernel's columns exist, with numpy
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None

_PERSIST_OPS = PMEM_OPS | FENCE_OPS


@dataclass
class PersistCluster:
    """One run of persistency/fence instructions."""

    start: int                 # trace index of the first persist op
    end: int                   # trace index of the last persist op
    persist_ops: int = 0       # clwb/clflushopt/clflush/pcommit count
    fences: int = 0
    pcommits: int = 0

    @property
    def span(self) -> int:
        return self.end - self.start + 1


def persist_clusters(trace: Trace, gap: int = 16) -> List[PersistCluster]:
    """Group persistency instructions into clusters.

    Two persist ops belong to the same cluster when fewer than *gap*
    ordinary instructions separate them — the paper's "clusters" are the
    log-flush + barrier bursts at the end of each WAL step.
    """
    clusters: List[PersistCluster] = []
    current: PersistCluster = None  # type: ignore[assignment]
    last_persist_index = None
    for index, instr in enumerate(trace):
        if instr.op not in _PERSIST_OPS:
            continue
        if last_persist_index is None or index - last_persist_index > gap:
            current = PersistCluster(start=index, end=index)
            clusters.append(current)
        current.end = index
        last_persist_index = index
        if instr.op in PMEM_OPS:
            current.persist_ops += 1
        if instr.op in FENCE_OPS:
            current.fences += 1
        if instr.op is Op.PCOMMIT:
            current.pcommits += 1
    return clusters


# ----------------------------------------------------------------------
# fast-path segmentation
# ----------------------------------------------------------------------
#: Segment kind for a recognised ``sfence; pcommit; sfence`` barrier
#: triple (a value no :class:`Op` uses).
K_BARRIER = 64
#: Segment kind for the trailing compute run with no event after it.
K_TAIL = -1

_BLOCK_MASK = ~63
_SFENCE = int(Op.SFENCE)
_PCOMMIT = int(Op.PCOMMIT)


@dataclass(frozen=True)
class TraceSegments:
    """Flat event/compute-run segmentation of one trace.

    ``entries`` is a list of 5-tuples ``(run, kind, block, meta_idx,
    index)``: *run* ALU/BRANCH instructions followed by one event of
    *kind* (an :data:`~repro.isa.ops.Op` value, :data:`K_BARRIER` for a
    barrier triple, or :data:`K_TAIL` for the final run with no event).
    *block* is the event's cache-block address (0 for non-memory events),
    *meta_idx* its index into the columns' meta table, and *index* its
    position in the trace (for :data:`K_BARRIER`, the first sfence; for
    :data:`K_TAIL`, the trace length).

    Barrier triples are recognised greedily left-to-right, mirroring the
    dispatch loop's ``i + 2 < n`` pattern check, so the segmentation is
    valid for every machine configuration; a model running with
    ``coalesce_barrier_checkpoints=False`` simply expands a
    :data:`K_BARRIER` entry back into its three constituent ops.

    The columnar mirror of ``entries`` (``runs``/``kinds``/``blocks``/
    ``metas``) plus the batch metadata (``batch_end``/``cum_instrs``)
    feed the vectorized kernel (:mod:`repro.uarch.kernel`):

    * ``batch_end[k]`` — index of the first entry ``>= k`` whose event
      the kernel cannot batch (fence/pcommit/clflush/barrier), or
      ``len(entries)`` when the trace runs out first.  Loads, stores,
      xchg/lock-rmw, clwb/clflushopt, and the tail run are batchable;
    * ``cum_instrs[k]`` — instructions covered by ``entries[:k]``
      (compute run plus 1 for an op event, 3 for a barrier triple).

    Both are pure functions of the opcode column, like the entries
    themselves, so they are computed once here and shared by every
    machine configuration.  They are numpy arrays, and ``None`` when
    numpy is missing: the kernel cannot run then, and the pure-Python
    walker reads only ``entries``.
    """

    entries: List[Tuple[int, int, int, int, int]]
    n: int
    runs: Optional[Sequence[int]] = None
    kinds: Optional[Sequence[int]] = None
    blocks: Optional[Sequence[int]] = None
    metas: Optional[Sequence[int]] = None
    batch_end: Optional[Sequence[int]] = None
    cum_instrs: Optional[Sequence[int]] = None


def _segment_trace_np(columns: TraceColumns) -> TraceSegments:
    """Vectorized segmentation: same entries as the scalar loop below,
    computed with array operations (paper-scale traces segment in
    milliseconds instead of minutes), plus the columns and batch
    metadata the kernel reads."""
    n = len(columns.ops)
    ops = _np.frombuffer(columns.ops, dtype=_np.uint8)
    ev = _np.nonzero(ops > 1)[0]
    kinds_ev = ops[ev].astype(_np.int64)
    n_ev = len(ev)
    # greedy sfence;pcommit;sfence recognition — candidates are adjacent
    # instruction triples; overlapping candidates resolve left-to-right
    # exactly like the scalar scan's i += 3
    chosen: List[int] = []
    if n_ev >= 3:
        cand = (
            (kinds_ev[:-2] == _SFENCE)
            & (kinds_ev[1:-1] == _PCOMMIT)
            & (kinds_ev[2:] == _SFENCE)
            & (ev[2:] - ev[:-2] == 2)
            & (ev[2:] < n)
        )
        next_free = 0
        for k in _np.nonzero(cand)[0].tolist():
            if k >= next_free:
                chosen.append(k)
                next_free = k + 3
    if chosen:
        ch = _np.asarray(chosen, dtype=_np.int64)
        keep = _np.ones(n_ev, dtype=bool)
        keep[ch + 1] = False
        keep[ch + 2] = False
        bar_head = _np.zeros(n_ev, dtype=bool)
        bar_head[ch] = True
        sel = _np.nonzero(keep)[0]
        pos = ev[sel]
        kinds_e = kinds_ev[sel]
        barh = bar_head[sel]
        kinds_e[barh] = K_BARRIER
    else:
        pos = ev
        kinds_e = kinds_ev
        barh = None
    addrs = _np.frombuffer(columns.addrs, dtype=_np.int64)
    meta_idx = _np.frombuffer(columns.meta_idx, dtype=_np.uint16)
    blocks_e = addrs[pos] & _BLOCK_MASK
    metas_e = meta_idx[pos].astype(_np.int64)
    if barh is not None:
        blocks_e[barh] = 0
        metas_e[barh] = 0
    # each entry consumes its event ops (3 for a barrier triple); the
    # compute run is the gap back to the previous entry's consumed end
    cons = pos + _np.where(kinds_e == K_BARRIER, 3, 1)
    n_e = len(pos)
    runs_e = _np.empty(n_e + 1, dtype=_np.int64)
    runs_e[0] = pos[0] if n_e else n
    if n_e:
        _np.subtract(pos[1:], cons[:-1], out=runs_e[1:n_e])
        runs_e[n_e] = n - int(cons[-1])
    kinds_full = _np.concatenate([kinds_e, [K_TAIL]])
    blocks_full = _np.concatenate([blocks_e, [0]])
    metas_full = _np.concatenate([metas_e, [0]])
    batch_end, cum = _batch_extents_np(runs_e, kinds_full)
    # equal block addresses share one int object: a trace touches few
    # distinct blocks, and the walker holds every entry
    blocks = blocks_full.tolist()
    blocks = list(map(dict(zip(blocks, blocks)).__getitem__, blocks))
    entries = list(zip(
        runs_e.tolist(), kinds_full.tolist(), blocks, metas_full.tolist(),
        pos.tolist() + [n],
    ))
    return TraceSegments(
        entries, n, runs_e, kinds_full, blocks_full, metas_full, batch_end, cum
    )


def segment_trace(columns: TraceColumns) -> TraceSegments:
    """One-pass segmentation of a columnar trace (see :class:`TraceSegments`)."""
    if _np is not None:
        return _segment_trace_np(columns)
    ops = columns.ops
    addrs = columns.addrs
    meta_idx = columns.meta_idx
    n = len(ops)
    entries: List[Tuple[int, int, int, int, int]] = []
    append = entries.append
    run = 0
    i = 0
    while i < n:
        op = ops[i]
        if op <= 1:  # ALU / BRANCH
            run += 1
            i += 1
            continue
        if op == _SFENCE and i + 2 < n and ops[i + 1] == _PCOMMIT and ops[i + 2] == _SFENCE:
            # sfence; pcommit; sfence
            append((run, K_BARRIER, 0, 0, i))
            run = 0
            i += 3
            continue
        append((run, op, addrs[i] & _BLOCK_MASK, meta_idx[i], i))
        run = 0
        i += 1
    append((run, K_TAIL, 0, 0, n))
    return TraceSegments(entries, n)


#: Event kinds the vectorized kernel must hand back to the scalar
#: stepper: clflush, pcommit, sfence, mfence, and the barrier macro-op.
_STOP_KINDS = (6, 7, 8, 9, K_BARRIER)


def _batch_extents_np(runs, kinds):
    """Kernel batch extents (``batch_end``/``cum_instrs``) from columns."""
    ne = len(kinds)
    # instructions per entry: the compute run plus the event ops
    ops = _np.where(kinds >= 2, 1, 0)
    ops = _np.where(kinds == K_BARRIER, 3, ops)
    cum = _np.zeros(ne + 1, dtype=_np.int64)
    _np.cumsum(runs + ops, out=cum[1:])
    stop = _np.isin(kinds, _STOP_KINDS)
    stop_idx = _np.nonzero(stop)[0]
    if len(stop_idx):
        pos = _np.searchsorted(stop_idx, _np.arange(ne))
        batch_end = _np.where(
            pos < len(stop_idx),
            stop_idx[_np.minimum(pos, len(stop_idx) - 1)],
            ne,
        )
    else:
        batch_end = _np.full(ne, ne, dtype=_np.int64)
    return batch_end, cum


def barrier_distances(trace: Trace) -> List[int]:
    """Instruction distances between successive persist barriers
    (``sfence [pcommit] sfence`` treated by their pcommit position)."""
    positions = [i for i, instr in enumerate(trace) if instr.op is Op.PCOMMIT]
    return [b - a for a, b in zip(positions, positions[1:])]


@dataclass
class TraceCharacterisation:
    """Summary statistics of a fenced trace's persist structure."""

    instructions: int = 0
    clusters: int = 0
    persist_ops: int = 0
    fences: int = 0
    pcommits: int = 0
    mean_cluster_size: float = 0.0
    mean_barrier_distance: float = 0.0
    min_barrier_distance: int = 0
    clustered_fraction: float = 0.0
    distances: List[int] = field(default_factory=list)


def characterise(trace: Trace, gap: int = 16) -> TraceCharacterisation:
    """Full §1-style characterisation of *trace*."""
    clusters = persist_clusters(trace, gap)
    distances = barrier_distances(trace)
    total_persist = sum(c.persist_ops for c in clusters)
    total_fences = sum(c.fences for c in clusters)
    in_multi = sum(
        c.persist_ops + c.fences for c in clusters if c.persist_ops + c.fences > 1
    )
    all_ops = total_persist + total_fences
    return TraceCharacterisation(
        instructions=len(trace),
        clusters=len(clusters),
        persist_ops=total_persist,
        fences=total_fences,
        pcommits=sum(c.pcommits for c in clusters),
        mean_cluster_size=(all_ops / len(clusters)) if clusters else 0.0,
        mean_barrier_distance=(sum(distances) / len(distances)) if distances else 0.0,
        min_barrier_distance=min(distances) if distances else 0,
        clustered_fraction=(in_multi / all_ops) if all_ops else 0.0,
        distances=distances,
    )
