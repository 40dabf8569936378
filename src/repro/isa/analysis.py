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
``(compute_run, event, ...)`` rows (see :class:`TraceSegments`), so
the simulator walks one entry per *event* instead of one object per
instruction.  The segmentation is a pure function of the opcode column —
independent of any machine configuration — and is memoized on the trace
alongside its columns.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.isa.columns import TraceColumns
from repro.isa.ops import Op, FENCE_OPS, PMEM_OPS
from repro.isa.trace import Trace

try:  # segmentation vectorises with numpy
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

    ``entries`` is a list of rows ``(run, kind, block, meta_idx)``: *run*
    ALU/BRANCH instructions followed by one event of *kind* (an
    :data:`~repro.isa.ops.Op` value, :data:`K_BARRIER` for a barrier
    triple, or :data:`K_TAIL` for the final run with no event).  *block*
    is the event's cache-block address (0 for non-memory events) and
    *meta_idx* its index into the columns' meta table.  A row says
    nothing about where it sits, so equal rows are one shared tuple
    (a trace repeats a few thousand distinct rows); rows are immutable
    and nothing compares them by identity.

    ``starts`` (an ``array('q')``, one value per entry plus the trace
    length) holds positions: ``starts[k]`` is the first instruction of
    ``entries[k]`` (the instructions ``entries[:k]`` cover: its compute
    run plus 1 for an op event, 3 for a barrier triple), so the event of
    ``entries[k]`` sits at ``starts[k] + run`` (for :data:`K_BARRIER`,
    the first sfence).  The segment walker, the multi-core driver and
    the kernel all read this one array.

    Barrier triples are recognised greedily left-to-right, mirroring the
    dispatch loop's ``i + 2 < n`` pattern check, so the segmentation is
    valid for every machine configuration; a model running with
    ``coalesce_barrier_checkpoints=False`` simply expands a
    :data:`K_BARRIER` entry back into its three constituent ops.

    All of it is a pure function of the opcode column, computed once
    here and shared by every machine configuration.  The vectorized
    kernel (:mod:`repro.uarch.kernel`) decides which ops it batches from
    the columns and ``starts`` alone.
    """

    entries: List[Tuple[int, int, int, int]]
    n: int
    starts: array


def _segment_trace_np(columns: TraceColumns) -> TraceSegments:
    """Vectorized segmentation: same entries as the scalar loop below,
    computed with array operations (paper-scale traces segment in
    milliseconds instead of minutes)."""
    n = len(columns.ops)
    ops = _np.frombuffer(columns.ops, dtype=_np.uint8)
    ev = _np.nonzero(ops > 1)[0]
    kinds_ev = ops[ev].astype(_np.int8)
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
    metas_e = meta_idx[pos]
    if barh is not None:
        blocks_e[barh] = 0
        metas_e[barh] = 0
    # each entry consumes its event ops (3 for a barrier triple) and the
    # next entry starts where it ends; its compute run is the gap from
    # there to its own event
    n_e = len(pos)
    starts = _np.empty(n_e + 2, dtype=_np.int64)
    starts[0] = 0
    _np.add(pos, _np.where(kinds_e == K_BARRIER, 3, 1), out=starts[1:n_e + 1])
    starts[n_e + 1] = n
    runs = _np.empty(n_e + 1, dtype=_np.int64)
    _np.subtract(pos, starts[:n_e], out=runs[:n_e])
    runs[n_e] = n - starts[n_e]
    kinds = _np.append(kinds_e, _np.int8(K_TAIL))
    intern = {}.setdefault  # equal rows: one shared tuple
    entries = [intern(row, row) for row in zip(
        runs.tolist(), kinds.tolist(), blocks_e.tolist() + [0],
        metas_e.tolist() + [0],
    )]
    return TraceSegments(entries, n, array("q", starts.tobytes()))


def segment_trace(columns: TraceColumns) -> TraceSegments:
    """One-pass segmentation of a columnar trace (see :class:`TraceSegments`)."""
    if _np is not None:
        return _segment_trace_np(columns)
    ops = columns.ops
    addrs = columns.addrs
    meta_idx = columns.meta_idx
    n = len(ops)
    entries: List[Tuple[int, int, int, int]] = []
    append = entries.append
    starts = array("q", [0])
    begin = starts.append
    intern = {}.setdefault
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
            row = (run, K_BARRIER, 0, 0)
            i += 3
        else:
            row = (run, op, addrs[i] & _BLOCK_MASK, meta_idx[i])
            i += 1
        append(intern(row, row))
        begin(i)
        run = 0
    row = (run, K_TAIL, 0, 0)
    append(intern(row, row))
    begin(n)
    return TraceSegments(entries, n, starts)


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
