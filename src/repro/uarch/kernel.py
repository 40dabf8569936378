"""Vectorized NumPy batch kernel for the sliding-window pipeline model.

The segment walker (:meth:`repro.uarch.pipeline.PipelineModel._run_segments`)
advances one instruction at a time through Python bytecode.  This module
replaces its inner loops with array operations over whole *batches*: the
maximal spans of segment entries between persist events (fences, pcommits,
clflushes, barrier triples) that contain only compute runs, loads, stores,
xchg/lock-rmw, and clwb/clflushopt — everything whose timing the walker
handles inline.  Scalar handoff happens only at the event boundaries, which
the walker's slow phase steps exactly as before.

The batch solve exploits three structural facts of the walker's arithmetic:

* **timing-independent classification** — cache hit levels, LRU movement,
  dirty writebacks, and pointer-chase/field assignment depend only on the
  *order* of accesses, never on cycle times.  One in-order pass against the
  real :class:`~repro.uarch.caches.CacheHierarchy` (with the memory
  controller swapped for a collector so WPQ enqueues can be replayed later
  at their true times) fully determines per-op latencies.  Runs of
  guaranteed L1 hits — resident in the sorted tag snapshot taken at batch
  start (cached across batches via the L1's membership ``stamp``) and not
  evicted since — are applied in bulk: each distinct tag refreshed once, in
  last-access order, with its final dirty bit, which is exactly what the
  sequential pop/reinsert sequence leaves behind;

* **max-plus strand recurrences** — fetch, dispatch, and retire all obey
  ``x[i] = max(c[i], x[i-width] + 1)``.  Per width-strand this solves in
  closed form as a prefix maximum of ``c[j] - j//width`` (translation
  invariance of max/+), one ``np.maximum.accumulate`` per array.  The
  fetch recurrence folds into dispatch (prefix-max is a closure operator,
  so ``SM(max(SM(a), b)) = SM(max(a, b))``), and the pointer-chase chain
  ``x[k] = max(dm[k], x[k-1]) + lat[k]`` solves as ``cumsum + running
  max``;

* **bounded feedback lags** — the cross-array couplings (fetch-queue full,
  ROB full, LSQ full) reach back at least ``min(fetchq, rob, lsq)``
  instructions, so iterating the monotone constraint system from a lower
  bound makes both the dispatch and retire arrays exact for index ``i``
  after ``ceil(i / min_lag)`` rounds.  Chunks no longer than
  ``3 * min_lag`` therefore run a fixed number of passes with no
  convergence test at all; longer chunks iterate until *both* arrays
  repeat (a Kleene chain that repeats has reached its least fixpoint —
  the walker's causal solution).

The kernel keeps no per-trace state.  :func:`advance` finds where its
batch ends with one search of the opcode column, then runs the batch one
chunk of at most :data:`KERNEL_MAX_CHUNK` instructions at a time: it
builds the chunk's op index (op positions, kinds, blocks, pointer-chase
structure) from the column slices (:class:`_ChunkOps`), classifies the
chunk, solves it, and replays its WPQ writebacks, so its memory is
bounded by the chunk size.  Every quantity is computed exactly as the
walker computes it — the kernel is cycle-for-cycle identical, asserted
by the conformance matrix and the property tests in
``tests/uarch/test_kernel.py``.
"""

from __future__ import annotations

import re
import warnings
from bisect import bisect_right
from collections import deque
from time import perf_counter as _perf_counter

from repro.isa.analysis import _BLOCK_MASK
from repro.obs import telemetry as _telemetry

#: Backend names accepted by :class:`repro.uarch.config.PipelineConfig`
#: and :func:`repro.uarch.pipeline.simulate`.
BACKENDS = ("auto", "python", "numpy")

#: Oldest numpy this kernel is tested against.
NUMPY_MIN_VERSION = (1, 20)

#: Batches shorter than this stay on the Python walker: the kernel's
#: fixed per-batch cost (classification snapshot, chunk set-up, fixpoint
#: passes) only amortises past about a thousand instructions per
#: event-free span, measured across the harness benchmark sweep
#: (event-dense logging traces hit this constantly between barriers).
#: Read at call time, so tests can lower it to force the kernel onto
#: short spans.
KERNEL_MIN_BATCH = 1024

#: Batches are indexed, classified and solved in chunks of at most this
#: many instructions, so the working-set arrays stay cache-sized and the
#: kernel's memory is bounded by the chunk, however long the batch (tens
#: of millions of event-free instructions at paper scale) or the trace.
#: Read at call time, so tests can lower it to make batches cross chunk
#: boundaries.
KERNEL_MAX_CHUNK = 1 << 16

#: Deep-feedback bailout: when the fixpoint's wave front advances so
#: slowly that more than this many further passes are implied (ROB-bound
#: pointer-chase serialisation makes the wave crawl ~rob_entries
#: instructions per full-array pass), solve the chunk's recurrences with
#: one direct scalar sweep instead — a single pass of Python bytecode
#: over already-classified latencies beats dozens of vector passes.  The
#: threshold is the measured cost ratio of the scalar sweep to one
#: vector pass per instruction (~450ns vs ~27ns).
KERNEL_SCALAR_EST = 16

#: "No constraint" placeholder: far below any reachable cycle count but
#: safe against int64 underflow through the +depth/+1 arithmetic.
_SENT = -(1 << 62)

np = None
_unavailable_reason = None
try:
    import numpy as _numpy
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _unavailable_reason = "numpy is not installed"
else:
    try:
        _version = tuple(int(part) for part in _numpy.__version__.split(".")[:2])
    except ValueError:  # dev builds like "2.4.0.dev0+..." still parse [:2]
        _version = NUMPY_MIN_VERSION
    if _version < NUMPY_MIN_VERSION:
        _unavailable_reason = (
            f"numpy {_numpy.__version__} is older than the supported "
            f"{'.'.join(map(str, NUMPY_MIN_VERSION))}"
        )
    else:
        np = _numpy


def numpy_available() -> bool:
    """Whether the numpy backend can actually run in this process."""
    return np is not None


def unavailable_reason():
    """Why the numpy backend is unavailable, or ``None`` if it isn't."""
    return _unavailable_reason


_warned_fallback = False


def phase_seconds():
    """Cumulative wall-clock split of :func:`advance`: the order-only
    cache classification pass vs everything else (the recurrence solve,
    stats, and state spill), read from the registry's
    ``kernel.*_seconds`` counters.  Callers take before/after deltas, so
    perf regressions are attributable to the right phase."""
    return {
        "classify": _telemetry.get("kernel.classify_seconds", 0.0),
        "solve": _telemetry.get("kernel.solve_seconds", 0.0),
    }


def resolve_backend(requested=None) -> str:
    """Resolve a backend request to the backend that will actually run.

    *requested* defaults to ``auto``.  ``auto`` and ``numpy`` degrade to
    ``python`` when numpy is missing or too old — with a single warning
    per process, after which the fallback is silent.
    """
    request = (requested or "auto").strip().lower() or "auto"
    if request not in BACKENDS:
        raise ValueError(
            f"unknown kernel backend {request!r}; expected one of {BACKENDS}"
        )
    if request == "python":
        return "python"
    if np is None:
        global _warned_fallback
        if not _warned_fallback:
            _warned_fallback = True
            warnings.warn(
                f"repro kernel: {_unavailable_reason}; "
                "falling back to the pure-Python walker",
                RuntimeWarning,
                stacklevel=2,
            )
        return "python"
    return "numpy"


# ----------------------------------------------------------------------
# strand prefix-max solver
# ----------------------------------------------------------------------
_koffs_cache = {}


def _koffs(length, width):
    """``i // width`` for ``i < length`` (the strand step counts)."""
    key = (length, width)
    cached = _koffs_cache.get(key)
    if cached is None:
        if len(_koffs_cache) > 16:
            _koffs_cache.clear()
        cached = np.arange(length, dtype=np.int64) // width
        _koffs_cache[key] = cached
    return cached


def _strand_max(c, seed, width, koffs, grid, out):
    """Least ``x`` with ``x[i] = max(c[i], x[i-width] + 1)`` into *out*.

    *seed* gives ``x[-width:]`` (oldest first); *grid* is a shared
    ``(rows+1, width)`` workspace.  Subtracting the strand step count
    ``i // width`` turns the +1-per-step recurrence into a plain prefix
    maximum down each of the ``width`` strand columns.
    """
    length = c.shape[0]
    rows = -(-length // width)
    g = grid[: rows + 1]
    g[0] = seed
    g[0] += 1  # seed sits at step -1: y = x - (-1)
    body = g[1:].reshape(-1)
    body[:length] = c
    body[:length] -= koffs
    if rows * width > length:
        body[length:] = _SENT
    np.maximum.accumulate(g, axis=0, out=g)
    np.add(body[:length], koffs, out=out)


# ----------------------------------------------------------------------
# per-chunk op index
# ----------------------------------------------------------------------
#: Opcodes that end a batch: clflush, pcommit, sfence and mfence (a
#: barrier triple starts with an sfence).  Everything else past
#: ALU/BRANCH — loads, stores, xchg/lock-rmw, clwb/clflushopt — the
#: kernel batches.
_BATCH_STOP = re.compile(rb"[\x06-\x09]")


class _ChunkOps:
    """Op-level index of one chunk, built from its column slices.

    A batch holds no opcode of :data:`_BATCH_STOP`, so the chunk's ops
    past ALU/BRANCH are exactly the batchable ones.  ``pos`` holds their
    chunk-local positions; xchg/lock-rmw count as stores.  ``tagged``,
    ``chase`` and ``field`` split the chunk's loads (indices among them).
    An untagged load is a *field* access exactly when it repeats the chain
    head and a chase otherwise, and every untagged load leaves the chain
    head at its own block, so the chain head before each untagged load is
    the previous one's block — or, for the chunk's first, *chain_block*,
    the model's head carried into the chunk.  ``gov`` gives each field
    load the chunk's chase load it follows (-1: the chain carried in),
    and ``chain_block`` ends as the head the chunk leaves behind.
    """

    __slots__ = (
        "pos", "kind", "block", "is_load", "is_store", "is_flush",
        "load_pos", "tagged", "chase", "field", "gov", "chain_block",
    )

    def __init__(self, columns, abs0, length, chain_block):
        ops = np.frombuffer(columns.ops, dtype=np.uint8, count=length,
                            offset=abs0)
        self.pos = pos = np.flatnonzero(ops > 1)
        self.kind = kind = ops[pos]
        self.block = block = np.frombuffer(
            columns.addrs, dtype=np.int64, count=length, offset=abs0 * 8
        )[pos] & _BLOCK_MASK
        self.is_load = il = kind == 2
        self.is_flush = ifl = (kind == 4) | (kind == 5)
        self.is_store = ~(il | ifl)
        self.load_pos = load_pos = pos[il]
        meta = np.frombuffer(columns.meta_idx, dtype=np.uint16, count=length,
                             offset=abs0 * 2)
        untagged = meta[load_pos] == 0
        self.tagged = np.flatnonzero(~untagged)
        u_idx = np.flatnonzero(untagged)
        u_blocks = block[il][u_idx]
        prev = np.empty_like(u_blocks)
        if len(u_blocks):
            prev[0] = chain_block
            prev[1:] = u_blocks[:-1]
            chain_block = int(u_blocks[-1])
        f = u_blocks == prev
        self.field = u_idx[f]
        self.chase = u_idx[~f]
        self.gov = np.cumsum(~f)[f] - 1
        self.chain_block = chain_block


# ----------------------------------------------------------------------
# classification (timing-independent cache pass)
# ----------------------------------------------------------------------
class _WritebackCollector:
    """Memory-controller stand-in during classification.

    Dirty L3 victims and flush writebacks are recorded with the op that
    caused them; :func:`advance` replays them into the real controller —
    same blocks, same order — once the op's cycle time is known.
    """

    __slots__ = ("records", "op")

    def __init__(self):
        self.records = []
        self.op = None

    def enqueue_writeback(self, block, now):
        self.records.append((self.op, block))


#: Snapshot refresh granularity: membership is re-derived from the real
#: L1 every this-many ops, so the closed-set analysis never works from
#: stale residency.  Doubles (up to the cap) while sub-batches stay
#: fully closed — a frozen L1 needs no refresh at all.
_CLASSIFY_SUB = 2048
_CLASSIFY_SUB_MAX = 1 << 15


def _l1_snapshot(model, l1):
    """Sorted array of the L1's resident tags, cached on the model and
    invalidated by the L1's membership ``stamp`` (LRU refreshes — the
    only thing bulk hit runs do — never bump it)."""
    stamp = l1.stamp
    snap = model.__dict__.get("_kernel_l1snap")
    if snap is not None and snap[0] == stamp:
        return snap[1]
    out = []
    ext = out.extend
    for ways in l1._sets:
        ext(ways)
    arr = np.array(out, dtype=np.int64)
    arr.sort()
    model.__dict__["_kernel_l1snap"] = (stamp, arr)
    return arr


def _elide_runs(tags, is_flush, is_store):
    """Same-tag run elision for one chunk's ops (L1 *tags*).

    A run of consecutive same-tag loads/stores collapses to its head:
    within a batch no event separates adjacent ops, so the head leaves
    the tag resident at MRU (hit-refreshed or miss-filled), and every
    tail op is a guaranteed L1 hit that at most re-sets the MRU slot's
    dirty bit.  The field-access idiom (chase load + field loads and
    stores on one node) makes this a large fraction of all ops.  Tail
    ops are skipped everywhere and counted as the hits they are; a tail
    *store*'s dirty bit is carried to the run head (``eff_store``), so
    the head's replay leaves the exact same line state.  The chunk's
    first op never qualifies (its predecessor may be an event, another
    phase entirely, or the previous chunk's last op, which replays
    exactly either way), and flushes neither elide nor anchor a
    run: clwb leaves a missing tag missing, clflushopt actively evicts
    — neither establishes residency the way a load/store fill does.

    Returns ``(dup_run, keep, eff_store)`` masks over the chunk's ops.
    """
    nq = len(tags)
    dup_run = np.zeros(nq, dtype=bool)
    if nq > 1:
        np.equal(tags[1:], tags[:-1], out=dup_run[1:])
        np.logical_and(dup_run, ~is_flush, out=dup_run)
        dup_run[1:] &= ~is_flush[:-1]
    keep = ~dup_run
    eff_store = is_store
    if dup_run.any():
        heads = np.nonzero(keep)[0]
        eff = np.zeros(nq, dtype=bool)
        eff[heads] = np.maximum.reduceat(
            eff_store.astype(np.int8), heads
        ).astype(bool)
        eff_store = eff
    return dup_run, keep, eff_store


def _classify(model, ix):
    """Classify one chunk's ops (:class:`_ChunkOps` *ix*): cache
    behaviour from access order alone, in one in-order pass against the
    real caches.

    Hit levels, LRU movement, dirty writebacks, and latencies depend only
    on access order, never on cycle times, so this pass fully determines
    the chunk's cache behaviour.  The work splits along L1 *sets*,
    because LRU state is strictly per-set: within a sub-batch, a set
    whose ops are all loads/stores on tags resident at sub-batch start is
    **closed** — every op is an L1 hit, membership never changes, and
    nothing reaches the L2/L3 or the WPQ — so its ops commute with every
    op outside the set.  Closed-set ops are applied in bulk at sub-batch
    end: each distinct tag refreshed once, in order of its last access,
    with its final dirty bit (old-dirty OR any store), exactly the state
    the sequential pop/reinsert sequence leaves.  Any set containing a
    non-resident tag or a flush is *offending*; its ops (all of them, to
    keep that set's LRU order exact) replay through the per-op loop in
    global order, which preserves their relative order and therefore the
    cross-set L2/L3/WPQ interactions.  Sub-batching bounds snapshot
    staleness: residency is re-derived from the real L1 (stamp-gated)
    every ``_CLASSIFY_SUB`` ops, and fills during one sub-batch only ever
    land in offending sets, so closed-set membership cannot rot within a
    sub-batch.

    Returns per-op latencies (meaningful for loads and stores), flush
    writeback flags (meaningful for flushes), the deferred WPQ records
    ``(op, block)`` in the order the walker would enqueue them, and the
    L1-hit count the walker would have accumulated inline (its
    access-count delta is identical).
    """
    caches = model.caches
    l1 = caches.l1
    sets1 = l1._sets
    mask1 = l1.n_sets - 1
    shift1 = l1.block_bits
    kindb = ix.kind
    blockb = ix.block
    is_flush = ix.is_flush
    tags_all = blockb >> shift1
    dup_run, keep, eff_store = _elide_runs(tags_all, is_flush, ix.is_store)
    nway1 = l1.ways
    l1_lat = model.config.l1.latency
    access = caches.access
    cflush = caches.flush

    # -- inlined L1-miss service ---------------------------------------
    # ``caches.access`` is ~10 attribute lookups and method calls per op;
    # on miss-heavy batches the exact replay spends most of its time there.
    # These closures replay the identical state transitions (LRU refresh
    # order, victim cascade, stamp bumps) on the level dicts directly and
    # batch the statistics, flushed once in the ``finally`` below.  Only
    # usable when every level shares one block geometry (always true for
    # Table-2 configs); otherwise fall back to the real method.
    l2 = caches.l2
    l3 = caches.l3
    _cfg = model.config
    n_acc = n_miss1 = hit2 = miss2 = hit3 = miss3 = nvr = 0
    wb1 = wb2 = wb3 = 0
    if l2.block_bits == shift1 and l3.block_bits == shift1:
        sets2 = l2._sets
        mask2 = l2.n_sets - 1
        nway2 = l2.ways
        sets3 = l3._sets
        mask3 = l3.n_sets - 1
        nway3 = l3.ways
        lat12 = l1_lat + _cfg.l2.latency
        lat123 = lat12 + _cfg.l3.latency
        lat_mem = lat123 + _cfg.nvmm_read_cycles

        def fill3(tag, dirty):
            nonlocal wb3
            ways = sets3[tag & mask3]
            if tag in ways:
                ways[tag] = ways.pop(tag) or dirty
                return
            if len(ways) >= nway3:
                vt = next(iter(ways))
                if ways.pop(vt):
                    wb3 += 1
                    collector.enqueue_writeback(vt << shift1, 0)
            ways[tag] = dirty
            l3.stamp += 1

        def fill2(tag, dirty):
            nonlocal wb2
            ways = sets2[tag & mask2]
            if tag in ways:
                ways[tag] = ways.pop(tag) or dirty
                return
            if len(ways) >= nway2:
                vt = next(iter(ways))
                if ways.pop(vt):
                    wb2 += 1
                    fill3(vt, True)
            ways[tag] = dirty
            l2.stamp += 1

        def miss_fast(tag, blk, is_write):
            """``caches.access`` for an op whose L1 probe already missed."""
            nonlocal n_acc, n_miss1, hit2, miss2, hit3, miss3, nvr, wb1
            n_acc += 1
            n_miss1 += 1
            ways = sets2[tag & mask2]
            if tag in ways:
                ways[tag] = ways.pop(tag)
                hit2 += 1
                lat = lat12
            else:
                miss2 += 1
                ways = sets3[tag & mask3]
                if tag in ways:
                    ways[tag] = ways.pop(tag)
                    hit3 += 1
                    lat = lat123
                else:
                    miss3 += 1
                    nvr += 1
                    lat = lat_mem
                    fill3(tag, False)
                fill2(tag, False)
            w1 = sets1[tag & mask1]
            if len(w1) >= nway1:
                vt = next(iter(w1))
                if w1.pop(vt):
                    wb1 += 1
                    fill2(vt, True)
            w1[tag] = is_write
            l1.stamp += 1
            return lat
    else:  # pragma: no cover - per-level block geometries that differ

        def miss_fast(tag, blk, is_write):
            return access(blk, is_write, 0)

    nq = len(kindb)
    lat = np.full(nq, l1_lat, dtype=np.int64)
    flush_wb = np.zeros(nq, dtype=bool)
    collector = _WritebackCollector()
    hits = 0

    def span_exact_idx(idx):
        """Exact per-op replay of the listed ops (increasing — i.e. in
        program order).  Each op is a run head carrying its elided
        tails' dirty bit (``eff_store``)."""
        nonlocal hits
        kl = np.take(kindb, idx).tolist()
        bl = np.take(blockb, idx).tolist()
        cl = eff_store[idx].tolist()
        for kind, blk, cs, k in zip(kl, bl, cl, idx.tolist()):
            tag = blk >> shift1
            ways = sets1[tag & mask1]
            if kind == 2:  # LOAD
                if tag in ways:
                    ways[tag] = ways.pop(tag) or cs
                    hits += 1
                else:
                    collector.op = k
                    lat[k] = miss_fast(tag, blk, cs)
            elif kind == 4 or kind == 5:  # CLWB / CLFLUSHOPT
                collector.op = k
                _lookup, dirty = cflush(blk, kind == 5, 0)
                flush_wb[k] = dirty
            else:  # STORE / XCHG / LOCK_RMW
                if tag in ways:
                    ways.pop(tag)
                    ways[tag] = True
                    hits += 1
                else:
                    collector.op = k
                    lat[k] = miss_fast(tag, blk, True)

    def bulk_apply(run_tags, store_mask):
        """Refresh the closed-set hits *run_tags* (any op order already
        restricted to closed sets): each distinct tag once, in order of
        its last access, dirty |= any store — exactly the state the
        sequential pop/reinsert sequence leaves.  Distinct tags from
        different sets never interact, so the induced per-set suborder is
        all that matters."""
        nonlocal hits
        m = len(run_tags)
        if m <= 8:  # short run: plain sequential refresh beats np.unique
            for tag, st in zip(run_tags.tolist(), store_mask.tolist()):
                ways = sets1[tag & mask1]
                ways[tag] = ways.pop(tag) or st
            hits += m
            return
        rev = run_tags[::-1]
        uniq, ridx, rinv = np.unique(rev, return_index=True, return_inverse=True)
        stored = np.zeros(len(uniq), dtype=bool)
        sm = store_mask[::-1]
        if sm.any():
            stored[rinv[sm]] = True
        # apply in last-access order (= descending first index in reversed)
        order = np.argsort(ridx)[::-1]
        for tag, st in zip(uniq[order].tolist(), stored[order].tolist()):
            ways = sets1[tag & mask1]
            ways[tag] = ways.pop(tag) or st
        hits += m

    saved_memctrl = caches.memctrl
    caches.memctrl = collector
    try:
        sub = _CLASSIFY_SUB
        a = 0
        while a < nq:
            b = min(a + sub, nq)
            snap = _l1_snapshot(model, l1)
            sub_tags = tags_all[a:b]
            kp = keep[a:b]
            if len(snap):
                probe = np.take(
                    snap, np.searchsorted(snap, sub_tags), mode="clip"
                )
                offending = probe != sub_tags
                np.logical_or(offending, is_flush[a:b], out=offending)
                # elided run tails are guaranteed hits — a stale
                # non-member probe (tag filled earlier this sub-batch)
                # must not condemn their set to the exact replay
                np.logical_and(offending, kp, out=offending)
            else:
                offending = kp.copy()
            if not offending.any():
                bulk_apply(sub_tags[kp], eff_store[a:b][kp])
                sub = min(sub * 2, _CLASSIFY_SUB_MAX)
            else:
                op_sets = sub_tags & mask1
                bad = np.zeros(mask1 + 1, dtype=bool)
                bad[op_sets[offending]] = True
                set_bad = bad[op_sets]
                span_exact_idx(np.nonzero(set_bad & kp)[0] + a)
                closed = ~set_bad
                np.logical_and(closed, kp, out=closed)
                if closed.any():
                    bulk_apply(sub_tags[closed], eff_store[a:b][closed])
                sub = _CLASSIFY_SUB
            a = b
        hits += int(np.count_nonzero(dup_run))
    finally:
        caches.memctrl = saved_memctrl
        if n_acc:
            caches.accesses += n_acc
            caches.nvmm_reads += nvr
            l1.misses += n_miss1
            l1.writebacks += wb1
            l2.hits += hit2
            l2.misses += miss2
            l2.writebacks += wb2
            l3.hits += hit3
            l3.misses += miss3
            l3.writebacks += wb3
    return lat, flush_wb, collector.records, hits


def _scalar_chunk(length, width, depth, fq_cap, rob_cap, lsq_cap,
                  dbuf, rbuf, mbuf, seed_d, seed_r, mem_pos, is_load_m,
                  ltype, lat_list, last_retire, chain_issue, chain_ready):
    """Direct scalar solve of one chunk's dispatch/retire recurrences.

    The exact same equations the vector fixpoint iterates — computed in
    program order, where every feedback read (fetch-queue full, ROB full,
    LSQ full, chase chain) looks strictly backwards and is therefore
    already final.  One sweep suffices; no convergence question arises.
    Latencies come pre-classified, so no cache is probed.  Writes the
    final dispatch/retire/LSQ-retire values into the chunk views of
    *dbuf*/*rbuf*/*mbuf* and returns ``(chase_x, chase_ci, load_issue)``
    for the chunk's pointer-chase loads (``None`` when absent).
    """
    db = dbuf.tolist()
    rb = rbuf.tolist()
    mb = mbuf.tolist()
    sd = seed_d.tolist()
    sr = seed_r.tolist()
    mem = mem_pos.tolist()
    isl = is_load_m.tolist()
    nm = len(mem)
    nl = len(lat_list)
    li = [0] * nl
    cx = []
    cci = []
    runm = last_retire
    mp = 0
    lp = 0
    nxt = mem[0] if nm else -1
    for i in range(length):
        d = db[i] + depth
        v = rb[i]
        if v > d:
            d = v
        v = (sd[i] if i < width else db[fq_cap + i - width]) + 1
        if v > d:
            d = v
        db[fq_cap + i] = d
        if i == nxt:
            c = mb[mp]
            dm = d if d > c else c
            if isl[mp]:
                t = ltype[lp]
                lat = lat_list[lp]
                if t == 0:  # tagged: streams independently
                    issue = dm
                    ui = dm + lat
                elif t == 1:  # chase: issues once the chain head is back
                    issue = dm if dm > chain_ready else chain_ready
                    ui = issue + lat
                    chain_issue = issue
                    chain_ready = ui
                    cci.append(issue)
                    cx.append(ui)
                else:  # another field of the in-flight node
                    issue = dm if dm > chain_issue else chain_issue
                    ui = issue + lat
                    if chain_ready > ui:
                        ui = chain_ready
                li[lp] = issue
                lp += 1
            else:
                ui = dm + 1
        else:
            ui = d + 1
        if ui > runm:
            runm = ui
        v = (sr[i] if i < width else rb[rob_cap + i - width]) + 1
        r = runm if runm > v else v
        rb[rob_cap + i] = r
        if i == nxt:
            mb[lsq_cap + mp] = r
            mp += 1
            nxt = mem[mp] if mp < nm else -1
    dbuf[fq_cap:] = db[fq_cap:]
    rbuf[rob_cap:] = rb[rob_cap:]
    if nm:
        mbuf[lsq_cap:] = mb[lsq_cap:]
    chase_x = np.array(cx, dtype=np.int64) if cx else None
    chase_ci = np.array(cci, dtype=np.int64) if cci else None
    load_issue = np.array(li, dtype=np.int64) if nl else None
    return chase_x, chase_ci, load_issue


# ----------------------------------------------------------------------
# batch advance
# ----------------------------------------------------------------------
def advance(model, columns, segments, ei):
    """Advance *model* through the batch starting at ``entries[ei]``.

    Processes every instruction of the batchable entries plus the compute
    prefix of the terminating event entry, exactly as the walker's fast
    phase would, and returns the index of that event entry (its prefix
    consumed, so the walker steps that event next) — or
    ``len(entries)`` when the batch runs through the tail.  Returns
    ``None`` when the upcoming batch is shorter than
    :data:`KERNEL_MIN_BATCH` (the caller falls through to the Python
    fast phase).

    The batch ends at the first opcode of :data:`_BATCH_STOP` at or after
    ``starts[ei]``, found with one search of the opcode column; every op
    before an entry's event is ALU/BRANCH, so that op is the event of the
    entry whose span holds it.  The batch then runs one chunk of at most
    :data:`KERNEL_MAX_CHUNK` instructions at a time: index the chunk's
    ops, classify them, solve the chunk, replay its WPQ writebacks.

    Preconditions (guaranteed by the caller): numpy backend resolved, the
    model is pristine (``not _deoptimized``), no speculation is active,
    and the batch starts at an entry's first op.  The fetch queue, ROB
    and LSQ are always full (:meth:`PipelineModel._fill_windows`); the
    youngest ``width`` entries of the first two are the dispatch and
    retire bandwidth groups.
    """
    starts = segments.starts
    base = starts[ei]
    stop = _BATCH_STOP.search(columns.ops, base)
    end = segments.n if stop is None else stop.start()
    total = end - base
    if total < KERNEL_MIN_BATCH:
        return None
    ej = len(segments.entries) if stop is None else bisect_right(starts, end) - 1

    config = model.config
    width = config.width
    depth = config.fetch_to_dispatch
    fq_cap = config.fetchq_entries
    rob_cap = config.rob_entries
    lsq_cap = config.lsq_entries
    stats = model.stats
    lookup_lat = config.l1.latency + config.l2.latency + config.l3.latency
    mc_roundtrip = config.mc_roundtrip
    min_lag = min(fq_cap, rob_cap, lsq_cap)

    # ---- rolling machine state (mirrors the walker's spilled locals) ----
    fg = np.asarray(model._fetch_group, dtype=np.int64)
    fq_hist = np.asarray(model._fetchq, dtype=np.int64)
    rob_hist = np.asarray(model._rob, dtype=np.int64)
    lsq_hist = np.asarray(model._lsq, dtype=np.int64)
    last_fetch = model._last_fetch
    last_retire = model._last_retire
    sb_free = model._sb_free
    flush_free = model._flush_free
    stores_visible = model._stores_visible
    flushes_done = model._flushes_done
    chain_block = model._chain_block
    chain_issue = model._chain_issue
    chain_ready = model._chain_ready
    chased = False
    inflight = model._inflight_pcommits
    stall_d = 0
    sdp_d = 0
    nvmm_wb_d = 0
    ops_d = 0
    loads_d = 0
    stores_d = 0
    clwbs_d = 0
    clflushopts_d = 0
    hits_d = 0
    classify_s = 0.0
    memctrl_enqueue = model.memctrl.enqueue_writeback
    max_rows = -(-min(KERNEL_MAX_CHUNK, total) // width)
    grid = np.empty((max_rows + 1, width), dtype=np.int64)

    t_start = _perf_counter()
    abs0 = base
    while abs0 < end:
        length = min(KERNEL_MAX_CHUNK, end - abs0)
        ix = _ChunkOps(columns, abs0, length, chain_block)
        chain_block = ix.chain_block

        # ---- classification: cache behaviour, program order, no timing ----
        t_classify = _perf_counter()
        lat, flush_wb, records, hits = _classify(model, ix)
        classify_s += _perf_counter() - t_classify
        hits_d += hits

        pos = ix.pos
        il = ix.is_load
        ist = ix.is_store
        ifl = ix.is_flush
        ilsq = ~ifl
        ops_d += len(pos)
        # chunk-local positions of the LSQ ops (loads and stores), which
        # index every fixpoint pass
        mem_pos = pos[ilsq]
        nm = len(mem_pos)
        lsq_is_load = il[ilsq]
        load_pos_c = ix.load_pos
        store_pos = pos[ist]
        flush_pos = pos[ifl]
        nl = len(load_pos_c)
        loads_d += nl
        stores_d += len(store_pos)
        if len(flush_pos):
            clwbs = int(np.count_nonzero(ix.kind == 4))
            clwbs_d += clwbs
            clflushopts_d += len(flush_pos) - clwbs
        koffs = _koffs(length, width)

        # constraint buffers: [history | this chunk], so the "queue full"
        # gather for instruction i is simply buffer[i]; the windows are
        # born full, so the history is too, and the chunk starts at the
        # sentinel the fixpoint iterates up from
        dbuf = np.full(fq_cap + length, _SENT, dtype=np.int64)
        dbuf[:fq_cap] = fq_hist
        dview = dbuf[fq_cap:]
        fqc = dbuf[:length]
        rbuf = np.full(rob_cap + length, _SENT, dtype=np.int64)
        rbuf[:rob_cap] = rob_hist
        rview = rbuf[rob_cap:]
        rc = rbuf[:length]
        mbuf = np.full(lsq_cap + nm, _SENT, dtype=np.int64)
        mbuf[:lsq_cap] = lsq_hist
        mview = mbuf[lsq_cap:]
        cm = mbuf[:nm]

        seed_d = np.maximum(fg + depth, fq_hist[-width:])
        seed_r = rob_hist[-width:]
        d_in = np.empty(length, dtype=np.int64)
        u = np.empty(length, dtype=np.int64)
        if nm:
            dm = np.empty(nm, dtype=np.int64)
            tmp_m = np.empty(nm, dtype=np.int64)

        # chunk-local load structure (everything loop-invariant hoisted)
        tg_idx = ix.tagged
        ch_idx = ix.chase
        fd_idx = ix.field
        nc = len(ch_idx)
        has_tg = len(tg_idx) > 0
        has_fd = len(fd_idx) > 0
        if nl:
            dml_idx = np.flatnonzero(lsq_is_load)
            dml = np.empty(nl, dtype=np.int64)
            lat_c = lat[il]
            comp = np.empty(nl, dtype=np.int64)
            if has_tg:
                lat_tg = lat_c[tg_idx]
            if nc:
                lat_ch = lat_c[ch_idx]
                chain_c = np.cumsum(lat_ch)
                chain_c_prev = chain_c - lat_ch
            if has_fd:
                lat_fd = lat_c[fd_idx]
                if nc:
                    gidx = np.clip(ix.gov, 0, nc - 1)
                    gov_ok = ix.gov >= 0
        chase_x = None
        chase_ci = None
        ci_g = None
        load_issue_pre = None

        # ---- monotone fixpoint: both strands exact for i < min_lag*k ----
        guaranteed = -(-length // min_lag)
        if guaranteed <= 3:
            iters = guaranteed
            check = False
        else:
            iters = length // min_lag + 3
            check = True
            prev_d = np.full(length, _SENT, dtype=np.int64)
            prev_r = np.full(length, _SENT, dtype=np.int64)
            wave_prev = 0
        converged = not check
        for p in range(iters):
            # dispatch: fold the fetch recurrence into the dispatch strand
            # (prefix-max is a closure operator) and add the ROB-full bound
            np.add(fqc, depth, out=d_in)
            np.maximum(d_in, rc, out=d_in)
            _strand_max(d_in, seed_d, width, koffs, grid, dview)
            if nm:
                np.take(dview, mem_pos, out=tmp_m)
                np.maximum(tmp_m, cm, out=dm)
            # retire inputs
            np.add(dview, 1, out=u)
            if nm:
                np.add(dm, 1, out=tmp_m)
                u[mem_pos] = tmp_m
            if nl:
                np.take(dm, dml_idx, out=dml)
                if has_tg:
                    comp[tg_idx] = dml[tg_idx] + lat_tg
                if nc:
                    # chase chain x[k] = max(dm[k], x[k-1]) + lat[k]
                    z = dml[ch_idx] - chain_c_prev
                    np.maximum.accumulate(z, out=z)
                    # NB: the carried chain seeds as a floor on the max
                    x = np.maximum(z, chain_ready)
                    x += chain_c
                    ci = x - lat_ch
                    chase_x = x
                    chase_ci = ci
                    comp[ch_idx] = x
                if has_fd:
                    if nc:
                        ci_g = np.where(gov_ok, chase_ci[gidx], chain_issue)
                        xr_g = np.where(gov_ok, chase_x[gidx], chain_ready)
                    else:
                        ci_g = chain_issue
                        xr_g = chain_ready
                    comp[fd_idx] = np.maximum(
                        np.maximum(dml[fd_idx], ci_g) + lat_fd, xr_g
                    )
                u[load_pos_c] = comp
            # retire: running max absorbs the last_retire/monotone terms,
            # then the width-strand bandwidth recurrence
            np.maximum.accumulate(u, out=u)
            np.maximum(u, last_retire, out=u)
            _strand_max(u, seed_r, width, koffs, grid, rview)
            if nm:
                np.take(rview, mem_pos, out=tmp_m)
                mview[:] = tmp_m
            if check:
                # a repeating Kleene chain has reached its least fixpoint;
                # both strands must repeat (r's LSQ feedback can still be
                # propagating through the tail after d has settled)
                nd = dview != prev_d
                nr = rview != prev_r
                d_moved = bool(nd.any())
                r_moved = bool(nr.any())
                if not d_moved and not r_moved:
                    converged = True
                    break
                # Everything before the first changed index is already
                # self-consistent — every feedback read looks strictly
                # backwards — hence final.  The wave front's advance rate
                # per pass bounds how many passes remain.
                wave = length
                if d_moved:
                    wave = int(np.argmax(nd))
                if r_moved:
                    wr = int(np.argmax(nr))
                    if wr < wave:
                        wave = wr
                # p >= 2: only from the third pass is wave - wave_prev a
                # genuine per-pass advance rate (at p=1 wave_prev is still
                # the all-changed baseline, not a measured front)
                if p >= 2:
                    step = wave - wave_prev
                    if step < 1:
                        step = 1
                    if length - wave > KERNEL_SCALAR_EST * step:
                        # ROB-serialised pointer chasing: the wave crawls
                        # ~rob_entries instructions per full-array pass,
                        # so solve the recurrences scalar in one sweep
                        ltype = np.zeros(nl, dtype=np.int64)
                        ltype[ch_idx] = 1
                        ltype[fd_idx] = 2
                        chase_x, chase_ci, load_issue_pre = _scalar_chunk(
                            length, width, depth, fq_cap, rob_cap, lsq_cap,
                            dbuf, rbuf, mbuf, seed_d, seed_r, mem_pos,
                            lsq_is_load, ltype.tolist(),
                            lat_c.tolist() if nl else [],
                            last_retire, chain_issue, chain_ready,
                        )
                        converged = True
                        break
                wave_prev = wave
                prev_d[:] = dview
                prev_r[:] = rview
        if not converged:  # pragma: no cover - unreachable by the lag bound
            raise RuntimeError("kernel fixpoint failed to converge")

        # ---- stats + scalar state, all from converged arrays ----
        # fetch times (needed only for stall accounting and the window)
        fbuf = np.empty(width + length, dtype=np.int64)
        fbuf[:width] = fg
        _strand_max(fqc, fg, width, koffs, grid, fbuf[width:])
        bw_ready = fbuf[:length] + 1
        lf = np.empty(length + 1, dtype=np.int64)
        lf[0] = last_fetch
        lf[1:] = fbuf[width:]
        np.maximum.accumulate(lf, out=lf)
        np.maximum(bw_ready, lf[:length], out=bw_ready)
        stall = fqc - bw_ready
        stall_d += int(stall[stall > 0].sum())
        last_fetch = int(lf[length])

        if len(store_pos):  # store-buffer drain scan
            rs = rview[store_pos]
            ar = np.arange(len(store_pos), dtype=np.int64)
            y = rs - ar
            np.maximum.accumulate(y, out=y)
            np.maximum(y, sb_free, out=y)
            sstart = y + ar
            sb_free = int(sstart[-1]) + 1
            visible = sstart + lat[ist]
            stores_visible = max(stores_visible, int(visible.max()))
        if len(flush_pos):  # flush-port scan
            rf = rview[flush_pos]
            ar = np.arange(len(flush_pos), dtype=np.int64)
            y = rf - ar
            np.maximum.accumulate(y, out=y)
            np.maximum(y, flush_free, out=y)
            fstart = y + ar
            flush_free = int(fstart[-1]) + 1
            wb_c = flush_wb[ifl]
            ack = fstart + lookup_lat + np.where(wb_c, mc_roundtrip, 0)
            flushes_done = max(flushes_done, int(ack.max()))
            nvmm_wb_d += int(wb_c.sum())
        if inflight:
            note_pos = pos[~il]
            if len(note_pos):
                rn = rview[note_pos]
                horizon = max(inflight)
                sdp_d += int(np.count_nonzero(rn < horizon))
                last_note = int(rn[-1])
                inflight = [t for t in inflight if t > last_note]

        # deferred WPQ writebacks: same blocks, same order, true times
        if records:
            when = np.empty(len(pos), dtype=np.int64)
            if nl:
                load_issue = load_issue_pre
                if load_issue is None:
                    load_issue = np.empty(nl, dtype=np.int64)
                    if has_tg:
                        load_issue[tg_idx] = dml[tg_idx]
                    if nc:
                        load_issue[ch_idx] = chase_ci
                    if has_fd:
                        load_issue[fd_idx] = np.maximum(dml[fd_idx], ci_g)
                when[il] = load_issue
            if len(store_pos):
                when[ist] = sstart
            if len(flush_pos):
                when[ifl] = fstart + lookup_lat
            for op, block in records:
                memctrl_enqueue(int(block), int(when[op]))

        # ---- roll the window state into the next chunk ----
        if nc:
            chased = True
            chain_issue = int(chase_ci[-1])
            chain_ready = int(chase_x[-1])
        fq_hist = dbuf[length:].copy()
        rob_hist = rbuf[length:].copy()
        lsq_hist = mbuf[nm:].copy()
        fg = fbuf[length:].copy()
        last_retire = int(rview[-1])
        abs0 += length

    # ---- spill back to the model (the walker's own spill protocol) ----
    model._fetch_group = deque(fg.tolist(), width)
    model._fetchq = deque(fq_hist.tolist(), fq_cap)
    model._rob = deque(rob_hist.tolist(), rob_cap)
    model._lsq = deque(lsq_hist.tolist(), lsq_cap)
    model._last_fetch = last_fetch
    model._last_retire = last_retire
    model._sb_free = sb_free
    model._flush_free = flush_free
    model._stores_visible = stores_visible
    model._flushes_done = flushes_done
    model._inflight_pcommits = inflight
    if chased:
        model._chain_block = chain_block
        model._chain_issue = chain_issue
        model._chain_ready = chain_ready
    stats.instructions += total
    stats.loads += loads_d
    stats.stores += stores_d
    stats.clwbs += clwbs_d
    stats.clflushopts += clflushopts_d
    stats.fetch_stall_cycles += stall_d
    stats.stores_during_pcommit += sdp_d
    stats.nvmm_writes += nvmm_wb_d
    model.caches.l1.hits += hits_d
    model.caches.accesses += hits_d
    _telemetry.counter_inc("kernel.batches")
    _telemetry.counter_inc("kernel.batch_ops", ops_d)
    _telemetry.counter_inc("kernel.classify_seconds", classify_s)
    _telemetry.counter_inc(
        "kernel.solve_seconds", _perf_counter() - t_start - classify_s
    )
    return ej
