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

Everything that depends only on the trace — op positions, kind masks,
ordinal prefix sums, pointer-chase structure — is computed once per trace
from its columns and segment starts (:class:`_TraceOps`, cached on the
``TraceSegments`` object) so each
``advance`` call only slices it.  Every quantity is computed exactly as
the walker computes it — the kernel is cycle-for-cycle identical,
asserted by the conformance matrix and the property tests in
``tests/uarch/test_kernel.py``.
"""

from __future__ import annotations

import warnings
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

#: Long batches are solved in chunks of this many instructions so the
#: working-set arrays stay cache-sized and paper-scale batches (tens of
#: millions of instructions with no intervening event) don't allocate
#: gigabytes.
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
# per-trace op-level precompute
# ----------------------------------------------------------------------
class _TraceOps:
    """Config-independent op-level index of one trace for the kernel.

    Everything here is a pure function of the trace's columns and its
    segmentation's ``starts`` — op positions, kind masks, ordinal prefix
    sums, and the pointer-chase structure of the untagged loads —
    computed once per trace and cached on the ``TraceSegments`` object,
    so :func:`advance` only slices it (O(log n) searchsorteds per
    chunk).  The batchable ops (loads, stores, xchg/lock-rmw,
    clwb/clflushopt) are exactly the trace's ops of those kinds: a
    barrier triple holds none.  Positions and prefix counts take the
    segmentation's index dtype (int32 below
    :data:`~repro.isa.analysis.INT32_LIMIT` instructions); kinds stay
    one byte.
    """

    __slots__ = (
        "op_cum", "g_op", "op_kind", "op_block",
        "is_load", "is_store", "is_flush",
        "load_cum", "store_cum", "flush_cum", "lsq_cum", "cw_cum", "cf_cum",
        "g_load", "g_store", "g_flush", "g_lsq", "g_note", "lsq_is_load",
        "l_tagged", "l_chase", "l_field", "l_gov",
        "chase_cum", "chase_blocks", "unt_ord", "unt_blocks",
        "_tags",
    )

    def __init__(self, segments, columns):
        index = segments.batch_end.dtype
        ops = np.frombuffer(columns.ops, dtype=np.uint8)
        batchable = ((ops >= 2) & (ops <= 5)) | (ops == 10) | (ops == 11)
        # global instruction index of each op, and per entry the ops
        # before it (entry k's events all lie at or past starts[k])
        self.g_op = g_op = np.nonzero(batchable)[0].astype(index)
        self.op_cum = np.searchsorted(
            g_op, np.frombuffer(segments.starts, dtype=np.int64)
        ).astype(index)
        self.op_kind = ok = ops[g_op]
        self.op_block = (
            np.frombuffer(columns.addrs, dtype=np.int64)[g_op] & _BLOCK_MASK
        )
        self.is_load = il = ok == 2
        self.is_flush = ifl = (ok == 4) | (ok == 5)
        self.is_store = ist = ~il & ~ifl
        ilsq = ~ifl

        def _cum(mask):
            c = np.zeros(len(mask) + 1, dtype=index)
            np.cumsum(mask, dtype=index, out=c[1:])
            return c

        self.load_cum = _cum(il)
        self.store_cum = _cum(ist)
        self.flush_cum = _cum(ifl)
        self.lsq_cum = _cum(ilsq)
        self.cw_cum = _cum(ok == 4)
        self.cf_cum = _cum(ok == 5)
        self.g_load = g_op[il]
        self.g_store = g_op[ist]
        self.g_flush = g_op[ifl]
        self.g_lsq = g_op[ilsq]
        self.g_note = g_op[ist | ifl]
        self.lsq_is_load = il[ilsq]

        # pointer-chase structure: an untagged load is a *field* access
        # exactly when it repeats the previous untagged load's block (every
        # untagged load leaves the chain head at its own block), chase
        # otherwise; a fresh model's chain head (-1) matches no block
        lt = np.frombuffer(columns.meta_idx, dtype=np.uint16)[self.g_load] != 0
        self.l_tagged = lt
        n_loads = len(lt)
        load_blocks = self.op_block[il]
        chase = np.zeros(n_loads, dtype=bool)
        fieldm = np.zeros(n_loads, dtype=bool)
        untagged = ~lt
        if untagged.any():
            u_idx = np.nonzero(untagged)[0]
            u_blocks = load_blocks[u_idx]
            prev = np.empty_like(u_blocks)
            prev[0] = -1
            prev[1:] = u_blocks[:-1]
            f = u_blocks == prev
            fieldm[u_idx] = f
            chase[u_idx] = ~f
            self.unt_ord = u_idx.astype(index)
            self.unt_blocks = u_blocks
        else:
            self.unt_ord = np.empty(0, dtype=index)
            self.unt_blocks = np.empty(0, dtype=np.int64)
        self.l_chase = chase
        self.l_field = fieldm
        self.chase_cum = cc = _cum(chase)
        self.l_gov = cc[1:] - 1
        self.chase_blocks = load_blocks[chase]
        self._tags = {}

    def tags(self, shift):
        """L1 tags of every op's block (cached per tag shift)."""
        t = self._tags.get(shift)
        if t is None:
            t = self.op_block >> shift
            self._tags[shift] = t
        return t


def _trace_ops(segments, columns):
    T = segments.__dict__.get("_kernel_ops")
    if T is None:
        T = _TraceOps(segments, columns)
        segments.__dict__["_kernel_ops"] = T
    return T


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


def _elide_runs(T, q0, q1, shift):
    """Same-tag run elision for the batch's ops [*q0*, *q1*).

    A run of consecutive same-tag loads/stores collapses to its head:
    within a batch no event separates adjacent ops, so the head leaves
    the tag resident at MRU (hit-refreshed or miss-filled), and every
    tail op is a guaranteed L1 hit that at most re-sets the MRU slot's
    dirty bit.  The field-access idiom (chase load + field loads and
    stores on one node) makes this a large fraction of all ops.  Tail
    ops are skipped everywhere and counted as the hits they are; a tail
    *store*'s dirty bit is carried to the run head (``eff_store``), so
    the head's replay leaves the exact same line state.  The batch's
    first op never qualifies (its predecessor may be an event or
    another phase entirely), and flushes neither elide nor anchor a
    run: clwb leaves a missing tag missing, clflushopt actively evicts
    — neither establishes residency the way a load/store fill does.

    Returns ``(dup_run, keep, eff_store)`` masks over the batch's ops.
    """
    tags_all = T.tags(shift)
    nq = q1 - q0
    dup_run = np.zeros(nq, dtype=bool)
    if nq > 1:
        np.equal(tags_all[q0 + 1:q1], tags_all[q0:q1 - 1], out=dup_run[1:])
        np.logical_and(dup_run, ~T.is_flush[q0:q1], out=dup_run)
        dup_run[1:] &= ~T.is_flush[q0:q1 - 1]
    keep = ~dup_run
    eff_store = T.is_store[q0:q1]
    if dup_run.any():
        heads = np.nonzero(keep)[0]
        eff = np.zeros(nq, dtype=bool)
        eff[heads] = np.maximum.reduceat(
            eff_store.astype(np.int8), heads
        ).astype(bool)
        eff_store = eff
    return dup_run, keep, eff_store


def _classify(model, T, q0, q1):
    """Classify the batch's ops [*q0*, *q1*): cache behaviour from
    access order alone, in one in-order pass against the real caches.

    Hit levels, LRU movement, dirty writebacks, and latencies depend only
    on access order, never on cycle times, so this pass fully determines
    the batch's cache behaviour.  The work splits along L1 *sets*,
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

    Returns per-kind latency arrays, flush writeback flags, deferred WPQ
    records ``((op_ordinal, code, sub_ordinal), block)`` (ordinals global
    for ops, batch-local for subs), and the L1-hit count the walker would
    have accumulated inline (its access-count delta is identical).
    """
    caches = model.caches
    l1 = caches.l1
    sets1 = l1._sets
    mask1 = l1.n_sets - 1
    shift1 = l1.block_bits
    dup_run, keep, eff_store = _elide_runs(T, q0, q1, shift1)
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

    L0 = int(T.load_cum[q0])
    S0 = int(T.store_cum[q0])
    F0 = int(T.flush_cum[q0])
    nl = int(T.load_cum[q1]) - L0
    ns = int(T.store_cum[q1]) - S0
    nf = int(T.flush_cum[q1]) - F0
    load_lat = np.full(nl, l1_lat, dtype=np.int64)
    store_lat = np.full(ns, l1_lat, dtype=np.int64)
    flush_wb = np.empty(nf, dtype=bool)
    collector = _WritebackCollector()
    hits = 0

    kindb = T.op_kind
    blockb = T.op_block
    tags_all = T.tags(shift1)

    def span_exact_idx(idx):
        """Exact per-op replay of the listed op ordinals (increasing —
        i.e. in global order).  Each op is a run head carrying its elided
        tails' dirty bit (``eff_store``)."""
        nonlocal hits
        kl = np.take(kindb, idx).tolist()
        bl = np.take(blockb, idx).tolist()
        lil = (np.take(T.load_cum, idx) - L0).tolist()
        sil = (np.take(T.store_cum, idx) - S0).tolist()
        fil = (np.take(T.flush_cum, idx) - F0).tolist()
        cl = eff_store[idx - q0].tolist()
        for kind, blk, li, si, fi, cs, k in zip(kl, bl, lil, sil, fil, cl,
                                                idx.tolist()):
            tag = blk >> shift1
            ways = sets1[tag & mask1]
            if kind == 2:  # LOAD
                if tag in ways:
                    ways[tag] = ways.pop(tag) or cs
                    hits += 1
                else:
                    collector.op = (k, 0, li)
                    load_lat[li] = miss_fast(tag, blk, cs)
            elif kind == 4 or kind == 5:  # CLWB / CLFLUSHOPT
                collector.op = (k, 2, fi)
                _lookup, dirty = cflush(blk, kind == 5, 0)
                flush_wb[fi] = dirty
            else:  # STORE / XCHG / LOCK_RMW
                if tag in ways:
                    ways.pop(tag)
                    ways[tag] = True
                    hits += 1
                else:
                    collector.op = (k, 1, si)
                    store_lat[si] = miss_fast(tag, blk, True)

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
        a = q0
        while a < q1:
            b = min(a + sub, q1)
            snap = _l1_snapshot(model, l1)
            sub_tags = tags_all[a:b]
            kp = keep[a - q0:b - q0]
            if len(snap):
                probe = np.take(
                    snap, np.searchsorted(snap, sub_tags), mode="clip"
                )
                offending = probe != sub_tags
                np.logical_or(offending, T.is_flush[a:b], out=offending)
                # elided run tails are guaranteed hits — a stale
                # non-member probe (tag filled earlier this sub-batch)
                # must not condemn their set to the exact replay
                np.logical_and(offending, kp, out=offending)
            else:
                offending = kp.copy()
            if not offending.any():
                bulk_apply(sub_tags[kp], eff_store[a - q0:b - q0][kp])
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
                    bulk_apply(sub_tags[closed],
                               eff_store[a - q0:b - q0][closed])
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
    return load_lat, store_lat, flush_wb, collector.records, hits


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

    Preconditions (guaranteed by the caller): numpy backend resolved, the
    model is pristine (``not _deoptimized``), no speculation is active,
    and the batch starts at an entry's first op.  The fetch queue, ROB
    and LSQ are always full (:meth:`PipelineModel._fill_windows`); the
    youngest ``width`` entries of the first two are the dispatch and
    retire bandwidth groups.
    """
    batch_end = segments.batch_end
    if batch_end is None:  # segmented without numpy: no kernel columns
        return None
    ej = int(batch_end[ei])
    entries = segments.entries
    starts = segments.starts
    prefix = entries[ej][0] if ej < len(entries) else 0
    base = starts[ei]
    total = starts[ej] - base + prefix
    if total < KERNEL_MIN_BATCH:
        return None

    T = _trace_ops(segments, columns)
    q0 = int(T.op_cum[ei])
    q1 = int(T.op_cum[ej])
    L0 = int(T.load_cum[q0])
    L1 = int(T.load_cum[q1])
    S0 = int(T.store_cum[q0])
    F0 = int(T.flush_cum[q0])

    # chain-head consistency guard: the precomputed chase/field split
    # assumes the model's chain head equals the previous untagged load's
    # block (-1 before the first).  True for any model this kernel and the
    # walker advance in step; bail to the walker if ever violated.
    if L1 > L0 and len(T.unt_ord):
        j0 = int(np.searchsorted(T.unt_ord, T.load_cum[q0:q0 + 1])[0])
        if j0 < len(T.unt_ord) and T.unt_ord[j0] < L1:
            expected = int(T.unt_blocks[j0 - 1]) if j0 else -1
            if expected != model._chain_block:
                return None

    config = model.config
    width = config.width
    depth = config.fetch_to_dispatch
    fq_cap = config.fetchq_entries
    rob_cap = config.rob_entries
    lsq_cap = config.lsq_entries
    stats = model.stats

    # ---- classification: cache behaviour, program order, no timing ----
    t_start = _perf_counter()
    load_lat, store_lat, flush_wb, records, hits_d = _classify(model, T, q0, q1)
    t_classified = _perf_counter()
    _telemetry.counter_inc("kernel.batches")
    _telemetry.counter_inc("kernel.batch_ops", q1 - q0)
    _telemetry.counter_inc("kernel.classify_seconds", t_classified - t_start)

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
    chain_issue = model._chain_issue
    chain_ready = model._chain_ready
    inflight = model._inflight_pcommits
    stall_d = 0
    sdp_d = 0
    nvmm_wb_d = 0
    memctrl_enqueue = model.memctrl.enqueue_writeback
    rec_i = 0
    n_rec = len(records)

    g_op = T.g_op
    g_load = T.g_load
    g_store = T.g_store
    g_flush = T.g_flush
    g_lsq = T.g_lsq
    g_note = T.g_note
    max_rows = -(-min(KERNEL_MAX_CHUNK, total) // width)
    grid = np.empty((max_rows + 1, width), dtype=np.int64)

    chunk_start = 0
    while chunk_start < total:
        length = min(KERNEL_MAX_CHUNK, total - chunk_start)
        abs0 = base + chunk_start
        abs1 = abs0 + length
        # needles of the positions' own dtype: searchsorted casts the
        # whole array to any other
        span = np.array((abs0, abs1), dtype=g_op.dtype)
        o1g = int(np.searchsorted(g_op, span)[1])
        m0g, m1g = np.searchsorted(g_lsq, span)
        m0g, m1g = int(m0g), int(m1g)
        nm = m1g - m0g
        # chunk-local positions index every fixpoint pass: int64, which
        # numpy indexes with no conversion
        mem_pos = np.subtract(g_lsq[m0g:m1g], abs0, dtype=np.int64)
        l0g, l1g = np.searchsorted(g_load, span)
        l0g, l1g = int(l0g), int(l1g)
        nl = l1g - l0g
        s0g, s1g = np.searchsorted(g_store, span)
        s0g, s1g = int(s0g), int(s1g)
        f0g, f1g = np.searchsorted(g_flush, span)
        f0g, f1g = int(f0g), int(f1g)
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
        if nl:
            load_pos_c = np.subtract(g_load[l0g:l1g], abs0, dtype=np.int64)
            clb = l0g - L0  # batch-local ordinal of the chunk's first load
            dml_idx = np.nonzero(T.lsq_is_load[m0g:m1g])[0]
            dml = np.empty(nl, dtype=np.int64)
            tg = T.l_tagged[l0g:l1g]
            ch = T.l_chase[l0g:l1g]
            fd = T.l_field[l0g:l1g]
            lat_c = load_lat[clb:clb + nl]
            comp = np.empty(nl, dtype=np.int64)
            c0 = int(T.chase_cum[l0g])
            nc = int(T.chase_cum[l1g]) - c0
            has_tg = bool(tg.any())
            has_fd = bool(fd.any())
            if has_tg:
                tg_idx = np.nonzero(tg)[0]
                lat_tg = lat_c[tg_idx]
            if nc:
                ch_idx = np.nonzero(ch)[0]
                lat_ch = lat_c[ch_idx]
                chain_c = np.cumsum(lat_ch)
                chain_c_prev = chain_c - lat_ch
            if has_fd:
                fd_idx = np.nonzero(fd)[0]
                lat_fd = lat_c[fd_idx]
                if nc:
                    gov_local = T.l_gov[l0g:l1g][fd_idx].astype(np.int64) - c0
                    gidx = np.clip(gov_local, 0, nc - 1)
                    gov_ok = gov_local >= 0
        else:
            nc = 0
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
                        chase_x, chase_ci, load_issue_pre = _scalar_chunk(
                            length, width, depth, fq_cap, rob_cap, lsq_cap,
                            dbuf, rbuf, mbuf, seed_d, seed_r, mem_pos,
                            T.lsq_is_load[m0g:m1g],
                            (np.where(ch, 1, np.where(fd, 2, 0)).tolist()
                             if nl else []),
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

        if s1g > s0g:  # store-buffer drain scan
            rs = rview[g_store[s0g:s1g] - abs0]
            ns = s1g - s0g
            ar = np.arange(ns, dtype=np.int64)
            y = rs - ar
            np.maximum.accumulate(y, out=y)
            np.maximum(y, sb_free, out=y)
            start = y + ar
            sb_free = int(start[-1]) + 1
            visible = start + store_lat[s0g - S0:s1g - S0]
            stores_visible = max(stores_visible, int(visible.max()))
        if f1g > f0g:  # flush-port scan
            rf = rview[g_flush[f0g:f1g] - abs0]
            nfc = f1g - f0g
            ar = np.arange(nfc, dtype=np.int64)
            y = rf - ar
            np.maximum.accumulate(y, out=y)
            np.maximum(y, flush_free, out=y)
            fstart = y + ar
            flush_free = int(fstart[-1]) + 1
            wb_c = flush_wb[f0g - F0:f1g - F0]
            ack = fstart + lookup_lat + np.where(wb_c, mc_roundtrip, 0)
            flushes_done = max(flushes_done, int(ack.max()))
            nvmm_wb_d += int(wb_c.sum())
        if inflight:
            n0g, n1g = np.searchsorted(g_note, span)
            if n1g > n0g:
                rn = rview[g_note[int(n0g):int(n1g)] - abs0]
                horizon = max(inflight)
                sdp_d += int(np.count_nonzero(rn < horizon))
                last_note = int(rn[-1])
                inflight = [t for t in inflight if t > last_note]

        # deferred WPQ writebacks: same blocks, same order, true times
        if rec_i < n_rec and records[rec_i][0][0] < o1g:
            load_issue = load_issue_pre
            while rec_i < n_rec:
                (op_ord, code, sub), block = records[rec_i]
                if op_ord >= o1g:
                    break
                if code == 0:
                    if load_issue is None:
                        load_issue = np.empty(nl, dtype=np.int64)
                        if has_tg:
                            load_issue[tg_idx] = dml[tg_idx]
                        if nc:
                            load_issue[ch_idx] = chase_ci
                        if has_fd:
                            load_issue[fd_idx] = np.maximum(dml[fd_idx], ci_g)
                    now = int(load_issue[sub - clb])
                elif code == 1:
                    now = int(start[sub - (s0g - S0)])
                else:
                    now = int(fstart[sub - (f0g - F0)]) + lookup_lat
                memctrl_enqueue(int(block), now)
                rec_i += 1

        # ---- roll the window state into the next chunk ----
        if nc:
            chain_issue = int(chase_ci[-1])
            chain_ready = int(chase_x[-1])
        fq_hist = dbuf[length:].copy()
        rob_hist = rbuf[length:].copy()
        lsq_hist = mbuf[nm:].copy()
        fg = fbuf[length:].copy()
        last_retire = int(rview[-1])
        chunk_start += length

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
    c1_batch = int(T.chase_cum[L1])
    if c1_batch > int(T.chase_cum[L0]):
        model._chain_block = int(T.chase_blocks[c1_batch - 1])
        model._chain_issue = chain_issue
        model._chain_ready = chain_ready
    stats.instructions += total
    stats.loads += L1 - L0
    stats.stores += int(T.store_cum[q1]) - S0
    stats.clwbs += int(T.cw_cum[q1] - T.cw_cum[q0])
    stats.clflushopts += int(T.cf_cum[q1] - T.cf_cum[q0])
    stats.fetch_stall_cycles += stall_d
    stats.stores_during_pcommit += sdp_d
    stats.nvmm_writes += nvmm_wb_d
    model.caches.l1.hits += hits_d
    model.caches.accesses += hits_d
    t_solved = _perf_counter()
    _telemetry.counter_inc("kernel.solve_seconds", t_solved - t_classified)
    return ej
