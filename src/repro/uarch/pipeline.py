"""Trace-driven out-of-order pipeline model with speculative persistence.

The model is a *sliding-window* timing simulation: instructions are
processed in program order, and each instruction's fetch, dispatch, and
retirement times are computed from a small set of running constraints —
fetch/dispatch/retire bandwidth (4 wide), fetch-queue occupancy (48), ROB
occupancy (128), in-order retirement, and the persistency rules for
``sfence``.  This is O(1) state per instruction and reproduces exactly the
stall phenomenon the paper measures: a fence waiting on a pcommit stops
retirement, the ROB fills, dispatch stops, the fetch queue fills, and the
front end stalls (Figure 10's fetch-queue stall cycles).

With ``config.sp_enabled`` the model implements Section 4 of the paper:

* an ``sfence-pcommit-sfence`` sequence that would stall instead takes a
  checkpoint and retires speculatively (the sequence is recognised as one
  *barrier* macro-op, the paper's single-checkpoint optimisation);
* speculative stores go to the SSB; loads probe the bloom filter and pay
  the SSB CAM latency on (possibly false) hits;
* PMEM instructions in the shadow of speculation are buffered in the SSB
  and replay at epoch commit;
* later barriers end the current epoch and open a child epoch, stalling
  only when the 4-entry checkpoint buffer or the SSB is exhausted;
* epochs commit strictly in order as their gating pcommits complete.

Execution is **event driven**: :meth:`PipelineModel.run` walks the
trace's pre-computed segment list (:func:`repro.isa.analysis.segment_trace`
over its columnar form) instead of one ``Instr`` object per micro-op.
The walker runs compute ops, loads, stores, and flush ops through one
inlined instruction body with the sliding-window state bound to locals,
speculating or not.  The fetch queue, ROB and LSQ are born full of
sentinels that never bind, so the dispatch/retire bandwidth groups are
always the youngest ``width`` entries of the fetch queue and ROB.  Under
speculation the walker runs the epoch commit schedule only before the op
where a commit is due, and handles speculative loads (BLT record, bloom
probe, SSB forwarding) and speculative stores and flushes (into the SSB)
in-line.  Fences, pcommits, barriers, ``clflush``, strongly ordered RMWs
under speculation and stores that find the SSB full delegate to the
exact per-op machinery (:meth:`_step`).  The walker is cycle-for-cycle
identical to the preserved reference model
(:mod:`repro.uarch.pipeline_ref`) — asserted by the conformance oracle
and pinned by the golden battery — and any monkey-patched or overridden
internal routes the run back to the exact loop so fault injections and
subclasses keep working.

**Observability.**  Constructed with a :mod:`repro.obs` tracer
(``PipelineModel(config, tracer=SpanTracer())``) the model emits
cycle-resolved spans for sfence drains, pcommit lifetimes, speculative
epochs, and checkpoint/SSB-full/fetch stalls, plus WPQ/SSB occupancy
counter samples.  A traced run routes through the exact per-op loop and
produces bit-identical :class:`~repro.stats.run.RunStats`; with
``tracer=None`` (the default) every emission site is behind a
``self._tracer is not None`` check and the segment walker runs
untouched — zero overhead when disabled.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.blt import BlockLookupTable
from repro.core.bloom import BloomFilter
from repro.core.checkpoints import CheckpointBuffer
from repro.core.epochs import EpochManager
from repro.core.ssb import SpeculativeStoreBuffer
from repro.isa.analysis import K_BARRIER, K_TAIL
from repro.isa.columns import TraceColumns
from repro.isa.ops import Op
from repro.isa.trace import Trace
from repro.obs import telemetry as _telemetry
from repro.stats.run import RunStats
from repro.uarch import kernel as _kernel
from repro.uarch.caches import CacheHierarchy, CacheLevel
from repro.uarch.config import MachineConfig, PipelineConfig
from repro.uarch.memctrl import MemoryController

_BLOCK_MASK = ~63
#: the walker's speculation horizon when no epoch is open: above any cycle
_NEVER = 1 << 62

# raw opcode values: the columnar walker and _step compare plain ints
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
_LOCK_RMW = int(Op.LOCK_RMW)


class PipelineModel:
    """One simulated core; construct it, then call :meth:`run` on a trace."""

    def __init__(
        self,
        config: MachineConfig = MachineConfig(),
        tracer=None,
        pipeline: Optional[PipelineConfig] = None,
    ):
        self.config = config
        #: execution-engine knobs (backend choice); cycle-identical by
        #: contract, so never part of config hashing or trace keys
        self.pipeline = pipeline or PipelineConfig()
        #: the backend that will actually run (``numpy`` resolves to
        #: ``python`` here when numpy is missing or too old)
        self.kernel_backend = _kernel.resolve_backend(self.pipeline.kernel)
        self._kernel_advance = (
            _kernel.advance if self.kernel_backend == "numpy" else None
        )
        #: observability hook (:mod:`repro.obs`); ``None`` — the common
        #: case — keeps the segment-walker fast path (see :meth:`run`)
        self._tracer = tracer
        #: epoch_id -> checkpoint time, for epoch span emission
        self._epoch_starts: Dict[int, int] = {}
        self.memctrl = MemoryController(config)
        self.caches = CacheHierarchy(config, self.memctrl)
        self.stats = RunStats()
        # SP hardware (present but idle when sp_enabled is False)
        self.ssb = SpeculativeStoreBuffer(config.ssb_entries)
        self.checkpoints = CheckpointBuffer(config.checkpoint_entries)
        self.bloom = BloomFilter(config.bloom_bytes, config.bloom_hashes)
        self.blt = BlockLookupTable()
        self.epochs = EpochManager(self.checkpoints, self.ssb, config.drain_per_cycle)

        # ---- sliding-window state -----------------------------------
        # fetch times of the last `width` instructions, dispatch times of
        # the last `fetchq_entries` (_fetchq) and retire times of the last
        # `rob_entries` (_rob), born full (see _fill_windows)
        self._fill_windows(0)
        #: retire times of the last `lsq_entries` memory operations — a
        #: memory op cannot dispatch before the oldest retires; born full
        #: of 0s, which never bind
        self._lsq: Deque[int] = deque(
            [0] * config.lsq_entries, maxlen=config.lsq_entries
        )
        self._last_retire = 0
        self._last_fetch = 0

        # ---- persistency state --------------------------------------
        #: store-buffer / flush-port busy-until accumulators
        self._sb_free = 0
        self._flush_free = 0
        #: completion horizon of all prior stores (global visibility)
        self._stores_visible = 0
        #: completion horizon of all prior clwb/clflushopt acks
        self._flushes_done = 0
        #: completion horizon of all prior pcommits
        self._pcommits_done = 0
        #: in-flight pcommit completion times (Figures 11/12)
        self._inflight_pcommits: List[int] = []
        #: pointer-chase dependence chain (untagged loads)
        self._chain_ready = 0
        self._chain_issue = 0
        self._chain_block = -1

        #: externally scheduled coherence probes: trace index -> blocks
        self._probes: Dict[int, List[int]] = {}
        self._instr_index = 0
        #: blocks made globally visible, in order (non-speculative stores
        #: as they drain, an epoch's stores when it commits), for the
        #: multi-core driver to broadcast; ``None`` outside a co-simulation
        self._published: Optional[List[int]] = None

    # ==================================================================
    # public API
    # ==================================================================
    def schedule_probe(self, instr_index: int, block: int) -> None:
        """Schedule an external coherence request to arrive when execution
        reaches *instr_index*.  If it conflicts with speculative state (BLT
        hit), the machine aborts, rolls back to the oldest checkpoint, and
        **re-executes** from there (paper §4.2.2)."""
        self._probes.setdefault(instr_index, []).append(block & _BLOCK_MASK)

    def run(self, trace: Trace, finish: bool = True) -> RunStats:
        """Simulate *trace* and return the statistics.

        With ``finish=False`` the machine is left exactly as the last
        instruction left it — speculative epochs stay open, the SSB keeps
        its entries, and no wind-down drain happens.  The validation
        subsystem uses this to probe mid-speculation machine state
        (crash-point invariants); normal callers always finish.

        The run consumes the trace's columnar form.  With a tracer
        attached, with coherence probes scheduled, or with any inlined
        internal monkey-patched or overridden (see :func:`_deoptimized`),
        the exact per-op loop is used; otherwise the segment walker fast
        path runs — both are cycle-identical.

        Each run publishes how many instructions each engine path
        retired (``pipeline.path.*``, see :data:`PATHS`).
        """
        columns = trace.columns()
        if self._tracer is not None or self._probes or _deoptimized(self):
            paths = self._run_exact(columns)
        else:
            paths, _ = self._run_segments(columns, trace.segments())
        if finish:
            self._finish()
        else:
            self.stats.cycles = self._last_retire
        _telemetry.counter_inc("pipeline.runs")
        _telemetry.counter_inc("pipeline.instructions", self.stats.instructions)
        _telemetry.observe("pipeline.run_cycles", self.stats.cycles)
        for name, count in zip(PATHS, paths):
            _telemetry.counter_inc(name, count)
        return self.stats

    # ==================================================================
    # exact per-op dispatch loop (probes, fault injections, subclasses)
    # ==================================================================
    def _run_exact(self, columns: TraceColumns) -> Tuple[int, int, int, int]:
        """The reference dispatch loop over the opcode column.

        Semantically the seed model's ``run`` body: probes are delivered
        at their scheduled indices (with rollback re-execution), barrier
        triples are recognised in-line, and compute runs go through
        ``self._compute_batch`` — so monkey-patches of any per-op method
        (e.g. ``validate.mutations``'s ``pipeline-skew``) take effect.
        Returns the per-path instruction counts (see :data:`PATHS`).
        """
        ops = columns.ops
        addrs = columns.addrs
        meta_idx = columns.meta_idx
        metas = columns.metas
        n = len(ops)
        coalesce = self.config.coalesce_barrier_checkpoints
        epochs = self.epochs
        stats = self.stats
        step = self._step
        first = stats.instructions
        spec_n = 0
        i = 0
        while i < n:
            if self._probes:
                resume = self._handle_probes(i)
                if resume is not None:
                    i = resume
                    continue
            op = ops[i]
            if op <= _BRANCH and not (epochs.speculating or self._probes):
                # run-length batching: consecutive ALU/BRANCH ops touch
                # only the front-end/retire sliding windows, and outside
                # speculation no per-op polling is needed
                j = i + 1
                while j < n and ops[j] <= _BRANCH:
                    j += 1
                self._compute_batch(j - i)
                i = j
                continue
            self._instr_index = i
            spec = epochs.speculating
            before = stats.instructions
            if (
                coalesce
                and op == _SFENCE
                and i + 2 < n
                and ops[i + 1] == _PCOMMIT
                and ops[i + 2] == _SFENCE
            ):
                # the sfence-pcommit-sfence sequence as one barrier macro-op
                # (paper §4.2.2's single-checkpoint optimisation); with the
                # optimisation disabled each fence is handled individually
                # and consumes its own checkpoint during speculation.
                self._barrier()
                i += 3
            else:
                step(op, addrs[i], metas[meta_idx[i]])
                i += 1
            if spec:
                spec_n += stats.instructions - before
        return 0, 0, stats.instructions - first - spec_n, spec_n

    # ==================================================================
    # segment-walker fast path
    # ==================================================================
    def _run_segments(
        self,
        columns: TraceColumns,
        segments,
        start: Tuple[int, int] = (0, 0),
        stop_clock: int = _NEVER,
        publish_stop: int = _NEVER,
        stop_on_publish: bool = False,
    ) -> Tuple[Tuple[int, int, int, int], Tuple[int, int]]:
        """Walk the pre-computed segment list (see
        :class:`repro.isa.analysis.TraceSegments`).

        Compute runs and load/store/flush events run through one in-line
        instruction body with the sliding-window state held in locals
        (the *fast phase*), speculating or not.  Fences, pcommits,
        clflush and barrier triples delegate to :meth:`_step` /
        :meth:`_barrier` one at a time (the *slow phase*), and so, under
        speculation, do an ``XCHG``/``LOCK_RMW`` (which ends speculation)
        and a store or flush that finds the SSB full; the fast phase then
        resumes.  The NumPy kernel, when available, is offered every batch
        that starts outside speculation.

        **Windows.**  The fetch queue, ROB and LSQ are born full of
        sentinels (0, and the restart cycle after :meth:`_do_rollback`).
        Every fetch is above the oldest fetch-group entry and every
        dispatch above its fetch, so a sentinel never binds, like the
        reference model's "not full, no constraint".  Every instruction
        appends its dispatch time to the fetch queue and its retire time
        to the ROB, so the width-wide dispatch/retire bandwidth groups are
        their youngest ``width`` entries: ``fetchq[-width]`` and
        ``rob[-width]`` (:meth:`_front_end` and :meth:`_retire` read the
        same).  Loads, stores and flushes that hit the L1 update its LRU
        order and counters in-line; only misses call the cache hierarchy.

        **Speculation**:

        * *polling* — :meth:`_step` runs the epoch commit schedule
          (:meth:`_poll_speculation`) before every op, but it can act
          only once the retire clock reaches the oldest epoch's
          ``barrier_done``.  The walker keeps that *horizon* in a local
          and polls exactly there, before the op (a sole epoch's drain
          starts at that retire time);
        * *loads* record their block in the BLT and probe the bloom
          filter; a hit pays the SSB CAM latency and forwards if the SSB
          holds the block (else counts a false positive), as
          :meth:`_load_latency` does;
        * *stores and clwb/clflushopt* retire, apply the
          stores-during-pcommit rule and go to :meth:`_buffered_store` /
          :meth:`_buffered_flush`: no cache access, no store-buffer port.

        When a poll ends speculation the walker leaves at the next entry
        boundary, so the kernel is offered the batch that follows.

        **Stretches** (the multi-core driver, :mod:`repro.uarch.system`):

        * *start* is ``(entry, ops of it already retired)``; the count
          may fall inside the entry's compute prefix (or equal it: the
          event is next), never inside a barrier triple;
        * the walker stops before the first op whose retire clock is at
          or above *stop_clock*, testing before every op.  The test
          shares the poll's compare: ``limit = min(horizon, stop)``,
          and the stop is tested *before* the poll, so a commit due at
          the stop happens at the start of the next stretch;
        * no unit that could publish starts at or above *publish_stop*:
          outside speculation the stop is ``min(stop_clock,
          publish_stop)``, and under speculation, where only a commit
          publishes, the walker also stops before a poll or a stepped
          event at or above it;
        * every block that becomes globally visible is appended to
          ``self._published`` when that is a list: a non-speculative
          store as it drains (here, or in :meth:`_visible_store`), an
          epoch's stores when it commits (:meth:`_commit_oldest`).
          Once anything is published, *stop_clock* drops to
          *publish_stop* — with *stop_on_publish*, to -1, so the walker
          stops after that unit (the driver has a sleeping core that the
          broadcast would wake ahead of this one).

        The kernel is offered only from the start of an entry, with no
        stop and nothing to publish: a kernel batch could overshoot the
        stop, and its stores are not published.

        Returns the per-path instruction counts (see :data:`PATHS`) and
        where the walk stopped, as ``(entry, ops of it retired)`` —
        ``(len(entries), 0)`` at the end of the trace.  Inside an
        expanded barrier triple the count exceeds the entry's prefix.
        """
        entries = segments.entries
        starts = segments.starts
        n_entries = len(entries)
        config = self.config
        coalesce = config.coalesce_barrier_checkpoints
        width = config.width
        neg_w = -width
        depth = config.fetch_to_dispatch
        caches = self.caches
        caches_access = caches.access
        l1 = caches.l1
        l1_sets = l1._sets
        l1_mask = l1.n_sets - 1
        l1_shift = l1.block_bits
        l1_latency = config.l1.latency
        stats = self.stats
        epochs = self.epochs
        visible_flush = self._visible_flush
        step = self._step
        # the speculation machinery the body drives in-line
        poll = self._poll_speculation
        buffered_store = self._buffered_store
        buffered_flush = self._buffered_flush
        ssb = self.ssb
        # the SSB's occupancy is the length of its entry deque (== len(ssb))
        ssb_entries = ssb._entries
        ssb_capacity = ssb.capacity
        ssb_latency = ssb.latency
        ssb_holds = ssb.holds_store
        blt_record = self.blt.record
        bloom = self.bloom
        bloom_on = config.bloom_enabled
        bloom_probe = bloom.maybe_contains
        addrs = columns.addrs
        meta_idx = columns.meta_idx
        metas = columns.metas
        published = self._published
        # the stop clock once anything is published
        after_publish = -1 if stop_on_publish else publish_stop
        kernel_advance = self._kernel_advance
        kernel_on = (
            kernel_advance is not None
            and stop_clock == _NEVER
            and published is None
        )
        # instructions retired per path (PATHS), published by run()
        kernel_n = walker_n = step_n = spec_n = 0
        # ops of entries[ei] retired before this call (its prefix only)
        ei, skip = start
        # ops of entries[ei] retired when the stop clock was reached
        stop_at = -1
        while ei < n_entries:
            nj = None
            if kernel_on and not skip and not epochs.speculating:
                # vectorized batch kernel: consumes every entry up to the
                # next fence/pcommit/clflush/barrier plus that entry's
                # compute prefix, or declines short batches (None) in
                # favour of the walker
                nj = kernel_advance(self, columns, segments, ei)
            if nj is not None:
                kernel_n += starts[nj] - starts[ei]
                if nj >= n_entries:
                    return (kernel_n, walker_n, step_n, spec_n), (nj, 0)
                kernel_n += entries[nj][0]
                ei = nj
            else:
                # ---------- fast phase ----------
                fg = self._fetch_group
                fetchq = self._fetchq
                rob = self._rob
                lsq = self._lsq
                fg_app = fg.append
                fq_app = fetchq.append
                rob_app = rob.append
                lsq_app = lsq.append
                last_fetch = self._last_fetch
                last_retire = self._last_retire
                sb_free = self._sb_free
                stores_visible = self._stores_visible
                chain_ready = self._chain_ready
                chain_issue = self._chain_issue
                chain_block = self._chain_block
                inflight = self._inflight_pcommits
                # retire-slot counter: retire times are monotone, so the
                # retire-bandwidth bound rob[-width] + 1 binds exactly
                # when the last `width` retires share one cycle.  r_slot
                # counts the tail entries equal to last_retire (capped at
                # width), replacing a deque read per op with int branches.
                r_slot = 1 if rob[-1] == last_retire else 0
                _i = 2
                while r_slot and _i <= width and rob[-_i] == last_retire:
                    r_slot += 1
                    _i += 1
                # speculation: the next poll is due once an op retires at or
                # after the oldest epoch's barrier completion (the horizon)
                spec = epochs.speculating
                horizon = epochs.oldest.barrier_done if spec else _NEVER
                if published and after_publish < stop_clock:
                    stop_clock = after_publish  # the slow phase published
                # the stop: outside speculation every store publishes;
                # under speculation only a poll (at the horizon) commits
                stop = horizon if spec and horizon > publish_stop else publish_stop
                if stop_clock < stop:
                    stop = stop_clock
                # the body tests the stop and the poll with one compare;
                # -1 makes the first `skip` ops fall into the test, which
                # steps over them
                limit = horizon if horizon < stop else stop
                if skip:
                    limit = -1
                # set once a poll ends speculation: the walker then leaves
                # at the next entry boundary so the kernel is offered the
                # batch after it
                rekernel = False
                instr_d = -skip
                loads_d = 0
                stores_d = 0
                clwbs_d = 0
                clfo_d = 0
                stall_d = 0
                sdp_d = 0
                hits_d = 0
                acc_d = 0
                while ei < n_entries:
                    run_len, kind, block, mi = entries[ei]
                    instr_d += run_len
                    for k in range(run_len):
                        if last_retire >= limit:
                            if k < skip:
                                continue  # retired before this call
                            skip = 0
                            if last_retire >= stop:
                                stop_at = k
                                instr_d -= run_len - k
                                break
                            if last_retire >= horizon:
                                # the oldest epoch's barrier has completed:
                                # run the commit schedule where _step would
                                self._stores_visible = stores_visible
                                poll(last_retire)
                                stores_visible = self._stores_visible
                                spec = epochs.speculating
                                horizon = (
                                    epochs.oldest.barrier_done if spec else _NEVER
                                )
                                rekernel = kernel_on and not spec
                                if published and after_publish < stop_clock:
                                    stop_clock = after_publish  # after this unit
                                stop = (
                                    horizon if spec and horizon > publish_stop
                                    else publish_stop
                                )
                                if stop_clock < stop:
                                    stop = stop_clock
                            limit = horizon if horizon < stop else stop
                        fetch_t = fg[0] + 1
                        fq_ready = fetchq[0]
                        if fq_ready > fetch_t:
                            if fq_ready > last_fetch:
                                stall_d += fq_ready - (
                                    fetch_t if fetch_t > last_fetch else last_fetch
                                )
                            fetch_t = fq_ready
                        if fetch_t > last_fetch:
                            last_fetch = fetch_t
                        fg_app(fetch_t)
                        dispatch_t = fetch_t + depth
                        bound = fetchq[neg_w] + 1
                        if bound > dispatch_t:
                            dispatch_t = bound
                        bound = rob[0]
                        if bound > dispatch_t:
                            dispatch_t = bound
                        fq_app(dispatch_t)
                        retire_t = dispatch_t + 1
                        if retire_t > last_retire:
                            last_retire = retire_t
                            r_slot = 1
                        elif r_slot < width:
                            retire_t = last_retire
                            r_slot += 1
                        else:
                            retire_t = last_retire + 1
                            last_retire = retire_t
                            r_slot = 1
                        rob_app(retire_t)
                    if stop_at >= 0:
                        break

                    if 2 <= kind <= 5 or kind == _XCHG or kind == _LOCK_RMW:
                        if last_retire >= limit:
                            if last_retire >= stop:
                                stop_at = run_len
                                break
                            skip = 0
                            if last_retire >= horizon:
                                self._stores_visible = stores_visible
                                poll(last_retire)
                                stores_visible = self._stores_visible
                                spec = epochs.speculating
                                horizon = (
                                    epochs.oldest.barrier_done if spec else _NEVER
                                )
                                rekernel = kernel_on and not spec
                                if published and after_publish < stop_clock:
                                    stop_clock = after_publish  # after this unit
                                stop = (
                                    horizon if spec and horizon > publish_stop
                                    else publish_stop
                                )
                                if stop_clock < stop:
                                    stop = stop_clock
                            limit = horizon if horizon < stop else stop
                        if spec and (
                            kind == _XCHG
                            or kind == _LOCK_RMW
                            or (kind != _LOAD and len(ssb_entries) >= ssb_capacity)
                        ):
                            # a strongly ordered RMW ends speculation, and
                            # a full SSB stalls the op: _step handles both
                            break
                        # ---- inlined front end (== _front_end) ----
                        fetch_t = fg[0] + 1
                        fq_ready = fetchq[0]
                        if fq_ready > fetch_t:
                            if fq_ready > last_fetch:
                                stall_d += fq_ready - (
                                    fetch_t if fetch_t > last_fetch else last_fetch
                                )
                            fetch_t = fq_ready
                        if fetch_t > last_fetch:
                            last_fetch = fetch_t
                        fg_app(fetch_t)
                        dispatch_t = fetch_t + depth
                        bound = fetchq[neg_w] + 1
                        if bound > dispatch_t:
                            dispatch_t = bound
                        bound = rob[0]
                        if bound > dispatch_t:
                            dispatch_t = bound
                        fq_app(dispatch_t)

                        if kind == _LOAD:
                            loads_d += 1
                            bound = lsq[0]
                            if bound > dispatch_t:
                                dispatch_t = bound
                            if mi:
                                # tagged load: streams independently
                                issue_t = dispatch_t
                            elif block == chain_block:
                                # another field of the in-flight node
                                issue_t = (
                                    dispatch_t
                                    if dispatch_t > chain_issue
                                    else chain_issue
                                )
                            else:
                                # next chase node: issues after the chain
                                issue_t = (
                                    dispatch_t
                                    if dispatch_t > chain_ready
                                    else chain_ready
                                )
                            complete = issue_t
                            forwarded = False
                            if spec:
                                # (== _load_latency) the BLT records the
                                # block; a bloom hit (every load, without
                                # the filter) pays the SSB CAM latency and
                                # forwards if the SSB holds the block
                                blt_record(block)
                                if not bloom_on or bloom_probe(block):
                                    complete += ssb_latency
                                    if ssb_holds(block):
                                        forwarded = True
                                    elif bloom_on:
                                        bloom.record_false_positive()
                            if not forwarded:
                                tag = block >> l1_shift
                                ways = l1_sets[tag & l1_mask]
                                if tag in ways:
                                    ways[tag] = ways.pop(tag)
                                    hits_d += 1
                                    acc_d += 1
                                    complete += l1_latency
                                else:
                                    complete += caches_access(block, False, issue_t)
                            if not mi:
                                if block == chain_block:
                                    if chain_ready > complete:
                                        complete = chain_ready
                                else:
                                    chain_block = block
                                    chain_issue = issue_t
                                    chain_ready = complete
                            retire_t = complete
                            if retire_t > last_retire:
                                last_retire = retire_t
                                r_slot = 1
                            elif r_slot < width:
                                retire_t = last_retire
                                r_slot += 1
                            else:
                                retire_t = last_retire + 1
                                last_retire = retire_t
                                r_slot = 1
                            rob_app(retire_t)
                            instr_d += 1
                            lsq_app(retire_t)

                        elif kind == _CLWB or kind == _CLFLUSHOPT:
                            if kind == _CLWB:
                                clwbs_d += 1
                            else:
                                clfo_d += 1
                            retire_t = dispatch_t + 1
                            if retire_t > last_retire:
                                last_retire = retire_t
                                r_slot = 1
                            elif r_slot < width:
                                retire_t = last_retire
                                r_slot += 1
                            else:
                                retire_t = last_retire + 1
                                last_retire = retire_t
                                r_slot = 1
                            rob_app(retire_t)
                            instr_d += 1
                            # (== _note_store_during_pcommit) only whether a
                            # pcommit is still in flight matters here: the
                            # list is dropped once none is, and the expired
                            # entries it keeps otherwise are pruned by the
                            # next _issue_pcommit, stepped note or kernel
                            # batch (the kernel reads only the max)
                            if inflight and max(inflight) <= retire_t:
                                inflight = []
                            if inflight or (spec and horizon > retire_t):
                                sdp_d += 1
                            if spec:
                                # delayed: replays when the epoch commits
                                buffered_flush(block, retire_t, kind == _CLFLUSHOPT)
                            else:
                                visible_flush(block, retire_t, kind == _CLFLUSHOPT)

                        else:  # STORE / XCHG / LOCK_RMW
                            stores_d += 1
                            bound = lsq[0]
                            if bound > dispatch_t:
                                dispatch_t = bound
                            retire_t = dispatch_t + 1
                            if retire_t > last_retire:
                                last_retire = retire_t
                                r_slot = 1
                            elif r_slot < width:
                                retire_t = last_retire
                                r_slot += 1
                            else:
                                retire_t = last_retire + 1
                                last_retire = retire_t
                                r_slot = 1
                            rob_app(retire_t)
                            instr_d += 1
                            lsq_app(retire_t)
                            if inflight and max(inflight) <= retire_t:
                                inflight = []
                            if inflight or (spec and horizon > retire_t):
                                sdp_d += 1
                            if spec:
                                # into the SSB: no cache access, and the
                                # store buffer's drain port stays free
                                buffered_store(block, retire_t)
                            else:
                                start = retire_t if retire_t > sb_free else sb_free
                                sb_free = start + 1
                                tag = block >> l1_shift
                                ways = l1_sets[tag & l1_mask]
                                if tag in ways:
                                    ways.pop(tag)
                                    ways[tag] = True
                                    hits_d += 1
                                    acc_d += 1
                                    visible = start + l1_latency
                                else:
                                    visible = start + caches_access(block, True, start)
                                if visible > stores_visible:
                                    stores_visible = visible
                                if published is not None:
                                    published.append(block)
                                    if stop_on_publish:
                                        stop_clock = stop = limit = -1
                        ei += 1
                        if rekernel:
                            break
                        continue
                    if kind == K_TAIL:
                        ei += 1
                        continue
                    # fence / pcommit / clflush / barrier: step it first,
                    # the kernel is offered after it
                    rekernel = False
                    break

                # ---------- spill locals back to the machine ----------
                self._last_fetch = last_fetch
                self._last_retire = last_retire
                self._sb_free = sb_free
                self._stores_visible = stores_visible
                self._chain_ready = chain_ready
                self._chain_issue = chain_issue
                self._chain_block = chain_block
                self._inflight_pcommits = inflight
                stats.instructions += instr_d
                walker_n += instr_d
                stats.loads += loads_d
                stats.stores += stores_d
                stats.clwbs += clwbs_d
                stats.clflushopts += clfo_d
                stats.fetch_stall_cycles += stall_d
                stats.stores_during_pcommit += sdp_d
                l1.hits += hits_d
                caches.accesses += acc_d
                skip = 0
                if stop_at >= 0:
                    return (kernel_n, walker_n, step_n, spec_n), (ei, stop_at)
                if ei >= n_entries:
                    return (kernel_n, walker_n, step_n, spec_n), (ei, 0)
                if rekernel:
                    continue  # speculation ended: offer the kernel entries[ei]

            # ---------- slow phase: the delegated event ----------
            # entries[ei]'s compute prefix is retired; its event is tested
            # against the stop clock and, since a stepped event may commit
            # under speculation too, the publish stop; it is stepped
            # exactly, and the fast phase (or the kernel) resumes at the
            # next entry
            run_len, kind, _, _ = entries[ei]
            idx = starts[ei] + run_len
            if published and after_publish < stop_clock:
                stop_clock = after_publish
            if self._last_retire >= min(stop_clock, publish_stop):
                return (kernel_n, walker_n, step_n, spec_n), (ei, run_len)
            spec = epochs.speculating
            before = stats.instructions
            if kind == K_BARRIER:
                self._instr_index = idx
                if coalesce:
                    self._barrier()
                else:
                    # three units: the stop may fall between them
                    for offset, op in enumerate((_SFENCE, _PCOMMIT, _SFENCE)):
                        if offset:
                            if published and after_publish < stop_clock:
                                stop_clock = after_publish
                            if self._last_retire >= min(stop_clock, publish_stop):
                                stop_at = run_len + offset
                                break
                        self._instr_index = idx + offset
                        step(op, 0, None)
            else:
                self._instr_index = idx
                step(kind, addrs[idx], metas[meta_idx[idx]])
            if spec:
                spec_n += stats.instructions - before
            else:
                step_n += stats.instructions - before
            if stop_at >= 0:
                return (kernel_n, walker_n, step_n, spec_n), (ei, stop_at)
            ei += 1
        return (kernel_n, walker_n, step_n, spec_n), (ei, 0)

    # ==================================================================
    # per-instruction processing
    # ==================================================================
    def _fill_windows(self, t: int) -> None:
        """Fill the fetch group, fetch queue and ROB with *t* (0 at
        construction, the restart cycle after a rollback).

        The windows are thus always full, so the dispatch and retire
        bandwidth groups are the youngest ``width`` entries of the fetch
        queue and ROB.  A sentinel never binds, like the reference
        model's "not full, no constraint": every later fetch is at least
        ``t + 1`` and every dispatch later still.
        """
        config = self.config
        width = config.width
        self._fetch_group: Deque[int] = deque([t] * width, maxlen=width)
        self._fetchq: Deque[int] = deque(
            [t] * config.fetchq_entries, maxlen=config.fetchq_entries
        )
        self._rob: Deque[int] = deque(
            [t] * config.rob_entries, maxlen=config.rob_entries
        )

    def _front_end(self) -> int:
        """Advance fetch/dispatch for one instruction; returns its dispatch
        time, accounting fetch-queue stalls (Figure 10)."""
        config = self.config
        fetchq = self._fetchq
        # fetch: bandwidth + fetch-queue-full constraint
        bw_ready = self._fetch_group[0] + 1
        fq_ready = fetchq[0]
        fetch_t = max(bw_ready, fq_ready)
        if fq_ready > bw_ready and fq_ready > self._last_fetch:
            # the front end sat idle because the fetch queue was full
            floor = max(bw_ready, self._last_fetch)
            self.stats.fetch_stall_cycles += fq_ready - floor
            if self._tracer is not None:
                self._tracer.span("fetch_stall", floor, fq_ready, cat="stall")
        self._last_fetch = max(self._last_fetch, fetch_t)
        self._fetch_group.append(fetch_t)
        # dispatch: front-end depth + bandwidth (the fetch queue's youngest
        # `width` entries) + ROB-full constraint
        dispatch_t = max(
            fetch_t + config.fetch_to_dispatch,
            fetchq[-config.width] + 1,
            self._rob[0],
        )
        fetchq.append(dispatch_t)
        return dispatch_t

    def _compute_batch(self, count: int) -> None:
        """Fetch, dispatch, and retire *count* consecutive 1-cycle compute
        ops (ALU/BRANCH) in one loop.

        Semantically identical to ``_front_end`` + ``_retire(dispatch + 1)``
        per op, with the sliding-window deques and running maxima bound to
        locals; only valid outside speculation (callers guarantee it),
        since it never polls the epoch commit schedule.  Used by the exact
        dispatch loop (:meth:`_run_exact`) and the multi-core driver's
        per-unit path; the segment walker inlines the same arithmetic,
        adding the poll while speculating.
        """
        config = self.config
        neg_w = -config.width
        depth = config.fetch_to_dispatch
        fetch_group = self._fetch_group
        fetchq = self._fetchq
        rob = self._rob
        fetch_append = fetch_group.append
        fetchq_append = fetchq.append
        rob_append = rob.append
        last_fetch = self._last_fetch
        last_retire = self._last_retire
        tracer = self._tracer
        fetch_stalls = 0
        for _ in range(count):
            # fetch: bandwidth + fetch-queue-full constraint
            bw_ready = fetch_group[0] + 1
            fq_ready = fetchq[0]
            if fq_ready > bw_ready:
                fetch_t = fq_ready
                if fq_ready > last_fetch:
                    floor = bw_ready if bw_ready > last_fetch else last_fetch
                    fetch_stalls += fq_ready - floor
                    if tracer is not None:
                        tracer.span("fetch_stall", floor, fq_ready, cat="stall")
            else:
                fetch_t = bw_ready
            if fetch_t > last_fetch:
                last_fetch = fetch_t
            fetch_append(fetch_t)
            # dispatch: front-end depth + bandwidth + ROB-full constraint
            dispatch_t = fetch_t + depth
            bound = fetchq[neg_w] + 1
            if bound > dispatch_t:
                dispatch_t = bound
            bound = rob[0]
            if bound > dispatch_t:
                dispatch_t = bound
            fetchq_append(dispatch_t)
            # in-order, width-limited retirement one cycle after dispatch
            retire_t = dispatch_t + 1
            if last_retire > retire_t:
                retire_t = last_retire
            bound = rob[neg_w] + 1
            if bound > retire_t:
                retire_t = bound
            rob_append(retire_t)
            last_retire = retire_t
        self._last_fetch = last_fetch
        self._last_retire = last_retire
        self.stats.fetch_stall_cycles += fetch_stalls
        self.stats.instructions += count

    def _retire(self, complete_t: int) -> int:
        """In-order, width-limited retirement; returns the retire time."""
        rob = self._rob
        retire_t = max(complete_t, self._last_retire, rob[-self.config.width] + 1)
        rob.append(retire_t)
        self._last_retire = retire_t
        self.stats.instructions += 1
        return retire_t

    def _lsq_dispatch(self, dispatch_t: int) -> int:
        """Apply the LSQ-full constraint to a memory op's dispatch."""
        return max(dispatch_t, self._lsq[0])

    def _retire_mem(self, complete_t: int) -> int:
        """Retire a memory op and release its LSQ entry at retirement."""
        retire_t = self._retire(complete_t)
        self._lsq.append(retire_t)
        return retire_t

    # ------------------------------------------------------------------
    def _poll_speculation(self, now: int) -> None:
        """Advance the epoch commit schedule to *now*: commit ended epochs
        whose barriers completed, and if the sole remaining epoch's gating
        pcommit has completed with no child pending, end it and return to
        non-speculative execution (paper §4.2.1)."""
        while self.epochs.speculating:
            oldest = self.epochs.oldest
            if oldest.barrier_done > now:
                break
            if not oldest.ended:
                if len(self.epochs.active) > 1:
                    raise RuntimeError("running epoch must be the youngest")
                # sole epoch, pcommit acknowledged: drain and exit
                drain_done = self.epochs.schedule_drain(
                    oldest, now, self.memctrl, self._flush_ack
                )
                self._stores_visible = max(self._stores_visible, drain_done)
                self._flushes_done = max(self._flushes_done, drain_done)
            self._commit_oldest()

    def _step(self, op: int, addr: int, meta: Optional[str]) -> None:
        """Process one instruction exactly (*op* is a raw ``Op`` value)."""
        if self.epochs.speculating:
            self._poll_speculation(self._last_retire)
        dispatch_t = self._front_end()
        speculating = self.epochs.speculating

        if op <= _BRANCH:  # ALU / BRANCH
            self._retire(dispatch_t + 1)
            return

        if op == _LOAD:
            self.stats.loads += 1
            block = addr & _BLOCK_MASK
            dispatch_t = self._lsq_dispatch(dispatch_t)
            # Loads without a meta tag are pointer-chase loads: their
            # address depends on the previous chase load's data, so they
            # issue only once it completes (loads within the same cache
            # block are fields of the same node and go in parallel).
            # Tagged loads (undo-log copies and other bulk traffic) stream
            # independently.  This is what makes search-heavy baseline code
            # latency-bound while logging stays bandwidth-bound.
            if meta is None:
                if block == self._chain_block:
                    # Another field of the same node: it shares the node's
                    # in-flight fill, completing no earlier than the fill
                    # (and does not advance the chain).
                    issue_t = max(dispatch_t, self._chain_issue)
                    latency = self._load_latency(block, issue_t, speculating)
                    self._retire_mem(max(issue_t + latency, self._chain_ready))
                else:
                    issue_t = max(dispatch_t, self._chain_ready)
                    latency = self._load_latency(block, issue_t, speculating)
                    self._chain_block = block
                    self._chain_issue = issue_t
                    self._chain_ready = issue_t + latency
                    self._retire_mem(issue_t + latency)
            else:
                latency = self._load_latency(block, dispatch_t, speculating)
                self._retire_mem(dispatch_t + latency)
            return

        if op == _STORE or op == _XCHG or op == _LOCK_RMW:
            self.stats.stores += 1
            block = addr & _BLOCK_MASK
            if op != _STORE and speculating:
                # strongly-ordered RMW: ends speculation like a fence would;
                # wait for every epoch to commit, then run non-speculatively.
                self._stall_until_all_committed(dispatch_t)
                speculating = False
            dispatch_t = self._lsq_dispatch(dispatch_t)
            retire_t = self._retire_mem(dispatch_t + 1)
            self._note_store_during_pcommit(retire_t)
            if speculating:
                retire_t = self._wait_for_ssb_space(retire_t)
                if self.epochs.speculating:
                    self._buffered_store(block, retire_t)
                else:
                    # draining the SSB for space ended speculation entirely
                    self._visible_store(block, retire_t)
            else:
                self._visible_store(block, retire_t)
            return

        if op == _CLWB or op == _CLFLUSHOPT:
            if op == _CLWB:
                self.stats.clwbs += 1
            else:
                self.stats.clflushopts += 1
            block = addr & _BLOCK_MASK
            retire_t = self._retire(dispatch_t + 1)
            self._note_store_during_pcommit(retire_t)
            if speculating:
                retire_t = self._wait_for_ssb_space(retire_t)
                if self.epochs.speculating:
                    self._buffered_flush(block, retire_t, invalidate=op == _CLFLUSHOPT)
                else:
                    self._visible_flush(block, retire_t, invalidate=op == _CLFLUSHOPT)
            else:
                self._visible_flush(block, retire_t, invalidate=op == _CLFLUSHOPT)
            return

        if op == _CLFLUSH:
            # legacy serialising flush: ends speculation, then acts like a
            # clflushopt that retirement must wait for.
            self.stats.clflushes += 1
            block = addr & _BLOCK_MASK
            if speculating:
                self._stall_until_all_committed(dispatch_t)
            ack = self._visible_flush(block, dispatch_t, invalidate=True)
            self._retire(max(dispatch_t + 1, ack))
            return

        if op == _PCOMMIT:
            # a lone pcommit (Log+P traces): issues at retirement, completes
            # in the background; retirement does not wait.
            retire_t = self._retire(dispatch_t + 1)
            if speculating:
                self.epochs.buffer_barrier()
                self.stats.pcommits += 1
            else:
                self._issue_pcommit(retire_t)
            return

        if op == _SFENCE or op == _MFENCE:
            self._sfence(dispatch_t)
            return

        raise ValueError(f"unhandled op {op!r}")

    # ------------------------------------------------------------------
    # loads
    # ------------------------------------------------------------------
    def _load_latency(self, block: int, now: int, speculating: bool) -> int:
        extra = 0
        if speculating:
            self.blt.record(block)
            if not self.config.bloom_enabled:
                # ablation: every speculative load searches the SSB CAM
                extra = self.ssb.latency
                if self.ssb.holds_store(block):
                    return extra
            elif self.bloom.maybe_contains(block):
                # pay the SSB CAM latency before (or while) probing the L1D
                extra = self.ssb.latency
                if self.ssb.holds_store(block):
                    # store-to-load forwarding straight from the SSB
                    return extra
                self.bloom.record_false_positive()
        return extra + self.caches.access(block, is_write=False, now=now)

    # ------------------------------------------------------------------
    # stores and flushes
    # ------------------------------------------------------------------
    def _visible_store(self, block: int, retire_t: int) -> None:
        """Post-retirement store-buffer drain into the cache."""
        start = max(retire_t, self._sb_free)
        self._sb_free = start + 1  # pipelined write port
        latency = self.caches.access(block, is_write=True, now=start)
        self._stores_visible = max(self._stores_visible, start + latency)
        if self._published is not None:
            self._published.append(block)

    def _buffered_store(self, block: int, retire_t: int) -> int:
        """Speculative store: goes to the SSB (caller ensured space)."""
        self.blt.record(block)
        self.bloom.insert(block)
        occupancy = self.epochs.buffer_store(block)
        if occupancy > self.stats.ssb_max_occupancy:
            self.stats.ssb_max_occupancy = occupancy
        if self._tracer is not None:
            self._tracer.counter("ssb_occupancy", retire_t, occupancy)
        return retire_t

    def _visible_flush(self, block: int, retire_t: int, invalidate: bool) -> int:
        """Non-speculative clwb/clflushopt; returns its ack time."""
        start = max(retire_t, self._flush_free)
        self._flush_free = start + 1
        lookup, wrote_back = self.caches.flush(block, invalidate, start)
        if wrote_back:
            ack = start + lookup + self.config.mc_roundtrip
            self.stats.nvmm_writes += 1
        else:
            ack = start + lookup
        self._flushes_done = max(self._flushes_done, ack)
        return ack

    def _buffered_flush(self, block: int, retire_t: int, invalidate: bool) -> None:
        occupancy = self.epochs.buffer_flush(block, invalidate)
        if occupancy > self.stats.ssb_max_occupancy:
            self.stats.ssb_max_occupancy = occupancy
        if self._tracer is not None:
            self._tracer.counter("ssb_occupancy", retire_t, occupancy)

    # ------------------------------------------------------------------
    # pcommit / sfence (non-speculative paths)
    # ------------------------------------------------------------------
    def _issue_pcommit(self, issue_t: int) -> int:
        self.stats.pcommits += 1
        done = self.memctrl.pcommit(issue_t)
        if self._tracer is not None:
            self._tracer.span("pcommit", issue_t, done, cat="pmem")
            self._tracer.counter(
                "wpq_occupancy", issue_t, self.memctrl.wpq_sample(issue_t)
            )
            self._tracer.counter("wpq_occupancy", done, self.memctrl.wpq_sample(done))
        self._pcommits_done = max(self._pcommits_done, done)
        self._inflight_pcommits = [t for t in self._inflight_pcommits if t > issue_t]
        self._inflight_pcommits.append(done)
        if len(self._inflight_pcommits) > self.stats.max_inflight_pcommits:
            self.stats.max_inflight_pcommits = len(self._inflight_pcommits)
        return done

    def _persist_horizon(self) -> int:
        """Everything an sfence must wait for."""
        return max(self._stores_visible, self._flushes_done, self._pcommits_done)

    def _sfence(self, dispatch_t: int) -> None:
        """A lone sfence/mfence (not part of a recognised barrier triple)."""
        self.stats.sfences += 1
        ready = dispatch_t + 1
        horizon = self._persist_horizon()
        if self.epochs.speculating:
            # any fence during speculation ends the epoch (paper §4.1)
            self._child_epoch(ready, barrier=False)
            return
        if horizon > ready and self.config.sp_enabled:
            self._enter_speculation(ready, horizon, n_fence_instrs=1)
            return
        if horizon > ready:
            self.stats.sfence_stall_cycles += horizon - ready
            if self._tracer is not None:
                self._tracer.span("sfence_drain", ready, horizon, cat="stall")
        self._retire(max(ready, horizon))

    # ------------------------------------------------------------------
    # the sfence-pcommit-sfence barrier macro-op
    # ------------------------------------------------------------------
    def _barrier(self) -> None:
        """Handle a recognised ``sfence; pcommit; sfence`` sequence."""
        config = self.config
        if self.epochs.speculating:
            self._poll_speculation(self._last_retire)
        self.stats.sfences += 2
        # front-end cost of the three instructions
        dispatch_t = self._front_end()
        self._front_end()
        self._front_end()

        ready = dispatch_t + 1
        if self.epochs.speculating:
            # the special barrier opcode needs an SSB slot of its own
            ready = self._wait_for_ssb_space(ready)
        if self.epochs.speculating:
            # delayed barrier: record the special opcode, open a child epoch
            self.stats.pcommits += 1
            self._child_epoch(ready, barrier=True)
            return

        # Non-speculative: first sfence waits for stores + flush acks...
        first_fence_done = max(ready, self._stores_visible, self._flushes_done,
                               self._pcommits_done)
        # ...then the pcommit drains the WPQ...
        pcommit_done = self._issue_pcommit(first_fence_done)
        # ...and the second sfence retires when the pcommit acknowledges.
        if config.sp_enabled and pcommit_done > ready:
            self._enter_speculation(ready, pcommit_done)
            return
        if pcommit_done > ready:
            self.stats.sfence_stall_cycles += pcommit_done - ready
            if self._tracer is not None:
                self._tracer.span("sfence_drain", ready, pcommit_done, cat="stall")
        self._retire(max(ready, first_fence_done))
        self._retire(max(ready, first_fence_done) + 1)      # the pcommit
        self._retire(max(ready + 2, pcommit_done))           # second sfence

    # ------------------------------------------------------------------
    # speculation control
    # ------------------------------------------------------------------
    def _enter_speculation(
        self, ready: int, barrier_done: int, n_fence_instrs: int = 3
    ) -> None:
        """Begin the first speculative epoch instead of stalling.

        ``n_fence_instrs`` is how many instructions the entering fence
        comprises: 3 for the ``sfence; pcommit; sfence`` barrier triple,
        1 for a lone sfence.
        """
        self.stats.sp_entries += 1
        checkpoint_t = ready + self.config.checkpoint_cycles
        epoch = self.epochs.begin_epoch(barrier_done, checkpoint_t, self._instr_index)
        self.stats.epochs_created += 1
        if self._tracer is not None:
            self._tracer.instant("sp_enter", ready, cat="speculation")
            self._epoch_starts[epoch.epoch_id] = checkpoint_t
        # the fence(s) retire speculatively, almost for free
        self._retire(checkpoint_t)
        for _ in range(n_fence_instrs - 1):
            self._retire(checkpoint_t + 1)
        self._track_epoch_peak()

    def _child_epoch(self, ready: int, barrier: bool) -> None:
        """End the current epoch at a fence/barrier and open a child."""
        current = self.epochs.current
        if barrier:
            self.epochs.buffer_barrier()
        # Schedule the ending epoch's drain and the completion gating the
        # child.  A barrier (or an epoch holding delayed lone pcommits)
        # must additionally complete its pcommit; a plain fence only needs
        # the delayed stores/flushes drained and acknowledged.
        if barrier or current.n_pcommits > 0:
            next_barrier_done = self.epochs.schedule_end(
                current, ready, self.memctrl, self._flush_ack
            )
        else:
            next_barrier_done = self.epochs.schedule_drain(
                current, ready, self.memctrl, self._flush_ack
            )
            current.next_barrier_done = next_barrier_done
        # a child epoch needs a free checkpoint
        stall_until = ready
        while not self.checkpoints.available:
            commit_at = self.epochs.commit_time()
            stall_until = max(stall_until, commit_at)
            self._commit_oldest()
        if stall_until > ready:
            self.stats.checkpoint_stall_cycles += stall_until - ready
            if self._tracer is not None:
                self._tracer.span("checkpoint_stall", ready, stall_until, cat="stall")
        checkpoint_t = stall_until + self.config.checkpoint_cycles
        epoch = self.epochs.begin_epoch(
            next_barrier_done, checkpoint_t, self._instr_index
        )
        self.stats.epochs_created += 1
        if self._tracer is not None:
            self._epoch_starts[epoch.epoch_id] = checkpoint_t
        self._retire(checkpoint_t)
        if barrier:
            self._retire(checkpoint_t + 1)
            self._retire(checkpoint_t + 1)
        self._track_epoch_peak()
        self._commit_ready(checkpoint_t)

    def _commit_oldest(self) -> None:
        epoch = self.epochs.commit_oldest(self._published)
        if self._tracer is not None:
            self._trace_epoch_end(epoch, "commit")
        if not self.epochs.speculating:
            # speculation fully drained: reset the bloom filter (paper)
            self._collect_bloom_stats()
            self.bloom.reset()
            self.blt.clear()

    def _trace_epoch_end(self, epoch, outcome: str, end: Optional[int] = None) -> None:
        """Emit the lifetime span for *epoch* plus its deferred pcommits.

        Commit spans run from the checkpoint to the later of the epoch's
        barrier completion and its SSB drain; rollback spans end at the
        rollback point.  Each *counted* delayed pcommit (``n_pcommits``)
        gets a span so pcommit spans stay count-consistent with
        ``stats.pcommits`` — forced end-of-epoch drains issue a physical
        pcommit too, but neither the counter nor the tracer bills it.
        """
        start = self._epoch_starts.pop(epoch.epoch_id, 0)
        if end is None:
            end = max(start, epoch.barrier_done, epoch.drain_done)
        self._tracer.span(
            "epoch",
            start,
            end,
            cat="speculation",
            epoch_id=epoch.epoch_id,
            outcome=outcome,
            stores=epoch.n_stores,
            flushes=epoch.n_flushes,
        )
        for _ in range(epoch.n_pcommits):
            if outcome == "commit":
                p_start = max(start, epoch.drain_done)
                p_end = max(p_start, epoch.next_barrier_done)
            else:
                p_start = p_end = end
            self._tracer.span(
                "pcommit",
                p_start,
                p_end,
                cat="pmem",
                deferred=True,
                epoch_id=epoch.epoch_id,
                outcome=outcome,
            )

    def _commit_ready(self, now: int) -> None:
        """Lazily commit epochs whose barriers completed before *now*."""
        while self.epochs.speculating:
            oldest = self.epochs.oldest
            if not oldest.ended or oldest.barrier_done > now:
                break
            self._commit_oldest()

    def _stall_until_all_committed(self, now: int) -> int:
        """Strong-ordering op or end-of-trace: wait out all epochs."""
        last = now
        while self.epochs.speculating:
            current = self.epochs.current
            if not current.ended:
                self.epochs.schedule_end(current, last, self.memctrl, self._flush_ack)
            oldest = self.epochs.oldest
            last = max(last, oldest.barrier_done, oldest.drain_done)
            self._commit_oldest()
        self._last_retire = max(self._last_retire, last)
        self._stores_visible = max(self._stores_visible, last)
        self._flushes_done = max(self._flushes_done, last)
        self._pcommits_done = max(self._pcommits_done, last)
        return last

    def _wait_for_ssb_space(self, retire_t: int) -> int:
        """Structural hazard: SSB full → stall until the oldest epoch
        commits (its entries drain)."""
        stalled_from = retire_t
        while self.ssb.free_slots == 0:
            oldest = self.epochs.oldest
            if oldest is None or not oldest.ended:
                # the running epoch alone filled the SSB: it can only drain
                # once its own barrier completes; force an early end.
                if oldest is None:
                    raise RuntimeError("SSB full outside speculation")
                self.epochs.schedule_end(
                    oldest, retire_t, self.memctrl, self._flush_ack
                )
            retire_t = max(retire_t, self.epochs.oldest.drain_done,
                           self.epochs.oldest.barrier_done)
            self._commit_oldest()
        if retire_t > stalled_from:
            self.stats.ssb_full_stall_cycles += retire_t - stalled_from
            if self._tracer is not None:
                self._tracer.span(
                    "ssb_full_stall", stalled_from, retire_t, cat="stall"
                )
            self._last_retire = max(self._last_retire, retire_t)
        return retire_t

    def _flush_ack(self, enqueue_done: int) -> int:
        return self.memctrl.writeback_ack(enqueue_done)

    def _track_epoch_peak(self) -> None:
        if len(self.epochs.active) > self.stats.max_active_epochs:
            self.stats.max_active_epochs = len(self.epochs.active)

    # ------------------------------------------------------------------
    # external coherence (tests / multi-core hooks)
    # ------------------------------------------------------------------
    def _handle_probes(self, index: int) -> Optional[int]:
        """Deliver coherence probes due at *index*; returns the resume
        index after a rollback, else ``None``."""
        due = [i for i in self._probes if i <= index]
        conflict = False
        for probe_index in sorted(due):
            for block in self._probes.pop(probe_index):
                if self.epochs.speculating and self.blt.probe(block):
                    conflict = True
        if not conflict:
            return None
        return self._do_rollback()

    def _do_rollback(self) -> int:
        """Abort speculation: discard every uncommitted epoch, flush the
        SSB and filters, refill the pipeline, and resume from the oldest
        checkpoint's trace position.

        Per the paper, rollback speed barely matters (failures are rare);
        we charge a fixed pipeline-refill penalty and restart the sliding
        window at that time.  Cache and memory-controller state are not
        rewound — speculative loads may have warmed the caches, exactly as
        in real hardware.
        """
        oldest = self.epochs.oldest
        resume_index = oldest.start_index
        discarded = self.epochs.rollback()
        self.bloom.reset()
        self.blt.clear()
        self.stats.rollbacks += 1
        self.stats.conflict_abort_cycles += self.config.rollback_penalty
        if self._tracer is not None:
            now = self._last_retire
            self._tracer.instant("rollback", now, cat="speculation")
            self._tracer.span(
                "conflict_abort", now, now + self.config.rollback_penalty,
                cat="stall",
            )
            for epoch in discarded:
                self._trace_epoch_end(epoch, "rollback", end=now)
        restart = self._last_retire + self.config.rollback_penalty
        self._fill_windows(restart)
        self._last_retire = restart
        self._last_fetch = restart
        self._chain_ready = restart
        self._chain_issue = restart
        self._chain_block = -1
        return resume_index

    def abort_speculation(self) -> Optional[int]:
        """Abort all uncommitted speculation (a power failure or coherence
        conflict at the current point).  Returns the trace index execution
        would resume from — the oldest uncommitted checkpoint, i.e. the
        last committed epoch's end — or ``None`` when the machine was not
        speculating.  Used by the crash-consistency fuzzer."""
        if not self.epochs.speculating:
            return None
        return self._do_rollback()

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _note_store_during_pcommit(self, retire_t: int) -> None:
        self._inflight_pcommits = [t for t in self._inflight_pcommits if t > retire_t]
        if self._inflight_pcommits or (
            self.epochs.speculating and self.epochs.oldest.barrier_done > retire_t
        ):
            self.stats.stores_during_pcommit += 1

    def _collect_bloom_stats(self) -> None:
        self.stats.bloom_queries = self.bloom.queries
        self.stats.bloom_hits = self.bloom.hits
        self.stats.bloom_false_positives = self.bloom.false_positives

    def _finish(self) -> None:
        """Wind the machine down.

        Execution time is taken at the retirement of the last instruction —
        matching the paper's measurement, which does not bill the trailing
        WPQ drain to the run (neither for Log+P, whose background pcommits
        may still be in flight, nor for SP, whose final epochs commit in the
        background).  Speculative state is still wound down afterwards so
        the hardware structures end the run empty (asserted by tests).
        """
        self.stats.cycles = self._last_retire
        self._stall_until_all_committed(self._last_retire)
        self._collect_bloom_stats()
        self.stats.l1_hits = self.caches.l1.hits
        self.stats.l1_misses = self.caches.l1.misses
        self.stats.nvmm_reads = self.caches.nvmm_reads
        self.stats.nvmm_writes = self.memctrl.writes
        self.stats.max_inflight_pcommits = max(
            self.stats.max_inflight_pcommits, self.memctrl.max_inflight_pcommits
        )
        self.stats.epochs_created = self.epochs.epochs_created
        self.stats.max_active_epochs = max(
            self.stats.max_active_epochs, self.epochs.max_active
        )
        self.stats.ssb_forwards = self.ssb.forwards
        self.stats.ssb_max_occupancy = max(
            self.stats.ssb_max_occupancy, self.ssb.max_occupancy
        )


#: The engine paths :meth:`PipelineModel.run` counts, in the order its
#: run loops return them: instructions retired by the NumPy batch kernel
#: (always outside speculation), by the segment walker's fast phase
#: (speculative or not), and one at a time by the exact per-op machinery
#: (``_step``/``_barrier``) outside and under speculation.  The walker
#: steps only barriers, fences, pcommits and ``clflush``, and under
#: speculation strongly ordered RMWs and stores that find the SSB full.
PATHS = (
    "pipeline.path.kernel",
    "pipeline.path.walker",
    "pipeline.path.step",
    "pipeline.path.step_spec",
)


#: Every method the segment walker inlines (or whose behaviour it bakes
#: into inlined arithmetic).  If any of these is monkey-patched — e.g.
#: ``repro.validate.mutations``'s ``pipeline-skew`` — or overridden in a
#: subclass, :meth:`PipelineModel.run` routes through the exact per-op
#: loop so the patch takes effect.
_INLINED_METHODS = (
    "_compute_batch",
    "_step",
    "_front_end",
    "_retire",
    "_retire_mem",
    "_lsq_dispatch",
    "_load_latency",
    "_visible_store",
    "_visible_flush",
    "_note_store_during_pcommit",
    "_barrier",
    "_poll_speculation",
    "_wait_for_ssb_space",
    "_buffered_store",
    "_buffered_flush",
)
#: The same for the collaborators' methods: the cache model's access
#: paths, and the SSB's occupancy (the walker reads its entry deque).
_INLINED_COLLABORATORS = (
    (CacheHierarchy, ("access", "flush")),
    (CacheLevel, ("lookup",)),
    (SpeculativeStoreBuffer, ("__len__",)),
)
_PRISTINE = [
    (cls, name, cls.__dict__[name])
    for cls, names in ((PipelineModel, _INLINED_METHODS),) + _INLINED_COLLABORATORS
    for name in names
]


def _deoptimized(model: PipelineModel) -> bool:
    """Whether *model* must take the exact per-op loop (patched methods,
    a subclass, or per-instance overrides)."""
    if type(model) is not PipelineModel:
        return True
    for cls, name, func in _PRISTINE:
        if cls.__dict__.get(name) is not func:
            return True
    instance_dict = getattr(model, "__dict__", None)
    if instance_dict:
        for name in _INLINED_METHODS:
            if name in instance_dict:
                return True
    return False


def simulate(
    trace: Trace,
    config: MachineConfig = MachineConfig(),
    tracer=None,
    kernel: Optional[str] = None,
) -> RunStats:
    """Convenience wrapper: simulate *trace* on a fresh machine.

    Pass a :class:`repro.obs.tracer.SpanTracer` as *tracer* to capture
    cycle-resolved spans (forces the exact per-op loop); ``None`` keeps
    the segment fast path.  *kernel* picks the batch backend (``auto`` /
    ``python`` / ``numpy``; ``None`` means ``auto``) — both backends are
    cycle-identical."""
    pipeline = PipelineConfig(kernel=kernel) if kernel else None
    return PipelineModel(config, tracer=tracer, pipeline=pipeline).run(trace)
