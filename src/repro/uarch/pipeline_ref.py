"""Reference (unoptimised) pipeline model for equivalence validation.

This is the seed's sliding-window timing model, kept verbatim apart from
class/function names and the ``clflushes`` counter fix.  The optimised
model in :mod:`repro.uarch.pipeline` batches ALU/BRANCH runs and binds
hot attributes to locals; the test suite asserts both produce identical
:class:`~repro.stats.run.RunStats` cycle-for-cycle on every benchmark,
so any timing change to the fast model must be replicated here (and vice
versa) deliberately.
"""


from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.blt import BlockLookupTable
from repro.core.bloom import BloomFilter
from repro.core.checkpoints import CheckpointBuffer
from repro.core.epochs import EpochManager
from repro.core.ssb import SpeculativeStoreBuffer
from repro.isa.instr import Instr
from repro.isa.ops import Op
from repro.isa.trace import Trace
from repro.stats.run import RunStats
from repro.uarch.caches import CacheHierarchy
from repro.uarch.config import MachineConfig
from repro.uarch.memctrl import MemoryController

_BLOCK_MASK = ~63


class ReferencePipelineModel:
    """One simulated core; construct it, then call :meth:`run` on a trace."""

    def __init__(self, config: MachineConfig = MachineConfig()):
        self.config = config
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
        width = config.width
        self._fetch_group: Deque[int] = deque([0] * width, maxlen=width)
        self._dispatch_group: Deque[int] = deque([0] * width, maxlen=width)
        self._retire_group: Deque[int] = deque([0] * width, maxlen=width)
        #: dispatch times of the last `fetchq_entries` instructions
        self._fetchq: Deque[int] = deque(maxlen=config.fetchq_entries)
        #: retire times of the last `rob_entries` instructions
        self._rob: Deque[int] = deque(maxlen=config.rob_entries)
        #: retire times of the last `lsq_entries` memory operations — a
        #: memory op cannot dispatch while the LSQ is full
        self._lsq: Deque[int] = deque(maxlen=config.lsq_entries)
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

    # ==================================================================
    # public API
    # ==================================================================
    def schedule_probe(self, instr_index: int, block: int) -> None:
        """Schedule an external coherence request to arrive when execution
        reaches *instr_index*.  If it conflicts with speculative state (BLT
        hit), the machine aborts, rolls back to the oldest checkpoint, and
        **re-executes** from there (paper §4.2.2)."""
        self._probes.setdefault(instr_index, []).append(block & _BLOCK_MASK)

    def run(self, trace: Trace) -> RunStats:
        """Simulate *trace* to completion and return the statistics."""
        instrs = list(trace)
        n = len(instrs)
        i = 0
        while i < n:
            if self._probes:
                resume = self._handle_probes(i)
                if resume is not None:
                    i = resume
                    continue
            self._instr_index = i
            instr = instrs[i]
            op = instr.op
            if (
                self.config.coalesce_barrier_checkpoints
                and op is Op.SFENCE
                and i + 2 < n
                and instrs[i + 1].op is Op.PCOMMIT
                and instrs[i + 2].op is Op.SFENCE
            ):
                # the sfence-pcommit-sfence sequence as one barrier macro-op
                # (paper §4.2.2's single-checkpoint optimisation); with the
                # optimisation disabled each fence is handled individually
                # and consumes its own checkpoint during speculation.
                self._barrier(instrs[i + 1])
                i += 3
                continue
            self._step(instr)
            i += 1
        self._finish()
        return self.stats

    # ==================================================================
    # per-instruction processing
    # ==================================================================
    def _front_end(self) -> int:
        """Advance fetch/dispatch for one instruction; returns its dispatch
        time, accounting fetch-queue stalls (Figure 10)."""
        config = self.config
        # fetch: bandwidth + fetch-queue-full constraint
        bw_ready = self._fetch_group[0] + 1
        fq_ready = self._fetchq[0] if len(self._fetchq) == config.fetchq_entries else 0
        fetch_t = max(bw_ready, fq_ready)
        if fq_ready > bw_ready and fq_ready > self._last_fetch:
            # the front end sat idle because the fetch queue was full
            self.stats.fetch_stall_cycles += fq_ready - max(bw_ready, self._last_fetch)
        self._last_fetch = max(self._last_fetch, fetch_t)
        self._fetch_group.append(fetch_t)
        # dispatch: front-end depth + bandwidth + ROB-full constraint
        rob_ready = self._rob[0] if len(self._rob) == config.rob_entries else 0
        dispatch_t = max(
            fetch_t + config.fetch_to_dispatch,
            self._dispatch_group[0] + 1,
            rob_ready,
        )
        self._dispatch_group.append(dispatch_t)
        self._fetchq.append(dispatch_t)
        return dispatch_t

    def _retire(self, complete_t: int) -> int:
        """In-order, width-limited retirement; returns the retire time."""
        retire_t = max(complete_t, self._last_retire, self._retire_group[0] + 1)
        self._retire_group.append(retire_t)
        self._rob.append(retire_t)
        self._last_retire = retire_t
        self.stats.instructions += 1
        return retire_t

    def _lsq_dispatch(self, dispatch_t: int) -> int:
        """Apply the LSQ-full constraint to a memory op's dispatch."""
        if len(self._lsq) == self.config.lsq_entries:
            return max(dispatch_t, self._lsq[0])
        return dispatch_t

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

    def _step(self, instr: Instr) -> None:
        op = instr.op
        if self.epochs.speculating:
            self._poll_speculation(self._last_retire)
        dispatch_t = self._front_end()
        speculating = self.epochs.speculating

        if op is Op.ALU or op is Op.BRANCH:
            self._retire(dispatch_t + 1)
            return

        if op is Op.LOAD:
            self.stats.loads += 1
            block = instr.addr & _BLOCK_MASK
            dispatch_t = self._lsq_dispatch(dispatch_t)
            # Loads without a meta tag are pointer-chase loads: their
            # address depends on the previous chase load's data, so they
            # issue only once it completes (loads within the same cache
            # block are fields of the same node and go in parallel).
            # Tagged loads (undo-log copies and other bulk traffic) stream
            # independently.  This is what makes search-heavy baseline code
            # latency-bound while logging stays bandwidth-bound.
            if instr.meta is None:
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

        if op is Op.STORE or op is Op.XCHG or op is Op.LOCK_RMW:
            self.stats.stores += 1
            block = instr.addr & _BLOCK_MASK
            if op is not Op.STORE and speculating:
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

        if op is Op.CLWB or op is Op.CLFLUSHOPT:
            if op is Op.CLWB:
                self.stats.clwbs += 1
            else:
                self.stats.clflushopts += 1
            block = instr.addr & _BLOCK_MASK
            retire_t = self._retire(dispatch_t + 1)
            self._note_store_during_pcommit(retire_t)
            if speculating:
                retire_t = self._wait_for_ssb_space(retire_t)
                if self.epochs.speculating:
                    self._buffered_flush(block, retire_t, invalidate=op is Op.CLFLUSHOPT)
                else:
                    self._visible_flush(block, retire_t, invalidate=op is Op.CLFLUSHOPT)
            else:
                self._visible_flush(block, retire_t, invalidate=op is Op.CLFLUSHOPT)
            return

        if op is Op.CLFLUSH:
            # legacy serialising flush: ends speculation, then acts like a
            # clflushopt that retirement must wait for.
            self.stats.clflushes += 1
            block = instr.addr & _BLOCK_MASK
            if speculating:
                self._stall_until_all_committed(dispatch_t)
            ack = self._visible_flush(block, dispatch_t, invalidate=True)
            self._retire(max(dispatch_t + 1, ack))
            return

        if op is Op.PCOMMIT:
            # a lone pcommit (Log+P traces): issues at retirement, completes
            # in the background; retirement does not wait.
            retire_t = self._retire(dispatch_t + 1)
            if speculating:
                self.epochs.buffer_barrier()
                self.stats.pcommits += 1
            else:
                self._issue_pcommit(retire_t)
            return

        if op is Op.SFENCE or op is Op.MFENCE:
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

    def _buffered_store(self, block: int, retire_t: int) -> int:
        """Speculative store: goes to the SSB (caller ensured space)."""
        self.blt.record(block)
        self.bloom.insert(block)
        self.epochs.buffer_store(block)
        if len(self.ssb) > self.stats.ssb_max_occupancy:
            self.stats.ssb_max_occupancy = len(self.ssb)
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
        self.epochs.buffer_flush(block, invalidate)
        if len(self.ssb) > self.stats.ssb_max_occupancy:
            self.stats.ssb_max_occupancy = len(self.ssb)

    # ------------------------------------------------------------------
    # pcommit / sfence (non-speculative paths)
    # ------------------------------------------------------------------
    def _issue_pcommit(self, issue_t: int) -> int:
        self.stats.pcommits += 1
        done = self.memctrl.pcommit(issue_t)
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
        self._retire(max(ready, horizon))

    # ------------------------------------------------------------------
    # the sfence-pcommit-sfence barrier macro-op
    # ------------------------------------------------------------------
    def _barrier(self, pcommit_instr: Instr) -> None:
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
        self.epochs.begin_epoch(barrier_done, checkpoint_t, self._instr_index)
        self.stats.epochs_created += 1
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
        checkpoint_t = stall_until + self.config.checkpoint_cycles
        self.epochs.begin_epoch(next_barrier_done, checkpoint_t, self._instr_index)
        self.stats.epochs_created += 1
        self._retire(checkpoint_t)
        if barrier:
            self._retire(checkpoint_t + 1)
            self._retire(checkpoint_t + 1)
        self._track_epoch_peak()
        self._commit_ready(checkpoint_t)

    def _commit_oldest(self) -> None:
        epoch = self.epochs.commit_oldest()
        if not self.epochs.speculating:
            # speculation fully drained: reset the bloom filter (paper)
            self._collect_bloom_stats()
            self.bloom.reset()
            self.blt.clear()

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
        self.epochs.rollback()
        self.bloom.reset()
        self.blt.clear()
        self.stats.rollbacks += 1
        self.stats.conflict_abort_cycles += self.config.rollback_penalty
        restart = self._last_retire + self.config.rollback_penalty
        width = self.config.width
        self._fetch_group = deque([restart] * width, maxlen=width)
        self._dispatch_group = deque([restart] * width, maxlen=width)
        self._retire_group = deque([restart] * width, maxlen=width)
        self._fetchq.clear()
        self._rob.clear()
        self._last_retire = restart
        self._last_fetch = restart
        self._chain_ready = restart
        self._chain_issue = restart
        self._chain_block = -1
        return resume_index

    def external_probe(self, block: int) -> bool:
        """An external coherence request for *block*.  Returns True if it
        conflicted with speculative state and triggered a rollback."""
        if not self.epochs.speculating:
            return False
        if not self.blt.probe(block & _BLOCK_MASK):
            return False
        self.epochs.rollback()
        self.bloom.reset()
        self.blt.clear()
        self.stats.rollbacks += 1
        return True

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


def simulate_reference(trace: Trace, config: MachineConfig = MachineConfig()) -> RunStats:
    """Convenience wrapper: simulate *trace* on a fresh machine."""
    return ReferencePipelineModel(config).run(trace)
