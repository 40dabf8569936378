"""Multi-core co-simulation with a BLT-driven conflict protocol.

:class:`SystemModel` drives *N* :class:`~repro.uarch.pipeline.PipelineModel`
cores — each with its private SSB, checkpoint buffer, bloom filter and
BLT — over the per-core traces produced by
:mod:`repro.workloads.concurrent`, inside one persistence domain (the
shared functional NVMM heap those traces were generated against).

Scheduling
----------
The driver interleaves the cores' **exact per-op loops** one unit at a
time, always advancing the core whose retire clock is furthest behind
(ties broken by core id).  A unit is exactly one iteration of
``PipelineModel._run_exact``: a batched compute run, a coalesced
barrier macro-op, or a single stepped micro-op.  Because every unit
uses the same machinery as the single-core exact loop — which is
cycle-identical to the segment walker and the NumPy kernel by contract
— a core that never receives a conflicting probe retires every
instruction at exactly the cycle a standalone run would, and the
min-clock policy bounds cross-core skew to one unit.  That is the
conformance anchor: an N-core zero-contention run *is* N independent
single-core runs, cycle-for-cycle.

Timing composition: each core keeps its own memory-controller channel
(block-interleaved banks of one logical NVMM domain, as with
``n_memory_controllers > 1`` on a single core), so per-core timing is
compositional and the zero-contention identity above holds exactly.
Cross-core interaction happens through the coherence layer below.

Conflict protocol (paper §4.2.2, exercised for the first time)
--------------------------------------------------------------
Stores are broadcast to every other core at the moment they become
*globally visible*:

* a non-speculative store broadcasts when it drains to the cache
  (immediately after its unit);
* a speculative store is private to its epoch in the SSB and broadcasts
  only when that epoch **commits** — including epochs that were already
  draining when the commit completed;
* an aborted epoch's stores are never broadcast.

Before each unit, the target core probes its BLT with every pending
remote block.  A hit on an open speculative epoch's read/write set
aborts the reader: every uncommitted epoch rolls back
(:meth:`PipelineModel._do_rollback` — pipeline refill penalty, counted
in ``conflict_abort_cycles``), and the driver rewinds that core's trace
cursor to the oldest checkpoint's position so the aborted instructions
**re-execute**.  Probes are delivered exactly once, so repeated aborts
always converge once the writer has drained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.trace import Trace
from repro.obs import telemetry as _telemetry
from repro.stats.run import RunStats
from repro.uarch.config import MachineConfig, PipelineConfig
from repro.uarch.pipeline import (
    PipelineModel,
    _BLOCK_MASK,
    _BRANCH,
    _LOCK_RMW,
    _PCOMMIT,
    _SFENCE,
    _STORE,
    _XCHG,
)

_STORE_OPS = (_STORE, _XCHG, _LOCK_RMW)


class _CoreState:
    """Driver-side bookkeeping for one core."""

    __slots__ = (
        "index", "core", "columns", "n", "cursor",
        "pending", "spec_stores", "active_ids",
    )

    def __init__(self, index: int, core: PipelineModel, trace: Trace):
        self.index = index
        self.core = core
        self.columns = trace.columns()
        self.n = len(self.columns.ops)
        self.cursor = 0
        #: remote ``(block, source core, source retire clock)`` triples
        #: awaiting delivery before the next unit — provenance rides
        #: along so a traced run can attribute aborts aggressor→victim
        self.pending: List[Tuple[int, int, int]] = []
        #: epoch_id -> blocks buffered speculatively under that epoch
        self.spec_stores: Dict[int, List[int]] = {}
        #: ordered ids of the epochs open after the last unit
        self.active_ids: List[int] = []

    @property
    def runnable(self) -> bool:
        return self.cursor < self.n or bool(self.pending)


@dataclass
class SystemResult:
    """Outcome of one :meth:`SystemModel.run`."""

    per_core: List[RunStats]
    #: system counters
    conflict_aborts: int = 0      #: rollbacks caused by remote stores
    conflict_probes: int = 0      #: remote blocks probed against a BLT
    store_broadcasts: int = 0     #: globally visible stores broadcast
    replayed_instructions: int = 0  #: micro-ops re-executed after aborts

    @property
    def cycles(self) -> int:
        """System makespan: the slowest core's retire clock."""
        return max((stats.cycles for stats in self.per_core), default=0)

    def aggregate(self) -> RunStats:
        """Counter-summed view (cycles = makespan), with the system
        counters and per-core cycles flattened into ``extra`` so the
        result round-trips through the stats cache unchanged."""
        from dataclasses import fields

        total = RunStats()
        for field_ in fields(RunStats):
            if field_.name in ("cycles", "extra"):
                continue
            setattr(
                total, field_.name,
                sum(getattr(stats, field_.name) for stats in self.per_core),
            )
        total.cycles = self.cycles
        total.extra["cores"] = len(self.per_core)
        total.extra["conflict_aborts"] = self.conflict_aborts
        total.extra["conflict_probes"] = self.conflict_probes
        total.extra["store_broadcasts"] = self.store_broadcasts
        total.extra["replayed_instructions"] = self.replayed_instructions
        for index, stats in enumerate(self.per_core):
            total.extra[f"core{index}_cycles"] = stats.cycles
            total.extra[f"core{index}_instructions"] = stats.instructions
            total.extra[f"core{index}_rollbacks"] = stats.rollbacks
        return total


class SystemModel:
    """N pipeline cores sharing one persistence domain."""

    def __init__(
        self,
        config: MachineConfig = MachineConfig(),
        n_cores: int = 2,
        tracers: Optional[Sequence] = None,
        pipeline: Optional[PipelineConfig] = None,
        system_tracer=None,
    ):
        if n_cores < 1:
            raise ValueError("need at least one core")
        if system_tracer is not None:
            if tracers is not None:
                raise ValueError("pass tracers or system_tracer, not both")
            if system_tracer.n_cores != n_cores:
                raise ValueError(
                    f"system tracer has {system_tracer.n_cores} cores, "
                    f"model has {n_cores}"
                )
            tracers = system_tracer.cores
        if tracers is not None and len(tracers) != n_cores:
            raise ValueError("one tracer per core (or None)")
        self.config = config
        self.n_cores = n_cores
        self.system_tracer = system_tracer
        self.cores = [
            PipelineModel(
                config,
                tracer=tracers[index] if tracers is not None else None,
                pipeline=pipeline,
            )
            for index in range(n_cores)
        ]
        self.conflict_aborts = 0
        self.conflict_probes = 0
        self.store_broadcasts = 0
        self.replayed_instructions = 0

    # ------------------------------------------------------------------
    def run(
        self,
        traces: Sequence[Trace],
        finish: bool = True,
        stop_after_aborts: Optional[int] = None,
    ) -> SystemResult:
        """Co-simulate one trace per core; returns per-core stats plus
        the system conflict counters.

        With *stop_after_aborts*, the run halts as soon as that many
        conflict aborts have happened — immediately after the rollback,
        with every core left mid-flight.  The crash fuzzer uses this to
        cut power in the middle of a conflict (pair with
        ``finish=False``).
        """
        if len(traces) != self.n_cores:
            raise ValueError(f"expected {self.n_cores} traces, got {len(traces)}")
        states = [
            _CoreState(index, core, trace)
            for index, (core, trace) in enumerate(zip(self.cores, traces))
        ]
        units = 0
        while True:
            if stop_after_aborts is not None and self.conflict_aborts >= stop_after_aborts:
                break
            chosen: Optional[_CoreState] = None
            for state in states:
                if not state.runnable:
                    continue
                if chosen is None or state.core._last_retire < chosen.core._last_retire:
                    chosen = state
            if chosen is None:
                break
            self._unit(states, chosen)
            units += 1
        _telemetry.counter_inc("system.units", units)
        if finish:
            for state in states:
                state.core._finish()
        else:
            for state in states:
                state.core.stats.cycles = state.core._last_retire
        return SystemResult(
            per_core=[core.stats for core in self.cores],
            conflict_aborts=self.conflict_aborts,
            conflict_probes=self.conflict_probes,
            store_broadcasts=self.store_broadcasts,
            replayed_instructions=self.replayed_instructions,
        )

    # ------------------------------------------------------------------
    # one scheduling unit
    # ------------------------------------------------------------------
    def _unit(self, states: List[_CoreState], state: _CoreState) -> None:
        core = state.core

        # ---- coherence: deliver pending remote stores ----------------
        if state.pending:
            blocks, state.pending = state.pending, []
            conflict: Optional[Tuple[int, int, int]] = None
            for probe in blocks:
                if core.epochs.speculating:
                    self.conflict_probes += 1
                    if core.blt.probe(probe[0]) and conflict is None:
                        conflict = probe
            if conflict is not None:
                abort_ts = core._last_retire
                resume = core._do_rollback()
                self.conflict_aborts += 1
                self.replayed_instructions += state.cursor - resume
                if self.system_tracer is not None:
                    block, source, broadcast_ts = conflict
                    self.system_tracer.record_conflict(
                        aggressor=source, victim=state.index, block=block,
                        broadcast_ts=broadcast_ts, abort_ts=abort_ts,
                        abort_cycles=self.config.rollback_penalty,
                        replayed=state.cursor - resume,
                    )
                state.cursor = resume
                state.spec_stores.clear()
                state.active_ids = []
                return

        columns = state.columns
        ops = columns.ops
        i = state.cursor
        if i >= state.n:
            return  # probe-only visit on a finished core

        # ---- one exact-loop iteration --------------------------------
        op = ops[i]
        if op <= _BRANCH and not core.epochs.speculating:
            j = i + 1
            n = state.n
            while j < n and ops[j] <= _BRANCH:
                j += 1
            core._compute_batch(j - i)
            state.cursor = j
            return  # compute runs touch no epochs and no memory

        core._instr_index = i
        store_block = -1
        if (
            self.config.coalesce_barrier_checkpoints
            and op == _SFENCE
            and i + 2 < state.n
            and ops[i + 1] == _PCOMMIT
            and ops[i + 2] == _SFENCE
        ):
            core._barrier()
            state.cursor = i + 3
        else:
            if op in _STORE_OPS:
                store_block = columns.addrs[i] & _BLOCK_MASK
            core._step(op, columns.addrs[i], columns.metas[columns.meta_idx[i]])
            state.cursor = i + 1

        # ---- visibility: commits first, then this unit's store -------
        now_ids = [epoch.epoch_id for epoch in core.epochs.active]
        if state.active_ids:
            still_open = set(now_ids)
            for epoch_id in state.active_ids:
                if epoch_id in still_open:
                    continue
                committed = state.spec_stores.pop(epoch_id, None)
                if committed:
                    self._broadcast(states, state.index, committed,
                                    core._last_retire)
        state.active_ids = now_ids

        if store_block >= 0:
            if core.epochs.speculating:
                owner = core.epochs.current.epoch_id
                state.spec_stores.setdefault(owner, []).append(store_block)
            else:
                self._broadcast(states, state.index, [store_block],
                                core._last_retire)

    def _broadcast(
        self, states: List[_CoreState], source: int, blocks: List[int], ts: int
    ) -> None:
        self.store_broadcasts += len(blocks)
        tagged = [(block, source, ts) for block in blocks]
        for state in states:
            if state.index != source:
                state.pending.extend(tagged)


def simulate_system(
    traces: Sequence[Trace],
    config: MachineConfig = MachineConfig(),
    tracers: Optional[Sequence] = None,
    system_tracer=None,
) -> SystemResult:
    """Convenience wrapper: build a :class:`SystemModel` sized to
    *traces* and run it.

    Pass a :class:`~repro.obs.tracer.SystemTracer` as *system_tracer*
    to capture per-core spans plus aggressor→victim conflict records
    (forces every core onto the exact per-op loop); ``None`` keeps the
    fast path and the zero-overhead contract."""
    system = SystemModel(
        config, n_cores=len(traces), tracers=tracers,
        system_tracer=system_tracer,
    )
    return system.run(traces)
