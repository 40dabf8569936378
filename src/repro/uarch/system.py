"""Multi-core co-simulation with a BLT-driven conflict protocol.

:class:`SystemModel` drives *N* :class:`~repro.uarch.pipeline.PipelineModel`
cores — each with its private SSB, checkpoint buffer, bloom filter and
BLT — over the per-core traces produced by
:mod:`repro.workloads.concurrent`, inside one persistence domain (the
shared functional NVMM heap those traces were generated against).

Scheduling
----------
The schedule is defined one *unit* at a time: always advance the core
whose retire clock is furthest behind (ties broken by core id), by one
unit — a compute run outside speculation, a coalesced barrier macro-op,
or a single micro-op (every op under speculation is its own unit).
Because each core runs the same machinery as a single-core run — the
segment walker is cycle-identical to the exact per-op loop and the
NumPy kernel by contract — a core that never receives a conflicting
probe retires every instruction at exactly the cycle a standalone run
would.  That is the conformance anchor: an N-core zero-contention run
*is* N independent single-core runs, cycle-for-cycle.

The driver keeps what that interleaving computes, ties included, but
runs it in **stretches**: consecutive units of the chosen core (the
lowest key ``(retire clock, core id)`` among the runnable cores), on the
segment walker (:meth:`PipelineModel._run_segments`).  Cores interact
only through what they publish, so the chosen core may run past another
core's key as long as nothing that core could still publish would reach
it — conservative parallel discrete-event simulation with lookahead
(Chandy and Misra 1979; Bryant 1977).  Two bounds, as keys:

* the *stop*: the smallest *earliest possible publication* among the
  other cores (:meth:`SystemModel._epp`).  A core that does not
  speculate may publish at its next unit, so it is its key.  A
  speculating core publishes only when an epoch commits, and no epoch
  commits before the oldest epoch's ``barrier_done`` (the walker's
  *horizon*), unless an event forces it: a fence that finds every
  checkpoint taken, a strongly ordered op, an op that finds the SSB
  full.  A delivery whose block is in a speculating core's BLT rolls
  it back at its next unit, after which it may publish at once; a
  finished core publishes only then.
* the *publish stop*: the smallest key among the other cores that could
  act on a delivery.  The chosen core starts no unit that could publish
  at or above it (outside speculation, none at all), and once it has
  published, its stop drops to it.  So every block is published below
  the key of every core that receives it, and a core applies all it has
  pending at its next unit, as on the per-unit path.

A run cut by ``stop_after_aborts`` keeps both bounds at the smallest
key (zero lookahead): the cut must find every core where the per-unit
path leaves it.  The walker stops before the first op that starts at
or above the bound; stopping early is always exact, since the next
pick re-applies the rule.  It tests before every op, speculating or
not, so outside speculation it may stop inside a compute run that the
per-unit path runs as one unit: a core that does not speculate ignores
deliveries and a compute op broadcasts nothing, so a whole run cannot
tell the difference (a run cut short by ``stop_after_aborts`` can: a
core outside speculation may stand inside a compute run whose end the
per-unit path has reached).  A core that has retired its whole
trace and has no probe pending is *asleep*: it publishes nothing until
a delivery rolls it back.  A broadcast wakes it, and only a core that
still speculates can act on what it is delivered; if such a core's key
is below the chosen core's, it runs as soon as the chosen core
publishes a block, so the stretch also ends after its first unit that
publishes.  A rollback can resume inside an expanded barrier triple,
where the walker cannot start; those units, and probe deliveries to a
finished core, go through :meth:`SystemModel._unit`.

Without SP no core ever speculates, so no delivered probe can act: each
core runs its whole trace alone, on the walker and the NumPy kernel.

Timing composition: each core keeps its own memory-controller channel
into the one logical NVMM domain, so per-core timing is compositional
and the zero-contention identity above holds exactly.
Cross-core interaction happens through the coherence layer below.

Conflict protocol (paper §4.2.2, exercised for the first time)
--------------------------------------------------------------
Stores are broadcast to every other core at the moment they become
*globally visible*:

* a non-speculative store broadcasts when it drains to the cache;
* a speculative store is private to its epoch in the SSB and broadcasts
  only when that epoch **commits** — including epochs that were already
  draining when the commit completed;
* an aborted epoch's stores are never broadcast.

Each core *publishes* those blocks, in order, into a list as they
become visible (:attr:`PipelineModel._published`: the walker's and
:meth:`~PipelineModel._visible_store`'s drains, and the stores
:meth:`~PipelineModel._commit_oldest` pops from the SSB); after each
stretch or unit the driver appends them to the other cores' pending
lists.  The other cores do not run during a stretch, so they see the
same pending blocks, in the same order, as after each of its units.

At the start of its next stretch or unit, the target core probes its
BLT with every pending remote block (probes count only while it
speculates).  A hit on an open speculative epoch's read/write set
aborts the reader: every uncommitted epoch rolls back
(:meth:`PipelineModel._do_rollback` — pipeline refill penalty, counted
in ``conflict_abort_cycles``), and the driver rewinds that core's trace
cursor to the oldest checkpoint's position so the aborted instructions
**re-execute**.  Probes are delivered exactly once, so repeated aborts
always converge once the writer has drained.

The per-unit path (:meth:`SystemModel._unit` for every unit) is the
oracle: it runs with a :class:`~repro.obs.tracer.SystemTracer`, with
per-core tracers, and when any core must take the exact loop
(:func:`~repro.uarch.pipeline._deoptimized`).  Each run publishes the
instructions retired per engine path (``system.path.*``) and its
scheduling turns (``system.stretches``).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

from repro.isa.analysis import K_BARRIER
from repro.isa.trace import Trace
from repro.obs import telemetry as _telemetry
from repro.stats.run import RunStats
from repro.uarch.config import MachineConfig, PipelineConfig
from repro.uarch.pipeline import (
    _BRANCH,
    _CLFLUSH,
    _CLFLUSHOPT,
    _CLWB,
    _LOCK_RMW,
    _MFENCE,
    _NEVER,
    _PCOMMIT,
    _SFENCE,
    _STORE,
    _XCHG,
    PipelineModel,
    _deoptimized,
)

#: The engine paths :meth:`SystemModel.run` counts, published once per
#: run: instructions its cores retired in the NumPy kernel, in the
#: walker's fast phase, and one at a time outside and under speculation
#: (the walker's slow phase and the per-unit path).  They sum to the
#: cores' instructions, replays included.
PATHS = (
    "system.path.kernel",
    "system.path.walker",
    "system.path.step",
    "system.path.step_spec",
)

#: Checkpoints each event takes under speculation (a fence opens a child
#: epoch; a barrier triple is one fence when coalesced, else two).  A
#: strongly ordered op commits every epoch, so it counts as more than any
#: machine has.
_FENCES = {
    K_BARRIER: 1, _SFENCE: 1, _MFENCE: 1,
    _XCHG: 1 << 32, _LOCK_RMW: 1 << 32, _CLFLUSH: 1 << 32,
}
#: SSB slots each event takes under speculation (a barrier triple's
#: pcommit takes one for the special barrier opcode)
_BUFFERED = {K_BARRIER: 1, _PCOMMIT: 1, _STORE: 1, _CLWB: 1, _CLFLUSHOPT: 1}


class _CoreState:
    """Driver-side bookkeeping for one core."""

    __slots__ = (
        "index", "core", "trace", "columns", "n", "cursor", "pending",
        "segments", "entries", "starts", "entry", "fences", "buffered", "epp",
    )

    def __init__(self, index: int, core: PipelineModel, trace: Trace):
        self.index = index
        self.core = core
        self.trace = trace
        self.columns = trace.columns()
        self.n = len(self.columns.ops)
        self.cursor = 0
        #: remote ``(block, source core, source retire clock)`` triples
        #: awaiting delivery before the next unit — provenance rides
        #: along so a traced run can attribute aborts aggressor→victim
        self.pending: List[Tuple[int, int, int]] = []
        # walker runs: the trace's segments, their rows and starts (each
        # entry's first trace position, then the trace length), and the
        # entry holding ``cursor``
        self.segments = None
        self.entries: Sequence[Tuple[int, int, int, int]] = ()
        self.starts: Sequence[int] = ()
        self.entry = 0
        # lookahead: per entry, how many checkpoints and SSB slots the
        # events before it take under speculation (prefix sums), and the
        # earliest key at which this core could publish (see _epp)
        self.fences = array("q")
        self.buffered = array("q")
        self.epp = 0

    @property
    def runnable(self) -> bool:
        return self.cursor < self.n or bool(self.pending)

    @property
    def key(self) -> Tuple[int, int]:
        """Scheduling key: the lowest runs next."""
        return self.core._last_retire, self.index


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
        #: instructions retired per :data:`PATHS` entry in this run
        self._paths = [0, 0, 0, 0]
        #: how far past a fence's own key the checkpoint it takes may lie:
        #: its dispatch is at most ``fetch_to_dispatch`` past the retire
        #: clock, and the checkpoint is ready one cycle later plus
        #: ``checkpoint_cycles`` (an epoch whose barrier completes by then
        #: commits in that fence's unit)
        self._slack = config.fetch_to_dispatch + config.checkpoint_cycles + 2

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
        self._paths = [0, 0, 0, 0]
        stopped = stop_after_aborts is not None and self.conflict_aborts >= stop_after_aborts
        if stopped:
            turns = 0
        elif self.system_tracer is not None or any(
            core._tracer is not None or _deoptimized(core) for core in self.cores
        ):
            turns = self._run_units(states, stop_after_aborts)
        elif not self.config.sp_enabled:
            turns = self._run_alone(states)
        else:
            turns = self._run_stretches(states, stop_after_aborts)
        for name, count in zip(PATHS, self._paths):
            _telemetry.counter_inc(name, count)
        _telemetry.counter_inc("system.stretches", turns)
        for state in states:
            state.core._published = None
            if finish:
                state.core._finish()
            else:
                state.core.stats.cycles = state.core._last_retire
        return SystemResult(
            per_core=[core.stats for core in self.cores],
            conflict_aborts=self.conflict_aborts,
            conflict_probes=self.conflict_probes,
            store_broadcasts=self.store_broadcasts,
            replayed_instructions=self.replayed_instructions,
        )

    # ------------------------------------------------------------------
    # the three schedules
    # ------------------------------------------------------------------
    def _run_alone(self, states: List[_CoreState]) -> int:
        """No SP: every core runs its whole trace alone, kernel on.  Every
        store retired became visible and was broadcast (to cores that
        never speculate, so nothing is delivered)."""
        for state in states:
            core = state.core
            stores = core.stats.stores
            paths, _ = core._run_segments(state.columns, state.trace.segments())
            for index, count in enumerate(paths):
                self._paths[index] += count
            state.cursor = state.n
            self.store_broadcasts += core.stats.stores - stores
        return len(states)

    def _run_units(
        self, states: List[_CoreState], stop_after_aborts: Optional[int]
    ) -> int:
        """The oracle: one :meth:`_unit` per scheduling turn."""
        for state in states:
            state.core._published = []
        turns = 0
        while stop_after_aborts is None or self.conflict_aborts < stop_after_aborts:
            chosen: Optional[_CoreState] = None
            for state in states:
                if state.runnable and (chosen is None or state.key < chosen.key):
                    chosen = state
            if chosen is None:
                break
            self._unit(states, chosen)
            turns += 1
        return turns

    def _run_stretches(
        self, states: List[_CoreState], stop_after_aborts: Optional[int]
    ) -> int:
        """Conservative run-ahead with lookahead: one stretch (or unit) per
        turn."""
        n_cores = self.n_cores
        never = _NEVER * n_cores  # above every key
        # a run cut after k aborts must stop where the per-unit path does,
        # with no core ahead of the cut: it keeps zero lookahead
        lookahead = stop_after_aborts is None
        fences = _FENCES
        if not self.config.coalesce_barrier_checkpoints:
            fences = {**_FENCES, K_BARRIER: 2}
        for state in states:
            state.core._published = []
            state.segments = segments = state.trace.segments()
            state.entries = entries = segments.entries
            state.starts = segments.starts
            if lookahead:
                kinds = list(map(itemgetter(1), entries))
                state.fences = array("q", accumulate(
                    map(fences.get, kinds, repeat(0)), initial=0
                ))
                state.buffered = array("q", accumulate(
                    map(_BUFFERED.get, kinds, repeat(0)), initial=0
                ))
                state.epp = self._epp(state)
        counts = self._paths
        aborts = _NEVER if stop_after_aborts is None else stop_after_aborts
        turns = 0
        while self.conflict_aborts < aborts:
            # the chosen core: the lowest retire clock, ties to the lower id
            chosen: Optional[_CoreState] = None
            clock = 0
            for state in states:
                if state.cursor < state.n or state.pending:
                    other = state.core._last_retire
                    if chosen is None or other < clock:
                        chosen, clock = state, other
            if chosen is None:
                break
            turns += 1
            index = chosen.index
            # keys are ``clock * n_cores + index``.  The stop: the smallest
            # key at which another core could next publish.  The publish
            # stop: the smallest key among the other cores that could act
            # on what the chosen core publishes
            stop = publish = never
            wake = False
            for state in states:
                if state is chosen:
                    continue
                other = state.core._last_retire
                if state.cursor >= state.n:
                    if not state.core.epochs.active:
                        continue  # finished for good: no delivery acts on it
                    if not state.pending:
                        if other < clock or (other == clock and state.index < index):
                            wake = True  # asleep: a broadcast would run it next
                        else:
                            # asleep ahead: it publishes only once woken
                            other = other * n_cores + state.index
                            if other < publish:
                                publish = other
                        continue
                other = other * n_cores + state.index
                if other < publish:
                    publish = other
                if state.epp < stop:
                    stop = state.epp
            if not lookahead:
                stop = publish
            position = self._position(chosen)
            if position is None:
                self._unit(states, chosen)
            elif not (chosen.pending and self._deliver(chosen)):
                core = chosen.core
                # the chosen core's key stays below a key K while its clock
                # stays below ceil((K - index) / n_cores)
                paths, (entry, done) = core._run_segments(
                    chosen.columns, chosen.segments, position,
                    (stop - index + n_cores - 1) // n_cores,
                    (publish - index + n_cores - 1) // n_cores,
                    wake,
                )
                counts[0] += paths[0]
                counts[1] += paths[1]
                counts[2] += paths[2]
                counts[3] += paths[3]
                chosen.entry = entry
                chosen.cursor = chosen.starts[entry] + done
                published = core._published
                if published:
                    self._broadcast(states, index, published, core._last_retire)
                    published.clear()
            if lookahead:
                chosen.epp = self._epp(chosen)
        return turns

    def _epp(self, state: _CoreState) -> int:
        """The earliest key at which *state*'s core could next publish a
        block, as its state stands (the driver's lookahead).

        A core that does not speculate publishes at its next store, or
        once it speculates from its next fence on.  A speculating core
        publishes only when an epoch commits: at a poll, once its clock
        reaches the oldest epoch's ``barrier_done`` (less :attr:`_slack`,
        for a fence whose checkpoint is taken past its own key), or
        earlier at an event that forces a commit — a fence that finds
        every checkpoint taken, a strongly ordered op, an op that finds
        the SSB full.  No more than ``width`` ops retire per cycle on
        the way to such an event, though the first ``width`` may retire
        at the clock itself.  A finished core publishes only after a
        delivery rolls it back (:meth:`_broadcast` lowers the key then).
        """
        core = state.core
        clock = core._last_retire
        epochs = core.epochs
        if state.cursor >= state.n:
            return _NEVER * self.n_cores
        position = self._position(state)
        if position is not None:
            entry = position[0]
            fences = state.fences
            buffered = state.buffered
            if epochs.active:
                earliest = epochs.active[0].barrier_done - self._slack
                # the fence that finds no free checkpoint, the op that
                # finds the SSB full
                fence = fences[entry] + len(core.checkpoints._free) + 1
                slot = buffered[entry] + core.ssb.free_slots + 1
            else:
                earliest = _NEVER
                fence = fences[entry] + 1
                slot = buffered[entry] + 1
            if earliest > clock:
                forced = min(
                    bisect_left(fences, fence, entry + 1),
                    bisect_left(buffered, slot, entry + 1),
                )
                if forced < len(fences):
                    # ops up to the forcing entry's event
                    ops = (
                        state.starts[forced - 1] + state.entries[forced - 1][0]
                        - state.cursor
                    )
                    if ops > self.config.width:
                        forced = clock + (ops - 1) // self.config.width
                        if forced < earliest:
                            earliest = forced
                    else:
                        earliest = clock
                clock = earliest
        return clock * self.n_cores + state.index

    def _position(self, state: _CoreState) -> Optional[Tuple[int, int]]:
        """``(segment entry, ops of it retired)`` of the cursor, or
        ``None`` where the walker cannot start: past the trace's end
        (a probe-only visit) or inside an expanded barrier triple."""
        cursor = state.cursor
        if cursor >= state.n:
            return None
        starts = state.starts
        entry = state.entry
        if not starts[entry] <= cursor < starts[entry + 1]:
            entry = state.entry = bisect_right(starts, cursor) - 1
        done = cursor - starts[entry]
        if done > state.entries[entry][0]:
            return None
        return entry, done

    # ------------------------------------------------------------------
    # one scheduling unit (the oracle path, and the driver's fallback)
    # ------------------------------------------------------------------
    def _unit(self, states: List[_CoreState], state: _CoreState) -> None:
        if self._deliver(state):
            return
        core = state.core
        columns = state.columns
        ops = columns.ops
        i = state.cursor
        if i >= state.n:
            return  # probe-only visit on a finished core

        # ---- one exact-loop iteration --------------------------------
        op = ops[i]
        spec = core.epochs.speculating
        before = core.stats.instructions
        if op <= _BRANCH and not spec:
            j = i + 1
            n = state.n
            while j < n and ops[j] <= _BRANCH:
                j += 1
            core._compute_batch(j - i)
            state.cursor = j
        else:
            core._instr_index = i
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
                core._step(op, columns.addrs[i], columns.metas[columns.meta_idx[i]])
                state.cursor = i + 1
        self._paths[3 if spec else 2] += core.stats.instructions - before

        # ---- visibility: what the unit published, in order -----------
        published = core._published
        if published:
            self._broadcast(states, state.index, published, core._last_retire)
            published.clear()

    def _deliver(self, state: _CoreState) -> bool:
        """Probe *state*'s core with its pending remote blocks; on a BLT
        hit, roll it back and rewind its cursor.  Returns whether it
        aborted."""
        if not state.pending:
            return False
        core = state.core
        blocks, state.pending = state.pending, []
        if not core.epochs.speculating:
            return False
        self.conflict_probes += len(blocks)
        conflict: Optional[Tuple[int, int, int]] = None
        probe = core.blt.probe
        for remote in blocks:
            if probe(remote[0]) and conflict is None:
                conflict = remote
        if conflict is None:
            return False
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
        return True

    def _broadcast(
        self, states: List[_CoreState], source: int, blocks: List[int], ts: int
    ) -> None:
        self.store_broadcasts += len(blocks)
        tagged = [(block, source, ts) for block in blocks]
        penalty = self.config.rollback_penalty
        for state in states:
            # a finished core that does not speculate acts on nothing
            if state.index != source and (
                state.cursor < state.n or state.core.epochs.active
            ):
                state.pending.extend(tagged)
                core = state.core
                if core.epochs.active and core.blt.holds_any(blocks):
                    # its next unit rolls it back: it can publish from the
                    # clock that rollback restarts at
                    epp = (core._last_retire + penalty) * self.n_cores + state.index
                    if epp < state.epp:
                        state.epp = epp


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
