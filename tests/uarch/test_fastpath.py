"""Segment-walker fast path vs the reference model at its seams.

The walker's fetch queue, ROB and LSQ are born full of sentinels, which
real entries push out at the capacity seams; the reference model
instead grows its queues and applies no bound until they are full.  The
walker also polls for epoch commits while speculating, and hands some
ops to exact stepping (fences, barriers, strongly ordered RMWs, a full
SSB).  These tests aim synthetic traces squarely at those seams,
including machines whose windows are no wider than the pipeline, and
require cycle-for-cycle agreement with the reference model
(repro.uarch.pipeline_ref).
"""

import pytest

from repro.core.ssb import SpeculativeStoreBuffer
from repro.isa.instr import Instr
from repro.isa.ops import Op
from repro.isa.trace import Trace
from repro.obs import telemetry
from repro.uarch import kernel
from repro.uarch.config import MachineConfig
from repro.uarch.pipeline import (
    _PRISTINE,
    PipelineModel,
    _deoptimized,
    simulate,
)
from repro.uarch.pipeline_ref import ReferencePipelineModel, simulate_reference


def alu(n):
    return [Instr(Op.ALU) for _ in range(n)]


def chase_loads(n, base=0x10000, stride=4096):
    """Pointer-chase loads on distinct blocks (cold misses, long latency)."""
    return [Instr(Op.LOAD, base + i * stride) for i in range(n)]


def barrier():
    return [Instr(Op.SFENCE), Instr(Op.PCOMMIT), Instr(Op.SFENCE)]


def assert_equivalent(trace, config=None):
    """Both models agree on *trace*; returns the (shared) stats dict."""
    config = config or MachineConfig()
    fast = simulate(trace, config).as_dict()
    ref = simulate_reference(trace, config).as_dict()
    assert fast == ref
    return fast


def narrowest(width):
    """Fetch queue and ROB as narrow as the width, and a 1-entry LSQ: the
    born-full sentinels make up the whole bandwidth groups, and every
    window bound is the op `width` (one memory op) back."""
    return MachineConfig(
        width=width, fetchq_entries=width, rob_entries=width, lsq_entries=1
    )


def enter_speculation():
    """A logged store, its clwb and a barrier: the barrier's pcommit is
    still in flight, so an SP machine retires it speculatively."""
    return [Instr(Op.STORE, 0x2000, meta="log"), Instr(Op.CLWB, 0x2000)] + barrier()


class TestOccupancyBoundaries:
    """Compute runs sized exactly at the fetchq/ROB capacity seams."""

    @pytest.mark.parametrize("run", [1, 3, 4, 5, 46, 47, 48, 49, 50])
    def test_fetchq_exactly_full(self, run):
        # a cold chase miss blocks retirement; `run` compute ops then pile
        # into the front end around the fetchq-full (48) boundary
        instrs = []
        for i in range(4):
            instrs += [Instr(Op.LOAD, 0x40000 + i * 8192)] + alu(run)
        instrs += [Instr(Op.STORE, 0x9000)]
        assert_equivalent(Trace(instrs))

    @pytest.mark.parametrize("run", [126, 127, 128, 129, 130])
    def test_rob_exactly_full(self, run):
        instrs = []
        for i in range(3):
            instrs += [Instr(Op.LOAD, 0x80000 + i * 8192)] + alu(run)
        instrs += [Instr(Op.CLWB, 0x80000), Instr(Op.STORE, 0x9040)]
        assert_equivalent(Trace(instrs))

    @pytest.mark.parametrize("run", [136, 137, 138, 139, 200, 600])
    def test_steady_state_threshold(self, run):
        # after a saturating preamble, compute runs long enough to settle
        # into the width-periodic steady state (each new time is the one
        # `width` ops back plus one), cut by a store and a load
        instrs = chase_loads(2) + alu(300)
        instrs += [Instr(Op.STORE, 0x9000)] + alu(run)
        instrs += [Instr(Op.LOAD, 0xA0000)] + alu(run)
        assert_equivalent(Trace(instrs))

    def test_long_pure_compute_from_born_full_windows(self):
        # a fresh machine's first 4,000 ops are compute: real entries push
        # the sentinels out of both windows, then the run stays saturated
        instrs = alu(4000) + [Instr(Op.STORE, 0x9000)] + barrier() + alu(500)
        assert_equivalent(Trace(instrs))

    @pytest.mark.parametrize("sp", [False, True], ids=["stall", "sp32"])
    @pytest.mark.parametrize("width", [2, 4, 8])
    def test_windows_as_narrow_as_the_width(self, width, sp):
        # every walker event around compute runs of 0 to 2*width+1 ops,
        # then a 1,200-op event-free span (long enough for the kernel)
        config = narrowest(width).with_sp(32) if sp else narrowest(width)
        instrs = chase_loads(2) + alu(1)
        for i in range(12):
            block = 0x6000 + 64 * i
            instrs += alu(i % (2 * width + 2)) + [
                Instr(Op.STORE, block, meta="log"),
                Instr(Op.CLWB, block),
                Instr(Op.LOAD, block + 8),
                Instr(Op.LOAD, 0x90000 + 4096 * i, meta="log"),
            ] + barrier()
        instrs += alu(600) + chase_loads(4) + [Instr(Op.STORE, 0x9000)]
        instrs += alu(600) + [
            Instr(Op.CLFLUSHOPT, 0x6000),
            Instr(Op.XCHG, 0x6040),
            Instr(Op.SFENCE),
            Instr(Op.CLFLUSH, 0x6080),
        ] + alu(width)
        assert_equivalent(Trace(instrs), config)

    def test_event_dense_no_compute(self):
        # zero-length runs between events: the walker's per-entry overhead
        # paths with no compute prefix at all
        instrs = []
        for i in range(40):
            instrs += [
                Instr(Op.STORE, 0x5000 + (i % 6) * 64, meta="log"),
                Instr(Op.CLWB, 0x5000 + (i % 6) * 64, meta="log"),
                Instr(Op.LOAD, 0x70000 + i * 128),
            ]
        instrs += barrier()
        assert_equivalent(Trace(instrs))


class TestSpeculationSeams:
    """Speculative epochs in the fast phase: the polls that commit them
    and the handoffs to exact stepping."""

    def test_compute_run_spans_speculation_exit(self):
        # the barrier enters speculation; the following long compute run
        # starts under speculation in the fast phase and the epoch
        # commits partway through it: the walker must poll and commit at
        # exactly that op, so the store after the run is not speculative
        config = MachineConfig().with_sp(256)
        instrs = (
            [Instr(Op.STORE, 0x2000, meta="log"), Instr(Op.CLWB, 0x2000)]
            + barrier()
            + alu(3000)
            + [Instr(Op.STORE, 0x3000)]
            + alu(50)
        )
        assert_equivalent(Trace(instrs), config)

    def test_back_to_back_barriers_under_speculation(self):
        config = MachineConfig().with_sp(256)
        instrs = []
        for i in range(6):
            instrs += [
                Instr(Op.STORE, 0x2000 + i * 64, meta="log"),
                Instr(Op.CLWB, 0x2000 + i * 64),
            ]
            instrs += barrier()
            instrs += alu(20)
        instrs += alu(2500)
        assert_equivalent(Trace(instrs), config)

    def test_probe_splits_compute_run_mid_speculation(self):
        # a coherence probe lands inside a compute run while the machine
        # is speculating on a store the probe conflicts with: rollback and
        # re-execution must match the reference exactly
        config = MachineConfig().with_sp(256)
        instrs = (
            [Instr(Op.STORE, 0x3000, meta="log"), Instr(Op.CLWB, 0x3000)]
            + barrier()
            + alu(30)
            + [Instr(Op.STORE, 0x3000)]
            + alu(200)
            + barrier()
            + alu(10)
        )
        trace = Trace(instrs)
        probe_index = 100  # inside the 200-op compute run
        fast = PipelineModel(config)
        fast.schedule_probe(probe_index, 0x3000)
        ref = ReferencePipelineModel(config)
        ref.schedule_probe(probe_index, 0x3000)
        fast_stats = fast.run(trace).as_dict()
        ref_stats = ref.run(trace).as_dict()
        assert fast_stats["rollbacks"] == 1
        assert fast_stats == ref_stats

    @pytest.mark.parametrize("width", [2, 4, 8])
    def test_rollback_refills_the_narrowest_windows(self, width):
        # the rollback restarts every window full of the restart cycle;
        # on windows as narrow as the width those sentinels bound the
        # re-executed ops at once
        config = narrowest(width).with_sp(256)
        instrs = (
            enter_speculation()
            + alu(3)
            + [Instr(Op.STORE, 0x3000), Instr(Op.LOAD, 0x3000)]
            + alu(40)
            + barrier()
            + alu(width)
        )
        trace = Trace(instrs)
        fast = PipelineModel(config)
        fast.schedule_probe(20, 0x3000)
        ref = ReferencePipelineModel(config)
        ref.schedule_probe(20, 0x3000)
        fast_stats = fast.run(trace).as_dict()
        assert fast_stats["rollbacks"] == 1
        assert fast_stats == ref.run(trace).as_dict()

    def test_resumed_run_mid_speculation(self):
        # run(finish=False) leaves an epoch open; the follow-up run()
        # re-enters the fast phase with the epoch still open, buffers its
        # store speculatively and must match one uninterrupted run
        config = MachineConfig().with_sp(256)
        part1 = (
            [Instr(Op.STORE, 0x2000, meta="log"), Instr(Op.CLWB, 0x2000)]
            + barrier()
            + alu(10)
        )
        part2 = alu(400) + [Instr(Op.STORE, 0x4000)] + alu(40)
        fast = PipelineModel(config)
        fast.run(Trace(part1), finish=False)
        fast_stats = fast.run(Trace(part2)).as_dict()
        ref_stats = simulate_reference(Trace(part1 + part2), config).as_dict()
        assert fast_stats == ref_stats


    def test_epoch_commit_inside_compute_run(self):
        # two epochs are open when the compute run starts; the older one
        # commits after about 600 of its ops and the younger, then sole,
        # one about 160 ops later, so each run length below puts a poll
        # that commits at a different op of the run
        config = MachineConfig().with_sp(256)
        head = (
            enter_speculation()
            + alu(20)
            + [Instr(Op.STORE, 0x2040, meta="log"), Instr(Op.CLWB, 0x2040)]
            + barrier()
        )
        model = PipelineModel(config)
        model.run(Trace(head + alu(650)), finish=False)
        assert len(model.epochs.active) == 1  # one committed, still speculating
        for run in (500, 600, 650, 700, 760, 800):
            tail = [Instr(Op.STORE, 0x5000), Instr(Op.LOAD, 0x2040)] + alu(10)
            assert_equivalent(Trace(head + alu(run) + tail), config)

    def test_speculation_ends_inside_an_entrys_prefix(self):
        # speculation is live when the compute prefix starts and ends
        # within it, so the store that closes the same entry retires
        # non-speculatively (it never enters the SSB)
        config = MachineConfig().with_sp(256)

        def trace(run):
            return Trace(
                enter_speculation() + alu(run) + [Instr(Op.STORE, 0x3000)]
                + alu(10)
            )

        assert assert_equivalent(trace(4), config)["ssb_max_occupancy"] == 1
        stats = assert_equivalent(trace(800), config)
        assert stats["sp_entries"] == 1
        assert stats["ssb_max_occupancy"] == 0

    def test_ssb_fills_inside_the_fast_phase(self):
        # 40 speculative stores overflow a 32-entry SSB: the store that
        # finds it full goes to _step, which stalls for space
        config = MachineConfig().with_sp(32)
        instrs = enter_speculation()
        for i in range(40):
            instrs += [Instr(Op.STORE, 0x8000 + 64 * i)] + alu(2)
        stats = assert_equivalent(Trace(instrs + alu(20)), config)
        assert stats["ssb_max_occupancy"] == 32
        assert stats["ssb_full_stall_cycles"] > 0

    def test_lone_fences_without_coalescing(self):
        # each fence of a barrier, and a lone sfence, opens its own epoch
        config = MachineConfig().with_sp(256, coalesce_barrier_checkpoints=False)
        instrs = (
            enter_speculation()
            + alu(10)
            + [Instr(Op.STORE, 0x2040, meta="log"), Instr(Op.CLWB, 0x2040)]
            + barrier()
            + alu(10)
            + [Instr(Op.STORE, 0x6000), Instr(Op.SFENCE)]
            + alu(30)
        )
        stats = assert_equivalent(Trace(instrs), config)
        assert stats["epochs_created"] == 5
        assert stats["checkpoint_stall_cycles"] > 0

    def test_xchg_under_speculation(self):
        # a strongly ordered RMW waits for every epoch to commit
        config = MachineConfig().with_sp(256)
        instrs = (
            enter_speculation()
            + alu(10)
            + [Instr(Op.STORE, 0x6000), Instr(Op.XCHG, 0x6040)]
            + alu(30)
            + [Instr(Op.STORE, 0x6080)]
            + alu(10)
        )
        stats = assert_equivalent(Trace(instrs), config)
        assert stats["ssb_max_occupancy"] == 1  # only the store before it

    @pytest.mark.parametrize("bloom", [True, False], ids=["bloom", "no-bloom"])
    def test_speculative_loads(self, bloom):
        # under speculation: loads forward from the SSB (untagged and
        # tagged), hit and miss in the cache, start and extend a pointer
        # chase, and — once the first epoch has drained but the filter is
        # not yet reset — probe a stale bloom bit (a false positive)
        config = MachineConfig().with_sp(256, bloom_enabled=bloom)
        instrs = (
            enter_speculation()
            + [
                Instr(Op.STORE, 0x5000),
                Instr(Op.LOAD, 0x5000),
                Instr(Op.LOAD, 0x5008, meta="log"),
                Instr(Op.LOAD, 0x2000),
                Instr(Op.LOAD, 0x90000),
                Instr(Op.LOAD, 0x90010),
            ]
            + barrier()
            + alu(100)
            + [Instr(Op.LOAD, 0x5000)]
            + alu(10)
        )
        stats = assert_equivalent(Trace(instrs), config)
        assert stats["ssb_forwards"] == 2
        assert stats["l1_hits"] > 0 and stats["l1_misses"] > 0
        assert stats["bloom_false_positives"] == (1 if bloom else 0)


def inflight_trace(gap, pcommit_first=True):
    """Three lone pcommits (Log+P style): P1 soon done, P2 behind 20
    writebacks, P3 after a *gap*-op compute run, a store and a clwb.  A
    clflush (which leaves the in-flight list alone) and a 1,224-op batch
    of spaced stores, long enough for the NumPy kernel, come after P3, or
    with *pcommit_first* false before it: the batch then reads the list
    the walker left at that store."""
    instrs = [Instr(Op.STORE, 0x2000, meta="log"), Instr(Op.CLWB, 0x2000),
              Instr(Op.PCOMMIT)]
    for i in range(20):
        instrs += [Instr(Op.STORE, 0x10000 + i * 64), Instr(Op.CLWB, 0x10000 + i * 64)]
    instrs += [Instr(Op.PCOMMIT)] + alu(gap)
    instrs += [Instr(Op.STORE, 0x3000), Instr(Op.CLWB, 0x3000)]
    batch = [Instr(Op.CLFLUSH, 0x4000)]
    for i in range(24):
        batch += alu(50) + [Instr(Op.STORE, 0x5000 + i * 64)]
    if pcommit_first:
        instrs += [Instr(Op.PCOMMIT)] + batch
    else:
        instrs += batch + [Instr(Op.PCOMMIT), Instr(Op.STORE, 0x6000)]
    return Trace(instrs)


class NotingReference(ReferencePipelineModel):
    """The reference model, recording each stores-during-pcommit note as
    ``(op, in-flight completions before the prune, retire time)``."""

    def __init__(self, config):
        super().__init__(config)
        self.notes = []
        self._op = None

    def _step(self, instr):
        self._op = instr.op
        super()._step(instr)

    def _note_store_during_pcommit(self, retire_t):
        self.notes.append((self._op, tuple(self._inflight_pcommits), retire_t))
        super()._note_store_during_pcommit(retire_t)


class TestInflightPcommits:
    """Stores and clwbs while pcommits are in flight.  The walker only
    tests whether any completion is still ahead of the op and drops the
    list when none is; the entries it leaves behind must not change a
    count (``_issue_pcommit`` prunes by its issue time, the kernel reads
    the max and prunes)."""

    #: gap -> the note of the store after it (index 42): 250 lands between
    #: P1's and P2's completion, 1800 after both
    GAPS = (0, 250, 1000, 1800)

    def test_directed_traces_cover_the_cases(self):
        notes = {}
        for gap in self.GAPS:
            model = NotingReference(MachineConfig())
            model.run(inflight_trace(gap))
            notes[gap] = model.notes
        op, inflight, retire_t = notes[250][42]
        assert op is Op.STORE
        assert min(inflight) <= retire_t < max(inflight)  # P1 done, P2 not
        op, inflight, retire_t = notes[250][43]
        assert op is Op.CLWB and max(inflight) > retire_t
        op, inflight, retire_t = notes[1800][42]
        assert op is Op.STORE and inflight and max(inflight) <= retire_t
        # with P1 still in flight, P3 makes three
        assert simulate_reference(inflight_trace(0)).max_inflight_pcommits == 3

    @pytest.mark.parametrize("pcommit_first", [True, False])
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("gap", GAPS)
    def test_walker_and_kernel_match_the_reference(self, gap, backend, pcommit_first):
        if backend == "numpy" and not kernel.numpy_available():
            pytest.skip(f"numpy backend unavailable: {kernel.unavailable_reason()}")
        trace = inflight_trace(gap, pcommit_first)
        before = telemetry.get("pipeline.path.kernel")
        fast = simulate(trace, MachineConfig(), kernel=backend)
        kernel_n = telemetry.get("pipeline.path.kernel") - before
        ref = simulate_reference(trace, MachineConfig())
        assert fast.stores_during_pcommit == ref.stores_during_pcommit
        assert fast.max_inflight_pcommits == ref.max_inflight_pcommits
        assert fast.as_dict() == ref.as_dict()
        # the closing batch, and at 1800 the gap's, run on the kernel
        assert (kernel_n > 0) == (backend == "numpy")


class TestDeoptimisationGuard:
    """Patched or subclassed models must abandon the inlined walker."""

    def test_pristine_model_uses_fast_path(self):
        assert not _deoptimized(PipelineModel(MachineConfig()))

    def test_subclass_is_deoptimized(self):
        class Tweaked(PipelineModel):
            pass

        assert _deoptimized(Tweaked(MachineConfig()))

    def test_instance_override_is_deoptimized(self):
        model = PipelineModel(MachineConfig())
        model._compute_batch = lambda count: None
        assert _deoptimized(model)

    def test_class_patch_is_deoptimized_and_restored(self):
        original = PipelineModel._compute_batch
        try:
            PipelineModel._compute_batch = original
            assert not _deoptimized(PipelineModel(MachineConfig()))
            PipelineModel._compute_batch = lambda self, count: original(
                self, count
            )
            assert _deoptimized(PipelineModel(MachineConfig()))
        finally:
            PipelineModel._compute_batch = original
        assert not _deoptimized(PipelineModel(MachineConfig()))

    def test_deoptimized_subclass_still_exact(self):
        class Tweaked(PipelineModel):
            pass

        trace = Trace(
            chase_loads(3) + alu(100) + [Instr(Op.STORE, 0x9000)] + barrier()
        )
        config = MachineConfig()
        tweaked = Tweaked(config).run(trace).as_dict()
        assert tweaked == simulate_reference(trace, config).as_dict()

    @pytest.mark.parametrize(
        "owner,name,original", _PRISTINE,
        ids=[f"{owner.__name__}.{name}" for owner, name, _ in _PRISTINE],
    )
    def test_patching_a_guarded_name_takes_the_exact_loop(
        self, monkeypatch, owner, name, original
    ):
        def passthrough(*args, **kwargs):
            return original(*args, **kwargs)

        config = MachineConfig().with_sp(256)
        trace = Trace(
            enter_speculation() + [Instr(Op.STORE, 0x3000)]
            + [Instr(Op.LOAD, 0x3000)] + alu(20)
        )
        expected = simulate(trace, config).as_dict()
        monkeypatch.setattr(owner, name, passthrough)
        model = PipelineModel(config)
        assert _deoptimized(model)
        exact_runs = []
        run_exact = model._run_exact

        def spy_exact(columns):
            exact_runs.append(columns)
            return run_exact(columns)

        model._run_exact = spy_exact
        assert model.run(trace).as_dict() == expected
        assert len(exact_runs) == 1

    def test_guard_covers_the_inlined_speculation_paths(self):
        guarded = {(owner, name) for owner, name, _ in _PRISTINE}
        for name in ("_buffered_store", "_buffered_flush", "_wait_for_ssb_space",
                     "_poll_speculation", "_load_latency"):
            assert (PipelineModel, name) in guarded
        # the SSB-full test reads the entry deque's length
        assert (SpeculativeStoreBuffer, "__len__") in guarded
