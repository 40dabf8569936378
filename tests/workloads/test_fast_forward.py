"""Fast-forward populate (PersistentWorkload.populate, Workbench.untimed).

Populate runs its operations with undo logging and persistency
instructions gated off.  Logging only decides what recovery can roll
back, so the committed state must equal the one a fully logged
fast-forward reaches — checked here against that reference on every
benchmark and mode.

Trace generation populates a benchmark once for all of its modes, runs
the timed phase once in Log+P+Sf and projects the other modes from that
trace (:func:`repro.harness.runner.generate_traces`).  That rests on the
populated state being the same whichever mode built it.  The populated
heap also holds nothing at or above the allocator's high-water mark.
"""

import hashlib

import pytest

from repro.txn.manager import TxStats
from repro.txn.modes import PersistMode
from repro.validate.conformance import (
    SMALL_HEAP,
    SMALL_PARAMS,
    masked_heap_digest,
    model_digest,
)
from repro.workloads.base import Workbench
from repro.workloads.concurrent import ConcurrentBench
from repro.workloads.fulllog import FullLoggingViolation
from repro.workloads.registry import PAPER_SPECS, WORKLOADS

INIT_OPS = 40
SIM_OPS = 8


def _small(abbrev, mode, seed=0):
    bench = Workbench(
        mode=mode, heap_size=SMALL_HEAP, record=True, track_persistence=True, seed=seed
    )
    return PAPER_SPECS[abbrev].factory(bench, **SMALL_PARAMS[abbrev])


def _logged_populate(workload, n_ops):
    """The reference: the same operations, fully logged, in plain
    fast-forward."""
    bench = workload.bench
    with bench.untimed():
        for _ in range(n_ops):
            workload.random_operation()
    bench.finish_init()


def _state(workload):
    return (
        masked_heap_digest(workload),
        workload.alloc.checkpoint(),
        workload.rng.getstate(),
        model_digest(workload),
    )


class TestEquivalence:
    @pytest.mark.parametrize("mode", list(PersistMode), ids=lambda mode: mode.name)
    @pytest.mark.parametrize("abbrev", WORKLOADS)
    def test_populate_matches_logged_fast_forward(self, abbrev, mode):
        fast = _small(abbrev, mode)
        fast.populate(INIT_OPS)
        logged = _small(abbrev, mode)
        _logged_populate(logged, INIT_OPS)
        assert _state(fast) == _state(logged)

        fast.run(SIM_OPS)
        logged.run(SIM_OPS)
        assert _state(fast) == _state(logged)
        assert fast.bench.trace.columns() == logged.bench.trace.columns()
        assert fast.check_invariants() is None

    def test_reference_really_logs(self):
        workload = _small("RT", PersistMode.LOG_P_SF)
        with workload.bench.untimed():
            workload.random_operation()
        assert workload.tx.stats.entries_logged > 0
        assert workload.persist.n_pcommit == 4


class TestPopulate:
    @pytest.mark.parametrize("abbrev", ["AT", "BT", "RT"])
    def test_guard_fires_on_unlogged_store(self, abbrev, monkeypatch):
        """The full-logging guard stays armed in fast-forward: a write
        set that misses a node still fails loudly."""
        tree = _small(abbrev, PersistMode.LOG_P_SF)
        monkeypatch.setattr(
            type(tree), "_mutation_log_set", lambda self, static, mutate: []
        )
        with pytest.raises(FullLoggingViolation):
            tree.populate(INIT_OPS)

    @pytest.mark.parametrize("abbrev", ["AT", "BT", "RT"])
    def test_dry_runs_still_run(self, abbrev, monkeypatch):
        tree = _small(abbrev, PersistMode.LOG_P_SF)
        calls = []
        dry_run = type(tree)._dry_run_writes

        def counting(self, mutate):
            calls.append(1)
            return dry_run(self, mutate)

        monkeypatch.setattr(type(tree), "_dry_run_writes", counting)
        tree.populate(INIT_OPS)
        assert len(calls) == INIT_OPS

    def test_counters_start_from_zero(self):
        workload = _small("HM", PersistMode.LOG_P_SF)
        workload.populate(INIT_OPS)
        assert workload.tx.stats == TxStats()
        persist = workload.persist
        assert (persist.n_clwb, persist.n_pcommit, persist.n_sfence) == (0, 0, 0)
        workload.run(1)
        assert workload.tx.stats.transactions == 1
        assert workload.tx.stats.entries_logged > 0
        assert persist.n_pcommit == 4

    def test_logged_reference_counters_also_reset(self):
        workload = _small("HM", PersistMode.LOG_P_SF)
        _logged_populate(workload, INIT_OPS)
        assert workload.tx.stats == TxStats()

    def test_mode_restored_after_populate(self):
        workload = _small("LL", PersistMode.LOG_P)
        workload.populate(INIT_OPS)
        assert workload.persist.mode is PersistMode.LOG_P
        assert workload.tx.mode is PersistMode.LOG_P

    def test_mode_restored_when_populate_raises(self, monkeypatch):
        workload = _small("LL", PersistMode.LOG_P_SF)

        def boom():
            assert workload.tx.mode is PersistMode.BASE
            raise RuntimeError("boom")

        monkeypatch.setattr(workload, "random_operation", boom)
        with pytest.raises(RuntimeError):
            workload.populate(1)
        assert workload.persist.mode is PersistMode.LOG_P_SF


def _image(abbrev, mode, seed=0):
    """A populated workload, built as trace generation builds one, at
    conformance sizes."""
    bench = Workbench(mode=mode, heap_size=SMALL_HEAP, record=True, seed=seed)
    with bench.untimed():
        workload = PAPER_SPECS[abbrev].factory(bench, **SMALL_PARAMS[abbrev])
    workload.populate(INIT_OPS)
    return workload


def _image_state(workload):
    """The raw heap bytes, allocator, RNG and model of *workload*."""
    return (
        hashlib.sha256(workload.heap.snapshot()).hexdigest(),
        workload.alloc.checkpoint(),
        workload.rng.getstate(),
        model_digest(workload),
    )


class TestPopulatedImage:
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("abbrev", WORKLOADS)
    def test_same_whichever_mode_built_it(self, abbrev, seed):
        first, *others = (
            _image_state(_image(abbrev, mode, seed)) for mode in PersistMode
        )
        assert all(state == first for state in others), abbrev

    @pytest.mark.parametrize("mode", list(PersistMode), ids=lambda mode: mode.name)
    @pytest.mark.parametrize("abbrev", WORKLOADS)
    def test_nothing_written_above_the_high_water_mark(self, abbrev, mode):
        workload = _image(abbrev, mode)
        heap, mark = workload.heap, workload.alloc.high_water_mark
        assert 0 < mark <= heap.size
        assert heap.raw_read(mark, heap.size - mark) == bytes(heap.size - mark)


def _observers(bench):
    return list(bench.heap._observers)


class TestUntimedObservers:
    @pytest.fixture(params=["workbench", "concurrent"])
    def bench(self, request):
        if request.param == "workbench":
            return Workbench(record=True, track_persistence=True, heap_size=1 << 20)
        return ConcurrentBench(
            PersistMode.LOG_P_SF, 2, heap_size=1 << 20, track_persistence=True
        )

    def test_recorder_detached_and_restored(self, bench):
        attached = _observers(bench)
        assert attached == [bench.recorder, bench.domain]
        with bench.untimed():
            assert _observers(bench) == [bench.domain]
        assert _observers(bench) == attached

    def test_nested_restores_once_at_the_outermost_level(self, bench):
        attached = _observers(bench)
        with bench.untimed():
            with bench.untimed():
                assert _observers(bench) == [bench.domain]
            assert _observers(bench) == [bench.domain]
            assert bench.recorder.fast_forwarding
        assert _observers(bench) == attached
        assert not bench.recorder.fast_forwarding

    def test_restored_when_the_block_raises(self, bench):
        attached = _observers(bench)
        with pytest.raises(RuntimeError):
            with bench.untimed():
                with bench.untimed():
                    raise RuntimeError("boom")
        assert _observers(bench) == attached
        assert not bench.recorder.fast_forwarding

    def test_original_index_kept(self, bench):
        """A recorder attached after another observer goes back there."""
        bench.heap.detach(bench.recorder)
        bench.heap.attach(bench.recorder)
        attached = _observers(bench)
        assert attached == [bench.domain, bench.recorder]
        with bench.untimed():
            assert _observers(bench) == [bench.domain]
        assert _observers(bench) == attached

    def test_domain_keeps_observing(self, bench):
        before = bench.domain.n_stores
        with bench.untimed():
            bench.heap.store_bytes(0x100, bytes(24))
        assert bench.domain.n_stores - before == 3

    def test_nothing_recorded(self, bench):
        bench.finish_init()
        with bench.untimed():
            bench.heap.store_u64(0x100, 1)
            bench.persist.persist_barrier()
        bench.heap.load_u64(0x100)
        if isinstance(bench, Workbench):
            assert len(bench.trace) == 2  # ALU pad + the load
        else:
            assert bench.recorder.core_len(0) == 2
