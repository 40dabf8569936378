"""The multi-core driver's fast schedule against its per-unit oracle.

:meth:`SystemModel.run` runs each core in stretches on the segment
walker (conservative run-ahead with lookahead: a core runs on until
another core could next publish), or, without SP, each core's whole
trace alone.  A :class:`~repro.obs.tracer.SystemTracer` — or any
monkey-patched pipeline internal — sends it down the per-unit path
instead, one ``_unit`` per scheduling turn, which interleaves the cores
exactly as the schedule is defined.  Both must produce the same machines.
"""

import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import telemetry
from repro.obs.tracer import SystemTracer
from repro.txn.modes import PersistMode
from repro.uarch.config import MachineConfig
from repro.uarch.pipeline import _NEVER, _PRISTINE, PipelineModel
from repro.uarch.system import PATHS, SystemModel
from repro.workloads.concurrent import generate_concurrent

BASE = MachineConfig()
MACHINES = {
    "base": BASE,
    "sp32": BASE.with_sp(32),
    "sp256": BASE.with_sp(256),
    "sp256_ck1": BASE.with_sp(256, checkpoint_entries=1),
    "sp256_nocoalesce": BASE.with_sp(256, coalesce_barrier_checkpoints=False),
    "sp256_nobloom": BASE.with_sp(256, bloom_enabled=False),
    # the battery's 1200 ns NVMM writes: every horizon lies far ahead
    "sp256_w1200": BASE.with_sp(256, nvmm_write_cycles=2520),
}
#: windows no wider than the pipeline: after a rollback the sentinels
#: the windows restart with make up every bound of the re-executed ops
SMALLEST = MachineConfig(
    width=2, fetchq_entries=2, rob_entries=2, lsq_entries=1
).with_sp(32)
OPS = dict(init_ops=40, sim_ops=8)

cells = st.tuples(
    st.sampled_from(["HM", "BT"]),
    st.integers(min_value=2, max_value=4),       # cores
    st.sampled_from([0.0, 0.3, 0.7, 1.0]),       # contention
    st.integers(min_value=0, max_value=20),      # seed
    st.sampled_from(sorted(MACHINES)),
)


@functools.lru_cache(maxsize=8)
def _traces(abbrev, cores, contention, seed):
    return tuple(generate_concurrent(
        abbrev, PersistMode.LOG_P_SF, n_cores=cores, contention=contention,
        seed=seed, **OPS,
    ).traces)


def _machine_state(system, result):
    """Everything the two schedules must agree on."""
    return {
        "counters": (result.conflict_aborts, result.conflict_probes,
                     result.store_broadcasts, result.replayed_instructions),
        "stats": [stats.as_dict() for stats in result.per_core],
        "caches": [
            [[level.stamp, level.hits, level.misses, level.writebacks,
              [list(ways.items()) for ways in level._sets]]
             for level in core.caches.levels]
            + [core.caches.accesses, core.caches.nvmm_reads]
            for core in system.cores
        ],
        "speculation": [
            ([epoch.epoch_id for epoch in core.epochs.active], len(core.ssb),
             core.checkpoints.in_use, core._last_retire)
            for core in system.cores
        ],
    }


def _run(config, traces, per_unit, **kwargs):
    """``(machine state, system.path.* counts)`` of one co-simulation."""
    cores = len(traces)
    system = SystemModel(
        config, n_cores=cores,
        system_tracer=SystemTracer(cores) if per_unit else None,
    )
    before = [telemetry.get(name) for name in PATHS]
    result = system.run(list(traces), **kwargs)
    paths = [telemetry.get(name) - b for name, b in zip(PATHS, before)]
    return _machine_state(system, result), paths


class TestFastScheduleEqualsPerUnit:
    @given(cell=cells)
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_whole_runs(self, cell):
        abbrev, cores, contention, seed, label = cell
        traces = _traces(abbrev, cores, contention, seed)
        fast, paths = _run(MACHINES[label], traces, per_unit=False)
        oracle, oracle_paths = _run(MACHINES[label], traces, per_unit=True)
        assert fast == oracle
        instructions = sum(stats["instructions"] for stats in fast["stats"])
        assert sum(paths) == sum(oracle_paths) == instructions
        assert oracle_paths[:2] == [0, 0]  # the oracle steps every unit

    @given(cell=cells, aborts=st.integers(min_value=1, max_value=4))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_runs_cut_after_an_abort(self, cell, aborts):
        """Cut mid-flight right after the k-th conflict abort, the conflict
        counters and every core's open epochs, SSB occupancy and
        checkpoints in use agree; a core speculating at the cut agrees in
        everything.  A core outside speculation may differ by compute ops:
        the walker tests the stop before every op, so it can stop inside
        a compute run that the per-unit path runs as one unit, which
        whole runs cannot tell apart."""
        abbrev, cores, contention, seed, label = cell
        traces = _traces(abbrev, cores, contention, seed)
        cut = dict(finish=False, stop_after_aborts=aborts)
        fast, _ = _run(MACHINES[label], traces, per_unit=False, **cut)
        oracle, _ = _run(MACHINES[label], traces, per_unit=True, **cut)
        assert fast["counters"] == oracle["counters"]
        for index, (mine, theirs) in enumerate(
            zip(fast["speculation"], oracle["speculation"])
        ):
            assert mine[:3] == theirs[:3], index
            if mine[0]:  # speculating at the cut
                assert mine == theirs, index
                assert fast["stats"][index] == oracle["stats"][index], index

    @pytest.mark.parametrize("label", sorted(MACHINES))
    def test_contended_four_core_cell(self, label):
        """A fixed, heavily contended cell on every machine: the fast
        schedule leaves the stepping to barriers and rare fallbacks."""
        traces = _traces("HM", 4, 1.0, 3)
        fast, paths = _run(MACHINES[label], traces, per_unit=False)
        oracle, _ = _run(MACHINES[label], traces, per_unit=True)
        assert fast == oracle
        kernel, walker, step, step_spec = paths
        assert walker > 3 * (step + step_spec)
        if label != "base":
            assert fast["counters"][0] > 0  # the cell aborts

    def test_contended_cell_on_the_smallest_machine(self):
        """A fixed contended 2-core cell on :data:`SMALLEST`: it aborts,
        so the walker restarts from refilled windows."""
        traces = _traces("HM", 2, 1.0, 3)
        fast, _ = _run(SMALLEST, traces, per_unit=False)
        oracle, _ = _run(SMALLEST, traces, per_unit=True)
        assert fast == oracle
        assert fast["counters"][0] > 0  # the cell aborts


@pytest.fixture
def walker_calls(monkeypatch):
    """Every walker call of the fast schedule, as ``(start clock, end
    clock, stop clock, publish stop, stop on publish, speculating at the
    start, blocks published)``."""
    calls = []
    walk = PipelineModel._run_segments

    def recorded(self, columns, segments, start=(0, 0), stop_clock=_NEVER,
                 publish_stop=_NEVER, stop_on_publish=False):
        clock, speculating = self._last_retire, self.epochs.speculating
        result = walk(self, columns, segments, start, stop_clock,
                      publish_stop, stop_on_publish)
        calls.append((clock, self._last_retire, stop_clock, publish_stop,
                      stop_on_publish, speculating, len(self._published)))
        return result

    monkeypatch.setattr(PipelineModel, "_run_segments", recorded)
    return calls


@pytest.fixture
def finished_aborts(monkeypatch):
    """Counts the conflict aborts of cores that had finished their trace."""
    count = [0]
    deliver = SystemModel._deliver

    def counted(self, state):
        finished = state.cursor >= state.n
        aborted = deliver(self, state)
        count[0] += aborted and finished
        return aborted

    monkeypatch.setattr(SystemModel, "_deliver", counted)
    return count


#: 3- and 4-core cells on :data:`MACHINES`' ``sp256_w1200`` where cores
#: run far past each other's keys, sleepers are woken by cores under
#: lookahead, and finished cores abort
DIRECTED = [("BT", 3, 0.7, 0), ("HM", 4, 0.7, 2)]


@pytest.mark.parametrize("cell", DIRECTED, ids=[f"{c[0]}x{c[1]}" for c in DIRECTED])
class TestLookahead:
    """Directed cells for the lookahead: the chosen core stops where
    another core could next publish, not at the smallest key."""

    def test_publication_ahead_of_a_speculating_receiver(self, cell, walker_calls):
        """A speculating core runs past the key of another core that could
        act on what it publishes; it stops before its next unit that could
        publish, and what it publishes after reaches that core exactly
        where the per-unit path delivers it."""
        traces = _traces(*cell)
        fast, _ = _run(MACHINES["sp256_w1200"], traces, per_unit=False)
        assert any(
            speculating and end >= publish_stop and not published
            for _, end, _, publish_stop, _, speculating, published in walker_calls
        )
        walker_calls.clear()
        oracle, _ = _run(MACHINES["sp256_w1200"], traces, per_unit=True)
        assert not walker_calls  # the oracle steps every unit
        assert fast == oracle
        assert fast["counters"][0] > 0  # the cell aborts

    def test_sleeper_woken_by_a_core_running_ahead(
        self, cell, walker_calls, finished_aborts
    ):
        """A core whose stop lies beyond the publish stop wakes a sleeper
        (a finished core, still speculating, with a smaller key): its
        stretch ends after that unit, the sleeper aborts and re-executes,
        all as on the per-unit path."""
        traces = _traces(*cell)
        fast, _ = _run(MACHINES["sp256_w1200"], traces, per_unit=False)
        assert any(
            wake and published and stop > publish_stop
            for _, _, stop, publish_stop, wake, _, published in walker_calls
        )
        assert finished_aborts[0] > 0
        oracle, _ = _run(MACHINES["sp256_w1200"], traces, per_unit=True)
        assert fast == oracle

    @pytest.mark.parametrize("aborts", [1, 3, 6])
    def test_run_cut_after_k_aborts(self, cell, aborts):
        """A run cut after k aborts keeps zero lookahead, so no core stands
        past the cut: every core agrees in open epochs, SSB occupancy and
        checkpoints, and a core speculating at the cut in everything."""
        traces = _traces(*cell)
        cut = dict(finish=False, stop_after_aborts=aborts)
        fast, _ = _run(MACHINES["sp256_w1200"], traces, per_unit=False, **cut)
        oracle, _ = _run(MACHINES["sp256_w1200"], traces, per_unit=True, **cut)
        assert fast["counters"] == oracle["counters"]
        assert fast["counters"][0] == aborts
        for index, (mine, theirs) in enumerate(
            zip(fast["speculation"], oracle["speculation"])
        ):
            assert mine[:3] == theirs[:3], index
            if mine[0]:
                assert mine == theirs, index
                assert fast["stats"][index] == oracle["stats"][index], index


def test_scaled_figure15_cell_takes_half_the_turns():
    """Figure 15's BT 2-core p=0.9 SP256 cell at seed 7 (scaled) took
    3,179 turns under the zero-lookahead rule, for 539 publishing units;
    the lookahead at least halves them, with the per-unit answers."""
    traces = tuple(generate_concurrent(
        "BT", PersistMode.LOG_P_SF, n_cores=2, contention=0.9, seed=7,
    ).traces)
    before = telemetry.get("system.stretches")
    fast, _ = _run(MACHINES["sp256"], traces, per_unit=False)
    turns = telemetry.get("system.stretches") - before
    assert turns <= 3179 // 2
    assert fast["counters"][0] == 43
    oracle, _ = _run(MACHINES["sp256"], traces, per_unit=True)
    assert fast == oracle


def _wrapped(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        return func(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize(
    "cls,name,func", _PRISTINE,
    ids=[f"{cls.__name__}.{name}" for cls, name, _ in _PRISTINE],
)
def test_patching_a_guarded_name_takes_the_per_unit_path(monkeypatch, cls, name, func):
    """A patch of anything the walker inlines must take effect in system
    runs too: the driver then steps every unit through the patched
    machinery, and the results do not change for a faithful wrapper."""
    traces = _traces("BT", 2, 0.7, 1)
    pristine, pristine_paths = _run(MACHINES["sp256"], traces, per_unit=False)
    assert pristine_paths[1] > 0  # the walker runs when nothing is patched
    monkeypatch.setattr(cls, name, _wrapped(func))
    patched, paths = _run(MACHINES["sp256"], traces, per_unit=False)
    assert paths[:2] == [0, 0]
    assert patched == pristine
