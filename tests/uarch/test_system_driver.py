"""The multi-core driver's fast schedule against its per-unit oracle.

:meth:`SystemModel.run` runs each core in stretches on the segment
walker (conservative run-ahead), or, without SP, each core's whole trace
alone.  A :class:`~repro.obs.tracer.SystemTracer` — or any monkey-patched
pipeline internal — sends it down the per-unit path instead, one
``_unit`` per scheduling turn, which interleaves the cores exactly as the
schedule is defined.  Both must produce the same machines.
"""

import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import telemetry
from repro.obs.tracer import SystemTracer
from repro.txn.modes import PersistMode
from repro.uarch.config import MachineConfig
from repro.uarch.pipeline import _PRISTINE
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
