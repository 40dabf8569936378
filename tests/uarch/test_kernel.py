"""NumPy batch kernel vs the Python segment walker.

The kernel's contract (repro.uarch.kernel) is cycle-for-cycle identity
with the walker: same RunStats and the same cache hierarchy left behind
(residency, LRU order, dirty bits, stamps, and counters), on every
trace.  These tests pin that contract four ways — targeted traces aimed
at the kernel's own seams (batch threshold, same-block run elision,
scalar-chunk bailout, chunk boundaries, the carried chain head),
directed traces aimed at the classification
pass's set analysis (same-set thrash, dirty-victim cascades, flush
segmentation), property-based random traces from the full micro-op
grammar and from a conflict-biased address pool, and the benchmark
conformance matrix — plus the backend-selection plumbing (graceful
degradation without numpy, deoptimisation guard).
"""

import warnings
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.harness.runner import (
    TraceKey,
    build_trace,
    clear_trace_cache,
    generate_traces,
)
from repro.isa.instr import Instr
from repro.isa.ops import Op
from repro.isa.trace import Trace
from repro.obs import telemetry
from repro.obs.capture import TRACE_MODES
from repro.txn.modes import PersistMode
from repro.uarch import kernel
from repro.uarch.config import MachineConfig, PipelineConfig
from repro.uarch.pipeline import PipelineModel, _deoptimized
from repro.workloads.registry import WORKLOADS

requires_numpy = pytest.mark.skipif(
    not kernel.numpy_available(),
    reason=f"numpy backend unavailable: {kernel.unavailable_reason()}",
)

SMALL = dict(init_ops=300, sim_ops=12)

#: L1 geometry of the default machine, used to aim traces at one set.
_CFG = MachineConfig()
_BLOCK = _CFG.l1.block_size
_L1_WAYS = _CFG.l1.ways
_SET_STRIDE = _CFG.l1.n_sets * _BLOCK


@contextmanager
def kernel_knobs(min_batch):
    """Lower the kernel's batch threshold (read at call time)."""
    saved = kernel.KERNEL_MIN_BATCH
    kernel.KERNEL_MIN_BATCH = min_batch
    try:
        yield
    finally:
        kernel.KERNEL_MIN_BATCH = saved


def run_backend(trace, config, backend, min_batch=1):
    """Run *trace* on an explicit backend; min_batch=1 forces the kernel
    onto spans the default threshold would leave to the walker."""
    model = PipelineModel(config, pipeline=PipelineConfig(kernel=backend))
    with kernel_knobs(min_batch):
        stats = model.run(trace)
    return model, stats


def cache_state(model):
    """Everything a run leaves behind in the cache hierarchy."""
    out = [
        (level.name, level.stamp, level.hits, level.misses, level.writebacks,
         [list(ways.items()) for ways in level._sets])
        for level in model.caches.levels
    ]
    out.append(("acc", model.caches.accesses, model.caches.nvmm_reads))
    return out


def assert_backends_agree(trace, config=None, min_batch=1):
    """Byte-identical stats *and* hierarchy state, walker vs kernel."""
    config = config or MachineConfig()
    py_model, py_stats = run_backend(trace, config, "python", min_batch)
    np_model, np_stats = run_backend(trace, config, "numpy", min_batch)
    assert np_model.kernel_backend == "numpy"
    assert np_stats.as_dict() == py_stats.as_dict()
    assert cache_state(np_model) == cache_state(py_model)
    return py_model, np_model


def alu(n):
    return [Instr(Op.ALU) for _ in range(n)]


def barrier():
    return [Instr(Op.SFENCE), Instr(Op.PCOMMIT), Instr(Op.SFENCE)]


def loads(addrs):
    return [Instr(Op.LOAD, a) for a in addrs]


def stores(addrs):
    return [Instr(Op.STORE, a) for a in addrs]


# ----------------------------------------------------------------------
# backend resolution
# ----------------------------------------------------------------------
class TestBackendResolution:
    def test_explicit_python(self):
        assert kernel.resolve_backend("python") == "python"

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernel.resolve_backend("fortran")

    def test_request_is_normalised(self):
        assert kernel.resolve_backend(" Python ") == "python"

    def test_auto_picks_numpy_when_available(self):
        expected = "numpy" if kernel.numpy_available() else "python"
        assert kernel.resolve_backend("auto") == expected
        assert kernel.resolve_backend(None) == expected


# ----------------------------------------------------------------------
# graceful degradation without numpy
# ----------------------------------------------------------------------
class TestGracefulDegradation:
    @pytest.fixture
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(kernel, "np", None)
        monkeypatch.setattr(kernel, "_unavailable_reason", "numpy is not installed")
        monkeypatch.setattr(kernel, "_warned_fallback", False)

    def test_warns_once_then_silent(self, no_numpy):
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert kernel.resolve_backend("numpy") == "python"
        # the second request (any spelling) must not warn again
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernel.resolve_backend("numpy") == "python"
            assert kernel.resolve_backend("auto") == "python"

    def test_model_degrades_to_walker(self, no_numpy):
        trace = Trace(
            [Instr(Op.LOAD, 0x1000), Instr(Op.STORE, 0x1040)]
            + alu(20)
            + barrier()
        )
        with pytest.warns(RuntimeWarning):
            model = PipelineModel(
                MachineConfig(), pipeline=PipelineConfig(kernel="numpy")
            )
        assert model.kernel_backend == "python"
        degraded = model.run(trace).as_dict()
        _, reference = run_backend(trace, MachineConfig(), "python")
        assert degraded == reference.as_dict()


# ----------------------------------------------------------------------
# deoptimisation guard under the numpy backend
# ----------------------------------------------------------------------
@requires_numpy
class TestDeoptGuard:
    TRACE = Trace(
        [Instr(Op.LOAD, 0x8000 + i * 4096) for i in range(6)]
        + alu(200)
        + [Instr(Op.STORE, 0x9000)]
        + barrier()
    )

    def test_pristine_model_keeps_kernel(self):
        model = PipelineModel(
            MachineConfig(), pipeline=PipelineConfig(kernel="numpy")
        )
        assert model.kernel_backend == "numpy"
        assert model._kernel_advance is kernel.advance
        assert not _deoptimized(model)

    def test_subclass_routes_to_exact_loop(self):
        class Probed(PipelineModel):
            def _extra_probe(self):
                return None

        model = Probed(MachineConfig(), pipeline=PipelineConfig(kernel="numpy"))
        assert _deoptimized(model)
        # the exact loop must never reach the kernel
        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("kernel called on a deoptimised model")

        model._kernel_advance = boom
        with kernel_knobs(min_batch=1):
            tweaked = model.run(self.TRACE).as_dict()
        _, reference = run_backend(self.TRACE, MachineConfig(), "python")
        assert tweaked == reference.as_dict()

    def test_instance_override_routes_to_exact_loop(self):
        model = PipelineModel(
            MachineConfig(), pipeline=PipelineConfig(kernel="numpy")
        )
        model._compute_batch = lambda count: None
        assert _deoptimized(model)


# ----------------------------------------------------------------------
# kernel seams: batch threshold, run elision, scalar bailout
# ----------------------------------------------------------------------
@requires_numpy
class TestKernelSeams:
    @pytest.mark.parametrize("span", [1023, 1024, 1025, 1224])
    def test_min_batch_threshold(self, span):
        # event-free spans straddling KERNEL_MIN_BATCH: below it the
        # walker keeps the span, at/above it the kernel takes over —
        # either way the cycle count must not move
        instrs = []
        for i in range(3):
            instrs += [Instr(Op.LOAD, 0x10000 + i * 8192)]
            instrs += alu(span - 1)
        instrs += [Instr(Op.STORE, 0x9000)] + barrier()
        trace = Trace(instrs)
        config = MachineConfig()
        _, py_stats = run_backend(
            trace, config, "python", min_batch=kernel.KERNEL_MIN_BATCH
        )
        _, np_stats = run_backend(
            trace, config, "numpy", min_batch=kernel.KERNEL_MIN_BATCH
        )
        assert np_stats.as_dict() == py_stats.as_dict()

    def test_same_block_run_dirty_carry(self):
        # a run of loads with one store buried in the tail: the elided
        # tail's dirty bit must carry to the run head, so the later
        # conflict-evictions write the block back on both backends
        blk = 0x40000
        set_stride = 64 * 64  # L1: 64 sets of 64-byte blocks
        instrs = [Instr(Op.LOAD, blk + (i % 6) * 8) for i in range(8)]
        instrs += [Instr(Op.STORE, blk + 16)]
        instrs += [Instr(Op.LOAD, blk + 24)]
        # nine more tags in the same set evict the run's block from L1
        instrs += [
            Instr(Op.LOAD, blk + i * set_stride) for i in range(1, 10)
        ]
        instrs += barrier()
        py_model, np_model = assert_backends_agree(Trace(instrs))
        assert np_model.caches.l1.writebacks >= 1
        assert np_model.caches.l1.writebacks == py_model.caches.l1.writebacks

    def test_store_only_runs_and_flushes(self):
        # same-block store runs interleaved with clwb/clflushopt on the
        # run's own block (flushes break elision runs)
        blk = 0x50000
        instrs = []
        for i in range(10):
            instrs += [Instr(Op.STORE, blk + j * 8) for j in range(5)]
            instrs += [Instr(Op.CLWB if i % 2 else Op.CLFLUSHOPT, blk)]
        instrs += barrier()
        assert_backends_agree(Trace(instrs))

    def test_scalar_bailout_is_exact(self, monkeypatch):
        # the skiplist's ROB-serialised pointer chasing keeps the
        # fixpoint's wave front crawling, which trips the deep-feedback
        # bailout even at tiny scale; the scalar sweep's answer must
        # match the walker's
        calls = []
        real = kernel._scalar_chunk

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(kernel, "_scalar_chunk", spy)
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        clear_trace_cache()
        trace = build_trace("SS", PersistMode.BASE, **SMALL)
        clear_trace_cache()
        assert_backends_agree(trace)
        assert calls, "scalar bailout never triggered"

    def test_batch_starts_from_the_models_chain_head(self):
        # a first run on the walker leaves the chain head at `node`, which
        # the second trace cannot know (it has no earlier untagged load):
        # its first kernel batch must take the load of `node` as a field
        # access of that node, exactly as the walker does
        node = 0x40000
        evict = [
            Instr(Op.LOAD, node + i * _SET_STRIDE, meta="tagged")
            for i in range(1, _L1_WAYS + 2)
        ]
        first = Trace(loads([node]) + evict + alu(40) + barrier())
        second = Trace(
            loads([node, node + 8, 0x70000, node + 16]) + alu(40)
            + stores([0x50000]) + barrier()
        )

        def two_runs(backend):
            model = PipelineModel(
                MachineConfig(), pipeline=PipelineConfig(kernel=backend)
            )
            with kernel_knobs(min_batch=1 << 30):  # the walker runs it all
                model.run(first, finish=False)
            assert model._chain_block == node
            batches = telemetry.get("kernel.batches", 0)
            with kernel_knobs(min_batch=1):
                stats = model.run(second)
            took = telemetry.get("kernel.batches", 0) > batches
            chain = (model._chain_block, model._chain_issue, model._chain_ready)
            return model, stats, chain, took

        py_model, py_stats, py_chain, _ = two_runs("python")
        np_model, np_stats, np_chain, took = two_runs("numpy")
        assert took, "the kernel declined the batch"
        assert np_stats.as_dict() == py_stats.as_dict()
        assert np_chain == py_chain
        assert cache_state(np_model) == cache_state(py_model)


# ----------------------------------------------------------------------
# chunk seams: every batch split into chunks of a few hundred instructions
# ----------------------------------------------------------------------
#: The persistency modes of the golden battery's setups.
_BATTERY_MODES = list(dict.fromkeys(mode for mode, _ in TRACE_MODES.values()))


@pytest.fixture(scope="module")
def battery():
    """The golden battery's traces (``init_ops=60``, ``sim_ops=4``, seed
    0) by benchmark and mode."""
    traces = {}
    for abbrev in WORKLOADS:
        keys = [TraceKey(abbrev, mode, 0, init_ops=60, sim_ops=4)
                for mode in _BATTERY_MODES]
        traces.update(zip(((abbrev, key.mode) for key in keys),
                          generate_traces(keys)))
    return traces


@requires_numpy
class TestChunkSeams:
    """:func:`kernel.advance` indexes, classifies, solves and replays the
    WPQ writebacks of one chunk at a time.  With chunks of a few hundred
    instructions every long batch crosses chunk seams, where the chain
    head, the window state, the pointer-chase chain and the deferred
    writebacks carry over and run elision restarts."""

    @pytest.fixture(autouse=True)
    def count_chunks(self, monkeypatch):
        chunks = []
        real = kernel._ChunkOps

        def counted(*args):
            chunks.append(args)
            return real(*args)

        monkeypatch.setattr(kernel, "_ChunkOps", counted)
        self.chunks = chunks

    def _agree(self, trace, config, chunk, monkeypatch):
        monkeypatch.setattr(kernel, "KERNEL_MAX_CHUNK", chunk)
        batches = telemetry.get("kernel.batches", 0)
        del self.chunks[:]
        assert_backends_agree(trace, config)
        return len(self.chunks) - (telemetry.get("kernel.batches", 0) - batches)

    @pytest.mark.parametrize("chunk", [257, 777])
    def test_battery_cells(self, battery, chunk, monkeypatch):
        seams = sum(
            self._agree(battery[abbrev, mode], config, chunk, monkeypatch)
            for mode, config in TRACE_MODES.values()
            for abbrev in WORKLOADS
        )
        assert seams > 0, "no batch crossed a chunk seam"

    @pytest.mark.parametrize("chunk", [257, 777])
    @pytest.mark.parametrize("label", ["base", "log"])
    def test_ss40_cells(self, label, chunk, monkeypatch):
        mode, config = TRACE_MODES[label]
        (trace,) = generate_traces(
            [TraceKey("SS", mode, 0, init_ops=60, sim_ops=40)]
        )
        assert self._agree(trace, config, chunk, monkeypatch) > 0


# ----------------------------------------------------------------------
# property tests: random traces from the micro-op grammar
# ----------------------------------------------------------------------
_addr = st.integers(0, 95).map(lambda i: 0x10000 + i * 64 + (i % 8) * 8)

_token = st.one_of(
    st.tuples(st.just("alu"), st.integers(1, 60), st.just(0)),
    st.tuples(st.just("mem"), _addr, st.integers(0, 1)),
    st.tuples(st.just("run"), _addr, st.integers(2, 12)),
    st.tuples(st.just("flush"), _addr, st.integers(0, 2)),
    st.tuples(st.just("atomic"), _addr, st.integers(0, 1)),
    st.tuples(st.just("fence"), st.just(0), st.integers(0, 2)),
    st.tuples(st.just("barrier"), st.just(0), st.just(0)),
)

_FLUSHES = (Op.CLWB, Op.CLFLUSHOPT, Op.CLFLUSH)
_FENCES = (Op.SFENCE, Op.MFENCE, Op.PCOMMIT)


def _expand(token):
    kind, arg, sub = token
    if kind == "alu":
        return alu(arg)
    if kind == "mem":
        return [Instr(Op.STORE if sub else Op.LOAD, arg)]
    if kind == "run":
        # a same-block run: elision fodder, with stores sprinkled in
        return [
            Instr(Op.STORE if j % 3 == 2 else Op.LOAD, (arg & ~63) + (j % 8) * 8)
            for j in range(sub)
        ]
    if kind == "flush":
        return [Instr(_FLUSHES[sub], arg)]
    if kind == "atomic":
        return [Instr(Op.XCHG if sub else Op.LOCK_RMW, arg)]
    if kind == "fence":
        return [Instr(_FENCES[sub])]
    return barrier()


@st.composite
def grammar_traces(draw):
    tokens = draw(st.lists(_token, min_size=1, max_size=80))
    return Trace([instr for token in tokens for instr in _expand(token)])


@requires_numpy
class TestPropertyEquivalence:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(trace=grammar_traces())
    def test_base_machine(self, trace):
        assert_backends_agree(trace)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(trace=grammar_traces())
    def test_speculative_machine(self, trace):
        assert_backends_agree(trace, MachineConfig().with_sp(256))


# ----------------------------------------------------------------------
# directed traces: the classification pass's set analysis
# ----------------------------------------------------------------------
@requires_numpy
class TestDirected:
    def test_same_set_thrash_beyond_associativity(self):
        # W+4 distinct blocks all landing in L1 set 0, chased for laps:
        # every lap evicts, so the victim choice must match LRU exactly
        blocks = [i * _SET_STRIDE for i in range(_L1_WAYS + 4)]
        body = []
        for lap in range(24):
            body += loads(blocks) if lap % 3 else stores(blocks)
        assert_backends_agree(Trace(body))

    def test_dirty_victim_cascade_l1_l2_l3(self):
        # dirty a footprint far past every level's per-set capacity —
        # stride of the *L3* set count makes every block collide in one
        # set of all three levels — so dirty victims cascade
        # L1→L2→L3→WPQ; the deferred writeback records must land at the
        # same times the walker emits them
        deep_stride = _CFG.l3.n_sets * _BLOCK
        blocks = [i * deep_stride for i in range(_CFG.l3.ways + 8)]
        body = stores(blocks)
        for lap in range(6):
            body += stores([b + (lap % 2) * 8 for b in blocks])
            body += loads(list(reversed(blocks)))
        py_model, _ = assert_backends_agree(Trace(body))
        assert py_model.caches.l3.writebacks > 0  # the cascade actually ran

    def test_eviction_free_fast_path(self):
        # footprint fits the set: after first touch every sub-batch is
        # closed, so the whole stream resolves as bulk hit refreshes
        blocks = [i * _SET_STRIDE for i in range(_L1_WAYS - 2)]
        body = []
        for lap in range(30):
            body += loads(blocks) + stores(blocks[:2])
        _, np_model = assert_backends_agree(Trace(body))
        assert np_model.caches.l1.misses == len(blocks)  # first touches only

    def test_partial_eligibility_split(self):
        # one quiet set (closed) interleaved with one thrashing set
        # (offending): bulk refreshes and the exact replay must compose
        quiet = [i * _SET_STRIDE for i in range(4)]
        noisy = [_BLOCK + i * _SET_STRIDE for i in range(_L1_WAYS + 3)]
        body = []
        for lap in range(20):
            body += loads(quiet) + stores(noisy[: lap % len(noisy) + 1])
        assert_backends_agree(Trace(body))

    def test_flush_segmented_batch(self):
        # flushes make their set offending; cleans and invalidations must
        # replay in order with the surrounding fills and evictions
        blocks = [i * _SET_STRIDE for i in range(_L1_WAYS + 2)]
        body = []
        for lap in range(10):
            body += stores(blocks)
            body.append(Instr(Op.CLWB if lap % 2 else Op.CLFLUSHOPT,
                              blocks[lap % len(blocks)]))
            body += loads(blocks)
        assert_backends_agree(Trace(body))

    def test_speculative_machine_agrees(self):
        blocks = [i * _SET_STRIDE for i in range(_L1_WAYS + 3)]
        body = []
        for lap in range(8):
            body += stores(blocks) + barrier()
        assert_backends_agree(Trace(body), MachineConfig().with_sp(256))

    def test_quiet_and_noisy_pools(self):
        quiet = [i * _SET_STRIDE for i in range(3)]
        noisy = [i * _SET_STRIDE for i in range(_L1_WAYS + 8)]
        for pool in (quiet, noisy):
            body = []
            for lap in range(30):
                body += loads(pool) + stores(pool[:2])
            assert_backends_agree(Trace(body))

    def test_benchmark_traces_agree(self):
        clear_trace_cache()
        for abbrev in ("LL", "HM"):
            trace = build_trace(abbrev, PersistMode.LOG_P_SF,
                                init_ops=800, sim_ops=60)
            assert_backends_agree(trace)
        clear_trace_cache()


# ----------------------------------------------------------------------
# hypothesis: small heaps, high set conflict
# ----------------------------------------------------------------------
#: A conflict-heavy address pool: a handful of L1 sets, each with more
#: distinct blocks than associativity, so random draws sit right on the
#: hit/evict boundary the set analysis must resolve exactly (the grammar
#: above spreads 96 consecutive blocks over 64 sets and never evicts).
_CONFLICT_ADDRS = [
    si * _BLOCK + way * _SET_STRIDE
    for si in (0, 1, 2)
    for way in range(_L1_WAYS + 4)
]

_conflict_op = st.one_of(
    st.builds(
        lambda a, s: Instr(Op.STORE if s else Op.LOAD, a),
        st.sampled_from(_CONFLICT_ADDRS),
        st.booleans(),
    ),
    st.builds(
        lambda a, inv: Instr(Op.CLFLUSHOPT if inv else Op.CLWB, a),
        st.sampled_from(_CONFLICT_ADDRS),
        st.booleans(),
    ),
)


@st.composite
def conflict_traces(draw):
    # mostly memory traffic with sparse flushes, long enough that one
    # batch covers several evictions per set
    return Trace(draw(st.lists(_conflict_op, min_size=20, max_size=220)))


@requires_numpy
class TestConflictFuzz:
    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(trace=conflict_traces())
    def test_base_machine(self, trace):
        assert_backends_agree(trace)

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(trace=conflict_traces())
    def test_speculative_machine(self, trace):
        assert_backends_agree(trace, MachineConfig().with_sp(256))


# ----------------------------------------------------------------------
# conformance matrix: every benchmark, base + fenced + speculative
# ----------------------------------------------------------------------
@requires_numpy
@pytest.mark.parametrize("abbrev", WORKLOADS)
class TestConformanceMatrix:
    @pytest.fixture(autouse=True)
    def fresh_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        clear_trace_cache()
        yield
        clear_trace_cache()

    def test_baseline(self, abbrev):
        trace = build_trace(abbrev, PersistMode.BASE, **SMALL)
        assert_backends_agree(trace)

    def test_fenced(self, abbrev):
        trace = build_trace(abbrev, PersistMode.LOG_P_SF, **SMALL)
        assert_backends_agree(trace)

    def test_speculative(self, abbrev):
        trace = build_trace(abbrev, PersistMode.LOG_P_SF, **SMALL)
        assert_backends_agree(trace, MachineConfig().with_sp(256))
