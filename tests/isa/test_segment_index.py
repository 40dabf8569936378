"""The segment index the walker, the multi-core driver and the kernel
share (:class:`repro.isa.analysis.TraceSegments`): interned position-free
rows, one ``starts`` array, nothing the kernel keeps of its own, and its
size."""

import sys
from array import array

import pytest

from repro.harness.runner import TraceKey, generate_trace, generate_traces
from repro.isa.analysis import K_BARRIER, K_TAIL
from repro.isa.ops import Op
from repro.isa.trace import Trace
from repro.obs import telemetry
from repro.txn.modes import PersistMode
from repro.uarch import kernel
from repro.uarch.config import MachineConfig
from repro.uarch.pipeline import PipelineModel
from repro.workloads.registry import PAPER_SPECS

BENCHMARKS = tuple(PAPER_SPECS)

#: Bytes per micro-op of the whole index (rows and ``starts``) over the
#: seven scaled seed-7 Log+P+Sf traces: about 8.5 measured, against
#: about 100 for 5-tuple rows with their positions, six int64 entry
#: columns and int64 per-trace kernel arrays.
MAX_INDEX_BYTES_PER_OP = 10


@pytest.fixture(scope="module")
def scaled_traces():
    """The seven scaled seed-7 Log+P+Sf traces (uncached)."""
    return [
        generate_traces([TraceKey(abbrev, PersistMode.LOG_P_SF, 7)])[0]
        for abbrev in BENCHMARKS
    ]


def battery_traces():
    """The golden battery's small traces: every benchmark and mode."""
    return [
        generate_trace(TraceKey(abbrev, mode, 0, init_ops=60, sim_ops=4))
        for abbrev in BENCHMARKS
        for mode in PersistMode
    ]


def check_index(trace):
    """Rows are interned and position-free; ``starts[k] + run`` is the
    trace index of entry k's event, checked against the columns."""
    columns = trace.columns()
    ops, addrs, meta_idx = columns.ops, columns.addrs, columns.meta_idx
    segments = trace.segments()
    entries, starts, n = segments.entries, segments.starts, segments.n
    assert n == len(ops)
    assert len({id(row) for row in entries}) == len(set(entries))
    assert all(len(row) == 4 for row in set(entries))
    assert isinstance(starts, array) and starts.typecode == "q"
    assert len(starts) == len(entries) + 1
    assert starts[0] == 0 and starts[-1] == n
    for k, (run, kind, block, mi) in enumerate(entries):
        at = starts[k] + run
        assert all(op <= 1 for op in ops[starts[k]:at])  # the compute run
        if kind == K_TAIL:
            assert k == len(entries) - 1 and at == n
            continue
        if kind == K_BARRIER:
            assert list(ops[at:at + 3]) == [Op.SFENCE, Op.PCOMMIT, Op.SFENCE]
            assert (block, mi) == (0, 0)
            assert starts[k + 1] == at + 3
        else:
            assert ops[at] == kind
            assert block == addrs[at] & ~63 and mi == meta_idx[at]
            assert starts[k + 1] == at + 1


class TestRowsAndStarts:
    def test_scaled_traces(self, scaled_traces):
        for trace in scaled_traces:
            check_index(trace)

    def test_battery_traces(self):
        for trace in battery_traces():
            check_index(trace)


needs_numpy = pytest.mark.skipif(
    kernel.np is None, reason="the kernel needs numpy"
)


@needs_numpy
class TestKernelKeepsNoTraceState:
    def test_kernel_run_leaves_only_the_index(self, monkeypatch):
        """After a run with the kernel taking every batch, the trace's
        segmentation holds ``entries``, ``n`` and ``starts``: the kernel
        builds its op index per chunk and attaches nothing to it."""
        monkeypatch.setattr(kernel, "KERNEL_MIN_BATCH", 1)
        trace = generate_trace(
            TraceKey("LL", PersistMode.LOG_P_SF, 0, init_ops=60, sim_ops=20)
        )
        fresh = Trace.from_columns(trace.columns())
        batches = telemetry.get("kernel.batches", 0)
        PipelineModel(MachineConfig()).run(fresh)
        assert telemetry.get("kernel.batches", 0) > batches  # the kernel ran
        assert set(vars(fresh.segments())) == {"entries", "n", "starts"}


def _object_bytes(seen, obj):
    if id(obj) in seen or (isinstance(obj, int) and -5 <= obj <= 256):
        return 0  # shared, or one of CPython's cached small ints
    seen.add(id(obj))
    return sys.getsizeof(obj)


def index_bytes(trace):
    """Bytes of *trace*'s whole segment index: rows (the list, each
    distinct tuple and int once) and ``starts``."""
    segments = trace.segments()
    seen = set()
    total = sys.getsizeof(segments.entries)
    for row in segments.entries:
        total += _object_bytes(seen, row)
        for value in row:
            total += _object_bytes(seen, value)
    return total + sys.getsizeof(segments.starts)


def test_index_bytes_per_micro_op(scaled_traces):
    n = sum(len(trace) for trace in scaled_traces)
    per_op = sum(index_bytes(trace) for trace in scaled_traces) / n
    assert per_op <= MAX_INDEX_BYTES_PER_OP, f"{per_op:.1f} B per micro-op"
