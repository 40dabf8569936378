"""Columnar trace representation (repro.isa.columns).

The dual-representation contract: a trace's packed columns, its
materialised ``Instr`` rows, and its serialised bytes must all describe
the same instruction stream — instruction for instruction — across every
real workload trace and fuzz-grammar traces.
"""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness.runner import build_trace, clear_trace_cache
from repro.isa.columns import MAX_METAS, OPS_BY_VALUE, TraceColumns
from repro.isa.instr import Instr
from repro.isa.ops import Op
from repro.isa.serialize import dump_trace, load_trace
from repro.isa.trace import Trace
from repro.txn.modes import PersistMode
from repro.validate.tracefuzz import generate_trace
from repro.workloads.registry import WORKLOADS

SMALL = dict(init_ops=100, sim_ops=6)


@pytest.fixture(autouse=True)
def no_disk_cache(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    clear_trace_cache()
    yield
    clear_trace_cache()


def assert_same_stream(a: Trace, b: Trace) -> None:
    """Instruction-for-instruction equality, including metadata."""
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert left.op is right.op
        assert left.addr == right.addr
        assert left.size == right.size
        assert left.meta == right.meta


class TestColumnsBasics:
    def test_ops_by_value_covers_the_enum(self):
        assert len(OPS_BY_VALUE) == len(Op)
        for op in Op:
            assert OPS_BY_VALUE[int(op)] is op

    def test_round_trip_instrs(self):
        instrs = [
            Instr(Op.ALU),
            Instr(Op.LOAD, 0x1040, 8),
            Instr(Op.STORE, 0x2040, 8, meta="log"),
            Instr(Op.CLWB, 0x2040, 64, meta="log"),
            Instr(Op.SFENCE),
        ]
        columns = TraceColumns.from_instrs(instrs)
        assert len(columns) == len(instrs)
        assert columns.instrs() == instrs
        assert [columns.instr(i) for i in range(len(instrs))] == instrs

    def test_meta_interning(self):
        instrs = [Instr(Op.STORE, 64 * i, meta="log") for i in range(10)]
        columns = TraceColumns.from_instrs(instrs)
        assert columns.metas == [None, "log"]
        assert set(columns.meta_idx) == {1}

    def test_equality(self):
        instrs = [Instr(Op.LOAD, 0x40), Instr(Op.ALU)]
        assert TraceColumns.from_instrs(instrs) == TraceColumns.from_instrs(
            instrs
        )
        assert TraceColumns.from_instrs(instrs) != TraceColumns.from_instrs(
            instrs[:1]
        )

    def test_mutation_invalidates_memo(self):
        trace = Trace([Instr(Op.ALU)])
        first = trace.columns()
        trace.append(Instr(Op.LOAD, 0x80))
        second = trace.columns()
        assert second is not first
        assert len(second) == 2
        assert second.instr(1).op is Op.LOAD


@pytest.mark.parametrize("abbrev", WORKLOADS)
@pytest.mark.parametrize("mode", [PersistMode.BASE, PersistMode.LOG_P_SF])
class TestWorkloadRoundTrip:
    """Trace <-> columns <-> bytes on every real workload trace."""

    def test_columns_match_rows(self, abbrev, mode):
        trace = build_trace(abbrev, mode, **SMALL)
        columns = trace.columns()
        rebuilt = Trace.from_columns(columns)
        assert_same_stream(trace, rebuilt)

    def test_serialised_round_trips(self, abbrev, mode):
        """RPTR2 bytes load the identical instruction stream."""
        trace = build_trace(abbrev, mode, **SMALL)
        buffer = io.BytesIO()
        dump_trace(trace, buffer)
        buffer.seek(0)
        assert_same_stream(trace, load_trace(buffer))

    def test_segments_cover_the_stream(self, abbrev, mode):
        """Segment runs + events + barrier triples partition the trace."""
        from repro.isa.analysis import K_BARRIER, K_TAIL

        trace = build_trace(abbrev, mode, **SMALL)
        segments = trace.segments()
        covered = 0
        for run, kind, _block, _mi in segments.entries:
            covered += run
            if kind == K_BARRIER:
                covered += 3
            elif kind != K_TAIL:
                covered += 1
        assert covered == len(trace) == segments.n


class TestFuzzGrammarRoundTrip:
    """Property tests over tracefuzz-grammar traces."""

    @pytest.mark.parametrize("seed", range(12))
    def test_grammar_trace_round_trips(self, seed):
        trace = generate_trace(seed, length=200)
        buffer = io.BytesIO()
        dump_trace(trace, buffer)
        buffer.seek(0)
        assert_same_stream(trace, load_trace(buffer))

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(list(Op)),
                st.integers(min_value=0, max_value=2**40),
                st.integers(min_value=0, max_value=255),
                st.sampled_from([None, "log", "data", "op-boundary"]),
            ),
            max_size=80,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_instrs_round_trip(self, rows):
        instrs = [Instr(op, addr, size, meta) for op, addr, size, meta in rows]
        trace = Trace(instrs)
        columns = trace.columns()
        assert columns.instrs() == instrs
        buffer = io.BytesIO()
        dump_trace(trace, buffer)
        buffer.seek(0)
        assert_same_stream(trace, load_trace(buffer))

    def test_meta_table_limit_enforced(self):
        instrs = [
            Instr(Op.STORE, 64 * i, meta=f"m{i}") for i in range(MAX_METAS + 1)
        ]
        with pytest.raises(ValueError):
            TraceColumns.from_instrs(instrs)
