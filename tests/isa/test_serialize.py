"""Trace serialisation round trips (repro.isa.serialize)."""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.instr import Instr
from repro.isa.ops import Op
from repro.isa.serialize import TraceFormatError, dump_trace, load_trace
from repro.isa.trace import Trace


def sample_trace() -> Trace:
    return Trace(
        [
            Instr(Op.ALU),
            Instr(Op.LOAD, 0x1000),
            Instr(Op.STORE, 0x2040, meta="log"),
            Instr(Op.CLWB, 0x2040, 64, meta="log"),
            Instr(Op.SFENCE),
            Instr(Op.PCOMMIT),
            Instr(Op.SFENCE),
            Instr(Op.ALU, meta="op-boundary"),
        ]
    )


class TestRoundTrip:
    def test_in_memory(self):
        buffer = io.BytesIO()
        original = sample_trace()
        dump_trace(original, buffer)
        buffer.seek(0)
        restored = load_trace(buffer)
        assert len(restored) == len(original)
        for a, b in zip(original, restored):
            assert a == b
            assert a.meta == b.meta

    def test_via_path(self, tmp_path):
        path = tmp_path / "trace.bin"
        dump_trace(sample_trace(), path)
        restored = load_trace(path)
        assert len(restored) == 8

    def test_empty_trace(self):
        buffer = io.BytesIO()
        dump_trace(Trace(), buffer)
        buffer.seek(0)
        assert len(load_trace(buffer)) == 0

    def test_simulation_equivalence(self, tmp_path):
        """A reloaded trace simulates to identical statistics."""
        from repro.uarch.config import MachineConfig
        from repro.uarch.pipeline import simulate

        original = sample_trace()
        path = tmp_path / "trace.bin"
        dump_trace(original, path)
        restored = load_trace(path)
        a = simulate(original, MachineConfig())
        b = simulate(restored, MachineConfig())
        assert a.cycles == b.cycles
        assert a.instructions == b.instructions

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from([Op.ALU, Op.LOAD, Op.STORE, Op.CLWB, Op.SFENCE]),
                st.integers(min_value=0, max_value=(1 << 48)),
                st.sampled_from([None, "log", "data", "str"]),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, ops):
        trace = Trace(
            [Instr(op, addr if op is not Op.ALU else 0, meta=meta)
             for op, addr, meta in ops]
        )
        buffer = io.BytesIO()
        dump_trace(trace, buffer)
        buffer.seek(0)
        restored = load_trace(buffer)
        assert list(restored) == list(trace)
        assert [i.meta for i in restored] == [i.meta for i in trace]


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(TraceFormatError):
            load_trace(io.BytesIO(b"NOTATRACE"))

    def test_truncated_body(self):
        buffer = io.BytesIO()
        dump_trace(sample_trace(), buffer)
        data = buffer.getvalue()
        with pytest.raises(TraceFormatError):
            load_trace(io.BytesIO(data[:-5]))


class TestWorkloadTraces:
    def test_real_workload_trace_round_trips(self, tmp_path):
        import sys

        sys.path.insert(0, "tests")
        from conftest import make_workload

        workload = make_workload("LL", seed=3)
        workload.populate(30)
        workload.run(5)
        original = workload.bench.trace
        path = tmp_path / "ll.trace"
        dump_trace(original, path)
        restored = load_trace(path)
        assert restored.stats().by_op == original.stats().by_op


class TestIntegrityFooter:
    """The RPC2 CRC-32 footer turns silent bit rot into TraceFormatError."""

    def _dumped(self) -> bytes:
        buffer = io.BytesIO()
        dump_trace(sample_trace(), buffer)
        return buffer.getvalue()

    def test_footer_present_and_checks_out(self):
        data = self._dumped()
        assert data[-8:-4] == b"RPC2"
        assert list(load_trace(io.BytesIO(data))) == list(sample_trace())

    def test_footerless_rptr2_is_rejected(self):
        # the footer is required: a container that ends at the last
        # column carries no checksum, so it cannot be trusted
        data = self._dumped()[:-8]
        with pytest.raises(TraceFormatError, match="integrity footer"):
            load_trace(io.BytesIO(data))

    def test_flipped_body_byte_fails_the_checksum(self):
        data = bytearray(self._dumped())
        # flip one address byte: without the footer this would load as a
        # different but plausible trace
        data[-20] ^= 0xFF
        with pytest.raises(TraceFormatError):
            load_trace(io.BytesIO(bytes(data)))

    def test_flipped_footer_byte_is_detected(self):
        data = bytearray(self._dumped())
        data[-1] ^= 0x01
        with pytest.raises(TraceFormatError):
            load_trace(io.BytesIO(bytes(data)))

    def test_partial_footer_is_a_corrupt_trailer(self):
        data = self._dumped()
        with pytest.raises(TraceFormatError):
            load_trace(io.BytesIO(data[:-3]))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_single_flip_never_loads_wrong(self, data):
        blob = bytearray(self._dumped())
        index = data.draw(st.integers(0, len(blob) - 1))
        bit = data.draw(st.integers(0, 7))
        blob[index] ^= 1 << bit
        try:
            restored = load_trace(io.BytesIO(bytes(blob)))
        except TraceFormatError:
            return  # detected: the cache layer drops the entry
        # undetected flips must be semantically invisible (e.g. a flip
        # inside JSON header whitespace cannot occur: header is compact)
        assert list(restored) == list(sample_trace())
        assert [i.meta for i in restored] == [i.meta for i in sample_trace()]
