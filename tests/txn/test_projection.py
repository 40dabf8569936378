"""Projection of a Log+P+Sf trace onto the other modes
(repro.txn.persist_ops.project_trace).

Trace generation (:func:`repro.harness.runner.generate_traces`) runs each
benchmark's timed phase once, in Log+P+Sf, and projects Base, Log and
Log+P from that recording.  Each projection must equal a direct
recording in its mode (its own construct, populate and run), as RPTR2
bytes, for every benchmark: at the golden battery's size, at scaled size
on two seeds, and with four times the scaled timed operations.
"""

import io

import pytest

from repro.harness.runner import TraceKey, generate_traces
from repro.isa.instr import Instr
from repro.isa.ops import Op
from repro.isa.serialize import dump_trace
from repro.isa.trace import Trace
from repro.txn.modes import PersistMode
from repro.txn.persist_ops import project_trace
from repro.txn.undolog import LOG_HDR, LOG_WRITE
from repro.workloads.base import Workbench
from repro.workloads.registry import PAPER_SPECS, WORKLOADS

#: ``(seed, init_ops, timed ops as a multiple of the scaled count)``;
#: ``None`` init ops is the scaled count.
SIZES = {
    "battery-seed0": (0, 60, None),
    "scaled-seed7": (7, None, 1),
    "scaled-seed13": (13, None, 1),
    "4x-timed-seed3": (3, None, 4),
}


def _keys(abbrev, size):
    seed, init_ops, times = SIZES[size]
    sim_ops = 4 if times is None else times * PAPER_SPECS[abbrev].scaled_sim_ops
    return [TraceKey(abbrev, mode, seed, init_ops, sim_ops) for mode in PersistMode]


def _record(key, **pads):
    """A direct recording of *key*: build, populate and run in its mode."""
    spec = PAPER_SPECS[key.abbrev]
    bench = Workbench(mode=key.mode, record=True, seed=key.seed, **pads)
    with bench.untimed():
        workload = spec.build(bench)
    workload.populate(spec.scaled_init_ops if key.init_ops is None else key.init_ops)
    workload.run(key.sim_ops)
    return bench.trace


def _rptr(trace):
    buffer = io.BytesIO()
    dump_trace(trace, buffer)
    return buffer.getvalue()


@pytest.mark.parametrize("size", list(SIZES))
@pytest.mark.parametrize("abbrev", WORKLOADS)
def test_projection_equals_a_direct_recording(abbrev, size):
    keys = _keys(abbrev, size)
    for key, trace in zip(keys, generate_traces(keys)):
        if key.mode is not PersistMode.LOG_P_SF:
            assert _rptr(trace) == _rptr(_record(key)), f"{abbrev}/{key.mode.name}"


@pytest.mark.parametrize("abbrev", ["LL", "BT"])
def test_projection_drops_the_padding_it_is_given(abbrev):
    """With two ALU ops before each load and three before each store, a
    Base projection drops exactly those around every logged access."""
    pads = dict(alu_per_load=2, alu_per_store=3)
    full, base = (
        _record(TraceKey(abbrev, mode, 0, 60, 4), **pads)
        for mode in (PersistMode.LOG_P_SF, PersistMode.BASE)
    )
    assert _rptr(project_trace(full, PersistMode.BASE, **pads)) == _rptr(base)
    with pytest.raises(ValueError, match="padding"):
        project_trace(full, PersistMode.BASE, alu_per_load=2, alu_per_store=4)


class TestUnpaddedAccess:
    def test_logged_access_at_the_start_raises(self):
        trace = Trace([Instr(Op.STORE, 0x80, meta=LOG_WRITE)])
        with pytest.raises(ValueError, match="padding"):
            project_trace(trace, PersistMode.BASE)

    def test_padding_must_be_alu(self):
        trace = Trace([Instr(Op.LOAD, 0x40), Instr(Op.LOAD, 0x80, meta=LOG_HDR)])
        with pytest.raises(ValueError, match="padding"):
            project_trace(trace, PersistMode.BASE)

    def test_padding_is_not_shared_with_a_dropped_access(self):
        trace = Trace([
            Instr(Op.ALU), Instr(Op.STORE, 0x80, meta=LOG_WRITE),
            Instr(Op.STORE, 0x88, meta=LOG_WRITE),
        ])
        with pytest.raises(ValueError, match="padding"):
            project_trace(trace, PersistMode.BASE)

    def test_only_base_drops_logged_accesses(self):
        trace = Trace([Instr(Op.STORE, 0x80, meta=LOG_WRITE), Instr(Op.SFENCE)])
        for mode in (PersistMode.LOG, PersistMode.LOG_P):
            assert [instr.op for instr in project_trace(trace, mode)] == [Op.STORE]
        assert project_trace(trace, PersistMode.LOG_P_SF) is trace
