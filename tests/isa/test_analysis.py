"""Trace characterisation helpers (repro.isa.analysis)."""

import sys
from array import array
from itertools import accumulate

import pytest

from repro.isa import analysis
from repro.isa.analysis import barrier_distances, characterise, persist_clusters
from repro.isa.instr import Instr
from repro.isa.ops import Op
from repro.isa.trace import Trace

sys.path.insert(0, "tests")
from conftest import make_workload  # noqa: E402


def barrier():
    return [Instr(Op.SFENCE), Instr(Op.PCOMMIT), Instr(Op.SFENCE)]


def wal_like_trace():
    instrs = []
    for step in range(4):
        instrs += [Instr(Op.ALU)] * 30
        instrs += [Instr(Op.CLWB, 0x1000 + i * 64) for i in range(3)]
        instrs += barrier()
    return Trace(instrs)


class TestClusters:
    def test_wal_steps_form_four_clusters(self):
        clusters = persist_clusters(wal_like_trace())
        assert len(clusters) == 4
        for cluster in clusters:
            assert cluster.persist_ops == 4  # 3 clwb + 1 pcommit
            assert cluster.fences == 2
            assert cluster.pcommits == 1

    def test_gap_merges_nearby_clusters(self):
        clusters = persist_clusters(wal_like_trace(), gap=100)
        assert len(clusters) == 1

    def test_isolated_ops_are_singleton_clusters(self):
        trace = Trace(
            [Instr(Op.CLWB, 0x40)] + [Instr(Op.ALU)] * 50 + [Instr(Op.CLWB, 0x80)]
        )
        clusters = persist_clusters(trace)
        assert len(clusters) == 2
        assert all(c.span == 1 for c in clusters)

    def test_empty_trace(self):
        assert persist_clusters(Trace()) == []

    def test_cluster_span(self):
        clusters = persist_clusters(wal_like_trace())
        assert all(c.span == 6 for c in clusters)  # 3 clwb + sfence,pcommit,sfence


class TestBarrierDistances:
    def test_distances_between_pcommits(self):
        distances = barrier_distances(wal_like_trace())
        assert len(distances) == 3
        assert all(d == 36 for d in distances)  # 30 ALU + 3 clwb + 3 barrier ops

    def test_no_pcommits(self):
        assert barrier_distances(Trace([Instr(Op.ALU)] * 10)) == []


class TestCharacterise:
    def test_summary_counts(self):
        summary = characterise(wal_like_trace())
        assert summary.clusters == 4
        assert summary.pcommits == 4
        assert summary.fences == 8
        assert summary.persist_ops == 16

    def test_clustered_fraction_high_for_wal(self):
        summary = characterise(wal_like_trace())
        assert summary.clustered_fraction == 1.0

    def test_sparse_trace_low_clustering(self):
        instrs = []
        for i in range(6):
            instrs += [Instr(Op.ALU)] * 40 + [Instr(Op.CLWB, 0x40 * i)]
        summary = characterise(Trace(instrs))
        assert summary.clustered_fraction == 0.0

    def test_real_workload_is_clustered(self):
        """The paper's observation holds on our actual benchmarks: most
        persistency/fence instructions sit in multi-instruction clusters."""
        workload = make_workload("LL", seed=5)
        workload.populate(40)
        workload.run(10)
        summary = characterise(workload.bench.trace)
        assert summary.clusters >= 10
        assert summary.clustered_fraction > 0.9
        assert summary.mean_cluster_size >= 3


class TestSegmentationVectorizedVsScalar:
    """segment_trace has two implementations — the numpy one and the
    pure-Python fallback used when numpy is absent.  They must produce
    identical segmentations, entry for entry, on every
    barrier-recognition edge; the kernel's batches must end where those
    entries say."""

    CASES = {
        "empty": [],
        "compute_only": [Instr(Op.ALU)] * 7,
        "lone_sfence": [Instr(Op.ALU), Instr(Op.SFENCE)],
        "incomplete_barrier": [Instr(Op.SFENCE), Instr(Op.PCOMMIT)],
        "barrier_at_end": [Instr(Op.ALU)] * 3 + barrier(),
        "barrier_at_start": barrier() + [Instr(Op.ALU)] * 3,
        "overlapping_candidates": [
            Instr(Op.SFENCE),
            Instr(Op.PCOMMIT),
            Instr(Op.SFENCE),
            Instr(Op.PCOMMIT),
            Instr(Op.SFENCE),
        ],
        "mixed": (
            [Instr(Op.LOAD, 0x1000, meta="read")]
            + [Instr(Op.ALU)] * 4
            + [Instr(Op.STORE, 0x1040, meta="commit")]
            + [Instr(Op.CLWB, 0x1040)]
            + barrier()
            + [Instr(Op.XCHG, 0x2000), Instr(Op.MFENCE)]
            + [Instr(Op.BRANCH)] * 2
        ),
        "flushes": [
            Instr(Op.CLFLUSHOPT, 0x40),
            Instr(Op.ALU),
            Instr(Op.CLFLUSH, 0x80),
            Instr(Op.LOCK_RMW, 0xC0),
            Instr(Op.PCOMMIT),
            Instr(Op.ALU),
        ],
    }

    #: Entry kinds that end a kernel batch.
    STOPS = (Op.CLFLUSH, Op.PCOMMIT, Op.SFENCE, Op.MFENCE, analysis.K_BARRIER)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_case(self, name, monkeypatch):
        if analysis._np is None:
            pytest.skip("numpy unavailable: only the scalar path exists")
        columns = Trace(self.CASES[name]).columns()
        vec = analysis.segment_trace(columns)
        monkeypatch.setattr(analysis, "_np", None)
        ref = analysis.segment_trace(columns)
        assert vec == ref
        for segments in (vec, ref):
            assert set(vars(segments)) == {"entries", "n", "starts"}
            # equal rows are one shared tuple; positions live in starts
            assert len({id(row) for row in segments.entries}) == len(
                set(segments.entries)
            )
            assert isinstance(segments.starts, array)
            assert segments.starts.typecode == "q"
        # starts: the instructions before each entry (3 per barrier, 1 per
        # other event), then the trace length
        sizes = [
            run + (3 if kind == analysis.K_BARRIER else kind >= 2)
            for run, kind, *_ in ref.entries
        ]
        assert list(vec.starts) == list(accumulate(sizes, initial=0))
        assert vec.starts[-1] == vec.n

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_kernel_batch_ends_at_the_next_stop(self, name, monkeypatch):
        """From entry k the kernel's batch ends at the first clflush,
        pcommit, sfence, mfence or barrier entry at or after k, or runs
        through the tail."""
        from repro.uarch import kernel
        from repro.uarch.config import MachineConfig
        from repro.uarch.pipeline import PipelineModel

        if not kernel.numpy_available():
            pytest.skip("the kernel needs numpy")
        monkeypatch.setattr(kernel, "KERNEL_MIN_BATCH", 0)  # take every batch
        columns = Trace(self.CASES[name]).columns()
        segments = analysis.segment_trace(columns)
        kinds = [kind for _, kind, *_ in segments.entries]
        stops = [k for k, kind in enumerate(kinds) if kind in self.STOPS]
        for k in range(len(kinds)):
            model = PipelineModel(MachineConfig())
            assert kernel.advance(model, columns, segments, k) == min(
                [j for j in stops if j >= k], default=len(kinds)
            )
