"""Harness runner: trace caching and variant execution."""

import pytest

from repro.harness.runner import (
    build_trace,
    clear_trace_cache,
    geomean_overhead,
    run_variant,
)
from repro.txn.modes import PersistMode


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_trace_cache()
    yield
    clear_trace_cache()


class TestTraceCache:
    def test_same_key_returns_same_object(self):
        """The memo keeps the recording (Log+P+Sf); a projected mode is
        read again, with equal columns."""
        a = build_trace("LL", PersistMode.LOG_P_SF, sim_ops=3, init_ops=10)
        b = build_trace("LL", PersistMode.LOG_P_SF, sim_ops=3, init_ops=10)
        assert a is b
        a = build_trace("LL", PersistMode.BASE, sim_ops=3, init_ops=10)
        b = build_trace("LL", PersistMode.BASE, sim_ops=3, init_ops=10)
        assert a.columns() == b.columns()

    def test_different_modes_differ(self):
        a = build_trace("LL", PersistMode.BASE, sim_ops=3, init_ops=10)
        b = build_trace("LL", PersistMode.LOG_P_SF, sim_ops=3, init_ops=10)
        assert a is not b
        assert len(b) > len(a)

    def test_clear(self):
        a = build_trace("LL", PersistMode.BASE, sim_ops=3, init_ops=10)
        clear_trace_cache()
        b = build_trace("LL", PersistMode.BASE, sim_ops=3, init_ops=10)
        assert a is not b


class TestVariants:
    def test_run_variant_returns_stats(self):
        stats = run_variant("LL", PersistMode.BASE)
        assert stats.cycles > 0
        assert stats.instructions > 0

    def test_run_variant_cached(self):
        first = run_variant("LL", PersistMode.BASE)
        second = run_variant("LL", PersistMode.BASE)
        assert first is second


class TestGeomean:
    def test_identity(self):
        assert geomean_overhead([1.0, 1.0]) == pytest.approx(0.0)

    def test_known_value(self):
        assert geomean_overhead([1.21, 1.21]) == pytest.approx(0.21)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            geomean_overhead([])
