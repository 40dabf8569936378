"""Machine configuration values (repro.uarch.config) — paper Tables 2-3."""

from dataclasses import replace

import pytest

from repro.uarch.config import CacheConfig, MachineConfig, SSB_LATENCY_TABLE, ssb_latency


class TestTable2Defaults:
    def test_core_parameters(self):
        config = MachineConfig()
        assert config.width == 4
        assert config.rob_entries == 128
        assert config.fetchq_entries == 48
        assert config.issueq_entries == 48
        assert config.lsq_entries == 48

    def test_cache_parameters(self):
        config = MachineConfig()
        assert (config.l1.size_bytes, config.l1.ways, config.l1.latency) == (32 << 10, 8, 2)
        assert (config.l2.size_bytes, config.l2.ways, config.l2.latency) == (256 << 10, 8, 11)
        assert (config.l3.size_bytes, config.l3.ways, config.l3.latency) == (2 << 20, 16, 20)

    def test_nvmm_latencies_match_50_150_ns(self):
        config = MachineConfig()
        assert config.nvmm_read_cycles == round(50 * 2.1)
        assert config.nvmm_write_cycles == round(150 * 2.1)

    def test_checkpoint_buffer_is_four(self):
        assert MachineConfig().checkpoint_entries == 4

    def test_sp_disabled_by_default(self):
        assert not MachineConfig().sp_enabled


class TestTable3:
    def test_all_paper_rows(self):
        assert SSB_LATENCY_TABLE == {32: 2, 64: 3, 128: 4, 256: 5, 512: 7, 1024: 10}

    @pytest.mark.parametrize("entries,latency", sorted(SSB_LATENCY_TABLE.items()))
    def test_lookup(self, entries, latency):
        assert ssb_latency(entries) == latency

    def test_unknown_size_rejected(self):
        with pytest.raises(ValueError):
            ssb_latency(100)


class TestHelpers:
    def test_with_sp(self):
        config = MachineConfig().with_sp(128)
        assert config.sp_enabled
        assert config.ssb_entries == 128
        assert config.ssb_latency == 4

    def test_with_sp_does_not_mutate_original(self):
        base = MachineConfig()
        base.with_sp(64)
        assert not base.sp_enabled

    def test_ns_conversion(self):
        assert MachineConfig().ns_to_cycles(100) == 210

    def test_cache_set_count_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(1000, 3, 1).n_sets

    def test_cache_set_count(self):
        assert CacheConfig(32 * 1024, 8, 2).n_sets == 64


class TestWindowSizes:
    """The pipeline's windows are born full and their youngest ``width``
    entries are the bandwidth groups, so narrower windows (or an empty
    LSQ, which failed on the first memory op) are rejected up front."""

    @pytest.mark.parametrize(
        "name,value",
        [("lsq_entries", 0), ("lsq_entries", -1), ("fetchq_entries", 3),
         ("rob_entries", 3), ("rob_entries", 0), ("width", 0)],
    )
    def test_rejected_with_the_field_named(self, name, value):
        with pytest.raises(ValueError, match=name):
            replace(MachineConfig(), **{name: value})

    def test_windows_are_checked_against_the_width(self):
        with pytest.raises(ValueError, match="rob_entries"):
            MachineConfig(width=200, fetchq_entries=200)
        with pytest.raises(ValueError, match="fetchq_entries"):
            MachineConfig().with_sp(256, width=64)

    def test_windows_as_narrow_as_the_width_accepted(self):
        config = MachineConfig(
            width=8, fetchq_entries=8, rob_entries=8, lsq_entries=1
        )
        assert config.fetchq_entries == config.rob_entries == config.width
