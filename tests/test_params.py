"""Unit tests for repro.common.params (Table 1 configuration)."""

import dataclasses
import math

import pytest

from repro.common.params import DEFAULT_CONFIG, MachineConfig, NVMMode


class TestDefaults:
    def test_table1_processor(self):
        assert DEFAULT_CONFIG.num_cores == 64

    def test_table1_l1(self):
        assert DEFAULT_CONFIG.l1_size_bytes == 32 * 1024
        assert DEFAULT_CONFIG.l1_assoc == 8
        assert DEFAULT_CONFIG.l1_hit_cycles == 2
        assert DEFAULT_CONFIG.line_bytes == 64

    def test_table1_llc(self):
        assert DEFAULT_CONFIG.llc_hit_cycles == 30

    def test_table1_nvm_latencies(self):
        assert DEFAULT_CONFIG.nvm_cached_cycles == 120
        assert DEFAULT_CONFIG.nvm_uncached_cycles == 350

    def test_table1_ret(self):
        assert DEFAULT_CONFIG.ret_entries == 32

    def test_default_mode_is_cached(self):
        assert DEFAULT_CONFIG.nvm_mode is NVMMode.CACHED


class TestDerived:
    def test_l1_num_sets(self):
        # 32KB / (64B * 8-way) = 64 sets
        assert DEFAULT_CONFIG.l1_num_sets == 64

    def test_line_offset_bits(self):
        assert DEFAULT_CONFIG.line_offset_bits == 6

    def test_persist_cycles_cached(self):
        assert DEFAULT_CONFIG.nvm_persist_cycles == 120

    def test_persist_cycles_uncached(self):
        config = dataclasses.replace(DEFAULT_CONFIG,
                                     nvm_mode=NVMMode.UNCACHED)
        assert config.nvm_persist_cycles == 350

    def test_occupancy_tracks_mode(self):
        cached = DEFAULT_CONFIG
        uncached = dataclasses.replace(cached, nvm_mode=NVMMode.UNCACHED)
        assert cached.nvm_occupancy_cycles == cached.nvm_cached_occupancy
        assert (uncached.nvm_occupancy_cycles
                == cached.nvm_uncached_occupancy)

    def test_epoch_limit(self):
        assert DEFAULT_CONFIG.epoch_limit == 256

    def test_mesh_dim_covers_cores(self):
        assert DEFAULT_CONFIG.mesh_dim ** 2 >= DEFAULT_CONFIG.num_cores

    def test_mesh_dim_small_machine(self):
        config = MachineConfig(num_cores=5)
        assert config.mesh_dim == 3

    def test_mesh_dim_single_core(self):
        assert MachineConfig(num_cores=1).mesh_dim == 1


class TestValidation:
    def test_rejects_non_power_of_two_lines(self):
        with pytest.raises(ValueError):
            MachineConfig(line_bytes=48)

    def test_rejects_indivisible_l1(self):
        with pytest.raises(ValueError):
            MachineConfig(l1_size_bytes=1000)

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            MachineConfig(num_cores=0)

    def test_rejects_bad_watermark(self):
        with pytest.raises(ValueError):
            MachineConfig(ret_entries=8, ret_watermark=9)
        with pytest.raises(ValueError):
            MachineConfig(ret_watermark=0)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_CONFIG.num_cores = 1


class TestDescribe:
    def test_describe_mentions_table1_facts(self):
        text = DEFAULT_CONFIG.describe()
        for fact in ("64-core", "32KB", "MESI", "cached mode: 120 cycles",
                     "uncached mode: 350 cycles", "RET (private)",
                     "32 Entries"):
            assert fact in text, fact

    def test_describe_is_multiline(self):
        assert len(DEFAULT_CONFIG.describe().splitlines()) >= 7
