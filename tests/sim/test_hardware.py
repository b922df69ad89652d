"""Hardware specification tests (Table 1)."""

import pytest

from repro.sim.hardware import (GIB, KIB, MIB, CpuSpec, GpuSpec, LinkSpec,
                                UvmSpec, default_system)


class TestCpuSpec:
    def test_table1_defaults(self):
        cpu = CpuSpec()
        assert cpu.cores == 64
        assert "EPYC 7742" in cpu.name
        assert cpu.dram_channels == 16
        assert cpu.dram_chip_bytes == 64 * GIB

    def test_total_dram(self):
        assert CpuSpec().dram_total_bytes == 1024 * GIB  # 1 TB

    def test_aggregate_bandwidth(self):
        cpu = CpuSpec()
        assert cpu.dram_bandwidth == pytest.approx(16 * 25.6e9)


class TestGpuSpec:
    def test_table1_defaults(self):
        gpu = GpuSpec()
        assert gpu.sm_count == 108
        assert gpu.hbm_bytes == 40 * GIB
        assert gpu.max_shared_mem_bytes == 164 * KIB
        assert gpu.unified_l1_bytes == 192 * KIB

    def test_total_cores_is_6912(self):
        assert GpuSpec().total_cores == 6912

    def test_clock_ns(self):
        assert GpuSpec().clock_ns == pytest.approx(1.0 / 1.41)

    def test_l1_carveout_partition(self):
        gpu = GpuSpec()
        assert gpu.l1_bytes(32 * KIB) == 160 * KIB
        assert gpu.l1_bytes(0) == 192 * KIB

    def test_l1_carveout_bounds(self):
        gpu = GpuSpec()
        with pytest.raises(ValueError):
            gpu.l1_bytes(-1)
        with pytest.raises(ValueError):
            gpu.l1_bytes(gpu.max_shared_mem_bytes + 1)


class TestSystemSpec:
    def test_default_system_composition(self):
        system = default_system()
        assert isinstance(system.cpu, CpuSpec)
        assert isinstance(system.gpu, GpuSpec)
        assert isinstance(system.link, LinkSpec)
        assert isinstance(system.uvm, UvmSpec)

    def test_with_gpu_returns_modified_copy(self):
        system = default_system()
        modified = system.with_gpu(sm_count=54)
        assert modified.gpu.sm_count == 54
        assert system.gpu.sm_count == 108

    def test_with_link_and_uvm(self):
        system = default_system()
        assert system.with_link(bandwidth=1e9).link.bandwidth == 1e9
        assert system.with_uvm(fault_batch_size=1).uvm.fault_batch_size == 1

    def test_describe_mentions_table1_parts(self):
        text = default_system().describe()
        assert "A100" in text
        assert "EPYC" in text
        assert "108 SMs" in text
        assert "PCIe" in text

    def test_uvm_migration_block_is_64k(self):
        assert default_system().uvm.migration_block_bytes == 64 * KIB

    def test_specs_are_frozen(self):
        with pytest.raises(AttributeError):
            default_system().gpu.sm_count = 1

    def test_mib_gib_constants(self):
        assert MIB == 1024 * KIB
        assert GIB == 1024 * MIB
