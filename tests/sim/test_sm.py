"""SM occupancy / bandwidth model tests."""

import pytest

from repro.sim.hardware import GpuSpec
from repro.sim.sm import (ASYNC_MLP_FACTOR, Occupancy, occupancy_for,
                          pipeline_fits, smem_per_block)

from .test_kernel import make_descriptor

CARVEOUT = 32 * 1024


class TestSmemPerBlock:
    def test_sync_needs_one_buffer(self):
        descriptor = make_descriptor(tile_bytes=2048, smem_static_bytes=512)
        assert smem_per_block(descriptor, use_async=False) == 2048 + 512

    def test_async_needs_double_buffer(self):
        descriptor = make_descriptor(tile_bytes=2048, smem_static_bytes=512)
        assert smem_per_block(descriptor, use_async=True) == 4096 + 512


class TestOccupancy:
    def test_thread_limit(self):
        gpu = GpuSpec()
        descriptor = make_descriptor(threads_per_block=1024, tile_bytes=64)
        occupancy = occupancy_for(descriptor, gpu, CARVEOUT, use_async=False)
        assert occupancy.blocks_per_sm == 2  # 2048 / 1024
        assert occupancy.limiter == "threads"

    def test_shared_memory_limit(self):
        gpu = GpuSpec()
        descriptor = make_descriptor(threads_per_block=64,
                                     tile_bytes=16 * 1024,
                                     registers_per_thread=16)
        occupancy = occupancy_for(descriptor, gpu, CARVEOUT, use_async=False)
        assert occupancy.limiter == "shared_memory"
        assert occupancy.blocks_per_sm == 2

    def test_register_limit(self):
        gpu = GpuSpec()
        descriptor = make_descriptor(threads_per_block=256,
                                     registers_per_thread=64,
                                     tile_bytes=64)
        occupancy = occupancy_for(descriptor, gpu, CARVEOUT, use_async=False)
        assert occupancy.limiter == "registers"
        assert occupancy.blocks_per_sm == 4  # 256KB / (64*256*4)

    def test_oversized_tile_still_schedules_one_block(self):
        gpu = GpuSpec()
        descriptor = make_descriptor(tile_bytes=200 * 1024)
        occupancy = occupancy_for(descriptor, gpu, CARVEOUT, use_async=False)
        assert occupancy.blocks_per_sm == 1

    def test_blocks_spread_across_sms(self):
        """The scheduler never packs a small grid onto few SMs."""
        gpu = GpuSpec()
        descriptor = make_descriptor(blocks=64, threads_per_block=128,
                                     tile_bytes=64)
        occupancy = occupancy_for(descriptor, gpu, CARVEOUT, use_async=False)
        assert occupancy.active_sms == 64
        assert occupancy.resident_threads_per_sm == 128

    def test_large_grid_uses_all_sms(self):
        gpu = GpuSpec()
        descriptor = make_descriptor(blocks=4096)
        occupancy = occupancy_for(descriptor, gpu, CARVEOUT, use_async=False)
        assert occupancy.active_sms == gpu.sm_count

    def test_occupancy_fraction_bounded(self):
        gpu = GpuSpec()
        descriptor = make_descriptor(blocks=8192, threads_per_block=1024,
                                     tile_bytes=64)
        occupancy = occupancy_for(descriptor, gpu, CARVEOUT, use_async=False)
        assert 0.0 < occupancy.occupancy_fraction(gpu) <= 1.0


class TestComputeThroughput:
    def test_full_at_128_threads(self):
        occupancy = Occupancy(blocks_per_sm=1, active_sms=64,
                              resident_threads_per_sm=128, limiter="threads")
        assert occupancy.compute_throughput() == 1.0

    def test_quarter_at_32_threads(self):
        occupancy = Occupancy(blocks_per_sm=1, active_sms=64,
                              resident_threads_per_sm=32, limiter="threads")
        assert occupancy.compute_throughput() == 0.25


class TestMemoryBandwidth:
    def _occupancy(self, threads, sms=108):
        return Occupancy(blocks_per_sm=1, active_sms=sms,
                         resident_threads_per_sm=threads, limiter="threads")

    def test_thread_limited_scales_with_threads(self):
        gpu = GpuSpec()
        # Generous roofline so the thread MLP limit is what binds.
        low = self._occupancy(32, sms=64).memory_bandwidth(gpu, 0.2)
        high = self._occupancy(128, sms=64).memory_bandwidth(gpu, 0.2)
        assert high == pytest.approx(4 * low)

    def test_roofline_caps_bandwidth(self):
        gpu = GpuSpec()
        bandwidth = self._occupancy(2048).memory_bandwidth(gpu, 0.06)
        assert bandwidth == pytest.approx(gpu.hbm_bandwidth * 0.06)

    def test_async_mlp_raises_thread_limited_bandwidth(self):
        gpu = GpuSpec()
        occupancy = self._occupancy(32, sms=64)
        sync = occupancy.memory_bandwidth(gpu, 0.06, use_async=False)
        async_ = occupancy.memory_bandwidth(gpu, 0.06, use_async=True)
        assert async_ == pytest.approx(min(gpu.hbm_bandwidth * 0.06,
                                           sync * ASYNC_MLP_FACTOR))

    def test_tuned_kernels_not_thread_limited(self):
        gpu = GpuSpec()
        occupancy = self._occupancy(32, sms=16)
        bandwidth = occupancy.memory_bandwidth(gpu, 0.65,
                                               thread_limited=False)
        assert bandwidth == pytest.approx(gpu.hbm_bandwidth * 0.65)


class TestPipelineFits:
    def test_fits_when_double_buffer_in_carveout(self):
        gpu = GpuSpec()
        descriptor = make_descriptor(tile_bytes=2048, smem_static_bytes=0)
        assert pipeline_fits(descriptor, gpu, 4096)
        assert not pipeline_fits(descriptor, gpu, 4095)

    def test_static_smem_counts_against_budget(self):
        gpu = GpuSpec()
        descriptor = make_descriptor(tile_bytes=2048, smem_static_bytes=512)
        assert not pipeline_fits(descriptor, gpu, 4096)
