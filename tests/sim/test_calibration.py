"""Calibration constant sanity tests."""

import pytest

from repro.sim.calibration import (AllocationCosts, KernelCosts, NoiseModel,
                                   TransferCosts, default_calibration)
from repro.sim.kernel import AccessPattern


class TestDefaults:
    def test_all_sections_present(self):
        calib = default_calibration()
        assert isinstance(calib.alloc, AllocationCosts)
        assert isinstance(calib.kernel, KernelCosts)
        assert isinstance(calib.transfer, TransferCosts)
        assert isinstance(calib.noise, NoiseModel)

    def test_pattern_efficiency_covers_all_patterns(self):
        table = default_calibration().kernel.pattern_efficiency
        assert set(table) == set(AccessPattern)
        for value in table.values():
            assert 0.0 < value < 1.0

    def test_coalescing_quality_ordering(self):
        table = default_calibration().kernel.pattern_efficiency
        assert table[AccessPattern.SEQUENTIAL] > \
            table[AccessPattern.STRIDED] > \
            table[AccessPattern.IRREGULAR] > \
            table[AccessPattern.RANDOM]

    def test_managed_allocation_costs_more_per_byte(self):
        alloc = default_calibration().alloc
        assert alloc.managed_per_byte_ns > alloc.device_per_byte_ns

    def test_demand_multiplier_exceeds_one(self):
        kernel = default_calibration().kernel
        assert kernel.uvm_demand_kernel_multiplier > 1.0
        assert kernel.prefetch_l2_gain > 1.0
        assert kernel.async_bandwidth_gain >= 1.0

    def test_transfer_penalties_are_fractions(self):
        transfer = default_calibration().transfer
        assert 0.0 < transfer.pageable_factor <= 1.0
        assert 0.0 < transfer.d2h_bandwidth_factor <= 1.0

    def test_noise_sigmas_are_small(self):
        noise = default_calibration().noise
        for sigma in (noise.alloc_sigma, noise.kernel_sigma,
                      noise.memcpy_sigma):
            assert 0.0 < sigma < 0.2

    def test_calibration_is_frozen(self):
        with pytest.raises(AttributeError):
            default_calibration().kernel.launch_ns = 0
