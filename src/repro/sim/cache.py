"""Unified L1/texture cache model.

Models the global load/store miss rates in the unified L1 cache that
the paper reads out of CUPTI (Fig. 10), including:

* pattern-dependent baseline miss rates,
* capacity scaling with the L1/shared-memory carveout (Fig. 13),
* the cp.async bypass effect - staged bulk loads stop thrashing the
  L1, so the remaining demand accesses of irregular kernels hit far
  more often (the paper's lud result), and
* mild prefetch-pollution effects under UVM prefetch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .hardware import GpuSpec
from .kernel import AccessPattern, KernelDescriptor

# Baseline unified-L1 miss rates under the standard configuration,
# measured at the reference carveout (32 KiB shared -> 160 KiB L1).
BASE_LOAD_MISS: Dict[AccessPattern, float] = {
    AccessPattern.SEQUENTIAL: 0.86,
    AccessPattern.STRIDED: 0.90,
    AccessPattern.RANDOM: 0.96,
    AccessPattern.IRREGULAR: 0.89,
}

BASE_STORE_MISS: Dict[AccessPattern, float] = {
    AccessPattern.SEQUENTIAL: 0.74,
    AccessPattern.STRIDED: 0.84,
    AccessPattern.RANDOM: 0.95,
    AccessPattern.IRREGULAR: 0.90,
}

# Multipliers applied when cp.async stages bulk data around the L1.
# Irregular kernels benefit most: their reusable lines stop being
# evicted by streaming fills (lud: -35.96 % load, -69.99 % store).
ASYNC_LOAD_MISS_FACTOR: Dict[AccessPattern, float] = {
    AccessPattern.SEQUENTIAL: 1.00,
    AccessPattern.STRIDED: 0.97,
    AccessPattern.RANDOM: 0.92,
    AccessPattern.IRREGULAR: 0.64,
}

ASYNC_STORE_MISS_FACTOR: Dict[AccessPattern, float] = {
    AccessPattern.SEQUENTIAL: 1.00,
    AccessPattern.STRIDED: 0.95,
    AccessPattern.RANDOM: 0.88,
    AccessPattern.IRREGULAR: 0.30,
}

# How strongly miss rates respond to L1 capacity changes; miss rates
# on streaming kernels are mostly compulsory, so the exponent is mild.
CAPACITY_EXPONENT = 0.18

# UVM prefetch streams through the L2 and nudges L1 residency.
PREFETCH_POLLUTION = 0.02

REFERENCE_CARVEOUT = 32 * 1024


@dataclass(frozen=True)
class MissRates:
    load: float
    store: float

    def __post_init__(self) -> None:
        for value in (self.load, self.store):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"miss rate {value} outside [0, 1]")


def _clamp(value: float) -> float:
    return min(1.0, max(0.0, value))


def capacity_factor(gpu: GpuSpec, smem_carveout_bytes: int) -> float:
    """Miss-rate multiplier for a non-reference L1 capacity."""
    l1 = max(gpu.l1_bytes(smem_carveout_bytes), 1)
    reference = max(gpu.l1_bytes(REFERENCE_CARVEOUT), 1)
    return (reference / l1) ** CAPACITY_EXPONENT


def l1_miss_rates(desc: KernelDescriptor, gpu: GpuSpec,
                  smem_carveout_bytes: int, use_async: bool,
                  managed: bool, prefetched: bool) -> MissRates:
    """Global load/store miss rates in the unified L1 for one kernel."""
    load = desc.l1_load_miss if desc.l1_load_miss is not None \
        else BASE_LOAD_MISS[desc.access_pattern]
    store = desc.l1_store_miss if desc.l1_store_miss is not None \
        else BASE_STORE_MISS[desc.effective_write_pattern]

    scale = capacity_factor(gpu, smem_carveout_bytes)
    load *= scale
    store *= scale

    if use_async:
        load *= ASYNC_LOAD_MISS_FACTOR[desc.access_pattern]
        store *= ASYNC_STORE_MISS_FACTOR[desc.access_pattern]

    if managed and prefetched:
        load += PREFETCH_POLLUTION
        store += PREFETCH_POLLUTION

    return MissRates(load=_clamp(load), store=_clamp(store))
