"""The five data-transfer configurations under study (Sec. 3.1.3).

Each :class:`TransferMode` value decides three orthogonal properties:
how memory is allocated (explicit vs managed), whether a bulk prefetch
precedes the kernels, and whether kernels use the cp.async
global-to-shared pipeline.
"""

from __future__ import annotations

import enum

from ..sim.timing import ConfigFlags


class TransferMode(enum.Enum):
    """CUDA programming configurations compared throughout the paper."""

    STANDARD = "standard"
    ASYNC = "async"
    UVM = "uvm"
    UVM_PREFETCH = "uvm_prefetch"
    UVM_PREFETCH_ASYNC = "uvm_prefetch_async"

    # Members are singletons that compare by identity, so the C-level
    # identity hash is as good as ``Enum``'s Python-level
    # ``hash(self._name_)`` and keeps ``RunSpec.__hash__`` cheap.  No
    # key, seed or output order derives from it.
    __hash__ = object.__hash__

    @property
    def managed(self) -> bool:
        """Uses cudaMallocManaged (unified virtual memory)."""
        return self in (TransferMode.UVM, TransferMode.UVM_PREFETCH,
                        TransferMode.UVM_PREFETCH_ASYNC)

    @property
    def prefetch(self) -> bool:
        """Issues cudaMemPrefetchAsync before the kernels."""
        return self in (TransferMode.UVM_PREFETCH,
                        TransferMode.UVM_PREFETCH_ASYNC)

    @property
    def uses_async(self) -> bool:
        """Kernels stage global->shared data with cp.async."""
        return self in (TransferMode.ASYNC, TransferMode.UVM_PREFETCH_ASYNC)

    @property
    def label(self) -> str:
        return self.value

    def kernel_flags(self) -> ConfigFlags:
        """The per-kernel execution flags this mode implies."""
        return ConfigFlags(use_async=self.uses_async, managed=self.managed,
                           prefetched=self.prefetch)

    @classmethod
    def from_label(cls, label: str) -> "TransferMode":
        for mode in cls:
            if mode.value == label:
                return mode
        raise ValueError(
            f"unknown transfer mode {label!r}; expected one of "
            f"{[m.value for m in cls]}"
        )


ALL_MODES = tuple(TransferMode)
