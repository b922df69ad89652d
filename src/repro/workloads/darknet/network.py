"""Darknet network container: wiring, inference, and GPU characterization.

A :class:`Network` is an ordered layer list (route/shortcut layers
reference earlier outputs by index, as in darknet cfg files). Besides
the NumPy ``forward``, it lowers itself to a simulator
:class:`~repro.sim.program.Program`: each convolution becomes the
im2col gemm kernel darknet actually launches, and the pool / shortcut
/ upsample / head layers become small element-wise kernels - so the
managed-memory per-launch costs of a 100-kernel network are modelled
faithfully.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ...sim.kernel import AccessPattern, InstructionMix, KernelDescriptor
from ...sim.program import (BufferDirection, BufferSpec, KernelPhase, Program)
from ..micro.blas import gemm_kernel
from .layers import (ConnectedLayer, ConvLayer, Layer, RouteLayer,
                     Shape, ShortcutLayer)

FLOAT_BYTES = 4


def elementwise_kernel(name: str, total_bytes: int) -> KernelDescriptor:
    """A small streaming kernel (pool / shortcut / upsample / head)."""
    tile_bytes = 4096
    total_tiles = max(1, total_bytes // tile_bytes)
    blocks = min(2048, total_tiles)
    elements = tile_bytes // FLOAT_BYTES
    return KernelDescriptor(
        name=name,
        blocks=blocks,
        threads_per_block=256,
        tiles_per_block=max(1, round(total_tiles / blocks)),
        tile_bytes=tile_bytes,
        compute_cycles_per_tile=elements * 2 / 128.0,
        access_pattern=AccessPattern.SEQUENTIAL,
        write_bytes=total_bytes,
        data_footprint_bytes=total_bytes,
        insts_per_tile=InstructionMix(
            memory=2.0 * elements, fp=2.0 * elements,
            integer=2.0 * elements, control=0.5 * elements,
        ),
    )


class Network:
    """An ordered darknet layer graph."""

    def __init__(self, name: str, input_shape: Shape,
                 layers: Sequence[Layer]):
        self.name = name
        self.input_shape = input_shape
        self.layers: List[Layer] = list(layers)
        self.shapes: List[Shape] = []
        self._configure()

    def _configure(self) -> None:
        shape = self.input_shape
        self.shapes = []
        for index, layer in enumerate(self.layers):
            if isinstance(layer, RouteLayer):
                sources = [self._resolve(index, s) for s in layer.sources]
                shape = layer.configure_from([self.shapes[s] for s in sources])
                layer.sources = tuple(sources)
            else:
                if isinstance(layer, ShortcutLayer):
                    layer.source = self._resolve(index, layer.source)
                shape = layer.configure(shape)
            self.shapes.append(shape)

    def _resolve(self, at_index: int, source: int) -> int:
        resolved = source if source >= 0 else at_index + source
        if not 0 <= resolved < at_index:
            raise ValueError(
                f"layer {at_index} references invalid source {source}")
        return resolved

    @property
    def out_shape(self) -> Shape:
        return self.shapes[-1]

    # ------------------------------------------------------------------
    # Functional inference
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1:] != self.input_shape:
            raise ValueError(
                f"{self.name} expects input shape {self.input_shape}, "
                f"got {x.shape[1:]}")
        outputs: List[np.ndarray] = []
        current = x.astype(np.float32)
        for layer in self.layers:
            current = layer.forward(current, outputs)
            outputs.append(current)
        return current

    def forward_heads(self, x: np.ndarray) -> List[np.ndarray]:
        """Forward pass returning every detection head's output.

        Multi-scale detectors (yolov3) emit predictions from several
        YOLO layers; plain classifiers return their single final
        output.
        """
        from .layers import YoloLayer
        outputs: List[np.ndarray] = []
        current = x.astype(np.float32)
        heads: List[np.ndarray] = []
        for layer in self.layers:
            current = layer.forward(current, outputs)
            outputs.append(current)
            if isinstance(layer, YoloLayer):
                heads.append(current)
        return heads if heads else [current]

    def yolo_heads(self) -> List:
        """The network's YOLO layers, in emission order."""
        from .layers import YoloLayer
        return [layer for layer in self.layers
                if isinstance(layer, YoloLayer)]

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def weight_bytes(self) -> int:
        return sum(layer.weight_bytes() for layer in self.layers)

    def activation_bytes_per_image(self) -> int:
        return sum(FLOAT_BYTES * c * h * w for (c, h, w) in self.shapes)

    def conv_layers(self) -> List[Tuple[int, ConvLayer]]:
        return [(i, layer) for i, layer in enumerate(self.layers)
                if isinstance(layer, ConvLayer)]

    def total_flops_per_image(self) -> float:
        flops = 0.0
        for _, conv in self.conv_layers():
            m, n, k = conv.gemm_shape()
            flops += 2.0 * m * n * k
        return flops

    # ------------------------------------------------------------------
    # Simulator lowering
    # ------------------------------------------------------------------
    def build_program(self, batch: int,
                      host_read_fraction: float = 1.0) -> Program:
        """Lower one batched inference pass to a simulator program."""
        if batch < 1:
            raise ValueError("batch must be >= 1")
        phases: List[KernelPhase] = []
        for index, layer in enumerate(self.layers):
            shape = self.shapes[index]
            out_bytes = batch * FLOAT_BYTES * shape[0] * shape[1] * shape[2]
            if isinstance(layer, ConvLayer):
                m, n, k = layer.gemm_shape()
                descriptor = gemm_kernel(
                    f"{self.name}.conv{index}", m, n * batch, k)
                phases.append(KernelPhase(descriptor))
            elif isinstance(layer, ConnectedLayer):
                descriptor = gemm_kernel(
                    f"{self.name}.fc{index}", layer.out_features, batch,
                    layer.in_features)
                phases.append(KernelPhase(descriptor))
            else:
                phases.append(KernelPhase(elementwise_kernel(
                    f"{self.name}.{layer.kind}{index}", max(4096, out_bytes))))

        input_bytes = batch * FLOAT_BYTES * np.prod(self.input_shape)
        out_shape = self.out_shape
        output_bytes = batch * FLOAT_BYTES * np.prod(out_shape)
        activations = max(4096, batch * self.activation_bytes_per_image())
        buffers = (
            BufferSpec("weights", max(4096, self.weight_bytes()),
                       BufferDirection.IN),
            BufferSpec("images", int(max(4096, input_bytes)),
                       BufferDirection.IN),
            BufferSpec("activations", int(activations),
                       BufferDirection.SCRATCH),
            BufferSpec("predictions", int(max(4096, output_bytes)),
                       BufferDirection.OUT,
                       host_read_fraction=host_read_fraction),
        )
        return Program(name=self.name, buffers=buffers, phases=tuple(phases))
