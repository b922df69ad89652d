"""Darknet-style neural-network layers (NumPy forward passes).

A functional reimplementation of the darknet layer zoo the paper's ML
workloads use: convolution (+ batch norm + leaky ReLU), max/avg
pooling, upsampling, route (concat), shortcut (residual add), fully
connected, softmax, and the YOLO detection head. Each layer knows its
output shape and its dominant GPU kernel so the simulator can
characterize whole networks layer by layer.

Tensors are NCHW ``float32``: (batch, channels, height, width).
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

Shape = Tuple[int, int, int]  # (channels, height, width)


def leaky_relu(x: np.ndarray, slope: float = 0.1) -> np.ndarray:
    """Darknet's default activation."""
    return np.where(x > 0, x, slope * x)


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def linear(x: np.ndarray) -> np.ndarray:
    """Identity activation."""
    return x


ACTIVATIONS = {"leaky": leaky_relu, "relu": relu, "linear": linear}


def im2col(x: np.ndarray, ksize: int, stride: int, pad: int) -> np.ndarray:
    """Unfold (n, c, h, w) into (n, c*k*k, out_h*out_w) patches."""
    n, c, h, w = x.shape
    out_h = (h + 2 * pad - ksize) // stride + 1
    out_w = (w + 2 * pad - ksize) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError("im2col: kernel larger than padded input")
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((n, c * ksize * ksize, out_h * out_w), dtype=x.dtype)
    index = 0
    for dy in range(ksize):
        for dx in range(ksize):
            patch = padded[:, :, dy:dy + stride * out_h:stride,
                           dx:dx + stride * out_w:stride]
            cols[:, index * c:(index + 1) * c, :] = patch.reshape(n, c, -1)
            index += 1
    return cols


class Layer(abc.ABC):
    """One network layer."""

    def __init__(self) -> None:
        self.out_shape: Optional[Shape] = None

    @abc.abstractmethod
    def configure(self, in_shape: Shape) -> Shape:
        """Set and return the output shape for a given input shape."""

    @abc.abstractmethod
    def forward(self, x: np.ndarray, outputs: List[np.ndarray]) -> np.ndarray:
        """Compute the layer output. ``outputs`` holds prior layer results
        (route/shortcut layers index into it)."""

    @property
    def kind(self) -> str:
        return type(self).__name__.replace("Layer", "").lower()

    def weight_bytes(self) -> int:
        return 0

    def workspace_bytes(self) -> int:
        """im2col/scratch bytes per image."""
        return 0


class WeightStream:
    """One network's weight generator, shared by its weighted layers.

    Layers register in build order and hold no weights until one of
    them is read. That first read seeds the generator and draws every
    registered layer's matrix in registration order, so the values are
    exactly those of drawing each layer eagerly from
    ``np.random.default_rng(seed)`` as it was built. A layer whose
    weights were assigned first still has its matrix drawn (and
    discarded), which keeps every other layer's values unchanged.
    Creating the generator on first read keeps a shape-only network
    (program lowering, fingerprints) from loading ``numpy.random``.
    """

    def __init__(self, seed: int):
        self._seed = seed
        self._rng: Optional[np.random.Generator] = None
        self._pending: List[WeightedLayer] = []
        self._lock = threading.Lock()

    def register(self, layer: WeightedLayer) -> None:
        self._pending.append(layer)

    def materialize(self) -> None:
        """Draw every registered layer's weights not drawn yet."""
        with self._lock:
            if self._pending and self._rng is None:
                self._rng = np.random.default_rng(self._seed)
            for layer in self._pending:
                drawn = layer.draw_weights(self._rng)
                if layer._weights is None:
                    layer._weights = drawn
            self._pending = []


class WeightedLayer(Layer):
    """A layer with a He-initialized ``(out, fan_in)`` weight matrix.

    Given a generator, the layer draws its weights at construction;
    given a :class:`WeightStream`, it registers and the stream draws
    them on first read of :attr:`weights`.
    """

    # Variance gain of the initialization: 2 for the rectifier-fed
    # convolutions (He init), 1 for the linear connected layers.
    gain = 1.0

    def _init_weights(
            self,
            rng: Union[np.random.Generator, WeightStream, None]) -> None:
        self._weights: Optional[np.ndarray] = None
        self._stream: Optional[WeightStream] = None
        if isinstance(rng, WeightStream):
            self._stream = rng
            rng.register(self)
        else:
            self._weights = self.draw_weights(
                rng or np.random.default_rng(0))

    @property
    @abc.abstractmethod
    def weight_shape(self) -> Tuple[int, int]:
        """The (out, fan_in) shape of the weight matrix."""

    def draw_weights(self, rng: np.random.Generator) -> np.ndarray:
        out, fan_in = self.weight_shape
        scale = np.sqrt(self.gain / fan_in)
        return (rng.standard_normal((out, fan_in)) * scale).astype(np.float32)

    @property
    def weights(self) -> np.ndarray:
        if self._weights is None:
            self._stream.materialize()
        return self._weights

    @weights.setter
    def weights(self, value: np.ndarray) -> None:
        self._weights = value


class ConvLayer(WeightedLayer):
    """Convolution + optional batch norm + activation (darknet [convolutional])."""

    gain = 2.0

    def __init__(self, in_channels: int, out_channels: int, ksize: int = 3,
                 stride: int = 1, pad: Optional[int] = None,
                 batch_normalize: bool = True, activation: str = "leaky",
                 rng: Union[np.random.Generator, WeightStream, None] = None):
        super().__init__()
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.ksize = ksize
        self.stride = stride
        self.pad = pad if pad is not None else ksize // 2
        self.batch_normalize = batch_normalize
        self.activation = activation
        self._init_weights(rng)
        self.bias = np.zeros(out_channels, dtype=np.float32)
        if batch_normalize:
            self.bn_mean = np.zeros(out_channels, dtype=np.float32)
            self.bn_var = np.ones(out_channels, dtype=np.float32)
            self.bn_gamma = np.ones(out_channels, dtype=np.float32)

    @property
    def weight_shape(self) -> Tuple[int, int]:
        return (self.out_channels,
                self.in_channels * self.ksize * self.ksize)

    def configure(self, in_shape: Shape) -> Shape:
        c, h, w = in_shape
        if c != self.in_channels:
            raise ValueError(
                f"conv expects {self.in_channels} channels, got {c}")
        out_h = (h + 2 * self.pad - self.ksize) // self.stride + 1
        out_w = (w + 2 * self.pad - self.ksize) // self.stride + 1
        self.out_shape = (self.out_channels, out_h, out_w)
        return self.out_shape

    def forward(self, x: np.ndarray, outputs: List[np.ndarray]) -> np.ndarray:
        n = x.shape[0]
        cols = im2col(x, self.ksize, self.stride, self.pad)
        out = np.einsum("of,nfp->nop", self.weights, cols)
        if self.batch_normalize:
            normalized = (out - self.bn_mean[None, :, None]) / np.sqrt(
                self.bn_var[None, :, None] + 1e-5)
            out = self.bn_gamma[None, :, None] * normalized
        out += self.bias[None, :, None]
        out = ACTIVATIONS[self.activation](out)
        c, h, w = self.out_shape
        return out.reshape(n, c, h, w).astype(np.float32)

    def weight_bytes(self) -> int:
        out, fan_in = self.weight_shape
        extra = 3 * out if self.batch_normalize else 0
        return 4 * (out * fan_in + self.bias.size + extra)

    def workspace_bytes(self) -> int:
        if self.out_shape is None:
            return 0
        _, h, w = self.out_shape
        return 4 * self.in_channels * self.ksize * self.ksize * h * w

    def gemm_shape(self) -> Tuple[int, int, int]:
        """The (m, n, k) of this convolution lowered to gemm per image."""
        if self.out_shape is None:
            raise RuntimeError("layer not configured")
        _, h, w = self.out_shape
        return (self.out_channels, h * w,
                self.in_channels * self.ksize * self.ksize)


class MaxPoolLayer(Layer):
    """Max pooling (darknet [maxpool]), incl. the stride-1 padded form."""

    def __init__(self, size: int = 2, stride: Optional[int] = None):
        super().__init__()
        self.size = size
        self.stride = stride if stride is not None else size

    def configure(self, in_shape: Shape) -> Shape:
        c, h, w = in_shape
        if self.stride == 1:
            # darknet pads to keep the size (yolov3-tiny's last pool).
            self.out_shape = (c, h, w)
        else:
            self.out_shape = (c, h // self.stride, w // self.stride)
        return self.out_shape

    def forward(self, x: np.ndarray, outputs: List[np.ndarray]) -> np.ndarray:
        n, c, h, w = x.shape
        size, stride = self.size, self.stride
        if stride == 1:
            padded = np.pad(x, ((0, 0), (0, 0), (0, size - 1), (0, size - 1)),
                            constant_values=-np.inf)
            stacked = np.stack([
                padded[:, :, dy:dy + h, dx:dx + w]
                for dy in range(size) for dx in range(size)
            ])
            return stacked.max(axis=0)
        out_h, out_w = h // stride, w // stride
        trimmed = x[:, :, :out_h * stride, :out_w * stride]
        windows = trimmed.reshape(n, c, out_h, stride, out_w, stride)
        return windows.max(axis=(3, 5))


class AvgPoolLayer(Layer):
    """Global average pooling (darknet [avgpool])."""

    def configure(self, in_shape: Shape) -> Shape:
        c, _h, _w = in_shape
        self.out_shape = (c, 1, 1)
        return self.out_shape

    def forward(self, x: np.ndarray, outputs: List[np.ndarray]) -> np.ndarray:
        return x.mean(axis=(2, 3), keepdims=True)


class UpsampleLayer(Layer):
    """Nearest-neighbor upsampling (darknet [upsample])."""

    def __init__(self, stride: int = 2):
        super().__init__()
        self.stride = stride

    def configure(self, in_shape: Shape) -> Shape:
        c, h, w = in_shape
        self.out_shape = (c, h * self.stride, w * self.stride)
        return self.out_shape

    def forward(self, x: np.ndarray, outputs: List[np.ndarray]) -> np.ndarray:
        return x.repeat(self.stride, axis=2).repeat(self.stride, axis=3)


class RouteLayer(Layer):
    """Concatenate earlier layer outputs along channels (darknet [route])."""

    def __init__(self, sources: Sequence[int]):
        super().__init__()
        if not sources:
            raise ValueError("route needs at least one source layer")
        self.sources = tuple(sources)
        self._source_shapes: Tuple[Shape, ...] = ()

    def configure_from(self, shapes: Sequence[Shape]) -> Shape:
        self._source_shapes = tuple(shapes)
        base = shapes[0]
        channels = sum(s[0] for s in shapes)
        for shape in shapes[1:]:
            if shape[1:] != base[1:]:
                raise ValueError("route sources have mismatched spatial dims")
        self.out_shape = (channels, base[1], base[2])
        return self.out_shape

    def configure(self, in_shape: Shape) -> Shape:
        raise RuntimeError("route layers are configured by the network")

    def forward(self, x: np.ndarray, outputs: List[np.ndarray]) -> np.ndarray:
        return np.concatenate([outputs[i] for i in self.sources], axis=1)


class ShortcutLayer(Layer):
    """Residual addition with a prior layer (darknet [shortcut])."""

    def __init__(self, source: int, activation: str = "linear"):
        super().__init__()
        self.source = source
        self.activation = activation

    def configure(self, in_shape: Shape) -> Shape:
        self.out_shape = in_shape
        return self.out_shape

    def forward(self, x: np.ndarray, outputs: List[np.ndarray]) -> np.ndarray:
        return ACTIVATIONS[self.activation](x + outputs[self.source])


class ConnectedLayer(WeightedLayer):
    """Fully connected layer (darknet [connected])."""

    def __init__(self, in_features: int, out_features: int,
                 activation: str = "linear",
                 rng: Union[np.random.Generator, WeightStream, None] = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.activation = activation
        self._init_weights(rng)
        self.bias = np.zeros(out_features, dtype=np.float32)

    @property
    def weight_shape(self) -> Tuple[int, int]:
        return (self.out_features, self.in_features)

    def configure(self, in_shape: Shape) -> Shape:
        flat = in_shape[0] * in_shape[1] * in_shape[2]
        if flat != self.in_features:
            raise ValueError(
                f"connected expects {self.in_features} inputs, got {flat}")
        self.out_shape = (self.out_features, 1, 1)
        return self.out_shape

    def forward(self, x: np.ndarray, outputs: List[np.ndarray]) -> np.ndarray:
        n = x.shape[0]
        flat = x.reshape(n, -1)
        out = flat @ self.weights.T + self.bias[None, :]
        out = ACTIVATIONS[self.activation](out)
        return out.reshape(n, self.out_features, 1, 1)

    def weight_bytes(self) -> int:
        return 4 * (self.in_features * self.out_features + self.bias.size)


class SoftmaxLayer(Layer):
    """Softmax over the flattened feature vector (darknet [softmax])."""

    def configure(self, in_shape: Shape) -> Shape:
        self.out_shape = in_shape
        return self.out_shape

    def forward(self, x: np.ndarray, outputs: List[np.ndarray]) -> np.ndarray:
        n = x.shape[0]
        flat = x.reshape(n, -1)
        shifted = flat - flat.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        out = exp / exp.sum(axis=1, keepdims=True)
        return out.reshape(x.shape)


@dataclass(frozen=True)
class YoloAnchors:
    anchors: Tuple[Tuple[float, float], ...]
    classes: int = 80

    @property
    def per_cell(self) -> int:
        return len(self.anchors) * (5 + self.classes)


class YoloLayer(Layer):
    """YOLO detection head: sigmoid box offsets/objectness/class scores."""

    def __init__(self, anchors: YoloAnchors):
        super().__init__()
        self.anchors = anchors

    def configure(self, in_shape: Shape) -> Shape:
        if in_shape[0] != self.anchors.per_cell:
            raise ValueError(
                f"yolo head expects {self.anchors.per_cell} channels, "
                f"got {in_shape[0]}")
        self.out_shape = in_shape
        return self.out_shape

    def forward(self, x: np.ndarray, outputs: List[np.ndarray]) -> np.ndarray:
        n, _, h, w = x.shape
        boxes = len(self.anchors.anchors)
        attrs = 5 + self.anchors.classes
        out = x.reshape(n, boxes, attrs, h, w).copy()
        # x, y offsets, objectness, and class scores pass through a
        # sigmoid; width/height stay as raw exponents (darknet applies
        # exp() at decode time). Clip for numerical stability in fp32.
        sig = 1.0 / (1.0 + np.exp(-np.clip(out, -60.0, 60.0)))
        out[:, :, 0:2] = sig[:, :, 0:2]
        out[:, :, 4:] = sig[:, :, 4:]
        return out.reshape(n, boxes * attrs, h, w)
