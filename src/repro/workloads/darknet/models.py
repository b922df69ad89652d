"""Darknet model builders: resnet18, resnet50, yolov3-tiny, yolov3.

Layer sequences follow the upstream darknet cfg files. Weights are
randomly initialized (He init) - the paper uses the networks as
kernel-sequence generators for profiling, and layer shapes (hence the
per-layer gemm characterization) do not depend on trained weights.

Weights are drawn lazily on first use, in build order: a built network
is shape-only, so lowering it to a simulator program (and
fingerprinting that program) allocates no weight matrix and creates no
generator. The first read of any layer's weights - from ``forward``, a
workload's ``reference()`` or ``save_weights`` - seeds the network's
one generator (:class:`~.layers.WeightStream`) and draws the whole
network from it, giving the same values an eager draw at build time
would.

Residual blocks with downsampling are expressed with an explicit 1x1
projection convolution re-exposed to the shortcut through a
single-source route (identity) layer.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Tuple

from .layers import (AvgPoolLayer, ConnectedLayer, ConvLayer, Layer,
                     MaxPoolLayer, RouteLayer, ShortcutLayer, SoftmaxLayer,
                     UpsampleLayer, WeightStream, YoloAnchors, YoloLayer)
from .network import Network

IMAGENET_CLASSES = 1000
COCO_CLASSES = 80

YOLO_ANCHORS_LARGE = YoloAnchors(
    anchors=((116, 90), (156, 198), (373, 326)), classes=COCO_CLASSES)
YOLO_ANCHORS_MEDIUM = YoloAnchors(
    anchors=((30, 61), (62, 45), (59, 119)), classes=COCO_CLASSES)
YOLO_ANCHORS_SMALL = YoloAnchors(
    anchors=((10, 13), (16, 30), (33, 23)), classes=COCO_CLASSES)
YOLO_TINY_ANCHORS_COARSE = YoloAnchors(
    anchors=((81, 82), (135, 169), (344, 319)), classes=COCO_CLASSES)
YOLO_TINY_ANCHORS_FINE = YoloAnchors(
    anchors=((10, 14), (23, 27), (37, 58)), classes=COCO_CLASSES)

DETECTION_CHANNELS = 3 * (5 + COCO_CLASSES)  # 255


class _Builder:
    """Accumulates layers and tracks indices/channels while building."""

    def __init__(self, in_channels: int, seed: int):
        self.layers: List[Layer] = []
        self.channels = in_channels
        self.weights = WeightStream(seed)

    @property
    def last(self) -> int:
        return len(self.layers) - 1

    def conv(self, out_channels: int, ksize: int = 3, stride: int = 1,
             activation: str = "leaky", batch_normalize: bool = True) -> int:
        self.layers.append(ConvLayer(
            self.channels, out_channels, ksize=ksize, stride=stride,
            activation=activation, batch_normalize=batch_normalize,
            rng=self.weights))
        self.channels = out_channels
        return self.last

    def maxpool(self, size: int = 2, stride: Optional[int] = None) -> int:
        self.layers.append(MaxPoolLayer(size=size, stride=stride))
        return self.last

    def avgpool(self) -> int:
        self.layers.append(AvgPoolLayer())
        return self.last

    def upsample(self, stride: int = 2) -> int:
        self.layers.append(UpsampleLayer(stride=stride))
        return self.last

    def route(self, sources: Tuple[int, ...], channels: int) -> int:
        self.layers.append(RouteLayer(sources))
        self.channels = channels
        return self.last

    def shortcut(self, source: int, activation: str = "linear") -> int:
        self.layers.append(ShortcutLayer(source, activation=activation))
        return self.last

    def connected(self, in_features: int, out_features: int) -> int:
        self.layers.append(ConnectedLayer(in_features, out_features,
                                          rng=self.weights))
        self.channels = out_features
        return self.last

    def softmax(self) -> int:
        self.layers.append(SoftmaxLayer())
        return self.last

    def yolo(self, anchors: YoloAnchors) -> int:
        self.layers.append(YoloLayer(anchors))
        return self.last


# ----------------------------------------------------------------------
# ResNets
# ----------------------------------------------------------------------
def _basic_block(b: _Builder, channels: int, downsample: bool) -> None:
    """resnet18/34 basic block, with an explicit projection when needed."""
    entry = b.last
    in_channels = b.channels
    stride = 2 if downsample else 1
    if downsample or in_channels != channels:
        skip = b.conv(channels, ksize=1, stride=stride, activation="linear")
        # Re-expose the block input to the main path via an identity route.
        b.route((entry,), channels=in_channels)
    else:
        skip = entry
    b.conv(channels, ksize=3, stride=stride, activation="relu")
    b.conv(channels, ksize=3, stride=1, activation="linear")
    b.shortcut(skip, activation="relu")


def _bottleneck_block(b: _Builder, width: int, out_channels: int,
                      downsample: bool) -> None:
    """resnet50 bottleneck block (1x1 -> 3x3 -> 1x1 with projection)."""
    entry = b.last
    in_channels = b.channels
    stride = 2 if downsample else 1
    if downsample or in_channels != out_channels:
        skip = b.conv(out_channels, ksize=1, stride=stride,
                      activation="linear")
        b.route((entry,), channels=in_channels)
    else:
        skip = entry
    b.conv(width, ksize=1, stride=1, activation="relu")
    b.conv(width, ksize=3, stride=stride, activation="relu")
    b.conv(out_channels, ksize=1, stride=1, activation="linear")
    b.shortcut(skip, activation="relu")


def _resnet_stem(b: _Builder) -> None:
    b.conv(64, ksize=7, stride=2, activation="relu")
    b.maxpool(size=2, stride=2)


@lru_cache(maxsize=8)
def build_resnet18(input_size: int = 256, seed: int = 18) -> Network:
    """Residual network with 18 convolution layers (darknet resnet18)."""
    b = _Builder(3, seed)
    _resnet_stem(b)
    for channels, count, downsample in ((64, 2, False), (128, 2, True),
                                        (256, 2, True), (512, 2, True)):
        for block in range(count):
            _basic_block(b, channels, downsample=downsample and block == 0)
    b.avgpool()
    b.connected(512, IMAGENET_CLASSES)
    b.softmax()
    return Network("resnet18", (3, input_size, input_size), b.layers)


@lru_cache(maxsize=8)
def build_resnet50(input_size: int = 256, seed: int = 50) -> Network:
    """Residual network with 50 convolution layers (darknet resnet50)."""
    b = _Builder(3, seed)
    _resnet_stem(b)
    for width, out_channels, count, downsample in (
            (64, 256, 3, False), (128, 512, 4, True),
            (256, 1024, 6, True), (512, 2048, 3, True)):
        for block in range(count):
            _bottleneck_block(b, width, out_channels,
                              downsample=downsample and block == 0)
    b.avgpool()
    b.connected(2048, IMAGENET_CLASSES)
    b.softmax()
    return Network("resnet50", (3, input_size, input_size), b.layers)


# ----------------------------------------------------------------------
# YOLO family
# ----------------------------------------------------------------------
def _darknet53_residual(b: _Builder, channels: int) -> None:
    entry = b.last
    b.conv(channels // 2, ksize=1)
    b.conv(channels, ksize=3)
    b.shortcut(entry)


@lru_cache(maxsize=8)
def build_yolov3(input_size: int = 416, seed: int = 3) -> Network:
    """YOLOv3 on the darknet-53 backbone (106-layer graph)."""
    if input_size % 32:
        raise ValueError("yolov3 input size must be a multiple of 32")
    b = _Builder(3, seed)
    # Backbone.
    b.conv(32, ksize=3)
    stage_tails = {}
    for channels, blocks in ((64, 1), (128, 2), (256, 8), (512, 8),
                             (1024, 4)):
        b.conv(channels, ksize=3, stride=2)
        for _ in range(blocks):
            _darknet53_residual(b, channels)
        stage_tails[channels] = b.last

    # Detection head, scale 1 (coarsest grid).
    b.conv(512, ksize=1)
    b.conv(1024, ksize=3)
    b.conv(512, ksize=1)
    b.conv(1024, ksize=3)
    branch1 = b.conv(512, ksize=1)
    b.conv(1024, ksize=3)
    b.conv(DETECTION_CHANNELS, ksize=1, activation="linear",
           batch_normalize=False)
    b.yolo(YOLO_ANCHORS_LARGE)

    # Scale 2.
    b.route((branch1,), channels=512)
    b.conv(256, ksize=1)
    b.upsample()
    b.route((b.last, stage_tails[512]), channels=256 + 512)
    b.conv(256, ksize=1)
    b.conv(512, ksize=3)
    b.conv(256, ksize=1)
    b.conv(512, ksize=3)
    branch2 = b.conv(256, ksize=1)
    b.conv(512, ksize=3)
    b.conv(DETECTION_CHANNELS, ksize=1, activation="linear",
           batch_normalize=False)
    b.yolo(YOLO_ANCHORS_MEDIUM)

    # Scale 3 (finest grid).
    b.route((branch2,), channels=256)
    b.conv(128, ksize=1)
    b.upsample()
    b.route((b.last, stage_tails[256]), channels=128 + 256)
    b.conv(128, ksize=1)
    b.conv(256, ksize=3)
    b.conv(128, ksize=1)
    b.conv(256, ksize=3)
    b.conv(128, ksize=1)
    b.conv(256, ksize=3)
    b.conv(DETECTION_CHANNELS, ksize=1, activation="linear",
           batch_normalize=False)
    b.yolo(YOLO_ANCHORS_SMALL)

    return Network("yolov3", (3, input_size, input_size), b.layers)


@lru_cache(maxsize=8)
def build_yolov3_tiny(input_size: int = 416, seed: int = 13) -> Network:
    """YOLOv3-tiny (the 24-layer cfg)."""
    if input_size % 32:
        raise ValueError("yolov3-tiny input size must be a multiple of 32")
    b = _Builder(3, seed)
    b.conv(16, ksize=3)
    b.maxpool()
    b.conv(32, ksize=3)
    b.maxpool()
    b.conv(64, ksize=3)
    b.maxpool()
    b.conv(128, ksize=3)
    b.maxpool()
    stage8 = b.conv(256, ksize=3)
    b.maxpool()
    b.conv(512, ksize=3)
    b.maxpool(size=2, stride=1)
    b.conv(1024, ksize=3)
    branch = b.conv(256, ksize=1)
    b.conv(512, ksize=3)
    b.conv(DETECTION_CHANNELS, ksize=1, activation="linear",
           batch_normalize=False)
    b.yolo(YOLO_TINY_ANCHORS_COARSE)

    b.route((branch,), channels=256)
    b.conv(128, ksize=1)
    b.upsample()
    b.route((b.last, stage8), channels=128 + 256)
    b.conv(256, ksize=3)
    b.conv(DETECTION_CHANNELS, ksize=1, activation="linear",
           batch_normalize=False)
    b.yolo(YOLO_TINY_ANCHORS_FINE)

    return Network("yolov3-tiny", (3, input_size, input_size), b.layers)
