"""Retinal disease identifier: small conv stack -> GAP -> linear classifier.

Exposes the final feature maps (for CAM), the pooled feature vector (for the
description generator), and class logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor, init_arrays, parameters_from
from .checkpoint import ModelCheckpoint
from .errors import DataError, NonFiniteError
from .imageio import RetinalImage, resize_bilinear
from .rng import Xoshiro256

DEFAULT_STAGES = ((8, 3, 1, 2), (16, 3, 1, 2), (32, 3, 1, 2))

# Inputs are resized to image_size^2 and no checkpoint entry is sized by it, so this
# bound stops a checkpoint's config from asking for unbounded memory (at 1024 px the
# default stack's first conv already builds a 27 x 1024^2 float64 im2col matrix, 216 MiB).
MAX_IMAGE_SIZE = 1024
_CONFIG = "encoder.config"  # the checkpoint entry holding EncoderConfig.to_array()


@dataclass
class EncoderConfig:
    """Architecture: stages of (out_channels, kernel, stride, pool)."""

    num_classes: int
    input_channels: int = 3
    image_size: int = 32
    stages: tuple = DEFAULT_STAGES

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.input_channels not in (1, 3):
            raise ValueError("input_channels must be 1 or 3")
        if self.image_size > MAX_IMAGE_SIZE:
            raise ValueError(f"image_size {self.image_size} exceeds the bound {MAX_IMAGE_SIZE}")
        if not self.stages or min(min(stage) for stage in self.stages) < 1:
            raise ValueError("need at least one stage, with every stage value >= 1")
        side = self.image_size
        for out_ch, kernel, stride, pool in self.stages:
            side = (side + 2 * (kernel // 2) - kernel) // stride + 1
            side = (side - pool) // pool + 1
            if side < 1:
                raise ValueError("spatial size collapses below 1x1; shrink the stage list")

    @property
    def feature_channels(self) -> int:
        return self.stages[-1][0]

    def to_array(self) -> np.ndarray:
        flat = [self.num_classes, self.input_channels, self.image_size, len(self.stages)]
        for stage in self.stages:
            flat.extend(stage)
        return np.array(flat, dtype=np.float64)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "EncoderConfig":
        arr = np.asarray(arr).ravel()
        if len(arr) < 4 or not np.isfinite(arr).all() or len(arr) != 4 + 4 * int(arr[3]):
            raise DataError(f"{_CONFIG} holds {len(arr)} values, not 4 + 4 x stages finite values")
        vals = [int(v) for v in arr]
        stages = tuple(tuple(vals[i : i + 4]) for i in range(4, len(vals), 4))
        try:
            return cls(num_classes=vals[0], input_channels=vals[1], image_size=vals[2],
                       stages=stages)
        except ValueError as e:
            raise DataError(f"{_CONFIG}: {e}") from e


def parameter_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every encoder parameter, in initialization order."""
    shapes: dict[str, tuple[int, ...]] = {}
    in_ch = config.input_channels
    for i, (out_ch, kernel, _stride, _pool) in enumerate(config.stages):
        shapes[f"encoder.stage{i}.kernels"] = (out_ch, in_ch, kernel, kernel)
        shapes[f"encoder.stage{i}.bias"] = (out_ch,)
        in_ch = out_ch
    shapes["encoder.fc.weight"] = (config.num_classes, config.feature_channels)
    shapes["encoder.fc.bias"] = (config.num_classes,)
    return shapes


@dataclass
class EncoderOutput:
    feature_maps: Tensor  # B x K x h x w, post-relu activations of the last stage
    pooled: Tensor  # B x K
    logits: Tensor  # B x C


class VisionEncoder:
    def __init__(self, config: EncoderConfig, params: dict[str, Tensor]):
        self.config = config
        self._params = params

    @classmethod
    def init(cls, config: EncoderConfig, rng: Xoshiro256) -> "VisionEncoder":
        return cls(config, parameters_from(init_arrays(rng, parameter_shapes(config))))

    @classmethod
    def from_checkpoint(cls, ckpt: ModelCheckpoint) -> "VisionEncoder":
        config = EncoderConfig.from_array(ckpt.take({_CONFIG: (None,)})[_CONFIG])
        return cls(config, parameters_from(ckpt.take(parameter_shapes(config))))

    def parameters(self) -> list[Tensor]:
        return list(self._params.values())

    def to_checkpoint(self) -> ModelCheckpoint:
        out = {name: p.data for name, p in self._params.items()}
        out[_CONFIG] = self.config.to_array()
        return ModelCheckpoint(out)

    @property
    def classifier_weights(self) -> np.ndarray:
        return self._params["encoder.fc.weight"].data

    def preprocess(self, image: RetinalImage) -> np.ndarray:
        """Resize to the configured side, scale to [0,1], adapt channels, CHW."""
        cfg = self.config
        px = image.pixels.astype(np.float64) / 255.0
        px = resize_bilinear(px, cfg.image_size, cfg.image_size)
        if px.shape[2] == 1 and cfg.input_channels == 3:
            px = np.repeat(px, 3, axis=2)  # FA grayscale replicated
        elif px.shape[2] != cfg.input_channels:
            raise ShapeError(
                f"image has {px.shape[2]} channels but encoder expects {cfg.input_channels}"
            )
        return np.transpose(px, (2, 0, 1))

    def forward(self, nchw: np.ndarray) -> EncoderOutput:
        """A B x C x H x W batch, each image coming out as it would alone."""
        cfg = self.config
        if nchw.ndim != 4 or nchw.shape[1:] != (cfg.input_channels, cfg.image_size, cfg.image_size):
            raise ShapeError(f"encoder input shape {nchw.shape} is not a batch of "
                             f"{(cfg.input_channels, cfg.image_size, cfg.image_size)} images")
        x = Tensor(nchw, needs_grad=False)
        for i, (_out_ch, kernel, stride, pool) in enumerate(cfg.stages):
            x = ad.conv2d(x, self._params[f"encoder.stage{i}.kernels"],
                          self._params[f"encoder.stage{i}.bias"],
                          stride=stride, pad=kernel // 2)
            x = ad.relu(x)
            x = ad.maxpool2d(x, pool)
            if not np.isfinite(x.data).all():
                raise NonFiniteError(f"non-finite activation after encoder stage {i}")
        feature_maps = x
        pooled = ad.global_avg_pool(feature_maps)
        logits = ad.linear(pooled, self._params["encoder.fc.weight"],
                           self._params["encoder.fc.bias"])
        if not np.isfinite(logits.data).all():
            raise NonFiniteError("non-finite activation in classifier head")
        return EncoderOutput(feature_maps=feature_maps, pooled=pooled, logits=logits)

    def encode_image(self, image: RetinalImage) -> EncoderOutput:
        """The image as a batch of one."""
        return self.forward(self.preprocess(image)[None])


def predict_topk(logits: np.ndarray, k: int) -> list[tuple[int, float]]:
    """Top-k classes of one image's C logits by stabilized softmax probability;
    ties break by class id."""
    if logits.ndim != 1:
        raise ShapeError(f"predict_topk: expected one image's C logits, got shape {logits.shape}")
    n = logits.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} classes")
    probs = ad.softmax_np(logits)
    order = sorted(range(n), key=lambda i: (-probs[i], i))
    return [(i, float(probs[i])) for i in order[:k]]
