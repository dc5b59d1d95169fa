"""Class activation mapping over the encoder's final feature maps, plus
normalization, align-corners bilinear resampling, and overlay rendering over
stacks of same-shape images."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .imageio import resize_bilinear


@dataclass
class Heatmap:
    values: np.ndarray  # h x w float64, a raw class activation map

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or min(self.values.shape) < 1:
            raise ValueError(f"heatmap must be a non-empty 2-D matrix, got {self.values.shape}")


def compute_cam(feature_maps: np.ndarray, classifier_weights: np.ndarray, class_id: int) -> Heatmap:
    """Weighted sum of feature maps by the class row of the classifier weights."""
    fmaps = np.asarray(feature_maps, dtype=np.float64)
    weights = np.asarray(classifier_weights, dtype=np.float64)
    if fmaps.ndim != 3 or weights.ndim != 2 or weights.shape[1] != fmaps.shape[0]:
        raise ValueError(
            f"feature maps {fmaps.shape} and weights {weights.shape} are inconsistent"
        )
    if not 0 <= class_id < weights.shape[0]:
        raise ValueError(f"class {class_id} out of range for {weights.shape[0]} classes")
    cam = np.tensordot(weights[class_id], fmaps, axes=1)
    return Heatmap(values=cam)


def normalize_cams(cams: np.ndarray) -> np.ndarray:
    """Each map of an N x h x w stack scaled to [0, 1]; a constant map becomes 0.5."""
    lo = cams.min(axis=(1, 2), keepdims=True)
    span = cams.max(axis=(1, 2), keepdims=True) - lo
    flat = span == 0.0
    return np.where(flat, 0.5, (cams - lo) / np.where(flat, 1.0, span))


def upsample_bilinear(maps: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resample each map of an N x h x w stack to out_h x out_w, up or down along
    either axis (align corners)."""
    return np.moveaxis(resize_bilinear(np.moveaxis(maps, 0, -1), out_h, out_w), -1, 0)


def colormap(t: np.ndarray) -> np.ndarray:
    """Blue -> green -> red ramp, piecewise linear with breakpoints 0, 0.5, 1.

    Returns float RGB in [0, 1], shape t.shape + (3,).
    """
    t = np.clip(np.asarray(t, dtype=np.float64), 0.0, 1.0)
    lo = t <= 0.5
    r = np.where(lo, 0.0, 2.0 * t - 1.0)
    g = np.where(lo, 2.0 * t, 2.0 - 2.0 * t)
    b = np.where(lo, 1.0 - 2.0 * t, 0.0)
    return np.stack([r, g, b], axis=-1)


def overlay(pixels: np.ndarray, cams: np.ndarray, alpha: float) -> np.ndarray:
    """Blend N same-shape images (N x H x W x C uint8, C = 1 or 3) in grayscale
    with their N raw CAMs (N x h x w), each normalized, resampled to H x W and
    colormapped; N x H x W x 3 uint8 out. Every image comes out as it would alone."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if pixels.ndim != 4 or cams.ndim != 3 or len(pixels) != len(cams):
        raise ValueError(f"overlay needs N x H x W x C images and N x h x w CAMs, "
                         f"got {pixels.shape} and {cams.shape}")
    heat = upsample_bilinear(normalize_cams(cams), *pixels.shape[1:3])
    gray = pixels.mean(axis=3, dtype=np.float64) / 255.0
    blended = (1.0 - alpha) * gray[..., None] + alpha * colormap(heat)
    return np.rint(blended * 255.0).astype(np.uint8)


def heatmap_to_text(heatmap: Heatmap, decimals: int = 6) -> str:
    """Plain-text matrix export, one row per line."""
    return "\n".join(
        " ".join(f"{v:.{decimals}f}" for v in row) for row in heatmap.values
    )
