"""Class activation mapping over the encoder's final feature maps, plus
normalization, align-corners bilinear resampling, and overlay rendering."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .imageio import RetinalImage, resize_bilinear


@dataclass
class Heatmap:
    values: np.ndarray  # h x w float64
    normalized: bool = False

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
    return Heatmap(values=cam, normalized=False)


def normalize_heatmap(raw: Heatmap) -> Heatmap:
    lo, hi = raw.values.min(), raw.values.max()
    if hi == lo:
        return Heatmap(values=np.full_like(raw.values, 0.5), normalized=True)
    return Heatmap(values=(raw.values - lo) / (hi - lo), normalized=True)


def upsample_bilinear(heatmap: Heatmap, out_h: int, out_w: int) -> Heatmap:
    """Resample to out_h x out_w, up or down along either axis (align corners)."""
    return Heatmap(values=resize_bilinear(heatmap.values, out_h, out_w),
                   normalized=heatmap.normalized)


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


def overlay(image: RetinalImage, heatmap: Heatmap, alpha: float) -> np.ndarray:
    """Blend the grayscale image with the colormapped heatmap; uint8 RGB out."""
    if not heatmap.normalized:
        raise ValueError("overlay requires a normalized heatmap")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if heatmap.values.shape != (image.height, image.width):
        raise ValueError(
            f"heatmap {heatmap.values.shape} does not match image "
            f"{(image.height, image.width)}"
        )
    gray = image.pixels.mean(axis=2, dtype=np.float64) / 255.0
    blended = (1.0 - alpha) * gray[:, :, None] + alpha * colormap(heatmap.values)
    return np.rint(blended * 255.0).astype(np.uint8)


def cam_overlay(image: RetinalImage, raw: Heatmap, alpha: float) -> np.ndarray:
    """Normalize a raw CAM, resample it to the image size, and blend; uint8 RGB out."""
    heat = upsample_bilinear(normalize_heatmap(raw), image.height, image.width)
    return overlay(image, heat, alpha)


def heatmap_to_text(heatmap: Heatmap, decimals: int = 6) -> str:
    """Plain-text matrix export, one row per line."""
    return "\n".join(
        " ".join(f"{v:.{decimals}f}" for v in row) for row in heatmap.values
    )
