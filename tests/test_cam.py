import numpy as np
import pytest

from retinapipe.cam import (
    Heatmap, cam_overlay, colormap, compute_cam, heatmap_to_text, normalize_heatmap,
    overlay, upsample_bilinear,
)
from retinapipe.encoder import EncoderConfig, VisionEncoder
from retinapipe.imageio import RetinalImage
from retinapipe.rng import Xoshiro256


class TestComputeCam:
    def test_single_unit_weight_selects_one_map(self):
        fmaps = np.arange(2 * 3 * 3, dtype=np.float64).reshape(2, 3, 3)
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(compute_cam(fmaps, w, 0).values, fmaps[0])
        assert np.array_equal(compute_cam(fmaps, w, 1).values, fmaps[1])

    def test_zero_weights_give_zero_map(self):
        fmaps = np.random.default_rng(0).random((4, 5, 5))
        cam = compute_cam(fmaps, np.zeros((3, 4)), 2)
        assert np.all(cam.values == 0.0)
        assert not cam.normalized

    def test_matches_weighted_sum_oracle(self):
        rng = np.random.default_rng(1)
        fmaps = rng.random((6, 4, 4))
        w = rng.standard_normal((3, 6))
        for c in range(3):
            want = sum(w[c, k] * fmaps[k] for k in range(6))
            assert np.allclose(compute_cam(fmaps, w, c).values, want, atol=1e-12)

    def test_linear_in_weights(self):
        rng = np.random.default_rng(2)
        fmaps = rng.random((3, 4, 4))
        wa = rng.standard_normal((2, 3))
        wb = rng.standard_normal((2, 3))
        lhs = compute_cam(fmaps, wa + wb, 0).values
        rhs = compute_cam(fmaps, wa, 0).values + compute_cam(fmaps, wb, 0).values
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_cam(np.zeros((2, 3, 3)), np.zeros((4, 5)), 0)

    def test_class_out_of_range(self):
        with pytest.raises(ValueError):
            compute_cam(np.zeros((2, 3, 3)), np.zeros((4, 2)), 4)

    def test_mean_plus_bias_equals_logit(self):
        # the mean of the class map plus the class bias must reproduce the
        # encoder's logit exactly: both reduce to the same affine form
        rng = np.random.default_rng(3)
        cfg = EncoderConfig(num_classes=5, image_size=16)
        enc = VisionEncoder.init(cfg, Xoshiro256(11))
        px = rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
        out = enc.encode_image(RetinalImage(pixels=px))
        w = enc.classifier_weights
        b = enc.to_checkpoint()["encoder.fc.bias"]
        for c in range(5):
            cam = compute_cam(out.feature_maps.data, w, c)
            assert abs(cam.values.mean() + b[c] - float(out.logits.data[c])) < 1e-10


class TestNormalize:
    def test_unit_range(self):
        h = normalize_heatmap(Heatmap(np.array([[1.0, 5.0], [3.0, 2.0]])))
        assert h.normalized
        assert h.values.min() == 0.0
        assert h.values.max() == 1.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        v = rng.random((5, 5))
        a = normalize_heatmap(Heatmap(v)).values
        b = normalize_heatmap(Heatmap(3.0 * v - 7.0)).values
        assert np.allclose(a, b, atol=1e-12)

    def test_constant_map_becomes_half(self):
        h = normalize_heatmap(Heatmap(np.full((3, 3), 42.0)))
        assert np.all(h.values == 0.5)

    def test_idempotent(self):
        h = normalize_heatmap(Heatmap(np.array([[0.0, 2.0]])))
        again = normalize_heatmap(h)
        assert np.allclose(again.values, h.values, atol=1e-12)


class TestUpsample:
    def test_preserves_extremes_of_normalized(self):
        h = normalize_heatmap(Heatmap(np.array([[0.0, 4.0], [1.0, 3.0]])))
        up = upsample_bilinear(h, 8, 8)
        assert up.normalized
        assert up.values.min() >= 0.0 and up.values.max() <= 1.0
        assert up.values[0, 0] == 0.0
        assert up.values[0, -1] == 1.0

    def test_downscale_gives_target_shape(self):
        h = normalize_heatmap(Heatmap(np.arange(16.0).reshape(4, 4)))
        down = upsample_bilinear(h, 2, 8)
        assert down.values.shape == (2, 8) and down.normalized
        assert down.values[0, 0] == 0.0 and down.values[-1, -1] == 1.0

    def test_overlay_on_image_smaller_than_cam(self):
        image = RetinalImage(np.array([[10], [200]], dtype=np.uint8))  # 2 x 1, below the 4 x 4 CAM
        out = cam_overlay(image, Heatmap(np.arange(16.0).reshape(4, 4)), 0.5)
        assert out.shape == (2, 1, 3) and out.dtype == np.uint8

    def test_constant_stays_constant(self):
        up = upsample_bilinear(Heatmap(np.full((2, 2), 0.3), normalized=True), 9, 5)
        assert np.allclose(up.values, 0.3, atol=1e-12)


class TestColormap:
    def test_breakpoints(self):
        assert colormap(np.array(0.0)).tolist() == [0.0, 0.0, 1.0]  # blue
        assert colormap(np.array(0.5)).tolist() == [0.0, 1.0, 0.0]  # green
        assert colormap(np.array(1.0)).tolist() == [1.0, 0.0, 0.0]  # red

    def test_midpoints(self):
        assert np.allclose(colormap(np.array(0.25)), [0.0, 0.5, 0.5])
        assert np.allclose(colormap(np.array(0.75)), [0.5, 0.5, 0.0])

    def test_clips_out_of_range(self):
        assert colormap(np.array(-1.0)).tolist() == [0.0, 0.0, 1.0]
        assert colormap(np.array(2.0)).tolist() == [1.0, 0.0, 0.0]


class TestOverlay:
    def rgb_image(self, h, w, seed=0):
        rng = np.random.default_rng(seed)
        return RetinalImage(pixels=rng.integers(0, 256, (h, w, 3), dtype=np.uint8))

    def test_alpha_zero_gives_grayscale_image(self):
        img = self.rgb_image(4, 4)
        hm = Heatmap(np.random.default_rng(1).random((4, 4)), normalized=True)
        out = overlay(img, hm, alpha=0.0)
        gray = np.rint(img.pixels.astype(np.float64).mean(axis=2)).astype(np.uint8)
        for c in range(3):
            assert np.array_equal(out[:, :, c], gray)

    def test_alpha_one_gives_pure_colormap(self):
        img = self.rgb_image(3, 5)
        vals = np.random.default_rng(2).random((3, 5))
        out = overlay(img, Heatmap(vals, normalized=True), alpha=1.0)
        want = np.rint(colormap(vals) * 255.0).astype(np.uint8)
        assert np.array_equal(out, want)

    def test_blend_matches_convex_combination_oracle(self):
        # the oracle is the reference formula; the overlay must equal it bit for bit
        rng = np.random.default_rng(3)
        for h, w, channels in [(4, 4, 3), (256, 256, 3), (9, 7, 1)]:
            img = RetinalImage(pixels=rng.integers(0, 256, (h, w, channels), dtype=np.uint8))
            vals = rng.random((h, w))
            gray = img.pixels.astype(np.float64).mean(axis=2) / 255.0
            base = np.repeat(gray[:, :, None], 3, axis=2)
            for alpha in (0.0, 0.3, 0.4, 0.5, 1.0):
                out = overlay(img, Heatmap(vals, normalized=True), alpha)
                want = np.rint(((1 - alpha) * base + alpha * colormap(vals)) * 255.0)
                assert np.array_equal(out, want.astype(np.uint8))

    def test_unnormalized_rejected(self):
        img = self.rgb_image(2, 2)
        with pytest.raises(ValueError, match="normalized"):
            overlay(img, Heatmap(np.zeros((2, 2))), 0.5)

    def test_size_mismatch_rejected(self):
        img = self.rgb_image(2, 2)
        with pytest.raises(ValueError):
            overlay(img, Heatmap(np.zeros((3, 3)), normalized=True), 0.5)

    def test_bad_alpha_rejected(self):
        img = self.rgb_image(2, 2)
        with pytest.raises(ValueError, match="alpha"):
            overlay(img, Heatmap(np.zeros((2, 2)), normalized=True), 1.5)


def test_heatmap_requires_2d():
    with pytest.raises(ValueError):
        Heatmap(np.zeros(4))


def test_heatmap_to_text_round_trip():
    vals = np.array([[0.125, 0.5], [0.75, 1.0]])
    text = heatmap_to_text(Heatmap(vals))
    parsed = np.array([[float(v) for v in line.split()] for line in text.splitlines()])
    assert np.allclose(parsed, vals, atol=1e-6)
