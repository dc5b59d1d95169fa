import numpy as np
import pytest

from retinapipe.cam import (
    colormap, compute_cam, heatmap_to_text, normalize_cams, overlay, upsample_bilinear,
)
from retinapipe.encoder import EncoderConfig, VisionEncoder
from retinapipe.imageio import resize_bilinear
from retinapipe.rng import Xoshiro256

from oracles import overlay_one


class TestComputeCam:
    def test_single_unit_weight_selects_one_map(self):
        fmaps = np.arange(2 * 3 * 3, dtype=np.float64).reshape(2, 3, 3)
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(compute_cam(fmaps, w, 0), fmaps[0])
        assert np.array_equal(compute_cam(fmaps, w, 1), fmaps[1])

    def test_zero_weights_give_zero_map(self):
        fmaps = np.random.default_rng(0).random((4, 5, 5))
        cam = compute_cam(fmaps, np.zeros((3, 4)), 2)
        assert np.all(cam == 0.0)

    def test_matches_weighted_sum_oracle(self):
        rng = np.random.default_rng(1)
        fmaps = rng.random((6, 4, 4))
        w = rng.standard_normal((3, 6))
        for c in range(3):
            want = sum(w[c, k] * fmaps[k] for k in range(6))
            assert np.allclose(compute_cam(fmaps, w, c), want, atol=1e-12)

    def test_linear_in_weights(self):
        rng = np.random.default_rng(2)
        fmaps = rng.random((3, 4, 4))
        wa = rng.standard_normal((2, 3))
        wb = rng.standard_normal((2, 3))
        lhs = compute_cam(fmaps, wa + wb, 0)
        rhs = compute_cam(fmaps, wa, 0) + compute_cam(fmaps, wb, 0)
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
        out = enc.forward(enc.preprocess(px)[None])
        w = enc.classifier_weights
        b = enc.to_checkpoint().params["encoder.fc.bias"]
        for c in range(5):
            cam = compute_cam(out.feature_maps.data[0], w, c)
            assert abs(cam.mean() + b[c] - float(out.logits.data[0, c])) < 1e-10


class TestNormalize:
    def test_unit_range(self):
        maps = normalize_cams(np.array([[[1.0, 5.0], [3.0, 2.0]], [[-4.0, 0.0], [9.0, 1.0]]]))
        assert maps.min(axis=(1, 2)).tolist() == [0.0, 0.0]
        assert maps.max(axis=(1, 2)).tolist() == [1.0, 1.0]

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        v = rng.random((2, 5, 5))
        a = normalize_cams(v)
        b = normalize_cams(3.0 * v - 7.0)
        assert np.allclose(a, b, atol=1e-12)

    def test_constant_map_becomes_half(self):
        maps = normalize_cams(np.stack([np.full((3, 3), 42.0), np.eye(3)]))
        assert np.all(maps[0] == 0.5)
        assert np.array_equal(maps[1], np.eye(3))  # its neighbour is scaled on its own

    def test_idempotent(self):
        h = normalize_cams(np.array([[[0.0, 2.0]]]))
        again = normalize_cams(h)
        assert np.allclose(again, h, atol=1e-12)

    def test_each_map_as_it_would_alone(self):
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((4, 3, 6)) * np.array([1.0, 1e-3, 1e3, 0.0])[:, None, None]
        for one, got in zip(stack, normalize_cams(stack)):
            assert np.array_equal(normalize_cams(one[None])[0], got)


class TestUpsample:
    def test_preserves_extremes_of_normalized(self):
        h = normalize_cams(np.array([[[0.0, 4.0], [1.0, 3.0]]]))
        up = upsample_bilinear(h, 8, 8)[0]
        assert up.min() >= 0.0 and up.max() <= 1.0
        assert up[0, 0] == 0.0
        assert up[0, -1] == 1.0

    def test_downscale_gives_target_shape(self):
        h = normalize_cams(np.arange(16.0).reshape(1, 4, 4))
        down = upsample_bilinear(h, 2, 8)
        assert down.shape == (1, 2, 8)
        assert down[0, 0, 0] == 0.0 and down[0, -1, -1] == 1.0

    def test_overlay_on_image_smaller_than_cam(self):
        pixels = np.array([[[[10], [200]]]], dtype=np.uint8).reshape(1, 2, 1, 1)  # 2 x 1, below 4 x 4
        out = overlay(pixels, np.arange(16.0).reshape(1, 4, 4), 0.5)
        assert out.shape == (1, 2, 1, 3) and out.dtype == np.uint8

    def test_constant_stays_constant(self):
        up = upsample_bilinear(np.full((1, 2, 2), 0.3), 9, 5)
        assert np.allclose(up, 0.3, atol=1e-12)

    @pytest.mark.parametrize("out_h, out_w", [(9, 5), (2, 8), (4, 6), (1, 1)])
    def test_each_map_as_it_would_alone(self, out_h, out_w):
        stack = np.random.default_rng(6).random((3, 4, 6))
        got = upsample_bilinear(stack, out_h, out_w)
        for one, want in zip(stack, got):
            assert np.array_equal(resize_bilinear(one, out_h, out_w), want)


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
        return rng.integers(0, 256, (h, w, 3), dtype=np.uint8)

    def unit_cam(self, h, w, seed):
        """A raw CAM whose range is already [0, 1], so normalizing leaves it as is."""
        vals = np.random.default_rng(seed).random((h, w))
        vals.flat[0], vals.flat[-1] = 0.0, 1.0
        return vals

    def test_alpha_zero_gives_grayscale_image(self):
        px = self.rgb_image(4, 4)
        out = overlay(px[None], self.unit_cam(4, 4, 1)[None], alpha=0.0)[0]
        gray = np.rint(px.astype(np.float64).mean(axis=2)).astype(np.uint8)
        for c in range(3):
            assert np.array_equal(out[:, :, c], gray)

    def test_alpha_one_gives_pure_colormap(self):
        px = self.rgb_image(3, 5)
        vals = self.unit_cam(3, 5, 2)
        out = overlay(px[None], vals[None], alpha=1.0)[0]
        want = np.rint(colormap(vals) * 255.0).astype(np.uint8)
        assert np.array_equal(out, want)

    def test_blend_matches_convex_combination_oracle(self):
        # the oracle is the reference formula; the overlay must equal it bit for bit
        rng = np.random.default_rng(3)
        for h, w, channels in [(4, 4, 3), (256, 256, 3), (9, 7, 1)]:
            px = rng.integers(0, 256, (h, w, channels), dtype=np.uint8)
            vals = self.unit_cam(h, w, h)
            gray = px.astype(np.float64).mean(axis=2) / 255.0
            base = np.repeat(gray[:, :, None], 3, axis=2)
            for alpha in (0.0, 0.3, 0.4, 0.5, 1.0):
                out = overlay(px[None], vals[None], alpha)[0]
                want = np.rint(((1 - alpha) * base + alpha * colormap(vals)) * 255.0)
                assert np.array_equal(out, want.astype(np.uint8))

    @pytest.mark.parametrize("n, h, w, channels, cam_side", [
        (1, 32, 32, 3, 4), (5, 32, 32, 1, 4), (3, 9, 7, 3, 4), (4, 2, 1, 1, 4),
        (2, 48, 20, 3, 6), (8, 4, 4, 3, 4),
    ])
    def test_stack_equals_one_image_at_a_time(self, n, h, w, channels, cam_side):
        rng = np.random.default_rng(n * h + w)
        pixels = rng.integers(0, 256, (n, h, w, channels), dtype=np.uint8)
        cams = rng.standard_normal((n, cam_side, cam_side))
        cams[-1] = 2.5  # a constant map
        for alpha in (0.0, 0.4, 0.5, 1.0):
            got = overlay(pixels, cams, alpha)
            assert got.shape == (n, h, w, 3) and got.dtype == np.uint8
            for one, raw, want in zip(pixels, cams, got):
                assert np.array_equal(overlay_one(one, raw, alpha), want)

    def test_raw_cams_are_normalized_per_map(self):
        """overlay takes raw CAMs: a map, its double and its half give the same
        overlay, because each map is normalized on its own."""
        px = np.stack([self.rgb_image(6, 6, 7)] * 3)
        cam = np.random.default_rng(8).random((3, 3)) - 0.5
        out = overlay(px, np.stack([cam, 2.0 * cam, 0.5 * cam]), 0.5)
        assert np.array_equal(out[0], out[1]) and np.array_equal(out[0], out[2])

    def test_size_mismatch_rejected(self):
        px = self.rgb_image(2, 2)
        with pytest.raises(ValueError, match="N x h x w CAMs"):
            overlay(np.stack([px, px]), np.zeros((3, 2, 2)), 0.5)
        with pytest.raises(ValueError, match="N x H x W x C images"):
            overlay(px, np.zeros((1, 2, 2)), 0.5)

    def test_bad_alpha_rejected(self):
        px = self.rgb_image(2, 2)
        with pytest.raises(ValueError, match="alpha"):
            overlay(px[None], np.zeros((1, 2, 2)), 1.5)


def test_heatmap_to_text_round_trip():
    vals = np.array([[0.125, 0.5], [0.75, 1.0]])
    text = heatmap_to_text(vals)
    parsed = np.array([[float(v) for v in line.split()] for line in text.splitlines()])
    assert np.allclose(parsed, vals, atol=1e-6)
