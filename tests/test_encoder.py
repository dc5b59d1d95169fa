import numpy as np
import pytest

from retinapipe import autodiff as ad
from retinapipe.autodiff import ShapeError, Tape, backward, softmax_cross_entropy
from retinapipe.checkpoint import ModelCheckpoint
from retinapipe.encoder import EncoderConfig, VisionEncoder, predict_topk
from retinapipe.errors import DataError, NonFiniteError
from retinapipe.imageio import RetinalImage
from retinapipe.rng import Xoshiro256


def small_encoder(seed=0, num_classes=4, image_size=16):
    cfg = EncoderConfig(num_classes=num_classes, image_size=image_size,
                        stages=((4, 3, 1, 2), (8, 3, 1, 2)))
    return VisionEncoder.init(cfg, Xoshiro256(seed))


class TestConfig:
    def test_rejects_collapsing_spatial_size(self):
        with pytest.raises(ValueError, match="spatial"):
            EncoderConfig(num_classes=2, image_size=8,
                          stages=((4, 3, 1, 2),) * 4)

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            EncoderConfig(num_classes=1)

    @pytest.mark.parametrize("values", [
        [2, 3, 32],  # fewer than the 4 header values
        [2, 3, 32, 1, 8, 3, 1],  # one stage declared, 3 of its 4 values present
        [2, 3, 32, 2, 8, 3, 1, 2],  # two stages declared, one present
        [2, 3, 32, 1, 8, 3, 0, 2],  # stride 0
        [2, 3, 32, 1, 8, 3, 1, np.nan],
    ])
    def test_from_array_rejects_malformed_values(self, values):
        with pytest.raises(DataError, match="encoder.config"):
            EncoderConfig.from_array(np.array(values, dtype=np.float64))

    def test_image_size_is_bounded(self):
        # from_array and from_checkpoint only read the config, so this
        # allocates nothing at any image size
        cfg = EncoderConfig(num_classes=2, stages=((4, 3, 1, 2),))
        ckpt = VisionEncoder.init(cfg, Xoshiro256(0)).to_checkpoint()
        ckpt.params["encoder.config"][2] = 10**9
        with pytest.raises(DataError, match="image_size"):
            EncoderConfig.from_array(ckpt.params["encoder.config"])
        with pytest.raises(DataError, match="image_size"):
            VisionEncoder.from_checkpoint(ckpt)

    def test_array_round_trip(self):
        cfg = EncoderConfig(num_classes=7, input_channels=1, image_size=24,
                            stages=((4, 3, 1, 2), (8, 5, 2, 2)))
        back = EncoderConfig.from_array(cfg.to_array())
        assert back == cfg


class TestForward:
    def test_zero_image_logits_equal_bias(self):
        # conv of zeros is the (zero-initialized) bias; relu/pool/GAP keep
        # everything at zero, so the head must output exactly its bias
        enc = small_encoder(seed=1)
        enc._params["encoder.fc.bias"].data[:] = [0.5, -1.0, 2.0, 0.0]
        out = enc.forward(np.zeros((1, 3, 16, 16)))
        assert np.array_equal(out.logits.data, [[0.5, -1.0, 2.0, 0.0]])

    def test_pooled_equals_naive_spatial_mean(self):
        enc = small_encoder(seed=2)
        rng = np.random.default_rng(0)
        out = enc.forward(rng.random((3, 16, 16))[None])
        fmaps = out.feature_maps.data[0]
        want = np.array([fmaps[k].mean() for k in range(fmaps.shape[0])])
        assert np.allclose(out.pooled.data[0], want, atol=1e-12)

    def test_feature_maps_are_nonnegative(self):
        enc = small_encoder(seed=3)
        out = enc.forward(np.random.default_rng(1).random((3, 16, 16))[None])
        assert out.feature_maps.data.min() >= 0.0

    def test_wrong_input_shape_rejected(self):
        enc = small_encoder()
        with pytest.raises(ShapeError):
            enc.forward(np.zeros((1, 3, 8, 8)))

    def test_single_image_rejected(self):
        with pytest.raises(ShapeError):
            small_encoder().forward(np.zeros((3, 16, 16)))

    def test_batch_rows_equal_single_images(self):
        enc = small_encoder(seed=5)
        batch = np.random.default_rng(3).random((4, 3, 16, 16))
        out = enc.forward(batch)
        for n in range(4):
            alone = enc.forward(batch[n : n + 1])
            for got, want in ((out.feature_maps, alone.feature_maps), (out.pooled, alone.pooled),
                              (out.logits, alone.logits)):
                assert np.array_equal(got.data[n], want.data[0])

    def test_wrong_batch_shape_rejected(self):
        with pytest.raises(ShapeError):
            small_encoder().forward(np.zeros((2, 1, 16, 16)))

    def test_deterministic(self):
        nchw = np.random.default_rng(2).random((3, 16, 16))[None]
        a = small_encoder(seed=4).forward(nchw)
        b = small_encoder(seed=4).forward(nchw)
        assert np.array_equal(a.logits.data, b.logits.data)


    def test_untaped_calls_never_share_memory(self):
        enc, rng = small_encoder(), np.random.default_rng(5)
        first = enc.forward(rng.uniform(0, 1, (2, 3, 16, 16)))
        outputs = (first.feature_maps, first.pooled, first.logits)
        kept = [t.data.copy() for t in outputs]
        enc.forward(rng.uniform(0, 1, (2, 3, 16, 16)))
        assert all(np.array_equal(t.data, want) for t, want in zip(outputs, kept))

    def test_non_finite_activation_raises(self):
        enc = small_encoder()
        enc.parameters()[0].data[0, 0, 0, 0] = np.inf
        with pytest.raises(NonFiniteError, match="encoder stage 0"), np.errstate(invalid="ignore"):
            enc.forward(np.ones((1, 3, 16, 16)))


class TestClassifierStep:
    def test_input_batch_gets_no_gradient(self, monkeypatch):
        """The image batch is marked as needing no gradient: a classifier step
        scatters a gradient into every stage's input but the first."""
        inputs, scatters = [], []
        conv2d, col2im = ad.conv2d, ad._col2im_add
        monkeypatch.setattr(ad, "conv2d", lambda x, *a, **kw: inputs.append(x) or conv2d(x, *a, **kw))
        monkeypatch.setattr(ad, "_col2im_add", lambda *a: scatters.append(1) or col2im(*a))
        enc = small_encoder()
        batch = np.random.default_rng(0).uniform(0, 1, (3, 3, 16, 16))
        with Tape() as tape:
            loss = softmax_cross_entropy(enc.forward(batch).logits, [0, 2, 3])
        backward(tape, loss)
        stages = len(enc.config.stages)
        assert len(inputs) == stages and len(scatters) == stages - 1
        assert not inputs[0].needs_grad and inputs[0].grad is None
        assert all(x.grad is not None for x in inputs[1:])
        assert all(p.grad is not None for p in enc.parameters())


class TestPreprocess:
    def test_grayscale_replicated_to_three_channels(self):
        enc = small_encoder()
        gray = np.arange(256, dtype=np.uint8).reshape(16, 16)
        img = RetinalImage(pixels=gray[:, :, None])
        assert img.modality == "FA"
        chw = enc.preprocess(img)
        assert chw.shape == (3, 16, 16)
        assert np.array_equal(chw[0], chw[1])
        assert np.array_equal(chw[1], chw[2])

    def test_values_scaled_to_unit_interval(self):
        enc = small_encoder()
        px = np.full((16, 16, 3), 255, dtype=np.uint8)
        assert np.all(enc.preprocess(RetinalImage(pixels=px)) == 1.0)

    def test_resizes_larger_input(self):
        enc = small_encoder()
        px = np.zeros((64, 48, 3), dtype=np.uint8)
        assert enc.preprocess(RetinalImage(pixels=px)).shape == (3, 16, 16)


class TestCheckpointing:
    def test_round_trip_bit_identical_logits(self, tmp_path):
        # float32 narrowing happens on save; a second forward pass from the
        # reloaded weights must agree bit-for-bit with a fresh save/load
        enc = small_encoder(seed=5)
        path = tmp_path / "enc.ckpt"
        enc.to_checkpoint().save(path)
        r1 = VisionEncoder.from_checkpoint(ModelCheckpoint.load(path))
        r2 = VisionEncoder.from_checkpoint(ModelCheckpoint.load(path))
        nchw = np.random.default_rng(3).random((3, 16, 16))[None]
        a = r1.forward(nchw).logits.data
        b = r2.forward(nchw).logits.data
        assert np.array_equal(a, b)
        assert r1.config == enc.config

    def test_missing_parameter_rejected(self, tmp_path):
        enc = small_encoder(seed=6)
        ck = enc.to_checkpoint()
        broken = {k: v for k, v in ck.params.items() if k != "encoder.fc.weight"}
        with pytest.raises(DataError, match="encoder.fc.weight"):
            VisionEncoder.from_checkpoint(ModelCheckpoint(broken))

    def test_missing_config_rejected(self):
        with pytest.raises(DataError, match="config"):
            VisionEncoder.from_checkpoint(ModelCheckpoint({"w": np.zeros(2)}))

    def test_shape_mismatch_rejected(self):
        enc = small_encoder(seed=7)
        ck = enc.to_checkpoint()
        params = dict(ck.params)
        params["encoder.fc.bias"] = np.zeros(9)
        with pytest.raises(DataError, match="shape"):
            VisionEncoder.from_checkpoint(ModelCheckpoint(params))


class TestPredictTopk:
    def test_probabilities_sum_to_one(self):
        full = predict_topk(np.array([1.0, 3.0, 2.0]), 3)
        assert abs(sum(p for _, p in full) - 1.0) < 1e-12

    def test_ranking_order(self):
        top = predict_topk(np.array([1.0, 3.0, 2.0]), 2)
        assert [c for c, _ in top] == [1, 2]

    def test_tie_breaks_by_class_id(self):
        top = predict_topk(np.array([5.0, 7.0, 7.0, 5.0]), 4)
        assert [c for c, _ in top] == [1, 2, 0, 3]

    def test_shift_invariant(self):
        logits = np.array([0.5, -1.0, 2.0])
        a = predict_topk(logits, 3)
        b = predict_topk(logits + 1000.0, 3)
        for (ca, pa), (cb, pb) in zip(a, b):
            assert ca == cb
            assert abs(pa - pb) < 1e-12

    def test_extreme_logits_stay_finite(self):
        top = predict_topk(np.array([1e4, 0.0]), 2)
        assert top[0] == (0, 1.0)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            predict_topk(np.array([1.0, 2.0]), 3)

    def test_batch_of_logits_rejected(self):
        with pytest.raises(ShapeError):
            predict_topk(np.array([[1.0, 2.0]]), 1)
