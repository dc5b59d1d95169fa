import dataclasses
import gc
import itertools
import json
import math
import pathlib
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from retinapipe import autodiff, encoder, training
from retinapipe.autodiff import (
    Tape, Tensor, backward, lstm_cell_np, sgd_step, softmax_cross_entropy, zero_grads,
)
from retinapipe.cli import main
from retinapipe.data import DatasetManifest, generate_synthetic_dataset, save_manifest, split_dataset
from retinapipe.encoder import DEFAULT_STAGES, EncoderConfig, VisionEncoder
from retinapipe.errors import DataError, NonFiniteError
from retinapipe.imageio import encode_png, load_image, read_image
from retinapipe.rng import Xoshiro256
from retinapipe.textgen import (
    END, START, DecoderParams, _beam_search, build_vocabulary, caption_loss, detokenize,
    tokenize,
)
from retinapipe.training import (
    Pipeline, TrainConfig, caption_target, evaluate_pipeline, load_train_config, lr_schedule,
    train_captioner, train_classifier,
)

from oracles import infer_one_at_a_time


class TestLrSchedule:
    def test_step_decay_values(self):
        cfg = TrainConfig(learning_rate=0.1, decay_factor=5.0, decay_period_epochs=50)
        assert lr_schedule(0, cfg) == 0.1
        assert lr_schedule(49, cfg) == 0.1
        assert lr_schedule(50, cfg) == pytest.approx(0.02)
        assert lr_schedule(100, cfg) == pytest.approx(0.004)

    def test_non_increasing_over_long_horizon(self):
        cfg = TrainConfig(learning_rate=0.1, decay_factor=5.0, decay_period_epochs=50)
        rates = [lr_schedule(e, cfg) for e in range(500)]
        assert all(b <= a for a, b in zip(rates, rates[1:]))
        assert all(r > 0 for r in rates)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            lr_schedule(-1, TrainConfig())


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
                TrainConfig(seed=seed)

    def test_save_load_round_trip(self, tmp_path):
        cfg = TrainConfig(epochs=7, batch_size=4, seed=3,
                          learning_rate=0.05, decay_factor=2.0, decay_period_epochs=10,
                          keyword_mode=False, decoder_hidden=12,
                          encoder_stages=((4, 3, 1, 2),), image_size=16)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "version": 1, "epochs": 7, "batch_size": 4, "seed": 3,
            "learning_rate": 0.05, "decay_factor": 2.0, "decay_period_epochs": 10,
            "keyword_mode": False, "decoder_hidden": 12, "max_caption_len": 30,
            "image_size": 16, "encoder_stages": [[4, 3, 1, 2]], "input_channels": 3,
        }))
        assert load_train_config(path) == cfg

    @settings(derandomize=True, database=None, max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cfg=st.builds(
        TrainConfig, epochs=st.integers(1, 10**9), batch_size=st.integers(1, 10**9),
        seed=st.integers(0, 2**64 - 1),
        learning_rate=st.floats(0.0, exclude_min=True, allow_infinity=False),
        decay_factor=st.floats(0.0, exclude_min=True, allow_infinity=False),
        decay_period_epochs=st.integers(1, 10**9), keyword_mode=st.booleans(),
        decoder_hidden=st.integers(1, 10**9), max_caption_len=st.integers(1, 10**9),
        image_size=st.integers(1, 1024),
        encoder_stages=st.lists(st.tuples(*[st.integers(1, 64)] * 4), max_size=4).map(tuple),
        input_channels=st.integers(1, 4)))
    def test_written_config_reads_back(self, cfg, tmp_path):
        """The config file of a TrainConfig is {"version": 1, **asdict(cfg)}."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"version": 1, **dataclasses.asdict(cfg)}))
        assert load_train_config(path) == cfg

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"version": 99}')
        with pytest.raises(DataError, match="version"):
            load_train_config(path)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("tinyset")
    m = generate_synthetic_dataset(root, n_classes=3, n_records=30, seed=11)
    return split_dataset(m, (0.6, 0.2, 0.2), seed=1)


SMALL_STAGES = ((4, 3, 1, 2), (8, 3, 1, 2))


def small_cfg(**overrides):
    base = dict(epochs=40, batch_size=4, seed=5,
                learning_rate=0.1, decay_factor=2.0, decay_period_epochs=30,
                encoder_stages=SMALL_STAGES, decoder_hidden=24)
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainClassifier:
    def test_learns_train_split(self, tiny_dataset):
        ckpt, curve = train_classifier(tiny_dataset, small_cfg())
        assert len(curve.entries) == 40
        # loss should move: final train loss well below the initial one
        assert curve.entries[-1][0] < 0.5 * curve.entries[0][0]
        # and validation accuracy should reach perfect separation on this
        # deliberately easy class-coded dataset
        assert max(vm for _, _, vm in curve.entries) == 1.0

    def test_deterministic_same_seed(self, tiny_dataset):
        a, ca = train_classifier(tiny_dataset, small_cfg(epochs=3))
        b, cb = train_classifier(tiny_dataset, small_cfg(epochs=3))
        assert a == b
        assert ca.entries == cb.entries

    def test_warm_start_from_checkpoint(self, tiny_dataset):
        ckpt, _ = train_classifier(tiny_dataset, small_cfg(epochs=2))
        ckpt2, curve = train_classifier(tiny_dataset, small_cfg(epochs=2),
                                        init_checkpoint=ckpt)
        assert len(curve.entries) == 2

    def test_one_taped_op_per_layer_per_batch(self, tiny_dataset, monkeypatch):
        tape_sizes = []

        def counting_backward(tape, loss):
            tape_sizes.append(len(tape))
            return backward(tape, loss)

        monkeypatch.setattr(training, "backward", counting_backward)
        train_classifier(tiny_dataset, small_cfg(epochs=1, batch_size=4))
        n_train = len(tiny_dataset.by_split("train"))
        # conv and maxpool per stage, then GAP, linear and cross-entropy
        assert tape_sizes == [2 * len(SMALL_STAGES) + 3] * math.ceil(n_train / 4)

    def test_empty_split_rejected(self, tmp_path):
        m = generate_synthetic_dataset(tmp_path, n_classes=2, n_records=4, seed=0,
                                       image_side=16)
        with pytest.raises(ValueError, match="split"):
            train_classifier(m, small_cfg(epochs=1))

    def test_curve_csv_shape(self, tiny_dataset):
        _, curve = train_classifier(tiny_dataset, small_cfg(epochs=2))
        lines = curve.to_csv().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,val_metric"
        assert len(lines) == 3


def encoder_steps():
    """An encoder's parameters and the classifier loss of each of 3 batches, the
    last one short."""
    enc = VisionEncoder.init(EncoderConfig(num_classes=3, image_size=16, stages=SMALL_STAGES),
                             Xoshiro256(7))
    rng = np.random.default_rng(7)
    batches = [rng.uniform(0, 1, (n, 3, 16, 16)) for n in (4, 4, 3)]
    labels = [rng.integers(0, 3, len(b)) for b in batches]
    return enc.parameters(), \
        lambda step: softmax_cross_entropy(enc.forward(batches[step]).logits, labels[step])


def captioner_steps():
    """A decoder's parameters and the caption loss of each of 3 batches."""
    dec = DecoderParams.init(Xoshiro256(3), 6, 4, 5, 4, False)
    rng = np.random.default_rng(3)
    feats = [rng.uniform(-1, 1, (3, 4)) for _ in range(3)]
    targets = [[START, 4, 5, END], [START, END], [START, 3, END]]
    return dec.parameters(), lambda step: caption_loss(Tensor(feats[step]), targets, dec)


class TestArena:
    """_fit's one tape hands the arrays the ops keep for backward out again
    after each reset."""

    @pytest.mark.parametrize("steps", [encoder_steps, captioner_steps])
    def test_steps_are_bit_identical_with_and_without_an_arena(self, steps):
        """Steps on one reset tape match steps on a fresh tape each."""
        seen = {}
        for reuse in (False, True):
            params, loss_of = steps()
            seen[reuse] = out = []
            tape = Tape()
            for step in range(3):
                if not reuse:
                    tape = Tape()
                zero_grads(params)
                with tape:
                    loss = loss_of(step)
                backward(tape, loss)
                out += [loss.data.tobytes()] + [p.grad.tobytes() for p in params]
                sgd_step(params, 0.5)
                tape.reset()
        assert seen[True] == seen[False]

    def test_fit_takes_no_fresh_buffer_after_the_first_batch(self, tiny_dataset, monkeypatch):
        tapes = []

        class CountingTape(Tape):
            def __init__(self):
                super().__init__()
                self.misses_per_batch = []
                tapes.append(self)

            def reset(self):
                self.misses_per_batch.append(self.misses)
                super().reset()

        monkeypatch.setattr(training, "Tape", CountingTape)
        train_classifier(tiny_dataset, small_cfg(epochs=2, batch_size=4))
        [tape] = tapes
        n_batches = 2 * math.ceil(len(tiny_dataset.by_split("train")) / 4)
        assert len(tiny_dataset.by_split("train")) % 4  # a short last batch in each epoch
        # the conv's columns and output, maxpool's output: one buffer each per
        # stage, all taken by the first batch
        assert tape.misses_per_batch == [3 * len(SMALL_STAGES)] * n_batches


def watch_validation(monkeypatch, on_validation, on_metric=lambda: None):
    """Patch training._fit so that on_validation() runs just before each epoch's
    first val batch and on_metric() just before the val metric."""
    real_fit = training._fit

    def fit(params, train, val, cfg, stream, batch_loss, val_metric):
        def watched_loss(batch):
            if not autodiff._STACK.tapes and batch[0] is val[0]:
                on_validation()
            return batch_loss(batch)

        def watched_metric(outputs):
            on_metric()
            return val_metric(outputs)

        return real_fit(params, train, val, cfg, stream, watched_loss, watched_metric)

    monkeypatch.setattr(training, "_fit", fit)


class TestStepLifetime:
    """A training step's records, loss and recorded tensors are freed before validation."""

    def test_no_step_tensor_is_alive_when_validation_starts(self, tiny_dataset, monkeypatch):
        step_refs, tapes, checks = [], [], []

        class RecordingTape(Tape):
            def __init__(self):
                super().__init__()
                tapes.append(self)

            def __exit__(self, *exc):
                # the data of every tensor its ops recorded (the loss too)
                step_refs[:] = [weakref.ref(out.data) for outs, _ in self._records for out in outs]
                return super().__exit__(*exc)

        def on_validation():
            checks.append([len(tapes[0]) == 0] + [ref() is None for ref in step_refs])

        monkeypatch.setattr(training, "Tape", RecordingTape)
        watch_validation(monkeypatch, on_validation)
        train_classifier(tiny_dataset, small_cfg(epochs=2, batch_size=4))
        assert len(tapes) == 1
        assert len(checks) == 2 and all(len(dead) == 2 * len(SMALL_STAGES) + 4 for dead in checks)
        assert all(all(dead) for dead in checks)

    def test_validation_stays_below_the_training_peak(self, tiny_dataset, monkeypatch):
        """Under tracemalloc, no validation pass of the classifier's _fit (default
        stages, 32 px) reaches the peak its training steps reached: the val
        batches hold no tape and stream their convs through one column buffer."""
        peaks = []  # (training steps, validation) per epoch

        def on_validation():
            peaks.append([tracemalloc.get_traced_memory()[1]])
            tracemalloc.reset_peak()

        def on_metric():
            peaks[-1].append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()

        watch_validation(monkeypatch, on_validation, on_metric)
        tracemalloc.start()
        try:
            train_classifier(tiny_dataset, small_cfg(epochs=2, batch_size=4,
                                                     encoder_stages=DEFAULT_STAGES))
        finally:
            tracemalloc.stop()
        assert len(peaks) == 2 and all(val < steps for steps, val in peaks)


def fit_one_parameter(loss_at, grad_at, val_metric=lambda outputs: 1.0):
    """_fit for 2 epochs over 6 records in batches of 2 with one parameter w and
    one val record; the i-th training batch (counted over both epochs) has loss
    loss_at(i) and gives w the gradient grad_at(i). Returns w."""
    w = Tensor(np.zeros(1), name="w")
    calls = []

    def batch_loss(batch):
        if batch == ["val"]:
            return Tensor(np.zeros(())), None
        i = len(calls)
        calls.append(i)
        out = Tensor(loss_at(i))
        autodiff._emit((out,), lambda gs: w.accumulate(np.full(1, grad_at(i))))
        return out, None

    training._fit([w], list(range(6)), ["val"], small_cfg(epochs=2, batch_size=2), 2,
                  batch_loss, val_metric)
    return w


class TestDivergence:
    """A diverging run stops with NonFiniteError (exit 3) naming where it stopped."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_loss_names_epoch_and_batch(self, bad):
        with pytest.raises(NonFiniteError, match=r"^training diverged at epoch 1, batch 1: "
                                                 r"the batch loss is (nan|inf)$"):
            fit_one_parameter(lambda i: bad if i == 4 else 1.0, lambda i: 1.0)

    def test_non_finite_gradient_names_the_parameter(self):
        with pytest.raises(NonFiniteError, match=r"^training diverged at epoch 0, batch 2: "
                                                 r"the gradient of w is not finite$"):
            fit_one_parameter(lambda i: 1.0, lambda i: -np.inf if i == 2 else 1.0)

    def test_validation_error_names_the_epoch(self):
        def val_metric(outputs):
            raise NonFiniteError("the decoder scores of record 0 are not finite")

        with pytest.raises(NonFiniteError, match="^training diverged at epoch 0, validation: "):
            fit_one_parameter(lambda i: 1.0, lambda i: 1.0, val_metric)

    def test_finite_run_is_unchanged(self):
        w = fit_one_parameter(lambda i: 1.0, lambda i: 1.0)
        assert w.data[0] == -0.6  # six steps of lr 0.1, all epochs tie so the last is kept


class TestVocabularies:
    def test_built_from_train_only(self, tiny_dataset, encoder_ckpt):
        """A word or keyword found only in val or test records is in neither vocabulary."""
        records = [dataclasses.replace(r) for r in tiny_dataset.records]
        for r in records:
            if r.split != "train":
                r.description += f" heldout{r.split}"
                r.keywords = [*r.keywords, f"heldout {r.split}"]
        manifest = DatasetManifest(records, tiny_dataset.root)
        _, _, vocab, kw_vocab = train_captioner(manifest, small_cfg(epochs=1), encoder_ckpt)
        for split in ("val", "test"):
            assert f"heldout{split}" not in vocab and f"heldout {split}" not in kw_vocab
        train = manifest.by_split("train")
        assert all(tok in vocab for r in train for tok in tokenize(r.description))
        assert all(kw in kw_vocab for r in train for kw in r.keywords)

    def test_caption_target_brackets(self, tiny_dataset):
        vocab = build_vocabulary([tokenize(r.description) for r in tiny_dataset.by_split("train")])
        target = caption_target(vocab, tiny_dataset.records[0].description)
        assert target[0] == 1 and target[-1] == 2  # START ... END


@pytest.fixture(scope="module")
def encoder_ckpt(tiny_dataset):
    ckpt, _ = train_classifier(tiny_dataset, small_cfg(epochs=5))
    return ckpt


class TestTrainCaptioner:
    def test_memorizes_small_corpus(self, tiny_dataset, encoder_ckpt):
        cfg = small_cfg(epochs=150, batch_size=4,
                        learning_rate=1.0, decay_factor=2.0, decay_period_epochs=150)
        _, curve, _, _ = train_captioner(tiny_dataset, cfg, encoder_ckpt)
        assert min(tl for tl, _, _ in curve.entries) < 0.05

    def test_deterministic_same_seed(self, tiny_dataset, encoder_ckpt):
        a, ca, *vocabs_a = train_captioner(tiny_dataset, small_cfg(epochs=3), encoder_ckpt)
        b, cb, *vocabs_b = train_captioner(tiny_dataset, small_cfg(epochs=3), encoder_ckpt)
        assert a == b
        assert ca.entries == cb.entries
        assert [list(map(v.token, range(v.size))) for v in vocabs_a] == \
            [list(map(v.token, range(v.size))) for v in vocabs_b]

    def test_keyword_mode_recorded_in_checkpoint(self, tiny_dataset, encoder_ckpt):
        on, *_ = train_captioner(tiny_dataset, small_cfg(epochs=1), encoder_ckpt)
        off, *_ = train_captioner(tiny_dataset, small_cfg(epochs=1, keyword_mode=False),
                                  encoder_ckpt)
        assert on.params["decoder.keyword_mode"][0] == 1.0
        assert off.params["decoder.keyword_mode"][0] == 0.0

    def test_one_greedy_search_per_validation(self, tiny_dataset, encoder_ckpt, monkeypatch):
        searched = []
        real_greedy = training.decode_greedy

        def counting_greedy(feats, params, max_len):
            searched.append(len(feats))
            return real_greedy(feats, params, max_len)

        monkeypatch.setattr(training, "decode_greedy", counting_greedy)
        n_val = len(tiny_dataset.by_split("val"))
        assert n_val > 4  # more than one val batch
        train_captioner(tiny_dataset, small_cfg(epochs=2, batch_size=4), encoder_ckpt)
        assert searched == [n_val, n_val]

    @pytest.mark.parametrize("keyword_mode, taped_ops", [(True, 3), (False, 1)])
    def test_frozen_features_get_no_gradient(self, keyword_mode, taped_ops, tiny_dataset,
                                             encoder_ckpt, monkeypatch):
        """A batch tapes the keyword projection (linear), average and the sequence
        loss, or the loss alone; the encoder features it starts from never hold
        a gradient."""
        features, tape_sizes = [], []
        real_loss, real_backward = training.caption_loss, training.backward

        def loss_recording_features(fused, targets, params):
            features.append(fused)
            return real_loss(fused, targets, params)

        def counting_backward(tape, loss):
            tape_sizes.append(len(tape))
            return real_backward(tape, loss)

        if keyword_mode:
            real_average = autodiff.average
            monkeypatch.setattr(autodiff, "average",
                                lambda a, b: features.append(a) or real_average(a, b))
        else:
            monkeypatch.setattr(training, "caption_loss", loss_recording_features)
        monkeypatch.setattr(training, "backward", counting_backward)
        train_captioner(tiny_dataset, small_cfg(epochs=1, keyword_mode=keyword_mode),
                        encoder_ckpt)
        n_train = len(tiny_dataset.by_split("train"))
        assert tape_sizes == [taped_ops] * math.ceil(n_train / 4)
        assert features and all(not f.needs_grad and f.grad is None for f in features)


@pytest.fixture(scope="module")
def trained(tiny_dataset):
    enc_ckpt, _ = train_classifier(tiny_dataset, small_cfg(epochs=10))
    dec_ckpt, _, vocab, kw_vocab = train_captioner(
        tiny_dataset, small_cfg(epochs=60, batch_size=4,
                                learning_rate=1.0, decay_factor=2.0, decay_period_epochs=60),
        enc_ckpt)
    return enc_ckpt, dec_ckpt, vocab, kw_vocab


class TestEvaluatePipeline:
    def test_reports_all_test_records(self, tiny_dataset, trained, tmp_path):
        pipe = Pipeline(*trained, None, tiny_dataset.class_list)
        report, results = evaluate_pipeline(tiny_dataset, pipe, 3, (1, 3), 30, tmp_path)
        assert len(results) == len(tiny_dataset.by_split("test"))
        assert set(report.prec_at) == {1, 3}
        assert report.prec_at[3] == 1.0  # only 3 classes
        assert all(0.0 <= s <= 1.0 for s in report.bleu)

    def test_writes_heatmaps(self, tiny_dataset, trained, tmp_path):
        pipe = Pipeline(*trained, None, tiny_dataset.class_list)
        _, results = evaluate_pipeline(tiny_dataset, pipe, 3, (1,), 30, tmp_path / "cams")
        for res in results:
            assert res.cam_path == f"cams/{res.case_id}_cam.png"
            assert (tmp_path / "cams" / f"{res.case_id}_cam.png").exists()

    def test_k_larger_than_classes_rejected(self, tiny_dataset, trained, tmp_path):
        pipe = Pipeline(*trained, None, tiny_dataset.class_list)
        with pytest.raises(ValueError):
            evaluate_pipeline(tiny_dataset, pipe, 3, (99,), 30, tmp_path)

    @pytest.mark.parametrize("keyword_mode", [None, False])
    @pytest.mark.parametrize("beam_width, max_len", [(1, 30), (3, 30), (3, 4)])
    def test_split_equals_one_case_at_a_time(self, tiny_dataset, trained, tmp_path,
                                             keyword_mode, beam_width, max_len):
        """The joint search over the split gives every case what a batch of one
        gives it: the caption, the ranking and the CAM PNG's bytes."""
        pipe = Pipeline(*trained, keyword_mode, tiny_dataset.class_list)
        _, results = evaluate_pipeline(tiny_dataset, pipe, beam_width, (1, 3), max_len,
                                       tmp_path / "all")
        test = tiny_dataset.by_split("test")
        assert [res.case_id for res in results] == [r.id for r in test] and len(test) > 1
        for r, res in zip(test, results):
            [one] = pipe.infer([(r, *read_image(tiny_dataset.image_file(r)))], 3, beam_width,
                               max_len, tmp_path / r.id)
            assert res.caption == one.caption
            assert res.description == detokenize(one.caption)
            assert res.predictions == one.predictions and len(one.predictions) == 3
            for got, want in ((res.cam_path, one.cam_path), (res.image_path, one.image_path)):
                assert (tmp_path / "all" / pathlib.Path(got).name).read_bytes() == \
                    (tmp_path / r.id / pathlib.Path(want).name).read_bytes()

    def test_one_search_for_the_split(self, tiny_dataset, trained, monkeypatch, tmp_path):
        searches, cells = [], []

        def counting_search(feats, *args):
            searches.append(len(feats))
            return _beam_search(feats, *args)

        def counting_cell(*args):
            cells.append(args)
            return lstm_cell_np(*args)

        monkeypatch.setattr(training, "_beam_search", counting_search)
        monkeypatch.setattr(autodiff, "lstm_cell_np", counting_cell)
        evaluate_pipeline(tiny_dataset, Pipeline(*trained, None, tiny_dataset.class_list), 3,
                          (1,), 12, tmp_path)
        assert searches == [len(tiny_dataset.by_split("test"))]
        assert 0 < len(cells) <= 12 + 2


SIDES = (32, 48, 20)  # the 20 px images weigh as much as 32 px ones: the encoder's input


@pytest.fixture(scope="module")
def image_pool(tmp_path_factory):
    """Records under one root: 17 of 32 px images, 17 that interleave gray and RGB
    images of sides 32, 48 and 20, and 2 of 100 px, each heavier than a chunk."""
    root = tmp_path_factory.mktemp("imagepool")
    by_side = {}
    for side, n in zip((*SIDES, 100), (17, 6, 6, 3)):
        made = generate_synthetic_dataset(root / f"s{side}", n_classes=3, n_records=n, seed=4,
                                          image_side=side)
        by_side[side] = [dataclasses.replace(r, id=f"s{side}_{r.id}",
                                             image_path=f"s{side}/{r.image_path}")
                         for r in made.records]
    mixed = [r for group in itertools.zip_longest(*(by_side[s] for s in SIDES))
             for r in group if r is not None][:17]
    return root, {"uniform": by_side[32], "mixed": mixed, "heavy": by_side[100][:2]}


def with_test_split(root, records, n_test: int) -> DatasetManifest:
    """The records with the first n_test in the test split and the rest in val."""
    return DatasetManifest(records=[dataclasses.replace(r, split="test" if i < n_test else "val")
                                    for i, r in enumerate(records)], root=str(root))


class TestChunkedInference:
    @pytest.mark.parametrize("min_weight, sides, want", [
        (1024, [32] * 17, [8, 8, 1]),
        (1024, [20] * 9, [8, 1]),  # smaller than the encoder's input: weighs 32^2
        (1024, [48] * 7, [3, 3, 1]),  # 3 x 48^2 leaves room for a 32 px case, not a 48 px one
        (1024, [32, 100, 32, 32, 100, 100, 32], [1, 1, 2, 1, 1, 1]),  # 100^2 is over the budget
        (1024, [32] * 3 + [48] * 3 + [32] * 3, [5, 4]),
        (4096, [32] * 5, [2, 2, 1]),
    ])
    def test_chunks_by_weight(self, min_weight, sides, want):
        pulled, sizes = [], []

        def cases():
            for i, side in enumerate(sides):
                pulled.append(i)
                yield str(i), np.zeros((side, side, 1), dtype=np.uint8), []

        order = []
        for chunk in training._chunks(cases(), min_weight):
            sizes.append(len(chunk))
            order += [case_id for case_id, _, _ in chunk]
            weights = [max(image.shape[0] * image.shape[1], min_weight) for _, image, _ in chunk]
            assert sum(weights) <= training._CHUNK_PIXELS or len(chunk) == 1
            # a case is read ahead only when it might have fit
            ahead = len(pulled) - len(order)
            assert ahead in (0, 1)
            if ahead:
                assert sum(weights) + min_weight <= training._CHUNK_PIXELS
        assert sizes == want and order == [str(i) for i in range(len(sides))]

    @pytest.mark.parametrize("keyword_mode", [None, False])
    @pytest.mark.parametrize("kind", ["uniform", "mixed"])
    @pytest.mark.parametrize("n_test", [1, 7, 8, 9, 17])
    def test_infer_equals_one_case_at_a_time(self, image_pool, trained, tmp_path, kind, n_test,
                                             keyword_mode):
        """Captions, full rankings and every PNG's bytes match inference with each
        case encoded and explained as a batch of one."""
        root, pool = image_pool
        manifest = with_test_split(root, pool[kind], n_test)
        pipe = Pipeline(*trained, keyword_mode, manifest.class_list)
        test = manifest.by_split("test")

        def cases():
            return ((r, *read_image(manifest.image_file(r))) for r in test)

        got = pipe.infer(cases(), 3, 3, 30, tmp_path / "a" / "assets")
        want = infer_one_at_a_time(pipe, cases(), 3, 3, 30, tmp_path / "b" / "assets")
        assert len(got) == n_test and got == want
        assert all(len(med.predictions) == pipe.num_classes == 3 for med in got)
        files = [sorted((tmp_path / side / "assets").iterdir()) for side in "ab"]
        assert [p.name for p in files[0]] == [p.name for p in files[1]]
        assert len(files[0]) == 2 * n_test
        for a, b in zip(*files):
            assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("kind", ["uniform", "mixed"])
    @pytest.mark.parametrize("n_test", [1, 7, 8, 9, 17])
    def test_evaluate_bundle_equals_one_case_at_a_time(self, image_pool, trained, tmp_path,
                                                       monkeypatch, capsys, kind, n_test):
        """`evaluate` writes the same metrics.json, report.html, assets and heatmaps,
        and prints the same, as with each case encoded and explained alone."""
        root, pool = image_pool
        manifest = root / f"manifest_{kind}_{n_test}.json"  # image paths are relative to root
        save_manifest(with_test_split(root, pool[kind], n_test), manifest)
        models = []
        for name, item in zip(("encoder.ckpt", "decoder.ckpt", "vocab.txt", "kw_vocab.txt"),
                              trained):
            item.save(tmp_path / name)
            models += [f"--{name.split('.')[0].replace('_', '-')}", str(tmp_path / name)]
        argv = ["evaluate", "--manifest", str(manifest), *models, "--topk", "1,3"]
        bundles = {}
        for side in ("chunked", "oracle"):
            if side == "oracle":
                monkeypatch.setattr(Pipeline, "infer", infer_one_at_a_time)
            assert main([*argv, "--out", str(tmp_path / side)]) == 0
            files = sorted(p for p in (tmp_path / side).rglob("*") if p.is_file())
            bundles[side] = ({str(p.relative_to(tmp_path / side)): p.read_bytes() for p in files},
                             capsys.readouterr())
        assert len(bundles["chunked"][0]) == 3 * n_test + 2
        assert bundles["chunked"] == bundles["oracle"]

    def alive_weights(self, loaded):
        gc.collect()
        return [weight for ref, weight in loaded if ref() is not None]

    def test_images_alive_stay_within_one_chunk(self, image_pool, trained, tmp_path,
                                                monkeypatch):
        """At every load and when the search starts, the images alive weigh at most
        the budget; while a chunk is encoded, at most one more image (the one read
        ahead) is alive beside it."""
        root, pool = image_pool
        records = pool["mixed"][:9] + pool["heavy"][:1] + pool["mixed"][9:] + pool["heavy"][1:]
        manifest = with_test_split(root, records, len(records))
        loaded, at_loads, at_encodes = [], [], []
        budget = training._CHUNK_PIXELS

        def tracked_read(path):
            at_loads.append(self.alive_weights(loaded))
            image, source = read_image(path)
            loaded.append((weakref.ref(image), max(image.shape[0] * image.shape[1], 32 * 32)))
            return image, source

        def checked_search(*args):
            at_loads.append(self.alive_weights(loaded))
            return _beam_search(*args)

        def checked_forward(encoder, batch):
            at_encodes.append(self.alive_weights(loaded))
            return forward(encoder, batch)

        forward = VisionEncoder.forward
        monkeypatch.setattr(training, "read_image", tracked_read)
        monkeypatch.setattr(training, "_beam_search", checked_search)
        monkeypatch.setattr(VisionEncoder, "forward", checked_forward)
        evaluate_pipeline(manifest, Pipeline(*trained, None, manifest.class_list), 3, (1,), 30,
                          tmp_path / "assets")
        assert len(loaded) == len(records) == 19
        assert len(at_loads) == len(loaded) + 1 and at_loads[-1] == []
        assert all(sum(alive) <= budget for alive in at_loads)
        assert max(map(len, at_loads)) > 1  # chunks do hold several images
        assert all(sum(alive) - max(alive) <= budget for alive in at_encodes)
        assert [100 * 100] in at_encodes  # a heavy image is encoded alone
        assert len(at_encodes) < len(loaded) / 2

    def test_sources_are_written_and_dropped_before_the_overlays(self, image_pool, trained,
                                                                 tmp_path, monkeypatch):
        """By the time a chunk's CAM overlays are computed, each case read so far has
        its `<id>.png` on disk and nothing holds its source PNG's bytes."""
        root, pool = image_pool
        manifest = with_test_split(root, pool["uniform"], 17)  # chunks of 8, 8 and 1
        assets, read, freed, overlays = tmp_path / "assets", [], [], []

        class Source(bytes):
            def __del__(self):
                freed.append(len(self))

        def read_png_source(path):
            image = load_image(path)
            read.append(path)
            return image, Source(encode_png(image))

        def checked_overlay(*args):
            images = [p for p in assets.iterdir() if not p.name.endswith("_cam.png")]
            overlays.append((len(read), len(images), len(freed)))
            return overlay(*args)

        overlay = encoder.overlay
        monkeypatch.setattr(training, "read_image", read_png_source)
        monkeypatch.setattr(encoder, "overlay", checked_overlay)
        evaluate_pipeline(manifest, Pipeline(*trained, None, manifest.class_list), 3, (1,), 30,
                          assets)
        assert {n for n, _, _ in overlays} == {8, 16, 17}
        assert all(n == images == dropped for n, images, dropped in overlays)

    def test_budget_below_one_image_holds_one_at_a_time(self, image_pool, trained, tmp_path,
                                                        monkeypatch):
        root, pool = image_pool
        manifest = with_test_split(root, pool["mixed"], 9)
        loaded, at_loads = [], []

        def tracked_read(path):
            at_loads.append(len(self.alive_weights(loaded)))
            image, source = read_image(path)
            loaded.append((weakref.ref(image), 0))
            return image, source

        def checked_forward(encoder, batch):
            at_loads.append(len(self.alive_weights(loaded)))
            assert len(batch) == 1
            return forward(encoder, batch)

        forward = VisionEncoder.forward
        monkeypatch.setattr(training, "_CHUNK_PIXELS", 32 * 32 - 1)
        monkeypatch.setattr(training, "read_image", tracked_read)
        monkeypatch.setattr(VisionEncoder, "forward", checked_forward)
        evaluate_pipeline(manifest, Pipeline(*trained, None, manifest.class_list), 3, (1,), 30,
                          tmp_path / "assets")
        assert len(loaded) == 9 and max(at_loads) == 1


def test_keyword_ablation_separates_on_keyword_dependent_captions(tmp_path):
    """With captions that depend on keyword-carried information the keyword-on
    run should reach a higher validation BLEU than keyword-off."""
    m = generate_synthetic_dataset(tmp_path, n_classes=3, n_records=36, seed=22)
    split_dataset(m, (0.6, 0.2, 0.2), seed=2)
    enc_ckpt, _ = train_classifier(m, small_cfg(epochs=10, seed=22))
    cfg_on = small_cfg(epochs=150, batch_size=4, seed=22,
                       learning_rate=1.0, decay_factor=2.0, decay_period_epochs=150)
    cfg_off = small_cfg(epochs=150, batch_size=4, seed=22, keyword_mode=False,
                        learning_rate=1.0, decay_factor=2.0, decay_period_epochs=150)
    _, curve_on, _, _ = train_captioner(m, cfg_on, enc_ckpt)
    _, curve_off, _, _ = train_captioner(m, cfg_off, enc_ckpt)
    best_on = max(vm for _, _, vm in curve_on.entries)
    best_off = max(vm for _, _, vm in curve_off.entries)
    assert best_on > best_off
