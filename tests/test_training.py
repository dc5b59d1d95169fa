import dataclasses
import gc
import itertools
import json
import math
import pathlib
import weakref

import numpy as np
import pytest

from retinapipe import autodiff, training
from retinapipe.autodiff import (
    SgdConfig, Tape, Tensor, backward, lstm_cell_np, sgd_step, softmax_cross_entropy, zero_grads,
)
from retinapipe.cli import main
from retinapipe.data import DatasetManifest, generate_synthetic_dataset, save_manifest, split_dataset
from retinapipe.encoder import EncoderConfig, VisionEncoder
from retinapipe.errors import DataError, NonFiniteError
from retinapipe.imageio import RetinalImage, load_image
from retinapipe.rng import Xoshiro256
from retinapipe.textgen import END, START, DecoderParams, _beam_search, build_vocabulary, caption_loss
from retinapipe.training import (
    Pipeline, TrainConfig, build_caption_vocabularies, caption_target, evaluate_pipeline,
    load_train_config, lr_schedule, train_captioner,
    train_classifier,
)

from oracles import infer_one_at_a_time


class TestLrSchedule:
    def test_step_decay_values(self):
        cfg = SgdConfig(learning_rate=0.1, decay_factor=5.0, decay_period_epochs=50)
        assert lr_schedule(0, cfg) == 0.1
        assert lr_schedule(49, cfg) == 0.1
        assert lr_schedule(50, cfg) == pytest.approx(0.02)
        assert lr_schedule(100, cfg) == pytest.approx(0.004)

    def test_non_increasing_over_long_horizon(self):
        cfg = SgdConfig(learning_rate=0.1, decay_factor=5.0, decay_period_epochs=50)
        rates = [lr_schedule(e, cfg) for e in range(500)]
        assert all(b <= a for a, b in zip(rates, rates[1:]))
        assert all(r > 0 for r in rates)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            lr_schedule(-1, SgdConfig())


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)

    def test_save_load_round_trip(self, tmp_path):
        cfg = TrainConfig(epochs=7, batch_size=4, seed=3,
                          sgd=SgdConfig(learning_rate=0.05, decay_factor=2.0,
                                        decay_period_epochs=10),
                          keyword_mode=False, decoder_hidden=12,
                          encoder_stages=((4, 3, 1, 2),), image_size=16)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({  # the sgd fields sit at the top level
            "version": 1, "epochs": 7, "batch_size": 4, "seed": 3,
            "learning_rate": 0.05, "decay_factor": 2.0, "decay_period_epochs": 10,
            "keyword_mode": False, "decoder_hidden": 12, "max_caption_len": 30,
            "image_size": 16, "encoder_stages": [[4, 3, 1, 2]], "input_channels": 3,
        }))
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
                sgd=SgdConfig(learning_rate=0.1, decay_factor=2.0,
                              decay_period_epochs=30),
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
        # conv, relu and maxpool per stage, then GAP, linear and cross-entropy
        assert tape_sizes == [3 * len(SMALL_STAGES) + 3] * math.ceil(n_train / 4)

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
    dec = DecoderParams.init(Xoshiro256(3), 6, 4, 5)
    rng = np.random.default_rng(3)
    feats = [rng.uniform(-1, 1, (3, 4)) for _ in range(3)]
    targets = [[START, 4, 5, END], [START, END], [START, 3, END]]
    return dec.parameters(), lambda step: caption_loss(Tensor(feats[step]), targets, dec)


class TestArena:
    """_fit's tapes take the arrays the ops keep for backward from one arena."""

    @pytest.mark.parametrize("steps", [encoder_steps, captioner_steps])
    def test_steps_are_bit_identical_with_and_without_an_arena(self, steps):
        seen = {}
        for arena in (None, autodiff.Arena()):
            params, loss_of = steps()
            seen[arena is None] = out = []
            for step in range(3):
                if arena is not None:
                    arena.recycle()
                zero_grads(params)
                with Tape(arena) as tape:
                    loss = loss_of(step)
                backward(tape, loss)
                out += [loss.data.tobytes()] + [p.grad.tobytes() for p in params]
                sgd_step(params, 0.5)
        assert seen[True] == seen[False]

    def test_fit_takes_no_fresh_buffer_after_the_first_batch(self, tiny_dataset, monkeypatch):
        arenas = []

        class CountingArena(autodiff.Arena):
            def __init__(self):
                super().__init__()
                self.misses_per_batch = []
                arenas.append(self)

            def recycle(self):
                self.misses_per_batch.append(self.misses)
                super().recycle()

        monkeypatch.setattr(autodiff, "Arena", CountingArena)
        train_classifier(tiny_dataset, small_cfg(epochs=2, batch_size=4))
        [arena] = arenas
        n_batches = 2 * math.ceil(len(tiny_dataset.by_split("train")) / 4)
        assert len(tiny_dataset.by_split("train")) % 4  # a short last batch in each epoch
        counts = arena.misses_per_batch[1:] + [arena.misses]  # after batches 1, 2, ...
        # padded input, columns and output of the conv, relu's output and mask,
        # maxpool's output: one buffer each per stage, all taken by the first batch
        assert counts == [6 * len(SMALL_STAGES)] * n_batches


def fit_one_parameter(loss_at, grad_at, validate=lambda: (0.0, 1.0)):
    """_fit for 2 epochs over 6 records in batches of 2 with one parameter w; the
    i-th batch (counted over both epochs) has loss loss_at(i) and gives w the
    gradient grad_at(i). Returns w."""
    w = Tensor(np.zeros(1), name="w")
    calls = []

    def batch_loss(batch):
        i = len(calls)
        calls.append(i)
        out = Tensor(loss_at(i))
        autodiff._emit((out,), lambda gs: w.accumulate(np.full(1, grad_at(i))))
        return out

    training._fit([w], list(range(6)), small_cfg(epochs=2, batch_size=2), 2, batch_loss, validate)
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
        def validate():
            raise NonFiniteError("the decoder scores of record 0 are not finite")

        with pytest.raises(NonFiniteError, match="^training diverged at epoch 0, validation: "):
            fit_one_parameter(lambda i: 1.0, lambda i: 1.0, validate)

    def test_finite_run_is_unchanged(self):
        w = fit_one_parameter(lambda i: 1.0, lambda i: 1.0)
        assert w.data[0] == -0.6  # six steps of lr 0.1, all epochs tie so the last is kept


class TestVocabularies:
    def test_built_from_train_only(self, tiny_dataset):
        vocab, kw_vocab = build_caption_vocabularies(tiny_dataset)
        train_ids = {r.id for r in tiny_dataset.by_split("train")}
        assert set(vocab.source_ids) <= train_ids
        assert set(kw_vocab.source_ids) <= train_ids

    def test_leakage_guard_trips(self, tiny_dataset):
        vocab, kw_vocab = build_caption_vocabularies(tiny_dataset)
        poisoned = build_vocabulary([["word"]], source_ids=["not-a-train-id"])
        enc_ckpt, _ = train_classifier(tiny_dataset, small_cfg(epochs=1))
        with pytest.raises(ValueError, match="leakage"):
            train_captioner(tiny_dataset, small_cfg(epochs=1), enc_ckpt,
                            poisoned, kw_vocab)

    def test_caption_target_brackets(self, tiny_dataset):
        vocab, _ = build_caption_vocabularies(tiny_dataset)
        target = caption_target(vocab, tiny_dataset.records[0].description)
        assert target[0] == 1 and target[-1] == 2  # START ... END


@pytest.fixture(scope="module")
def encoder_ckpt(tiny_dataset):
    ckpt, _ = train_classifier(tiny_dataset, small_cfg(epochs=5))
    return ckpt


class TestTrainCaptioner:
    def test_memorizes_small_corpus(self, tiny_dataset, encoder_ckpt):
        vocab, kw_vocab = build_caption_vocabularies(tiny_dataset)
        cfg = small_cfg(epochs=150, batch_size=4,
                        sgd=SgdConfig(learning_rate=1.0, decay_factor=2.0,
                                      decay_period_epochs=150))
        _, curve = train_captioner(tiny_dataset, cfg, encoder_ckpt, vocab, kw_vocab)
        assert min(tl for tl, _, _ in curve.entries) < 0.05

    def test_deterministic_same_seed(self, tiny_dataset, encoder_ckpt):
        vocab, kw_vocab = build_caption_vocabularies(tiny_dataset)
        a, ca = train_captioner(tiny_dataset, small_cfg(epochs=3), encoder_ckpt,
                                vocab, kw_vocab)
        b, cb = train_captioner(tiny_dataset, small_cfg(epochs=3), encoder_ckpt,
                                vocab, kw_vocab)
        assert a == b
        assert ca.entries == cb.entries

    def test_keyword_mode_recorded_in_checkpoint(self, tiny_dataset, encoder_ckpt):
        vocab, kw_vocab = build_caption_vocabularies(tiny_dataset)
        on, _ = train_captioner(tiny_dataset, small_cfg(epochs=1), encoder_ckpt,
                                vocab, kw_vocab)
        off, _ = train_captioner(tiny_dataset, small_cfg(epochs=1, keyword_mode=False),
                                 encoder_ckpt, vocab, kw_vocab)
        assert on["decoder.keyword_mode"][0] == 1.0
        assert off["decoder.keyword_mode"][0] == 0.0


@pytest.fixture(scope="module")
def trained(tiny_dataset):
    enc_ckpt, _ = train_classifier(tiny_dataset, small_cfg(epochs=10))
    vocab, kw_vocab = build_caption_vocabularies(tiny_dataset)
    dec_ckpt, _ = train_captioner(
        tiny_dataset, small_cfg(epochs=60, batch_size=4,
                                sgd=SgdConfig(learning_rate=1.0, decay_factor=2.0,
                                              decay_period_epochs=60)),
        enc_ckpt, vocab, kw_vocab)
    return enc_ckpt, dec_ckpt, vocab, kw_vocab


class TestEvaluatePipeline:
    def test_reports_all_test_records(self, tiny_dataset, trained):
        enc, dec, vocab, kw_vocab = trained
        report, results = evaluate_pipeline(tiny_dataset, enc, dec, vocab, kw_vocab,
                                            k_list=(1, 3))
        assert len(results) == len(tiny_dataset.by_split("test"))
        assert set(report.prec_at) == {1, 3}
        assert report.prec_at[3] == 1.0  # only 3 classes
        assert all(0.0 <= s <= 1.0 for s in report.bleu)

    def test_writes_heatmaps(self, tiny_dataset, trained, tmp_path):
        enc, dec, vocab, kw_vocab = trained
        _, results = evaluate_pipeline(tiny_dataset, enc, dec, vocab, kw_vocab,
                                       k_list=(1,), heatmap_dir=tmp_path / "cams")
        for res in results:
            assert res.cam_path is not None
            assert (tmp_path / "cams" / f"{res.record.id}_cam.png").exists()

    def test_k_larger_than_classes_rejected(self, tiny_dataset, trained):
        enc, dec, vocab, kw_vocab = trained
        with pytest.raises(ValueError):
            evaluate_pipeline(tiny_dataset, enc, dec, vocab, kw_vocab, k_list=(99,))

    @pytest.mark.parametrize("keyword_mode", [None, False])
    @pytest.mark.parametrize("beam_width, max_len", [(1, 30), (3, 30), (3, 4)])
    def test_split_equals_one_case_at_a_time(self, tiny_dataset, trained, tmp_path,
                                             keyword_mode, beam_width, max_len):
        """The joint search over the split gives every case what a batch of one
        gives it: the caption, the ranking and the CAM PNG's bytes."""
        enc, dec, vocab, kw_vocab = trained
        _, results = evaluate_pipeline(
            tiny_dataset, enc, dec, vocab, kw_vocab, beam_width=beam_width, k_list=(1, 3),
            max_caption_len=max_len, keyword_mode=keyword_mode, heatmap_dir=tmp_path / "all")
        pipe = Pipeline(enc, dec, vocab, kw_vocab, keyword_mode, tiny_dataset.class_list)
        test = tiny_dataset.by_split("test")
        assert [res.record for res in results] == test and len(test) > 1
        for res in results:
            r = res.record
            [one] = pipe.infer([(r.id, load_image(tiny_dataset.image_file(r)), r.keywords)],
                               beam_width, max_len, assets_dir=tmp_path / r.id)
            assert res.caption_words == one.caption_words
            assert res.predictions == [(pipe.class_names[c], p) for c, p in one.ranked]
            for got, want in ((res.cam_path, one.cam_path), (res.image_path, one.image_path)):
                assert (tmp_path / "all" / pathlib.Path(got).name).read_bytes() == \
                    (tmp_path / r.id / pathlib.Path(want).name).read_bytes()

    def test_one_search_for_the_split(self, tiny_dataset, trained, monkeypatch):
        enc, dec, vocab, kw_vocab = trained
        searches, cells = [], []

        def counting_search(feats, *args):
            searches.append(len(feats))
            return _beam_search(feats, *args)

        def counting_cell(*args):
            cells.append(args)
            return lstm_cell_np(*args)

        monkeypatch.setattr(training, "_beam_search", counting_search)
        monkeypatch.setattr(autodiff, "lstm_cell_np", counting_cell)
        evaluate_pipeline(tiny_dataset, enc, dec, vocab, kw_vocab, k_list=(1,),
                          max_caption_len=12)
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
                yield str(i), RetinalImage(np.zeros((side, side), dtype=np.uint8)), []

        order = []
        for chunk in training._chunks(cases(), min_weight):
            sizes.append(len(chunk))
            order += [case_id for case_id, _, _ in chunk]
            weights = [max(image.height * image.width, min_weight) for _, image, _ in chunk]
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
            return ((r.id, load_image(manifest.image_file(r)), r.keywords) for r in test)

        got = pipe.infer(cases(), 3, 30, assets_dir=tmp_path / "a" / "assets")
        want = infer_one_at_a_time(pipe, cases(), 3, 30, assets_dir=tmp_path / "b" / "assets")
        assert len(got) == n_test and got == want
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

        def tracked_load(path):
            at_loads.append(self.alive_weights(loaded))
            image = load_image(path)
            loaded.append((weakref.ref(image), max(image.height * image.width, 32 * 32)))
            return image

        def checked_search(*args):
            at_loads.append(self.alive_weights(loaded))
            return _beam_search(*args)

        def checked_forward(encoder, batch):
            at_encodes.append(self.alive_weights(loaded))
            return forward(encoder, batch)

        forward = VisionEncoder.forward
        monkeypatch.setattr(training, "load_image", tracked_load)
        monkeypatch.setattr(training, "_beam_search", checked_search)
        monkeypatch.setattr(VisionEncoder, "forward", checked_forward)
        evaluate_pipeline(manifest, *trained, k_list=(1,), heatmap_dir=tmp_path / "assets")
        assert len(loaded) == len(records) == 19
        assert len(at_loads) == len(loaded) + 1 and at_loads[-1] == []
        assert all(sum(alive) <= budget for alive in at_loads)
        assert max(map(len, at_loads)) > 1  # chunks do hold several images
        assert all(sum(alive) - max(alive) <= budget for alive in at_encodes)
        assert [100 * 100] in at_encodes  # a heavy image is encoded alone
        assert len(at_encodes) < len(loaded) / 2

    def test_budget_below_one_image_holds_one_at_a_time(self, image_pool, trained, tmp_path,
                                                        monkeypatch):
        root, pool = image_pool
        manifest = with_test_split(root, pool["mixed"], 9)
        loaded, at_loads = [], []

        def tracked_load(path):
            at_loads.append(len(self.alive_weights(loaded)))
            image = load_image(path)
            loaded.append((weakref.ref(image), 0))
            return image

        def checked_forward(encoder, batch):
            at_loads.append(len(self.alive_weights(loaded)))
            assert len(batch) == 1
            return forward(encoder, batch)

        forward = VisionEncoder.forward
        monkeypatch.setattr(training, "_CHUNK_PIXELS", 32 * 32 - 1)
        monkeypatch.setattr(training, "load_image", tracked_load)
        monkeypatch.setattr(VisionEncoder, "forward", checked_forward)
        evaluate_pipeline(manifest, *trained, k_list=(1,), heatmap_dir=tmp_path / "assets")
        assert len(loaded) == 9 and max(at_loads) == 1


def test_keyword_ablation_separates_on_keyword_dependent_captions(tmp_path):
    """With captions that depend on keyword-carried information the keyword-on
    run should reach a higher validation BLEU than keyword-off."""
    m = generate_synthetic_dataset(tmp_path, n_classes=3, n_records=36, seed=22)
    split_dataset(m, (0.6, 0.2, 0.2), seed=2)
    enc_ckpt, _ = train_classifier(m, small_cfg(epochs=10, seed=22))
    vocab, kw_vocab = build_caption_vocabularies(m)
    cfg_on = small_cfg(epochs=150, batch_size=4, seed=22,
                       sgd=SgdConfig(learning_rate=1.0, decay_factor=2.0,
                                     decay_period_epochs=150))
    cfg_off = small_cfg(epochs=150, batch_size=4, seed=22, keyword_mode=False,
                        sgd=SgdConfig(learning_rate=1.0, decay_factor=2.0,
                                      decay_period_epochs=150))
    _, curve_on = train_captioner(m, cfg_on, enc_ckpt, vocab, kw_vocab)
    _, curve_off = train_captioner(m, cfg_off, enc_ckpt, vocab, kw_vocab)
    best_on = max(vm for _, _, vm in curve_on.entries)
    best_off = max(vm for _, _, vm in curve_off.entries)
    assert best_on > best_off
