import gc
import json
import math
import pathlib
import weakref

import pytest

from retinapipe import autodiff, training
from retinapipe.autodiff import SgdConfig, backward, lstm_cell_np
from retinapipe.data import generate_synthetic_dataset, split_dataset
from retinapipe.errors import DataError
from retinapipe.imageio import load_image
from retinapipe.textgen import _beam_search, build_vocabulary
from retinapipe.training import (
    Pipeline, TrainConfig, build_caption_vocabularies, caption_target, evaluate_pipeline,
    load_train_config, lr_schedule, train_captioner,
    train_classifier,
)


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

    def test_holds_one_image_at_a_time(self, tiny_dataset, trained, tmp_path, monkeypatch):
        """Each image is released before the next is loaded, so at every load and
        when the joint search starts at most one image is alive."""
        enc, dec, vocab, kw_vocab = trained
        loaded, alive = [], []

        def count_alive():
            gc.collect()
            alive.append(sum(ref() is not None for ref in loaded))

        def tracked_load(path):
            count_alive()
            image = load_image(path)
            loaded.append(weakref.ref(image))
            return image

        def checked_search(*args):
            count_alive()
            return _beam_search(*args)

        monkeypatch.setattr(training, "load_image", tracked_load)
        monkeypatch.setattr(training, "_beam_search", checked_search)
        evaluate_pipeline(tiny_dataset, enc, dec, vocab, kw_vocab, k_list=(1,),
                          heatmap_dir=tmp_path / "assets")
        assert len(loaded) == len(tiny_dataset.by_split("test")) > 1
        assert len(alive) == len(loaded) + 1 and max(alive) <= 1


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
