import json
import pathlib

import numpy as np
import pytest

from retinapipe import training
from retinapipe.checkpoint import ModelCheckpoint
from retinapipe.cli import build_parser, main
from retinapipe.data import parse_manifest
from retinapipe.encoder import EncoderConfig, VisionEncoder
from retinapipe.rng import Xoshiro256
from retinapipe.textgen import Vocabulary, detokenize
from retinapipe.training import evaluate_pipeline


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliset")
    assert main(["synth-data", "--out", str(root), "--classes", "3",
                 "--records", "30", "--seed", "11"]) == 0
    assert main(["split", "--manifest", str(root / "manifest.json"),
                 "--seed", "1"]) == 0
    return root


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("cliout")
    assert main(["train-rdi", "--manifest", str(dataset / "manifest.json"),
                 "--out", str(out), "--epochs", "25", "--batch", "4",
                 "--lr", "0.1", "--decay-factor", "2", "--decay-period", "20",
                 "--seed", "5"]) == 0
    enc = out / "checkpoints" / "encoder.ckpt"
    assert main(["train-cdg", "--manifest", str(dataset / "manifest.json"),
                 "--encoder", str(enc), "--out", str(out),
                 "--epochs", "60", "--batch", "4", "--lr", "1.0",
                 "--decay-factor", "2", "--decay-period", "60",
                 "--seed", "5"]) == 0
    return out


@pytest.fixture(scope="module")
def trained_off(dataset, trained, tmp_path_factory):
    """A keyword-free decoder over the same encoder; its checkpoint dir."""
    out = tmp_path_factory.mktemp("clioff")
    assert main(["train-cdg", "--manifest", str(dataset / "manifest.json"),
                 "--encoder", str(trained / "checkpoints" / "encoder.ckpt"),
                 "--out", str(out), "--no-keywords",
                 "--epochs", "60", "--batch", "4", "--lr", "1.0",
                 "--decay-factor", "2", "--decay-period", "60",
                 "--seed", "5"]) == 0
    return out / "checkpoints"


def model_args(ckpts, **files):
    """--encoder/--decoder/--vocab/--kw-vocab from ckpts, with overrides."""
    paths = {"encoder": ckpts / "encoder.ckpt", "decoder": ckpts / "decoder.ckpt",
             "vocab": ckpts / "vocab.txt", "kw_vocab": ckpts / "kw_vocab.txt"}
    paths.update(files)
    return [arg for key, path in paths.items()
            for arg in (f"--{key.replace('_', '-')}", str(path))]


GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
COMMANDS = ("synth-data", "split", "stats", "train-rdi", "train-cdg", "evaluate", "explain",
            "report", "score")


class TestParserGolden:
    """The help texts and usage errors, byte for byte, as they were when every
    subcommand's flags were added on every call."""

    @pytest.mark.parametrize("name, argv", [
        ("help", ["--help"]),
        *((f"help_{command}", [command, "--help"]) for command in COMMANDS),
        ("no_command", []),
        ("unknown_command", ["bogus"]),
        ("missing_flag", ["evaluate", "--manifest", "m.json"]),
        ("unknown_flag", ["stats", "--manifest", "m.json", "--bogus"]),
        ("bad_choice", ["stats", "--manifest", "m.json", "--field", "x"]),
    ])
    def test_matches_golden_file(self, name, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        out, err = capsys.readouterr()
        got = f"exit {code}\n--- stdout\n{out}--- stderr\n{err}"
        assert got == (GOLDEN_DIR / f"cli_{name}.txt").read_text(encoding="utf-8")

    def test_only_the_invoked_subcommand_gets_flags(self):
        parser = build_parser("evaluate")
        [sub] = [a for a in parser._actions if a.dest == "command"]
        flags = {name: [a.dest for a in p._actions] for name, p in sub.choices.items()}
        assert set(flags) == set(COMMANDS)
        assert "manifest" in flags["evaluate"] and "kw_vocab" in flags["evaluate"]
        assert all(flags[name] == ["help"] for name in COMMANDS if name != "evaluate")


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["stats", "--manifest", "x.json", "--bogus"]) == 1
        capsys.readouterr()

    def test_missing_manifest_is_data_error(self, capsys):
        assert main(["stats", "--manifest", "/nonexistent/m.json"]) == 2
        capsys.readouterr()

    def test_corrupt_checkpoint_is_data_error(self, dataset, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"NOPE" + b"\x00" * 32)
        assert main(["explain", "--image",
                     str(dataset / "images" / "case0000.ppm"),
                     "--encoder", str(bad), "--out", str(tmp_path / "o.png")]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        capsys.readouterr()

    @pytest.mark.parametrize("command, flag", [
        ("explain", "--image"), ("explain", "--encoder"), ("report", "--vocab"),
        ("score", "--cand"),
    ])
    def test_missing_input_file_is_data_error(self, command, flag, dataset, trained, tmp_path,
                                              capsys):
        refs = tmp_path / "refs.txt"
        refs.write_text("a b\n")
        image = str(dataset / "images" / "case0000.ppm")
        argv = {
            "explain": ["explain", "--image", image,
                        "--encoder", str(trained / "checkpoints" / "encoder.ckpt"),
                        "--out", str(tmp_path / "o.png")],
            "report": ["report", "--image", image, *model_args(trained / "checkpoints"),
                       "--out", str(tmp_path / "rep")],
            "score": ["score", "--cand", str(refs), "--refs", str(refs)],
        }[command]
        missing = str(tmp_path / "missing" / "file")
        argv[argv.index(flag) + 1] = missing
        assert main(argv) == 2
        assert f"cannot open {missing}" in capsys.readouterr().err


class TestSplit:
    def test_in_place_and_deterministic(self, tmp_path):
        assert main(["synth-data", "--out", str(tmp_path / "d"),
                     "--classes", "2", "--records", "10", "--seed", "3"]) == 0
        manifest = tmp_path / "d" / "manifest.json"
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["split", "--manifest", str(manifest), "--seed", "7",
                     "--out", str(a)]) == 0
        assert main(["split", "--manifest", str(manifest), "--seed", "7",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        m = parse_manifest(a)
        assert len(m.by_split("train")) == 6
        assert len(m.by_split("val")) == 2
        assert len(m.by_split("test")) == 2

    def test_explicit_counts(self, tmp_path):
        assert main(["synth-data", "--out", str(tmp_path / "d"),
                     "--classes", "2", "--records", "10", "--seed", "3"]) == 0
        out = tmp_path / "c.json"
        assert main(["split", "--manifest", str(tmp_path / "d" / "manifest.json"),
                     "--counts", "8,1,1", "--seed", "0", "--out", str(out)]) == 0
        m = parse_manifest(out)
        assert len(m.by_split("train")) == 8

    def test_bad_ratio_count_is_usage_error(self, dataset, tmp_path, capsys):
        assert main(["split", "--manifest", str(dataset / "manifest.json"),
                     "--ratios", "0.5,0.5", "--out", str(tmp_path / "o.json")]) == 1
        capsys.readouterr()


def test_stats_prints_histogram(dataset, capsys):
    assert main(["stats", "--manifest", str(dataset / "manifest.json")]) == 0
    hist = json.loads(capsys.readouterr().out)
    assert sum(hist.values()) == 30


class TestTrainingArtifacts:
    def test_layout(self, trained):
        assert (trained / "checkpoints" / "encoder.ckpt").exists()
        assert (trained / "checkpoints" / "decoder.ckpt").exists()
        assert (trained / "checkpoints" / "vocab.txt").exists()
        assert (trained / "checkpoints" / "kw_vocab.txt").exists()
        assert (trained / "curves" / "rdi.csv").exists()
        assert (trained / "curves" / "cdg.csv").exists()

    def test_curve_csv_header(self, trained):
        first = (trained / "curves" / "rdi.csv").read_text().splitlines()[0]
        assert first == "epoch,train_loss,val_loss,val_metric"

    CONFIG = {
        "version": 1, "epochs": 2, "batch_size": 4, "seed": 5,
        "learning_rate": 0.1, "decay_factor": 2.0, "decay_period_epochs": 20,
        "keyword_mode": True, "decoder_hidden": 48, "max_caption_len": 30,
        "image_size": 32, "encoder_stages": [[8, 3, 1, 2], [16, 3, 1, 2], [32, 3, 1, 2]],
        "input_channels": 3,
    }

    def test_config_file_overrides_flags(self, dataset, trained, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self.CONFIG))
        out = tmp_path / "out"
        assert main(["train-rdi", "--manifest", str(dataset / "manifest.json"),
                     "--out", str(out), "--config", str(path),
                     "--epochs", "9999"]) == 0
        lines = (out / "curves" / "rdi.csv").read_text().splitlines()
        assert len(lines) == 3  # header + the config's 2 epochs, not 9999


    @pytest.mark.parametrize("edit, message", [
        (lambda c: c.pop("batch_size"), "missing key 'batch_size'"),
        (lambda c: c.update(epochs="2"), "key 'epochs' must be an integer"),
        (lambda c: c.update(epochs=1.5), "key 'epochs' must be an integer"),
        (lambda c: c.update(seed="x"), "key 'seed' must be an integer"),
        (lambda c: c.update(epoch=c.pop("epochs")), "unknown key 'epoch'"),
        (lambda c: c.update(keyword_mode=1), "key 'keyword_mode' must be true or false"),
        (lambda c: c.update(learning_rate=True), "key 'learning_rate' must be a finite number"),
        (lambda c: c.update(decay_factor=float("nan")), "key 'decay_factor' must be a finite"),
        (lambda c: c.update(encoder_stages=[[8, 3, 1]]), "key 'encoder_stages' must be a list"),
        (lambda c: c.update(decoder_hidden=0), "decoder_hidden must be >= 1"),
        (lambda c: c.update(decoder_hidden=-3), "decoder_hidden must be >= 1"),
        (lambda c: c.update(max_caption_len=0), "max_caption_len must be >= 1"),
        (lambda c: c.update(decay_factor=0), "decay_factor must be positive"),
    ])
    def test_bad_config_is_data_error(self, edit, message, dataset, tmp_path, capsys, monkeypatch):
        reads = []
        monkeypatch.setattr(training, "load_image", reads.append)
        cfg = json.loads(json.dumps(self.CONFIG))
        edit(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["train-rdi", "--manifest", str(dataset / "manifest.json"),
                     "--out", str(tmp_path / "out"), "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and message in err
        assert reads == []  # refused before any image is read

    def test_bad_flag_value_is_data_error(self, dataset, tmp_path, capsys):
        assert main(["train-rdi", "--manifest", str(dataset / "manifest.json"),
                     "--out", str(tmp_path / "out"), "--decay-factor", "0"]) == 2
        assert "decay_factor must be positive" in capsys.readouterr().err

    def test_config_must_be_an_object(self, dataset, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps([self.CONFIG]))
        assert main(["train-rdi", "--manifest", str(dataset / "manifest.json"),
                     "--out", str(tmp_path / "out"), "--config", str(path)]) == 2
        assert "must be a JSON object" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warnings
class TestDivergingTraining:
    """A learning rate that blows the weights up stops training with exit 3 and a
    message naming where, and writes no checkpoint."""

    def test_train_rdi(self, dataset, tmp_path, capsys):
        assert main(["train-rdi", "--manifest", str(dataset / "manifest.json"),
                     "--out", str(tmp_path), "--epochs", "2", "--batch", "4",
                     "--lr", "1e200", "--seed", "5"]) == 3
        err = capsys.readouterr().err
        assert "NonFiniteError: training diverged at epoch 0, batch 1: non-finite activation" in err
        assert not (tmp_path / "checkpoints" / "encoder.ckpt").exists()

    def test_train_cdg(self, dataset, trained, tmp_path, capsys):
        assert main(["train-cdg", "--manifest", str(dataset / "manifest.json"),
                     "--encoder", str(trained / "checkpoints" / "encoder.ckpt"),
                     "--out", str(tmp_path), "--epochs", "2", "--batch", "4",
                     "--lr", "1e200", "--seed", "5"]) == 3
        err = capsys.readouterr().err
        assert "NonFiniteError: training diverged at epoch 0, " in err
        assert not (tmp_path / "checkpoints" / "decoder.ckpt").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy's overflow in cast
def test_weights_beyond_float32_are_not_saved(dataset, tmp_path, capsys):
    """At this rate every float64 weight stays finite but some pass float32's
    range: the checkpoint would hold infinities that no command can load."""
    assert main(["train-rdi", "--manifest", str(dataset / "manifest.json"),
                 "--out", str(tmp_path), "--epochs", "3", "--batch", "4",
                 "--lr", "1e5"]) == 3
    err = capsys.readouterr().err
    assert "NonFiniteError: checkpoint entry encoder." in err and "beyond float32's range" in err
    assert not (tmp_path / "checkpoints" / "encoder.ckpt").exists()


class TestEvaluate:
    def test_writes_metrics_and_bundle(self, dataset, trained, tmp_path):
        out = tmp_path / "eval"
        assert main(["evaluate", "--manifest", str(dataset / "manifest.json"),
                     "--encoder", str(trained / "checkpoints" / "encoder.ckpt"),
                     "--decoder", str(trained / "checkpoints" / "decoder.ckpt"),
                     "--vocab", str(trained / "checkpoints" / "vocab.txt"),
                     "--kw-vocab", str(trained / "checkpoints" / "kw_vocab.txt"),
                     "--topk", "1,3", "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) >= {"bleu_avg", "rouge", "cider"}
        assert (out / "reports" / "report.html").exists()
        heatmaps = list((out / "heatmaps").glob("*_cam.png"))
        assert len(heatmaps) == 6  # 20% of 30 records


    def test_id_with_a_path_separator_is_data_error(self, dataset, trained, tmp_path, capsys):
        """Two ids x/b and y/b would both write assets/b.png; the manifest is refused
        before anything is written."""
        records = json.loads((dataset / "manifest.json").read_text())
        test = [r for r in records if r.get("split") == "test"]
        test[0]["id"], test[1]["id"] = "x/b", "y/b"
        for r in records:
            r["image_path"] = str(dataset / r["image_path"])
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(records))
        out = tmp_path / "eval"
        assert main(["evaluate", "--manifest", str(manifest),
                     *model_args(trained / "checkpoints"), "--topk", "1,3",
                     "--out", str(out)]) == 2
        assert "id 'x/b' holds a path separator" in capsys.readouterr().err
        assert not out.exists()


class TestExplain:
    def test_writes_overlay_and_raw_text(self, dataset, trained, tmp_path):
        out = tmp_path / "cam.png"
        raw = tmp_path / "cam.txt"
        assert main(["explain", "--image", str(dataset / "images" / "case0000.ppm"),
                     "--encoder", str(trained / "checkpoints" / "encoder.ckpt"),
                     "--raw-txt", str(raw), "--out", str(out)]) == 0
        assert out.exists()
        rows = raw.read_text().splitlines()
        assert all(len(row.split()) == len(rows[0].split()) for row in rows)


class TestReport:
    def run_report(self, dataset, trained, out):
        return main(["report", "--image", str(dataset / "images" / "case0001.pgm"),
                     "--keywords", "dot hemorrhages",
                     "--encoder", str(trained / "checkpoints" / "encoder.ckpt"),
                     "--decoder", str(trained / "checkpoints" / "decoder.ckpt"),
                     "--vocab", str(trained / "checkpoints" / "vocab.txt"),
                     "--kw-vocab", str(trained / "checkpoints" / "kw_vocab.txt"),
                     "--manifest", str(dataset / "manifest.json"),
                     "--topk", "3", "--out", str(out)])

    def test_bundle_and_text_output(self, dataset, trained, tmp_path, capsys):
        out = tmp_path / "rep"
        assert self.run_report(dataset, trained, out) == 0
        text = capsys.readouterr().out
        assert text.startswith("Case: case0001")
        assert "Prediction:" in text
        assert (out / "report.html").exists()
        assert (out / "assets" / "case0001.png").exists()
        assert (out / "assets" / "case0001_cam.png").exists()

    def test_image_smaller_than_cam_grid(self, trained, tmp_path, capsys):
        image = tmp_path / "tiny.pgm"
        image.write_bytes(b"P5\n2 1\n255\n" + bytes([40, 220]))  # 2 x 1, below the 4 x 4 CAM
        out = tmp_path / "rep"
        assert main(["report", "--image", str(image), *model_args(trained / "checkpoints"),
                     "--out", str(out)]) == 0
        assert (out / "assets" / "tiny_cam.png").exists()

    def test_rerun_is_byte_identical(self, dataset, trained, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run_report(dataset, trained, a) == 0
        assert self.run_report(dataset, trained, b) == 0
        capsys.readouterr()
        assert (a / "report.html").read_bytes() == (b / "report.html").read_bytes()
        assert (a / "assets" / "case0001_cam.png").read_bytes() == \
            (b / "assets" / "case0001_cam.png").read_bytes()


class TestReportMatchesEvaluate:
    @pytest.mark.parametrize("mode", ["keywords-on", "keywords-off"])
    def test_same_top1_and_caption_for_every_test_case(self, dataset, trained, trained_off,
                                                       mode, tmp_path, capsys):
        ckpts = trained / "checkpoints"
        dec_dir = ckpts if mode == "keywords-on" else trained_off
        manifest = parse_manifest(dataset / "manifest.json")
        _, results = evaluate_pipeline(
            manifest, ModelCheckpoint.load(ckpts / "encoder.ckpt"),
            ModelCheckpoint.load(dec_dir / "decoder.ckpt"),
            Vocabulary.load(dec_dir / "vocab.txt"), Vocabulary.load(dec_dir / "kw_vocab.txt"),
            k_list=(1,))
        assert len(results) == 6
        mismatches = []
        for res in results:
            assert main(["report", "--image", manifest.image_file(res.record),
                         "--keywords", ", ".join(res.record.keywords),
                         *model_args(ckpts, decoder=dec_dir / "decoder.ckpt",
                                     vocab=dec_dir / "vocab.txt",
                                     kw_vocab=dec_dir / "kw_vocab.txt"),
                         "--manifest", str(dataset / "manifest.json"),
                         "--out", str(tmp_path / res.record.id)]) == 0
            fields = dict(line.split(": ", 1)
                          for line in capsys.readouterr().out.splitlines())
            got = (fields["Prediction"].split(" (")[0], fields["Description"])
            want = (res.predictions[0][0], detokenize(res.caption_words))
            if got != want:
                mismatches.append((res.record.id, got, want))
        assert mismatches == []


class TestCrossFileChecks:
    """Model files that do not fit together fail at load time with exit 2."""

    def run(self, command, dataset, trained, tmp_path, manifest=None, **files):
        args = [command, *model_args(trained / "checkpoints", **files),
                "--manifest", str(manifest or dataset / "manifest.json"),
                "--out", str(tmp_path / "out")]
        if command == "report":
            args += ["--image", str(dataset / "images" / "case0001.pgm"),
                     "--keywords", "dot hemorrhages"]
        return main(args + ["--topk", "3" if command == "report" else "1,3"])

    @staticmethod
    def truncated_vocab(src, dst):
        vocab = Vocabulary.load(src)
        Vocabulary([vocab.token(i) for i in range(4, 6)]).save(dst)
        return dst

    @pytest.mark.parametrize("command", ["evaluate", "report"])
    def test_caption_vocab_size(self, command, dataset, trained, tmp_path, capsys):
        vocab = self.truncated_vocab(trained / "checkpoints" / "vocab.txt", tmp_path / "v.txt")
        assert self.run(command, dataset, trained, tmp_path, vocab=vocab) == 2
        assert "caption vocabulary size != decoder vocabulary size: 6 != " in capsys.readouterr().err

    def test_keyword_vocab_size(self, dataset, trained, tmp_path, capsys):
        kw_vocab = self.truncated_vocab(trained / "checkpoints" / "kw_vocab.txt",
                                        tmp_path / "kw.txt")
        assert self.run("report", dataset, trained, tmp_path, kw_vocab=kw_vocab) == 2
        assert "keyword vocabulary size != keyword projection input dim: 6 != " in capsys.readouterr().err

    def test_decoder_input_dim(self, dataset, trained, tmp_path, capsys):
        narrow = EncoderConfig(num_classes=3, stages=((4, 3, 1, 2), (8, 3, 1, 2)))
        encoder = tmp_path / "narrow.ckpt"
        VisionEncoder.init(narrow, Xoshiro256(0)).to_checkpoint().save(encoder)
        assert self.run("report", dataset, trained, tmp_path, encoder=encoder) == 2
        assert "decoder input dim != encoder feature channels: 32 != 8" \
            in capsys.readouterr().err

    def test_report_manifest_class_count(self, dataset, trained, tmp_path, capsys):
        records = json.loads((dataset / "manifest.json").read_text())
        for i, rec in enumerate(records):
            rec["disease"] = f"disease {i % 2}"
        manifest = tmp_path / "two_classes.json"
        manifest.write_text(json.dumps(records))
        assert self.run("report", dataset, trained, tmp_path, manifest=manifest) == 2
        assert "manifest classes != encoder classes: 2 != 3" in capsys.readouterr().err

    @pytest.mark.parametrize("manifest_classes, encoder_classes", [(3, 4), (4, 3)])
    def test_warm_start_class_count(self, manifest_classes, encoder_classes, dataset,
                                    tmp_path, capsys, monkeypatch):
        records = json.loads((dataset / "manifest.json").read_text())
        for i, rec in enumerate(records):
            rec["disease"] = f"disease {i % manifest_classes}"
        manifest = tmp_path / "relabelled.json"
        manifest.write_text(json.dumps(records))
        encoder = tmp_path / "init.ckpt"
        VisionEncoder.init(EncoderConfig(num_classes=encoder_classes), Xoshiro256(0)) \
            .to_checkpoint().save(encoder)

        def no_images(path):  # the check must come before any image is read
            raise AssertionError(f"read {path}")

        monkeypatch.setattr("retinapipe.training.load_image", no_images)
        assert main(["train-rdi", "--manifest", str(manifest), "--init", str(encoder),
                     "--out", str(tmp_path / "out"), "--epochs", "1"]) == 2
        assert (f"manifest classes != warm-start encoder classes: "
                f"{manifest_classes} != {encoder_classes}") in capsys.readouterr().err


class TestMalformedModelFiles:
    """A checkpoint entry of the wrong shape fails at load time with exit 2."""

    @pytest.mark.parametrize("file, entry, edit", [
        ("decoder", "decoder.embedding", lambda a: a[0]),
        ("decoder", "kw_proj.weight", lambda a: a[0]),
        ("decoder", "decoder.out.weight", lambda a: a[:-1]),
        ("decoder", "decoder.lstm.b", lambda a: a[:-1]),
        ("decoder", "decoder.keyword_mode", lambda a: np.zeros((1, 0))),
        ("decoder", "decoder.keyword_mode", lambda a: np.array([0.5])),
        ("encoder", "encoder.config", lambda a: a[:3]),
    ])
    def test_bad_entry_is_data_error(self, file, entry, edit, dataset, trained, tmp_path,
                                     capsys):
        ckpt = ModelCheckpoint.load(trained / "checkpoints" / f"{file}.ckpt")
        ckpt.params[entry] = edit(ckpt.params[entry])
        ckpt.save(tmp_path / "bad.ckpt")
        assert main(["report", *model_args(trained / "checkpoints",
                                           **{file: tmp_path / "bad.ckpt"}),
                     "--image", str(dataset / "images" / "case0001.pgm"),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and entry in err

    @pytest.mark.parametrize("command", ["report", "evaluate"])
    @pytest.mark.parametrize("file, entry, index, value", [
        ("decoder", "decoder.out.weight", (0, 0), np.nan),
        ("encoder", "encoder.stage0.kernels", (0, 0, 0, 0), np.inf),
    ])
    def test_non_finite_entry_is_data_error(self, command, file, entry, index, value, dataset,
                                            trained, tmp_path, capsys):
        ckpt = ModelCheckpoint.load(trained / "checkpoints" / f"{file}.ckpt")
        ckpt.params[entry][index] = value
        ckpt.save(tmp_path / "bad.ckpt")
        inputs = ["--image", str(dataset / "images" / "case0001.pgm")] if command == "report" \
            else ["--manifest", str(dataset / "manifest.json")]
        assert main([command, *model_args(trained / "checkpoints",
                                          **{file: tmp_path / "bad.ckpt"}),
                     *inputs, "--out", str(tmp_path / "out")]) == 2
        assert f"checkpoint parameter {entry} holds a non-finite value" in capsys.readouterr().err

    def test_keyword_projection_dim(self, dataset, trained, tmp_path, capsys):
        ckpt = ModelCheckpoint.load(trained / "checkpoints" / "decoder.ckpt")
        for entry in ("kw_proj.weight", "kw_proj.bias"):
            ckpt.params[entry] = ckpt.params[entry][:-1]
        ckpt.save(tmp_path / "bad.ckpt")
        assert main(["report", *model_args(trained / "checkpoints", decoder=tmp_path / "bad.ckpt"),
                     "--image", str(dataset / "images" / "case0001.pgm"),
                     "--out", str(tmp_path / "out")]) == 2
        assert "keyword projection output dim != decoder input dim: 31 != 32" \
            in capsys.readouterr().err


class TestTopk:
    """--topk is parsed before any file is read: a bad list is a usage error."""

    @pytest.mark.parametrize("command, topk", [
        ("evaluate", "1,x"), ("evaluate", "0"), ("report", "0"), ("score", "1,0"),
    ])
    def test_bad_topk_is_usage_error(self, command, topk, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        files = {"evaluate": ["--manifest", missing, "--encoder", missing, "--decoder", missing,
                              "--vocab", missing, "--kw-vocab", missing, "--out", missing],
                 "report": ["--image", missing, "--encoder", missing, "--decoder", missing,
                            "--vocab", missing, "--kw-vocab", missing, "--out", missing],
                 "score": ["--cand", missing, "--refs", missing]}[command]
        assert main([command, *files, "--topk", topk]) == 1
        assert "--topk: expected a positive integer" in capsys.readouterr().err


class TestUnknownKeywords:
    """Keywords outside the keyword vocabulary add nothing, with one stderr line."""

    def test_report_ignores_and_names_them(self, dataset, trained, tmp_path, capsys):
        outs = []
        for keywords in ("dot hemorrhages", "dot hemorrhages, zzz, aaa"):
            assert main(["report", *model_args(trained / "checkpoints"),
                         "--image", str(dataset / "images" / "case0001.pgm"),
                         "--keywords", keywords, "--out", str(tmp_path / "out")]) == 0
            outs.append(capsys.readouterr())
        assert outs[0].err == ""
        assert outs[1].err == "ignored keywords not in the keyword vocabulary: aaa, zzz\n"
        assert outs[1].out == outs[0].out.replace(
            "Keywords: dot hemorrhages", "Keywords: dot hemorrhages, zzz, aaa")

    def test_evaluate_names_them(self, dataset, trained, tmp_path, capsys):
        records = json.loads((dataset / "manifest.json").read_text())
        for rec in records:
            rec["image_path"] = str(dataset / rec["image_path"])
            if rec.get("split") == "test":
                rec["keywords"] = rec["keywords"] + ["zzz"]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(records))
        assert main(["evaluate", "--manifest", str(manifest),
                     *model_args(trained / "checkpoints"), "--topk", "1",
                     "--out", str(tmp_path / "out")]) == 0
        err = capsys.readouterr().err
        assert err == "ignored keywords not in the keyword vocabulary: zzz\n"


class TestScore:
    def test_identity_captions_score_perfectly(self, tmp_path, capsys):
        lines = "Stable optic disc today.\nMild macular edema noted.\n"
        cand = tmp_path / "cand.txt"
        refs = tmp_path / "refs.txt"
        cand.write_text(lines)
        refs.write_text(lines)
        assert main(["score", "--cand", str(cand), "--refs", str(refs)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bleu_avg"] == 1.0
        assert report["rouge"] == 1.0

    def test_rankings_add_precision(self, tmp_path, capsys):
        cand = tmp_path / "cand.txt"
        refs = tmp_path / "refs.txt"
        cand.write_text("a b\nc d\n")
        refs.write_text("a b\nc d\n")
        rank = tmp_path / "rank.txt"
        rank.write_text("0 0 1 2\n2 1 2 0\n")
        assert main(["score", "--cand", str(cand), "--refs", str(refs),
                     "--rankings", str(rank), "--topk", "1,2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["prec_at"]["1"] == 0.5
        assert report["prec_at"]["2"] == 1.0

    def test_non_integer_ranking_names_file_and_line(self, tmp_path, capsys):
        cand = tmp_path / "cand.txt"
        cand.write_text("a b\nc d\n")
        rank = tmp_path / "rank.txt"
        rank.write_text("0 0 1 2\n2 1 x 0\n")
        assert main(["score", "--cand", str(cand), "--refs", str(cand),
                     "--rankings", str(rank)]) == 2
        assert f"{rank}: line 2: class ids must be integers" in capsys.readouterr().err

    def test_mismatched_line_counts_is_data_error(self, tmp_path, capsys):
        cand = tmp_path / "cand.txt"
        refs = tmp_path / "refs.txt"
        cand.write_text("a\n")
        refs.write_text("a\nb\n")
        assert main(["score", "--cand", str(cand), "--refs", str(refs)]) == 2
        capsys.readouterr()
