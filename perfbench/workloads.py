"""The three workloads. Each is a closed loop: one client, one process, one
thread, and the next CLI call starts only when the previous one returned,
because a CLI user waits for each command.

A workload has `setup()` (make inputs from the seed, check the fixture,
one untimed warm-up operation), `op(i)` (one timed operation plus the
checks of its outputs), `baseline_op(i, baseline)` (the same operation on
the same inputs, run by the frozen baseline package), `final_op()` and
`quality()`.
"""

from __future__ import annotations

import json
import math
import os
import shutil

import numpy as np

from common import FIXTURE_DIR, BenchError, run_cli, sha256_file
from imgcodec import FILTER_NAMES, decode_png, encode_png, read_pnm

FIXTURE_FILES = ("encoder.ckpt", "decoder.ckpt", "vocab.txt", "kw_vocab.txt")
SYNTH_CLASSES = 4
SYNTH_RECORDS = 200
EVAL_RECORDS = SYNTH_RECORDS  # a 40-case test split
SYNTH_SIDE = 32
NO_QUALITY = {"prec1": 0.0, "bleu_avg": 0.0}  # when no operation produced outputs


def verify_fixture() -> dict[str, str]:
    """Paths of the fixture files after checking each against fixture.json."""
    try:
        with open(os.path.join(FIXTURE_DIR, "fixture.json"), encoding="utf-8") as f:
            expected = json.load(f)["sha256"]
    except (OSError, ValueError, KeyError) as e:
        raise BenchError(f"cannot read the fixture record: {e}") from e
    paths = {}
    for name in FIXTURE_FILES:
        path = os.path.join(FIXTURE_DIR, name)
        if not os.path.isfile(path):
            raise BenchError(f"fixture file {path} is missing")
        got = sha256_file(path)
        if got != expected[name]:
            raise BenchError(f"fixture file {path} has sha256 {got}, fixture.json says "
                             f"{expected[name]}; rebuild it with perfbench/make_fixture.py")
        paths[name] = path
    return paths


class OpResult:
    def __init__(self):
        self.seconds = 0.0  # wall time of the CLI calls only
        self.calls = 0
        self.failed: set[int] = set()  # indices of calls with a failed check
        self.problems: list[str] = []

    def call(self, main, argv: list[str]) -> str | None:
        """Run one CLI call; its stdout on exit code 0, else None (a failed call)."""
        rc, secs, out, err = run_cli(main, argv)
        self.seconds += secs
        self.calls += 1
        if rc != 0:
            self.fail(f"{argv[0]} exited {rc}: {err.strip()[-300:]}")
            return None
        return out

    @property
    def failed_calls(self) -> int:
        return len(self.failed)

    def fail(self, problem: str) -> None:
        """Count the latest call as failed; several failed checks count once."""
        self.failed.add(max(self.calls, 1))
        self.problems.append(problem)

    def check(self, ok: bool, problem: str) -> bool:
        if not ok:
            self.fail(problem)
        return ok


class Workload:
    name = ""
    min_ops = 1

    def __init__(self, package, work_dir: str, seed: int):
        self.pkg = package
        self.work = work_dir
        self.seed = seed
        self.info: dict = {}

    def main(self, argv):
        # looked up on each call so that a traced run calls the wrapper
        return self.pkg.cli.main(argv)

    def baseline_op(self, i: int, baseline) -> float:
        """Seconds the baseline package takes for operation i on the same
        inputs, with the same output checks; nothing is recorded."""
        program, self.pkg = self.pkg, baseline
        try:
            res = self.op(i, record=False)
        finally:
            self.pkg = program
        if res.failed_calls:
            raise BenchError(f"baseline operation failed: {res.problems}")
        return res.seconds

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    def synth(self, out: str, records: int, side: int) -> None:
        for argv in (["synth-data", "--out", out, "--classes", str(SYNTH_CLASSES),
                      "--records", str(records), "--side", str(side), "--seed", str(self.seed)],
                     ["split", "--manifest", os.path.join(out, "manifest.json"),
                      "--ratios", "0.6,0.2,0.2", "--seed", str(self.seed)]):
            rc, _, _, err = run_cli(self.main, argv)
            if rc != 0:
                raise BenchError(f"{argv[0]} failed in set-up: {err}")

    def fresh(self, *parts) -> str:
        path = self.path(*parts)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def final_op(self) -> OpResult | None:
        """An untimed operation after the timed loop; none by default."""
        return None

    def warm_up(self) -> None:
        res = self.op(-1)
        if res.failed_calls:
            raise BenchError(f"warm-up operation failed: {res.problems}")

    def records(self, split: str | None = None) -> list[dict]:
        with open(self.path("data", "manifest.json"), encoding="utf-8") as f:
            recs = json.load(f)
        return [r for r in recs if split is None or r.get("split") == split]


def _curve_rows(path: str) -> list[list[float]]:
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


class Train(Workload):
    """`train-rdi` then `train-cdg` on a 200-record synthetic dataset.

    A timed operation trains one epoch of each. Operations of several
    seconds average over the host's slow and fast spells: with 4 + 8 epochs
    per operation, the 10th percentile moved 27% between runs. Quality comes
    from one untimed 4 + 8 epoch training per run (`final_op`), because one
    epoch is too little to guard outputs.

    The classifier starts from the fixture encoder (`--init`, the paper's
    pre-trained axis) at lr 0.05: from random init, validation Prec@1 after
    a few epochs ranged 0.25-1.0 across seeds, and fine-tuning at lr 0.1
    fell to 0.25 on one seed of ten; both too unsteady to guard outputs.
    The per-epoch work is the same either way.
    """

    name = "train"
    EPOCHS = (1, 1)  # (train-rdi, train-cdg) per timed operation
    QUALITY_EPOCHS = (4, 8)

    def setup(self) -> None:
        self.fixture = verify_fixture()
        self.fresh("data")
        self.synth(self.path("data"), SYNTH_RECORDS, SYNTH_SIDE)
        self.n_train = len(self.records("train"))
        self.ckpt_hashes = None
        self.curves = None
        self.warm_up()
        self.info["shape"] = {
            "records": SYNTH_RECORDS, "image_side": SYNTH_SIDE, "classes": SYNTH_CLASSES,
            "train_val_test": [len(self.records(s)) for s in ("train", "val", "test")],
            "epochs_per_op": self.EPOCHS, "quality_epochs": self.QUALITY_EPOCHS,
            "batch": 8, "decoder_hidden": 48, "calls_per_op": 2,
        }

    def cases_per_op(self) -> int:
        return len(self.records("train")) + len(self.records("val"))

    def examples_per_op(self) -> int:
        return self.n_train * sum(self.EPOCHS)

    def op(self, i: int, record: bool = True) -> OpResult:
        res, ckpts = self._train(self.EPOCHS)
        if i >= 0 and record and not res.failed:
            hashes = {n: sha256_file(os.path.join(ckpts, n))
                      for n in ("encoder.ckpt", "decoder.ckpt")}
            if self.ckpt_hashes is None:
                self.ckpt_hashes = hashes
            res.check(hashes == self.ckpt_hashes, "checkpoints differ between repeats of one seed")
        return res

    def final_op(self) -> OpResult:
        res, ckpts = self._train(self.QUALITY_EPOCHS)
        if not res.failed:
            curves = os.path.join(os.path.dirname(ckpts), "curves")
            self.curves = {n: _curve_rows(os.path.join(curves, f"{n}.csv")) for n in ("rdi", "cdg")}
        return res

    def _train(self, epochs: tuple[int, int]) -> tuple[OpResult, str]:
        res = OpResult()
        run = self.fresh("run")
        manifest = self.path("data", "manifest.json")
        ckpts = os.path.join(run, "checkpoints")
        seed = str(self.seed)
        if res.call(self.main, ["train-rdi", "--manifest", manifest, "--out", run,
                                "--init", self.fixture["encoder.ckpt"],
                                "--epochs", str(epochs[0]), "--batch", "8", "--lr", "0.05",
                                "--seed", seed]) is None:
            return res, ckpts
        self._check_outputs(res, ckpts, os.path.join(run, "curves", "rdi.csv"),
                            ("encoder.ckpt",), epochs[0])
        if res.call(self.main, ["train-cdg", "--manifest", manifest, "--out", run,
                                "--encoder", os.path.join(ckpts, "encoder.ckpt"),
                                "--epochs", str(epochs[1]), "--batch", "8", "--lr", "1.0",
                                "--seed", seed]) is None:
            return res, ckpts
        self._check_outputs(res, ckpts, os.path.join(run, "curves", "cdg.csv"),
                            ("decoder.ckpt", "vocab.txt", "kw_vocab.txt"), epochs[1])
        return res, ckpts

    def _check_outputs(self, res: OpResult, ckpts: str, curve: str, files, epochs: int) -> None:
        ckpt_mod, enc_mod, txt_mod = self.pkg.checkpoint, self.pkg.encoder, self.pkg.textgen
        for name in files:
            path = os.path.join(ckpts, name)
            try:
                if name == "encoder.ckpt":
                    enc_mod.VisionEncoder.from_checkpoint(ckpt_mod.ModelCheckpoint.load(path))
                elif name == "decoder.ckpt":
                    txt_mod.DecoderParams.from_checkpoint(ckpt_mod.ModelCheckpoint.load(path))
                else:
                    txt_mod.Vocabulary.load(path)
            except Exception as e:  # noqa: BLE001 - any failure to load is a failed check
                res.fail(f"{name} does not load: {type(e).__name__}: {e}")
        try:
            rows = _curve_rows(curve)
        except (OSError, ValueError) as e:
            res.fail(f"{curve}: {e}")
            return
        res.check(len(rows) == epochs and all(len(r) == 4 and all(map(math.isfinite, r))
                                              for r in rows),
                  f"{curve}: expected {epochs} finite rows, got {rows}")

    def quality(self) -> dict[str, float]:
        if self.curves is None:
            return NO_QUALITY
        return {"prec1": max(r[3] for r in self.curves["rdi"]),
                "bleu_avg": max(r[3] for r in self.curves["cdg"])}


class Evaluate(Workload):
    """`evaluate` (beam 3, --topk 1,4, CAM PNGs, HTML bundle) of the fixture
    model over the 40-case test split of a 200-record synthetic dataset."""

    name = "evaluate"

    def setup(self) -> None:
        self.fixture = verify_fixture()
        self.fresh("data")
        self.synth(self.path("data"), EVAL_RECORDS, SYNTH_SIDE)
        self.test = self.records("test")
        self.sources = {r["id"]: read_pnm(self.path("data", r["image_path"])) for r in self.test}
        self.first = None
        self.warm_up()
        self.info["shape"] = {
            "records": EVAL_RECORDS, "test_cases": len(self.test), "image_side": SYNTH_SIDE,
            "classes": SYNTH_CLASSES, "beam": 3, "topk": [1, 4], "calls_per_op": 1,
        }

    def cases_per_op(self) -> int:
        return len(self.test)

    def op(self, i: int, record: bool = True) -> OpResult:
        res = OpResult()
        out = self.path("eval")
        shutil.rmtree(out, ignore_errors=True)
        fx = self.fixture
        stdout = res.call(self.main, [
            "evaluate", "--manifest", self.path("data", "manifest.json"),
            "--encoder", fx["encoder.ckpt"], "--decoder", fx["decoder.ckpt"],
            "--vocab", fx["vocab.txt"], "--kw-vocab", fx["kw_vocab.txt"],
            "--beam", "3", "--topk", "1,4", "--out", out])
        if stdout is None:
            return res
        for r in self.test:
            src = self.sources[r["id"]]
            _check_png(res, os.path.join(out, "heatmaps", f"{r['id']}_cam.png"),
                       src.shape[:2] + (3,))
            _check_png(res, os.path.join(out, "reports", "assets", f"{r['id']}.png"),
                       src.shape, exact=src)
        html_path = os.path.join(out, "reports", "report.html")
        res.check(_html_rows(html_path) == len(self.test),
                  f"{html_path}: expected {len(self.test)} rows")
        metrics_path = os.path.join(out, "metrics.json")
        try:
            with open(metrics_path, encoding="utf-8") as f:
                metrics = json.load(f)
            values = [metrics[f"bleu_{n}"] for n in (1, 2, 3, 4)] + [
                metrics["bleu_avg"], metrics["rouge"]] + list(metrics["prec_at"].values())
            res.check(all(0.0 <= v <= 1.0 for v in values)
                      and set(metrics["prec_at"]) == {"1", "4"}
                      and math.isfinite(metrics["cider"]) and metrics["cider"] >= 0.0,
                      f"{metrics_path}: value out of range: {metrics}")
        except (OSError, ValueError, KeyError, TypeError) as e:
            res.fail(f"{metrics_path}: {e}")
            return res
        hashes = {"metrics.json": sha256_file(metrics_path),
                  "report.html": sha256_file(html_path) if os.path.exists(html_path) else None}
        if i >= 0 and record:
            if self.first is None:
                self.first = {"metrics": metrics, "sha256": hashes}
                self.info["sha256"] = hashes
            res.check(hashes == self.first["sha256"], "outputs differ between repeats of one seed")
        return res

    def quality(self) -> dict[str, float]:
        if self.first is None:
            return NO_QUALITY
        m = self.first["metrics"]
        return {"prec1": m["prec_at"]["1"], "bleu_avg": m["bleu_avg"]}


class ReportPng(Workload):
    """Single-image `report` calls on 256 x 256 RGB PNGs whose rows use the
    five PNG filters in equal shares. Every call loads the checkpoints,
    vocabularies and image afresh, as the CLI does."""

    name = "report_png"
    IMAGES = 40  # 40 x 256 rows: exactly 2048 rows per filter type
    SIDE = 256
    # The package's generator draws each pixel's noise in Python (0.16 s
    # per 256-pixel image), so it makes 64-pixel images that set-up scales
    # up and textures with fresh pixel noise.
    UPSCALE = 4
    min_ops = IMAGES  # one full pass, so quality covers every image

    def setup(self) -> None:
        self.fixture = verify_fixture()
        self.fresh("data")
        self.synth(self.path("data"), self.IMAGES, self.SIDE // self.UPSCALE)
        images = self.fresh("images")
        rng = np.random.default_rng(self.seed)
        self.cases, per_filter = [], np.zeros(len(FILTER_NAMES), dtype=int)
        for k, r in enumerate(self.records()):
            px = read_pnm(self.path("data", r["image_path"]))
            if px.shape[2] == 1:  # gray angiogram stand-ins become RGB, as the encoder sees them
                px = np.repeat(px, 3, axis=2)
            px = _upscale(px, self.SIDE, rng)
            filters = rng.permutation([(y + k) % len(FILTER_NAMES) for y in range(self.SIDE)])
            np.add.at(per_filter, filters, 1)
            path = os.path.join(images, f"{r['id']}.png")
            with open(path, "wb") as f:
                f.write(encode_png(px, filters))
            self.cases.append({"id": r["id"], "path": path, "pixels": px, "disease": r["disease"],
                               "keywords": r["keywords"], "description": r["description"]})
        self.results: dict[str, tuple[str, str]] = {}
        self.warm_up()
        self.results.clear()
        self.info["shape"] = {
            "images": self.IMAGES, "image_side": self.SIDE, "channels": 3,
            "png_rows_per_filter": dict(zip(FILTER_NAMES, per_filter.tolist())),
            "classes": SYNTH_CLASSES, "beam": 3, "calls_per_op": 1,
        }

    def cases_per_op(self) -> int:
        return 1

    def op(self, i: int, record: bool = True) -> OpResult:
        res = OpResult()
        case = self.cases[max(i, 0) % len(self.cases)]
        out = self.path("report")
        shutil.rmtree(out, ignore_errors=True)
        fx = self.fixture
        stdout = res.call(self.main, [
            "report", "--image", case["path"], "--keywords", ",".join(case["keywords"]),
            "--encoder", fx["encoder.ckpt"], "--decoder", fx["decoder.ckpt"],
            "--vocab", fx["vocab.txt"], "--kw-vocab", fx["kw_vocab.txt"],
            "--manifest", self.path("data", "manifest.json"), "--out", out])
        if stdout is None:
            return res
        html_path = os.path.join(out, "report.html")
        res.check(_html_rows(html_path) == 1, f"{html_path}: expected one row")
        side = (self.SIDE, self.SIDE)
        _check_png(res, os.path.join(out, "assets", f"{case['id']}_cam.png"), side + (3,))
        _check_png(res, os.path.join(out, "assets", f"{case['id']}.png"), side + (3,),
                   exact=case["pixels"])
        fields = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
        if res.check("Prediction" in fields and "Description" in fields,
                     f"report stdout lacks Prediction/Description: {stdout!r}") and record:
            top1 = fields["Prediction"].split(" (", 1)[0]
            self.results.setdefault(case["id"], (top1, fields["Description"]))
        return res

    def quality(self) -> dict[str, float]:
        tokenize = self.pkg.textgen.tokenize
        cases = [c for c in self.cases if c["id"] in self.results]
        if not cases:
            return NO_QUALITY
        hits = sum(self.results[c["id"]][0] == c["disease"] for c in cases)
        _, bleu_avg = self.pkg.metrics.bleu_corpus(
            [tokenize(self.results[c["id"]][1]) for c in cases],
            [tokenize(c["description"]) for c in cases])
        return {"prec1": hits / len(cases), "bleu_avg": bleu_avg}


def _upscale(px: np.ndarray, side: int, rng: np.random.Generator) -> np.ndarray:
    """Bilinear resample of an H x W x C uint8 image to side x side, plus +-6 noise."""
    h, w, _ = px.shape
    ys, xs = np.linspace(0, h - 1, side), np.linspace(0, w - 1, side)
    y0, x0 = np.floor(ys).astype(int), np.floor(xs).astype(int)
    y1, x1 = np.minimum(y0 + 1, h - 1), np.minimum(x0 + 1, w - 1)
    fy, fx = (ys - y0)[:, None, None], (xs - x0)[None, :, None]
    f = px.astype(np.float64)
    top = f[y0][:, x0] * (1 - fx) + f[y0][:, x1] * fx
    bottom = f[y1][:, x0] * (1 - fx) + f[y1][:, x1] * fx
    out = top * (1 - fy) + bottom * fy + rng.integers(-6, 7, (side, side, px.shape[2]))
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def _html_rows(path: str) -> int:
    try:
        with open(path, encoding="utf-8") as f:
            return sum(line.startswith("<tr><td>") for line in f)
    except OSError:
        return -1


def _check_png(res: OpResult, path: str, shape: tuple, exact: np.ndarray | None = None) -> None:
    try:
        px = decode_png(path)
    except (OSError, ValueError) as e:
        res.fail(f"{path}: {e}")
        return
    if res.check(px.shape == tuple(shape), f"{path}: shape {px.shape}, expected {shape}"):
        if exact is not None:
            res.check(np.array_equal(px, exact), f"{path}: pixels differ from the source image")


WORKLOADS = {w.name: w for w in (Train, Evaluate, ReportPng)}
