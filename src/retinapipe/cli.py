"""Command-line entry point wiring the whole pipeline.

Exit codes: 0 success, 1 usage error, 2 bad or missing input data, 3 runtime error.
All randomness flows from the --seed flag of each subcommand.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import math
import os
import sys
import tempfile

from .cam import compute_cam, heatmap_to_text, overlay
from .checkpoint import ModelCheckpoint
from .data import (
    CaseRecord, _split_keywords, generate_synthetic_dataset, parse_manifest,
    save_manifest, split_dataset, word_length_histogram,
)
from .encoder import VisionEncoder, predict_topk
from .errors import DataError
from .imageio import load_image, read_image, write_png
from .metrics import precision_at_k, score_captions
from .report import render_html, render_text
from .textgen import Vocabulary, tokenize
from .training import (
    Pipeline, TrainConfig, evaluate_pipeline, load_train_config, train_captioner,
    train_classifier,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _checked(cast, ok, expected: str):
    """The argparse type that reads a flag's text with cast and returns the value
    when ok(value) holds; any other text is a usage error naming what was expected."""
    def parse(text: str):
        try:
            if ok(value := cast(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


def _digits(text: str) -> int:
    """int(text) for unsigned decimal digits only: no sign, point or underscore."""
    if not text.strip().isdigit():
        raise ValueError(text)
    return int(text)


def _comma_list(cast):
    """The cast of comma-separated values, each read by cast."""
    return lambda text: tuple(map(cast, text.split(",")))


_positive_int = _checked(_digits, lambda n: n >= 1, "a positive integer")
_class_count = _checked(_digits, lambda n: n >= 2, "at least 2 classes")
_class_id = _checked(int, lambda n: n >= 0, "a non-negative integer")
_seed = _checked(_digits, lambda n: n < 2 ** 64, "an integer in [0, 2**64)")
_unit_float = _checked(float, lambda x: 0.0 <= x <= 1.0, "a number in [0, 1]")
_positive_float = _checked(float, lambda x: 0.0 < x < math.inf, "a positive finite number")
_positive_ints = _comma_list(_positive_int)  # an error names the bad element, not the list
_float_triple = _checked(_comma_list(float), lambda v: len(v) == 3,
                         "three comma-separated numbers")
_int_triple = _checked(_comma_list(int), lambda v: len(v) == 3, "three comma-separated numbers")


def _warn_unknown_keywords(keywords, kw_vocab: Vocabulary) -> None:
    if unknown := sorted({kw for kw in keywords if kw not in kw_vocab}):
        print("ignored keywords not in the keyword vocabulary: " + ", ".join(unknown),
              file=sys.stderr)


def _train_config(args) -> TrainConfig:
    if getattr(args, "config", None):
        return load_train_config(args.config)
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch,
        seed=args.seed,
        learning_rate=args.lr,
        decay_factor=args.decay_factor,
        decay_period_epochs=args.decay_period,
        keyword_mode=not getattr(args, "no_keywords", False),
    )


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="versioned JSON config; overrides the flags below")
    p.add_argument("--epochs", type=_positive_int, default=TrainConfig.epochs)
    p.add_argument("--batch", type=_positive_int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=_positive_float, default=TrainConfig.learning_rate)
    p.add_argument("--decay-factor", type=_positive_float, default=TrainConfig.decay_factor)
    p.add_argument("--decay-period", type=_positive_int, default=TrainConfig.decay_period_epochs)
    p.add_argument("--seed", type=_seed, default=TrainConfig.seed)


def _check_folder(path: str) -> str:
    """Raise, making nothing, the error os.makedirs(path, exist_ok=True) raises
    when path is or lies under a regular file, so that a command whose output
    cannot be written fails before any image is read; return the nearest
    existing folder at or above path."""
    below, above = None, path
    while above and not os.path.exists(above):
        below, above = above, os.path.dirname(above)
    if above and not os.path.isdir(above):
        code = errno.ENOTDIR if below else errno.EEXIST  # OSError picks the matching subclass
        raise OSError(code, os.strerror(code), below or path)
    return above or "."


def _move_tree(src: str, dst: str) -> None:
    """Move every file under src to the same place under dst, replacing any there;
    a folder in any file's place raises before a file moves."""
    moves = [(os.path.join(folder, name),
              os.path.normpath(os.path.join(dst, os.path.relpath(folder, src), name)))
             for folder, _, files in os.walk(src) for name in files]
    for _, path in moves:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    for folder in dict.fromkeys(os.path.dirname(path) for _, path in moves):
        os.makedirs(folder, exist_ok=True)
    for source, path in moves:
        os.replace(source, path)


@contextlib.contextmanager
def _bundle(out: str, *folders: str):
    """A staging folder holding the named folders, checked under out before the
    block reads any input; it lies in the nearest existing folder at or above
    out. If the block raises, the stage goes and out is as it was; otherwise each
    staged file replaces its namesake under out and every other file stays."""
    nearest = _check_folder(out)
    for folder in folders:
        _check_folder(os.path.join(out, folder))
    with tempfile.TemporaryDirectory(prefix=".retinapipe-", dir=nearest) as stage:
        for folder in folders:
            os.makedirs(os.path.join(stage, folder))
        yield stage
        _move_tree(stage, out)


def _add_inference_flags(p: argparse.ArgumentParser) -> None:
    """The model files and decoding flags that evaluate and report share."""
    for name in ("--encoder", "--decoder", "--vocab", "--kw-vocab"):
        p.add_argument(name, required=True)
    p.add_argument("--beam", type=_positive_int, default=3)
    p.add_argument("--max-len", type=_positive_int, default=30)
    p.add_argument("--no-keywords", action="store_true",
                   help="force the keyword bypass (default: the decoder's trained mode)")


def _pipeline(args, class_names) -> Pipeline:
    """The inference pipeline over the model files that evaluate and report share;
    class_names() gives the disease names (None: class_0, class_1, ...) and is
    called once those files have loaded."""
    return Pipeline(ModelCheckpoint.load(args.encoder), ModelCheckpoint.load(args.decoder),
                    Vocabulary.load(args.vocab), Vocabulary.load(args.kw_vocab),
                    False if args.no_keywords else None, class_names())


# ---------------------------------------------------------------------------
# subcommands

def _cmd_synth_data(args) -> int:
    if args.records < args.classes:
        raise _UsageError(f"argument --records: expected at least one record per class "
                          f"({args.classes}), got '{args.records}'")
    generate_synthetic_dataset(args.out, args.classes, args.records, args.seed,
                               image_side=args.side)
    print(f"wrote {args.records} records to {args.out}", file=sys.stderr)
    return 0


def _cmd_split(args) -> int:
    manifest = parse_manifest(args.manifest)
    split_dataset(manifest, args.ratios, args.seed, preserve=args.preserve,
                  explicit_counts=args.counts)
    save_manifest(manifest, args.out or args.manifest)
    return 0


def _cmd_stats(args) -> int:
    manifest = parse_manifest(args.manifest)
    hist = word_length_histogram(manifest, args.field)
    print(json.dumps({str(k): v for k, v in sorted(hist.items())}, indent=2))
    return 0


def _cmd_train_rdi(args) -> int:
    with _bundle(args.out, "checkpoints", "curves") as stage:
        manifest = parse_manifest(args.manifest)
        cfg = _train_config(args)
        init = ModelCheckpoint.load(args.init) if args.init else None
        ckpt, curve = train_classifier(manifest, cfg, init_checkpoint=init)
        ckpt.save(os.path.join(stage, "checkpoints", "encoder.ckpt"))
        with open(os.path.join(stage, "curves", "rdi.csv"), "w") as f:
            f.write(curve.to_csv())
    print(f"best val Prec@1 {max(e[2] for e in curve.entries):.4f}", file=sys.stderr)
    return 0


def _cmd_train_cdg(args) -> int:
    if args.config and args.no_keywords:  # not one of the flags a config overrides
        raise _UsageError("--no-keywords cannot be combined with --config; "
                          "set keyword_mode to false in the config instead")
    with _bundle(args.out, "checkpoints", "curves") as stage:
        manifest = parse_manifest(args.manifest)
        cfg = _train_config(args)
        encoder_ckpt = ModelCheckpoint.load(args.encoder)
        ckpt, curve, vocab, kw_vocab = train_captioner(manifest, cfg, encoder_ckpt,
                                                       args.min_frequency)
        checkpoints = os.path.join(stage, "checkpoints")
        ckpt.save(os.path.join(checkpoints, "decoder.ckpt"))
        vocab.save(os.path.join(checkpoints, "vocab.txt"))
        kw_vocab.save(os.path.join(checkpoints, "kw_vocab.txt"))
        with open(os.path.join(stage, "curves", "cdg.csv"), "w") as f:
            f.write(curve.to_csv())
    print(f"best val BLEU-avg {max(e[2] for e in curve.entries):.4f}", file=sys.stderr)
    return 0


def _cmd_evaluate(args) -> int:
    with _bundle(args.out, os.path.join("reports", "assets"), "heatmaps") as stage:
        manifest = parse_manifest(args.manifest)
        pipe = _pipeline(args, lambda: manifest.class_list)
        report_dir = os.path.join(stage, "reports")
        report, reports = evaluate_pipeline(manifest, pipe, args.beam, args.topk, args.max_len,
                                            os.path.join(report_dir, "assets"),
                                            os.path.join(stage, "heatmaps"))
        _warn_unknown_keywords((kw for r in manifest.by_split("test") for kw in r.keywords),
                               pipe.kw_vocab)
        with open(os.path.join(report_dir, "report.html"), "w", encoding="utf-8") as f:
            f.write(render_html(reports, group_by=args.group_by))
        with open(os.path.join(stage, "metrics.json"), "w") as f:
            f.write(report.to_json() + "\n")
    print(report.to_json())
    return 0


def _cmd_explain(args) -> int:
    outputs = [path for path in (args.raw_txt, args.out) if path]
    for path in outputs:  # each output is one file, written once the overlay is computed
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        _check_folder(os.path.dirname(path))
    image = load_image(args.image)
    encoder = VisionEncoder.from_checkpoint(ModelCheckpoint.load(args.encoder))
    out = encoder.forward(encoder.preprocess(image)[None])
    class_id = args.class_id
    if class_id is None:
        class_id = predict_topk(out.logits.data[0], 1)[0][0]
    heat = compute_cam(out.feature_maps.data[0], encoder.classifier_weights, class_id)
    pixels = overlay(image[None], heat[None], args.alpha)[0]
    for path in outputs:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    if args.raw_txt:
        with open(args.raw_txt, "w") as f:
            f.write(heatmap_to_text(heat) + "\n")
    write_png(args.out, pixels)
    print(f"CAM for class {class_id} -> {args.out}", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    with _bundle(args.out, "assets") as stage:
        pipe = _pipeline(args, lambda: parse_manifest(args.manifest).class_list
                         if args.manifest else None)
        keywords = _split_keywords([args.keywords])
        _warn_unknown_keywords(keywords, pipe.kw_vocab)
        record = CaseRecord(id=os.path.splitext(os.path.basename(args.image))[0],
                            image_path=args.image, modality="", disease="",
                            keywords=keywords, description="")  # no disease: no ground truth
        cases = ((r, *read_image(r.image_path)) for r in [record])  # no local keeps the source
        [med] = pipe.infer(cases, args.topk, args.beam, args.max_len,
                           os.path.join(stage, "assets"), args.alpha)
        with open(os.path.join(stage, "report.html"), "w", encoding="utf-8") as f:
            f.write(render_html([med]))
    print(render_text(med))
    return 0


def _cmd_score(args) -> int:
    with open(args.cand, encoding="utf-8") as f:
        candidates = [tokenize(line) for line in f.read().splitlines()]
    with open(args.refs, encoding="utf-8") as f:
        references = [tokenize(line) for line in f.read().splitlines()]
    if len(candidates) != len(references):
        raise DataError(
            f"{args.cand} has {len(candidates)} lines but {args.refs} has {len(references)}"
        )
    if not candidates:
        raise DataError("caption files are empty")
    report = score_captions(candidates, references)
    if args.rankings:
        rankings, truths = [], []
        with open(args.rankings, encoding="utf-8") as f:
            for i, line in enumerate(f.read().splitlines()):
                fields = line.split()
                if len(fields) < 2:
                    raise DataError(f"{args.rankings}: line {i + 1} needs a truth id and a ranking")
                try:
                    truths.append(int(fields[0]))
                    rankings.append([int(x) for x in fields[1:]])
                except ValueError as e:
                    raise DataError(f"{args.rankings}: line {i + 1}: class ids must be "
                                    f"integers: {e}") from e
        for k in args.topk:
            report.prec_at[k] = precision_at_k(rankings, truths, k)
    print(report.to_json())
    return 0


# ---------------------------------------------------------------------------

def _synth_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=_class_count, default=4)
    p.add_argument("--records", type=_positive_int, default=200)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--side", type=_positive_int, default=32, help="image side length")


def _split_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", required=True)
    p.add_argument("--ratios", type=_float_triple, default="0.6,0.2,0.2")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--counts", type=_int_triple,
                   help="explicit train,val,test sizes (overrides ratios)")
    p.add_argument("--preserve", action="store_true",
                   help="keep existing split assignments")
    p.add_argument("--out", help="output manifest (default: in place)")


def _stats_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", required=True)
    p.add_argument("--field", choices=("keywords", "description"), default="description")


def _train_rdi_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--init", help="initial checkpoint (the 'pre-trained' axis)")
    _add_train_flags(p)


def _train_cdg_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", required=True)
    p.add_argument("--encoder", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-keywords", action="store_true",
                   help="ablation: bypass keyword fusion")
    p.add_argument("--min-frequency", type=_positive_int, default=1)
    _add_train_flags(p)


def _evaluate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", required=True)
    _add_inference_flags(p)
    p.add_argument("--topk", type=_positive_ints, default="1,5")
    p.add_argument("--group-by", choices=("none", "disease"), default="none")
    p.add_argument("--out", required=True)


def _explain_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--image", required=True)
    p.add_argument("--encoder", required=True)
    p.add_argument("--class-id", type=_class_id)
    p.add_argument("--alpha", type=_unit_float, default=0.5)
    p.add_argument("--raw-txt", help="also dump the raw heatmap as text")
    p.add_argument("--out", required=True)


def _report_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--image", required=True)
    p.add_argument("--keywords", default="")
    _add_inference_flags(p)
    p.add_argument("--manifest", help="optional; supplies disease names")
    p.add_argument("--topk", type=_positive_int, default=5)
    p.add_argument("--alpha", type=_unit_float, default=0.5)
    p.add_argument("--out", required=True)


def _score_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cand", required=True)
    p.add_argument("--refs", required=True)
    p.add_argument("--rankings")
    p.add_argument("--topk", type=_positive_ints, default="1,5")


# name: (help line, handler, the function that adds its flags)
_COMMANDS = {
    "synth-data": ("generate a deterministic synthetic dataset", _cmd_synth_data,
                   _synth_data_flags),
    "split": ("assign train/val/test splits", _cmd_split, _split_flags),
    "stats": ("word-length histogram of labels", _cmd_stats, _stats_flags),
    "train-rdi": ("train the disease classifier", _cmd_train_rdi, _train_rdi_flags),
    "train-cdg": ("train the clinical description generator", _cmd_train_cdg,
                  _train_cdg_flags),
    "evaluate": ("end-to-end evaluation on the test split", _cmd_evaluate, _evaluate_flags),
    "explain": ("CAM overlay for one image", _cmd_explain, _explain_flags),
    "report": ("full per-image path to an HTML report", _cmd_report, _report_flags),
    "score": ("score caption files (and optional rankings)", _cmd_score, _score_flags),
}


def build_parser(command: str | None = None) -> _Parser:
    """Every subcommand with its help line, and the flags of `command` only: a
    call parses one subcommand, so the others' flags are never read."""
    parser = _Parser(prog="retinapipe",
                     description="Retinal image report generation pipeline")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (help_line, handler, add_flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if name == command:
            add_flags(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the top level takes no flag with a value, so its first non-flag is the subcommand
    parser = build_parser(next((arg for arg in argv if not arg.startswith("-")), None))
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_help(sys.stderr)
            return 1
        return args.func(args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DataError, ValueError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    # a missing or unreadable input for every loader, or an output path that cannot be written
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, FileExistsError,
            PermissionError) as e:
        print(f"data error: cannot open {e.filename}: {e.strerror}", file=sys.stderr)
        return 2
    except SystemExit:
        raise
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
