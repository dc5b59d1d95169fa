"""Command-line entry point wiring the whole pipeline.

Exit codes: 0 success, 1 usage error, 2 bad or missing input data, 3 runtime error.
All randomness flows from the --seed flag of each subcommand.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from .autodiff import SgdConfig
from .cam import compute_cam, heatmap_to_text, overlay
from .checkpoint import ModelCheckpoint
from .data import (
    CaseRecord, _split_keywords, generate_synthetic_dataset, parse_manifest,
    save_manifest, split_dataset, word_length_histogram,
)
from .encoder import VisionEncoder, predict_topk
from .errors import DataError
from .imageio import load_image, write_png
from .metrics import precision_at_k, score_captions
from .report import build_report, render_html, render_text
from .textgen import Vocabulary, tokenize
from .training import (
    Pipeline, TrainConfig, build_caption_vocabularies, evaluate_pipeline,
    load_train_config, train_captioner, train_classifier,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_triple(text: str, cast=float):
    parts = text.split(",")
    if len(parts) != 3:
        raise _UsageError(f"expected three comma-separated values, got {text!r}")
    return tuple(cast(p) for p in parts)


def _positive_int(text: str) -> int:
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _positive_ints(text: str) -> tuple[int, ...]:
    return tuple(map(_positive_int, text.split(",")))


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
        sgd=SgdConfig(
            learning_rate=args.lr,
            decay_factor=args.decay_factor,
            decay_period_epochs=args.decay_period,
        ),
        keyword_mode=not getattr(args, "no_keywords", False),
    )


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="versioned JSON config; overrides the flags below")
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--decay-factor", type=float, default=5.0)
    p.add_argument("--decay-period", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)


def _out_layout(out_dir: str) -> dict[str, str]:
    layout = {name: os.path.join(out_dir, name)
              for name in ("checkpoints", "curves", "reports", "heatmaps")}
    for path in layout.values():
        os.makedirs(path, exist_ok=True)
    return layout


def _add_inference_flags(p: argparse.ArgumentParser) -> None:
    """The model files and decoding flags that evaluate and report share."""
    for name in ("--encoder", "--decoder", "--vocab", "--kw-vocab"):
        p.add_argument(name, required=True)
    p.add_argument("--beam", type=int, default=3)
    p.add_argument("--max-len", type=int, default=30)
    p.add_argument("--no-keywords", action="store_true",
                   help="force the keyword bypass (default: the decoder's trained mode)")


def _model_files(args) -> tuple:
    """The encoder and decoder checkpoints and the caption and keyword vocabularies."""
    return (ModelCheckpoint.load(args.encoder), ModelCheckpoint.load(args.decoder),
            Vocabulary.load(args.vocab), Vocabulary.load(args.kw_vocab))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_synth_data(args) -> int:
    generate_synthetic_dataset(args.out, args.classes, args.records, args.seed,
                               image_side=args.side)
    print(f"wrote {args.records} records to {args.out}", file=sys.stderr)
    return 0


def _cmd_split(args) -> int:
    manifest = parse_manifest(args.manifest)
    counts = _parse_triple(args.counts, int) if args.counts else None
    split_dataset(manifest, _parse_triple(args.ratios), args.seed,
                  preserve=args.preserve, explicit_counts=counts)
    save_manifest(manifest, args.out or args.manifest)
    return 0


def _cmd_stats(args) -> int:
    manifest = parse_manifest(args.manifest)
    hist = word_length_histogram(manifest, args.field)
    print(json.dumps({str(k): v for k, v in sorted(hist.items())}, indent=2))
    return 0


def _cmd_train_rdi(args) -> int:
    manifest = parse_manifest(args.manifest)
    cfg = _train_config(args)
    init = ModelCheckpoint.load(args.init) if args.init else None
    ckpt, curve = train_classifier(manifest, cfg, init_checkpoint=init)
    layout = _out_layout(args.out)
    ckpt.save(os.path.join(layout["checkpoints"], "encoder.ckpt"))
    with open(os.path.join(layout["curves"], "rdi.csv"), "w") as f:
        f.write(curve.to_csv())
    print(f"best val Prec@1 {max(e[2] for e in curve.entries):.4f}", file=sys.stderr)
    return 0


def _cmd_train_cdg(args) -> int:
    manifest = parse_manifest(args.manifest)
    cfg = _train_config(args)
    encoder_ckpt = ModelCheckpoint.load(args.encoder)
    vocab, kw_vocab = build_caption_vocabularies(manifest, args.min_frequency)
    ckpt, curve = train_captioner(manifest, cfg, encoder_ckpt, vocab, kw_vocab)
    layout = _out_layout(args.out)
    ckpt.save(os.path.join(layout["checkpoints"], "decoder.ckpt"))
    vocab.save(os.path.join(layout["checkpoints"], "vocab.txt"))
    kw_vocab.save(os.path.join(layout["checkpoints"], "kw_vocab.txt"))
    with open(os.path.join(layout["curves"], "cdg.csv"), "w") as f:
        f.write(curve.to_csv())
    print(f"best val BLEU-avg {max(e[2] for e in curve.entries):.4f}", file=sys.stderr)
    return 0


def _cmd_evaluate(args) -> int:
    manifest = parse_manifest(args.manifest)
    layout = _out_layout(args.out)
    model_files = _model_files(args)
    report, results = evaluate_pipeline(
        manifest,
        *model_files,
        beam_width=args.beam,
        k_list=args.topk,
        max_caption_len=args.max_len,
        keyword_mode=False if args.no_keywords else None,
        heatmap_dir=os.path.join(layout["reports"], "assets"),
    )
    _warn_unknown_keywords((kw for r in manifest.by_split("test") for kw in r.keywords),
                           model_files[3])
    reports = []
    for res in results:  # HTML over the assets evaluate_pipeline wrote; CAMs also go to heatmaps/
        shutil.copyfile(os.path.join(layout["reports"], res.cam_path),
                        os.path.join(layout["heatmaps"], os.path.basename(res.cam_path)))
        reports.append(build_report(
            res.record, res.predictions, res.caption_words,
            cam_path=res.cam_path, image_path=res.image_path))
    with open(os.path.join(layout["reports"], "report.html"), "w", encoding="utf-8") as f:
        f.write(render_html(reports, group_by=args.group_by))
    with open(os.path.join(args.out, "metrics.json"), "w") as f:
        f.write(report.to_json() + "\n")
    print(report.to_json())
    return 0


def _cmd_explain(args) -> int:
    image = load_image(args.image)
    encoder = VisionEncoder.from_checkpoint(ModelCheckpoint.load(args.encoder))
    out = encoder.encode_image(image)
    class_id = args.class_id
    if class_id is None:
        class_id = predict_topk(out.logits.data[0], 1)[0][0]
    heat = compute_cam(out.feature_maps.data[0], encoder.classifier_weights, class_id)
    if args.raw_txt:
        with open(args.raw_txt, "w") as f:
            f.write(heatmap_to_text(heat) + "\n")
    write_png(args.out, overlay(image.pixels[None], heat.values[None], args.alpha)[0])
    print(f"CAM for class {class_id} -> {args.out}", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    pipe = Pipeline(
        *_model_files(args),
        keyword_mode=False if args.no_keywords else None,
        class_names=parse_manifest(args.manifest).class_list if args.manifest else None,
    )
    keywords = _split_keywords([args.keywords])
    _warn_unknown_keywords(keywords, pipe.kw_vocab)
    image = load_image(args.image)
    case_id = os.path.splitext(os.path.basename(args.image))[0]
    [inf] = pipe.infer([(case_id, image, keywords)], args.beam, args.max_len, args.alpha,
                       assets_dir=os.path.join(args.out, "assets"))
    record = CaseRecord(id=case_id, image_path=args.image, modality=image.modality,
                        disease="", keywords=keywords, description="")
    predictions = [(pipe.class_names[c], p) for c, p in inf.ranked[: args.topk]]
    med = build_report(record, predictions, inf.caption_words,
                       cam_path=inf.cam_path, image_path=inf.image_path, include_truth=False)
    with open(os.path.join(args.out, "report.html"), "w", encoding="utf-8") as f:
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
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--records", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--side", type=int, default=32, help="image side length")


def _split_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", required=True)
    p.add_argument("--ratios", default="0.6,0.2,0.2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--counts", help="explicit train,val,test sizes (overrides ratios)")
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
    p.add_argument("--min-frequency", type=int, default=1)
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
    p.add_argument("--class-id", type=int)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--raw-txt", help="also dump the raw heatmap as text")
    p.add_argument("--out", required=True)


def _report_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--image", required=True)
    p.add_argument("--keywords", default="")
    _add_inference_flags(p)
    p.add_argument("--manifest", help="optional; supplies disease names")
    p.add_argument("--topk", type=_positive_int, default=5)
    p.add_argument("--alpha", type=float, default=0.5)
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
    except (FileNotFoundError, IsADirectoryError) as e:  # a missing input, for every loader
        print(f"data error: cannot open {e.filename}: {e.strerror}", file=sys.stderr)
        return 2
    except SystemExit:
        raise
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
