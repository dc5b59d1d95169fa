"""Deterministic training of the disease classifier and the keyword-driven
captioner through one SGD loop, plus the loaded-once inference pipeline that
turns each case into a medical report (classify, caption, explain) and the
end-to-end evaluation of those reports over a test split."""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import get_type_hints

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, backward, sgd_step, zero_grads
from .cam import compute_cam, overlay
from .checkpoint import ModelCheckpoint
from .data import CaseRecord, DatasetManifest
from .encoder import DEFAULT_STAGES, EncoderConfig, VisionEncoder, predict_topk
from .errors import DataError, NonFiniteError
from .imageio import encode_png, load_image, read_image
from .metrics import MetricReport, bleu_corpus, precision_at_k, score_captions
from .report import MedicalReport, build_report
from .rng import Xoshiro256, derive_seed
from .textgen import (
    END, START, DecoderParams, Vocabulary, build_vocabulary,
    _beam_search, caption_loss, decode_greedy, keyword_multihot, tokenize,
)


def lr_schedule(epoch: int, cfg: TrainConfig) -> float:
    """Step decay: divide the base rate by decay_factor at each period boundary."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return cfg.learning_rate / cfg.decay_factor ** (epoch // cfg.decay_period_epochs)


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 16
    seed: int = 0
    learning_rate: float = 0.1
    decay_factor: float = 5.0
    decay_period_epochs: int = 50
    keyword_mode: bool = True
    decoder_hidden: int = 48
    max_caption_len: int = 30
    image_size: int = 32
    encoder_stages: tuple = DEFAULT_STAGES
    input_channels: int = 3

    def __post_init__(self):
        for name in ("learning_rate", "decay_factor"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("decay_period_epochs", "epochs", "batch_size", "decoder_hidden",
                     "max_caption_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 <= self.seed < 2 ** 64:  # the generator keeps only a seed's low 64 bits
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")


CONFIG_VERSION = 1

# the JSON form a saved config value takes, by field type
_JSON_FORMS = {int: "an integer", float: "a finite number", bool: "true or false",
               tuple: "a list of [out_channels, kernel, stride, pool] integer lists"}


def load_train_config(path) -> TrainConfig:
    try:
        with open(path, encoding="utf-8") as f:
            obj = json.load(f)
    except (OSError, ValueError, RecursionError) as e:  # ValueError: bad JSON or UTF-8
        raise DataError(f"cannot read train config {path}: {e}") from e
    if not isinstance(obj, dict):
        raise DataError(f"{path}: a train config must be a JSON object")
    if obj.get("version") != CONFIG_VERSION:
        raise DataError(f"{path}: unsupported config version {obj.get('version')}")
    types = get_type_hints(TrainConfig)
    for key in sorted(set(types) | set(obj) - {"version"}):
        if key not in obj or key not in types:
            raise DataError(f"{path}: {'missing' if key in types else 'unknown'} key {key!r}")
        kind, value = types[key], obj[key]
        if kind is tuple:
            ok = isinstance(value, list) and all(isinstance(s, list) and len(s) == 4 and
                                                 all(type(v) is int for v in s) for s in value)
        elif kind is float:  # NaN and infinity are JSON extensions that json reads
            ok = type(value) is int or type(value) is float and math.isfinite(value)
        else:
            ok = type(value) is kind
        if not ok:
            raise DataError(f"{path}: key {key!r} must be {_JSON_FORMS[kind]}, got {value!r}")
    try:
        return TrainConfig(**{key: tuple(map(tuple, obj[key])) if kind is tuple else obj[key]
                              for key, kind in types.items()})
    except ValueError as e:
        raise DataError(f"{path}: {e}") from e


@dataclass
class TrainingCurve:
    entries: list[tuple[float, float, float]] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,val_loss,val_metric"]
        for epoch, (tl, vl, vm) in enumerate(self.entries):
            lines.append(f"{epoch},{tl:.10g},{vl:.10g},{vm:.10g}")
        return "\n".join(lines) + "\n"


def _split(manifest: DatasetManifest, name: str) -> list[CaseRecord]:
    if not (records := manifest.by_split(name)):
        raise ValueError(f"manifest has an empty {name!r} split")
    return records


def _batches(records: list[CaseRecord], size: int):
    for start in range(0, len(records), size):
        yield records[start : start + size]


def _stacked(by_id: dict[str, np.ndarray], batch: list[CaseRecord]) -> np.ndarray:
    return np.stack([by_id[r.id] for r in batch])


def _fit(params: list[Tensor], train: list[CaseRecord], val: list[CaseRecord],
         cfg: TrainConfig, stream: int, batch_loss, val_metric) -> TrainingCurve:
    """Mini-batch SGD with a seeded per-epoch shuffle (seed stream `stream`)
    and step lr decay; leaves the best-val parameters in place.

    batch_loss(records) gives the batch's mean loss as a scalar Tensor and its
    output; it takes the training steps and, untaped, the val batches, whose
    outputs val_metric(outputs) scores. A later epoch that ties the best metric
    replaces it. A run that diverges stops with NonFiniteError naming the epoch
    and the batch (or the validation), and the loss or parameter gradient that
    went non-finite.

    One tape records every training step and keeps the arrays its ops need
    for backward, so each step reuses the buffers of the step before it. The
    tape is reset and the loss dropped as soon as sgd_step returns, so no
    step's tensors or their gradients outlive it into the validation pass.
    """
    curve = TrainingCurve()
    tape = Tape()
    best_metric, best_params = -1.0, None
    for epoch in range(cfg.epochs):
        lr = lr_schedule(epoch, cfg)
        order = list(train)
        Xoshiro256(derive_seed(cfg.seed, stream, epoch)).shuffle(order)
        epoch_loss = 0.0
        for index, batch in enumerate(_batches(order, cfg.batch_size)):
            zero_grads(params)
            with _diverged_at(f"epoch {epoch}, batch {index}"):
                with tape:
                    loss = batch_loss(batch)[0]
                value = float(loss.data)
                if not math.isfinite(value):
                    raise NonFiniteError(f"the batch loss is {value}")
                backward(tape, loss)
                sgd_step(params, lr)
            tape.reset()  # the step's tensors and gradients, before validation allocates
            del loss
            epoch_loss += value * len(batch)
        val_loss, outputs = 0.0, []
        with _diverged_at(f"epoch {epoch}, validation"):
            for batch in _batches(val, cfg.batch_size):
                loss, output = batch_loss(batch)
                val_loss += float(loss.data) * len(batch)
                outputs.append(output)
            metric = val_metric(outputs)
        curve.entries.append((epoch_loss / len(order), val_loss / len(val), metric))
        if metric >= best_metric:
            best_metric = metric
            best_params = [p.data.copy() for p in params]
    for p, best in zip(params, best_params):
        p.data[...] = best
    return curve


@contextmanager
def _diverged_at(where: str):
    """Prefix a NonFiniteError raised inside with the place in training it came from."""
    try:
        yield
    except NonFiniteError as e:
        raise NonFiniteError(f"training diverged at {where}: {e}") from e


def _preprocessed(manifest: DatasetManifest, records: list[CaseRecord],
                  encoder: VisionEncoder) -> dict[str, np.ndarray]:
    return {
        r.id: encoder.preprocess(load_image(manifest.image_file(r)))
        for r in records
    }


# ---------------------------------------------------------------------------
# classifier

def train_classifier(manifest: DatasetManifest, cfg: TrainConfig,
                     init_checkpoint: ModelCheckpoint | None = None,
                     ) -> tuple[ModelCheckpoint, TrainingCurve]:
    """Mini-batch SGD on softmax cross-entropy; returns the best-val checkpoint.

    The "pre-trained vs random init" axis is just whether init_checkpoint is
    supplied.
    """
    train, val = _split(manifest, "train"), _split(manifest, "val")
    classes = manifest.class_index()
    if len(classes) < 2:
        raise ValueError("need at least 2 disease classes")
    if init_checkpoint is not None:
        encoder = VisionEncoder.from_checkpoint(init_checkpoint)
        if encoder.config.num_classes != len(classes):
            raise DataError("manifest classes != warm-start encoder classes: "
                            f"{len(classes)} != {encoder.config.num_classes}")
    else:
        config = EncoderConfig(
            num_classes=len(classes), input_channels=cfg.input_channels,
            image_size=cfg.image_size, stages=cfg.encoder_stages)
        encoder = VisionEncoder.init(config, Xoshiro256(derive_seed(cfg.seed, 1)))
    inputs = _preprocessed(manifest, train + val, encoder)

    def batch_loss(batch: list[CaseRecord]) -> tuple[Tensor, tuple[np.ndarray, list[int]]]:
        """The batch's loss, with its logits and true class ids."""
        logits = encoder.forward(_stacked(inputs, batch)).logits
        truth = [classes[r.disease] for r in batch]
        return ad.softmax_cross_entropy(logits, truth), (logits.data, truth)

    def top1_share(outputs) -> float:
        return sum(predict_topk(row, 1)[0][0] == t
                   for logits, truth in outputs for row, t in zip(logits, truth)) / len(val)

    curve = _fit(encoder.parameters(), train, val, cfg, 2, batch_loss, top1_share)
    return encoder.to_checkpoint(), curve


# ---------------------------------------------------------------------------
# captioner

def caption_target(vocab: Vocabulary, description: str) -> list[int]:
    return [START] + vocab.encode(tokenize(description)) + [END]


def train_captioner(manifest: DatasetManifest, cfg: TrainConfig,
                    encoder_ckpt: ModelCheckpoint, min_frequency: int = 1,
                    ) -> tuple[ModelCheckpoint, TrainingCurve, Vocabulary, Vocabulary]:
    """Teacher-forced captioner training over frozen encoder features; returns
    the best-val checkpoint and the curve with the caption vocabulary (words
    seen at least min_frequency times) and the keyword vocabulary, both built
    from the train split only."""
    train = _split(manifest, "train")
    vocab = build_vocabulary([tokenize(r.description) for r in train], min_frequency)
    kw_vocab = build_vocabulary([r.keywords for r in train])
    val = _split(manifest, "val")
    encoder = VisionEncoder.from_checkpoint(encoder_ckpt)
    inputs = _preprocessed(manifest, train + val, encoder)
    pooled = {}
    for batch in _batches(train + val, cfg.batch_size):
        feats = encoder.forward(_stacked(inputs, batch)).pooled.data
        pooled.update(zip((r.id for r in batch), feats))
    decoder = DecoderParams.init(Xoshiro256(derive_seed(cfg.seed, 3)), vocab.size,
                                 encoder.config.feature_channels, cfg.decoder_hidden,
                                 kw_vocab.size, cfg.keyword_mode)
    targets = {r.id: caption_target(vocab, r.description) for r in train + val}
    bags = {r.id: keyword_multihot(r.keywords, kw_vocab) for r in train + val}
    refs = [tokenize(r.description) for r in val]

    def batch_loss(batch: list[CaseRecord]) -> tuple[Tensor, np.ndarray]:
        """The batch's loss, with its fused features."""
        feats = Tensor(_stacked(pooled, batch), needs_grad=False)  # the encoder is frozen
        feats = decoder.fuse(feats, _stacked(bags, batch))
        return caption_loss(feats, [targets[r.id] for r in batch], decoder), feats.data

    def greedy_bleu(outputs) -> float:
        decoded = decode_greedy(np.concatenate(outputs), decoder, cfg.max_caption_len)
        return bleu_corpus([h.words(vocab) for h in decoded], refs)[1]

    curve = _fit(decoder.parameters(), train, val, cfg, 4, batch_loss, greedy_bleu)
    return decoder.to_checkpoint(), curve, vocab, kw_vocab


# ---------------------------------------------------------------------------
# inference and evaluation

class Pipeline:
    """Classify, caption and explain a stream of images into medical reports,
    with the models and vocabularies loaded and cross-checked once.

    keyword_mode None takes the mode the decoder was trained with; False
    forces the keyword bypass and True keyword fusion. class_names, if not
    None, must name every encoder class; None names them class_0, class_1, ...
    """

    def __init__(self, encoder_ckpt: ModelCheckpoint, decoder_ckpt: ModelCheckpoint,
                 vocab: Vocabulary, kw_vocab: Vocabulary, keyword_mode: bool | None,
                 class_names: list[str] | None):
        self.encoder = VisionEncoder.from_checkpoint(encoder_ckpt)
        self.decoder = DecoderParams.from_checkpoint(decoder_ckpt)
        if keyword_mode is not None:
            self.decoder.keyword_mode = keyword_mode
        self.vocab, self.kw_vocab = vocab, kw_vocab
        self.num_classes = self.encoder.config.num_classes
        self.class_names = class_names if class_names is not None else \
            [f"class_{i}" for i in range(self.num_classes)]
        for what, a, b in (
            ("decoder input dim != encoder feature channels",
             self.decoder.input_dim, self.encoder.config.feature_channels),
            ("caption vocabulary size != decoder vocabulary size",
             vocab.size, self.decoder.vocab_size),
            ("keyword vocabulary size != keyword projection input dim",
             kw_vocab.size, self.decoder.kw_weight.data.shape[1]),
            ("manifest classes != encoder classes", len(self.class_names), self.num_classes),
        ):
            if a != b:
                raise DataError(f"{what}: {a} != {b}")

    def infer(self, cases, topk: int, beam_width: int, max_len: int, assets_dir,
              alpha: float = 0.5, heatmaps_dir=None) -> list[MedicalReport]:
        """One MedicalReport per (CaseRecord, pixels, source PNG or None) of
        cases, in order, listing the first topk classes of its ranking (every
        class if topk is more). Each case's image goes to assets_dir as `<id>.png`:
        its source PNG as it is, or else its pixels encoded. Its CAM overlay goes
        there as `<id>_cam.png`, and also to heatmaps_dir if given.

        The cases are taken in chunks of at most _CHUNK_PIXELS (see _chunks). A
        chunk's images are written first, and its sources dropped. Then it is
        encoded as one batch and ranked, and its CAM overlays are written. Only
        the records, rankings and fused features are kept, so a lazy cases holds
        one chunk of images at a time (encoding the split as one batch would hold
        it all). Then one beam search captions every case. Every case comes out
        as it would alone.
        """
        os.makedirs(assets_dir, exist_ok=True)
        looked, fused = [], []
        for chunk in _chunks(cases, self.encoder.config.image_size ** 2):
            records, images, sources = zip(*chunk)
            image_paths = [write_asset([assets_dir], f"{r.id}.png",
                                       encode_png(image) if source is None else source)
                           for r, image, source in zip(records, images, sources)]
            del chunk, sources  # no source PNG is held through the overlays
            out = self.encoder.forward(np.stack([self.encoder.preprocess(im) for im in images]))
            ranked = [predict_topk(row, self.num_classes) for row in out.logits.data]
            fused.extend(self.decoder.fuse(out.pooled, np.stack(
                [keyword_multihot(r.keywords, self.kw_vocab) for r in records])).data)
            cams = self._overlays(images, out.feature_maps.data, ranked, alpha)
            cam_paths = [write_asset([assets_dir, heatmaps_dir], f"{r.id}_cam.png",
                                     encode_png(cam)) for r, cam in zip(records, cams)]
            looked += zip(records, ranked, zip(image_paths, cam_paths))
            del images, cams, out  # before cases loads the next image
        beams = _beam_search(np.stack(fused), self.decoder, beam_width, max_len)
        return [build_report(record, [(self.class_names[c], p) for c, p in ranked[:topk]],
                             beam[0].words(self.vocab), *paths)
                for (record, ranked, paths), beam in zip(looked, beams)]

    def _overlays(self, images: tuple[np.ndarray, ...], feature_maps: np.ndarray,
                  ranked: list[list[tuple[int, float]]], alpha: float) -> list[np.ndarray]:
        """The CAM overlay of each image for its top class, by one overlay call
        per stack of same-shape images (so gray and RGB apart)."""
        groups: dict[tuple, list[int]] = {}
        for i, image in enumerate(images):
            groups.setdefault(image.shape, []).append(i)
        overlays = {}
        for members in groups.values():
            cams = [compute_cam(feature_maps[i], self.encoder.classifier_weights,
                                ranked[i][0][0]) for i in members]
            pixels = overlay(np.stack([images[i] for i in members]), np.stack(cams), alpha)
            overlays.update(zip(members, pixels))
        return [overlays[i] for i in range(len(images))]


# A chunk of cases weighs at most this many pixels, a case weighing
# max(its source pixels, image_size^2): 8 images at the default 32 px side.
_CHUNK_PIXELS = 8 * 32 * 32


def _chunks(cases, min_weight: int):
    """The (record, image, source) cases in order, in lists that each weigh at
    most _CHUNK_PIXELS, or a single case that alone weighs more.

    A chunk closes as soon as no case could join it, else when the next case
    would take it over the budget; only then is that case loaded beside it.
    A yielded list is the caller's alone: this frame keeps none of its cases.
    """
    chunk, weight = [], 0
    for case in cases:
        image = case[1]
        case_weight = max(image.shape[0] * image.shape[1], min_weight)
        if chunk and weight + case_weight > _CHUNK_PIXELS:
            yield _handed_over(chunk)
            weight = 0
        chunk.append(case)
        weight += case_weight
        del case, image  # the chunk holds them; none is held past its chunk
        if weight + min_weight > _CHUNK_PIXELS:
            yield _handed_over(chunk)
            weight = 0
    if chunk:
        yield _handed_over(chunk)


def _handed_over(items: list) -> list:
    """A new list of items' elements, leaving items empty."""
    taken, items[:] = items[:], []
    return taken


def write_asset(folders, name: str, data: bytes) -> str:
    """Write data as name into each existing folder of folders that is not None,
    the first a folder of a report bundle; return its bundle-relative path there."""
    for folder in folders:
        if folder is not None:
            with open(os.path.join(folder, name), "wb") as f:
                f.write(data)
    return f"{os.path.basename(os.path.normpath(folders[0]))}/{name}"


def evaluate_pipeline(manifest: DatasetManifest, pipe: Pipeline, beam_width: int,
                      k_list: tuple[int, ...], max_caption_len: int, assets_dir,
                      heatmaps_dir=None) -> tuple[MetricReport, list[MedicalReport]]:
    """The test split's reports from pipe.infer, each listing max(k_list)
    classes, and their scores: BLEU, ROUGE-L and CIDEr of the generated tokens
    against the tokenized descriptions, and Prec@k of the listed disease names
    for each k of k_list. The images are loaded as infer takes them, a chunk
    at a time; each case's image and CAM overlay go to assets_dir, the assets
    folder of a report bundle, and its overlay also to heatmaps_dir if given.
    """
    test = _split(manifest, "test")
    if max(k_list) > pipe.num_classes:
        raise ValueError(f"k={max(k_list)} exceeds number of classes {pipe.num_classes}")
    cases = ((r, *read_image(manifest.image_file(r))) for r in test)
    reports = pipe.infer(cases, max(k_list), beam_width, max_caption_len, assets_dir,
                         heatmaps_dir=heatmaps_dir)
    metrics = score_captions([med.caption for med in reports],
                             [tokenize(r.description) for r in test])
    rankings = [[name for name, _ in med.predictions] for med in reports]
    truths = [r.disease for r in test]
    metrics.prec_at = {k: precision_at_k(rankings, truths, k) for k in k_list}
    return metrics, reports
