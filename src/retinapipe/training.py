"""Deterministic training of the disease classifier and the keyword-driven
captioner through one SGD loop, plus the loaded-once inference pipeline
(classify, caption, explain) and end-to-end evaluation over a test split."""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import get_type_hints

import numpy as np

from . import autodiff as ad
from .autodiff import SgdConfig, Tape, Tensor, backward, sgd_step, zero_grads
from .cam import compute_cam, overlay
from .checkpoint import ModelCheckpoint
from .data import CaseRecord, DatasetManifest
from .encoder import DEFAULT_STAGES, EncoderConfig, VisionEncoder, predict_topk
from .errors import DataError, NonFiniteError
from .imageio import RetinalImage, load_image, write_png
from .metrics import MetricReport, bleu_corpus, precision_at_k, score_captions
from .rng import Xoshiro256, derive_seed
from .textgen import (
    END, START, DecoderParams, KeywordProjection, Vocabulary, build_vocabulary,
    _beam_search, caption_loss, decode_greedy, keyword_multihot, tokenize,
)


def lr_schedule(epoch: int, cfg: SgdConfig) -> float:
    """Step decay: divide the base rate by decay_factor at each period boundary."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return cfg.learning_rate / cfg.decay_factor ** (epoch // cfg.decay_period_epochs)


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 16
    seed: int = 0
    sgd: SgdConfig = field(default_factory=SgdConfig)
    keyword_mode: bool = True
    decoder_hidden: int = 48
    max_caption_len: int = 30
    image_size: int = 32
    encoder_stages: tuple = DEFAULT_STAGES
    input_channels: int = 3

    def __post_init__(self):
        for name in ("epochs", "batch_size", "decoder_hidden", "max_caption_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


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
    types = {**get_type_hints(TrainConfig), **get_type_hints(SgdConfig)}  # sgd is inlined
    del types["sgd"]
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
    values = {key: tuple(map(tuple, obj[key])) if kind is tuple else obj[key]
              for key, kind in types.items()}
    try:
        sgd = SgdConfig(**{f.name: values.pop(f.name) for f in fields(SgdConfig)})
        return TrainConfig(sgd=sgd, **values)
    except ValueError as e:
        raise DataError(f"{path}: {e}") from e


@dataclass
class TrainingCurve:
    entries: list[tuple[float, float, float]] = field(default_factory=list)

    def append(self, train_loss: float, val_loss: float, val_metric: float) -> None:
        self.entries.append((train_loss, val_loss, val_metric))

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,val_loss,val_metric"]
        for epoch, (tl, vl, vm) in enumerate(self.entries):
            lines.append(f"{epoch},{tl:.10g},{vl:.10g},{vm:.10g}")
        return "\n".join(lines) + "\n"


def _check_splits(manifest: DatasetManifest, *names: str) -> None:
    for name in names:
        if not manifest.by_split(name):
            raise ValueError(f"manifest has an empty {name!r} split")


def _batches(records: list[CaseRecord], size: int):
    for start in range(0, len(records), size):
        yield records[start : start + size]


def _stacked(by_id: dict[str, np.ndarray], batch: list[CaseRecord]) -> np.ndarray:
    return np.stack([by_id[r.id] for r in batch])


def _fit(params: list[Tensor], train: list[CaseRecord], cfg: TrainConfig, stream: int,
         batch_loss, validate) -> TrainingCurve:
    """Mini-batch SGD with a seeded per-epoch shuffle (seed stream `stream`)
    and step lr decay; leaves the best-val parameters in place.

    batch_loss(records) gives the batch's mean loss as a scalar Tensor;
    validate() gives (val_loss, val_metric), and a later epoch that ties the
    best metric replaces it. A run that diverges stops with NonFiniteError
    naming the epoch and the batch (or the validation), and the loss or
    parameter gradient that went non-finite.

    Each batch's tape takes the arrays its ops keep for backward from one
    arena, recycled at the start of the next batch, once sgd_step has used
    the gradients.
    """
    curve = TrainingCurve()
    arena = ad.Arena()
    best_metric, best_params = -1.0, None
    for epoch in range(cfg.epochs):
        lr = lr_schedule(epoch, cfg.sgd)
        order = list(train)
        Xoshiro256(derive_seed(cfg.seed, stream, epoch)).shuffle(order)
        epoch_loss = 0.0
        for index, batch in enumerate(_batches(order, cfg.batch_size)):
            arena.recycle()
            zero_grads(params)
            with _diverged_at(f"epoch {epoch}, batch {index}"):
                with Tape(arena) as tape:
                    loss = batch_loss(batch)
                value = float(loss.data)
                if not math.isfinite(value):
                    raise NonFiniteError(f"the batch loss is {value}")
                backward(tape, loss)
                sgd_step(params, lr)
            epoch_loss += value * len(batch)
        with _diverged_at(f"epoch {epoch}, validation"):
            val_loss, val_metric = validate()
        curve.append(epoch_loss / len(order), val_loss, val_metric)
        if val_metric >= best_metric:
            best_metric = val_metric
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
    _check_splits(manifest, "train", "val")
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
    train = manifest.by_split("train")
    val = manifest.by_split("val")
    inputs = _preprocessed(manifest, train + val, encoder)

    def classify(batch: list[CaseRecord]) -> tuple[Tensor, list[int]]:
        """The batch's logits and true class ids."""
        return encoder.forward(_stacked(inputs, batch)).logits, [classes[r.disease] for r in batch]

    def batch_loss(batch: list[CaseRecord]) -> Tensor:
        return ad.softmax_cross_entropy(*classify(batch))

    def validate() -> tuple[float, float]:
        val_loss, hits = 0.0, 0
        for batch in _batches(val, cfg.batch_size):
            logits, truth = classify(batch)
            val_loss += float(ad.softmax_cross_entropy(logits, truth).data) * len(batch)
            hits += sum(predict_topk(row, 1)[0][0] == t for row, t in zip(logits.data, truth))
        return val_loss / len(val), hits / len(val)

    curve = _fit(encoder.parameters(), train, cfg, 2, batch_loss, validate)
    return encoder.to_checkpoint(), curve


# ---------------------------------------------------------------------------
# captioner

def build_caption_vocabularies(manifest: DatasetManifest, min_frequency: int = 1,
                               ) -> tuple[Vocabulary, Vocabulary]:
    """Caption and keyword vocabularies from the train split only."""
    _check_splits(manifest, "train")
    train = manifest.by_split("train")
    ids = [r.id for r in train]
    vocab = build_vocabulary(
        [tokenize(r.description) for r in train], min_frequency, source_ids=ids)
    kw_vocab = build_vocabulary([r.keywords for r in train], 1, source_ids=ids)
    return vocab, kw_vocab


def caption_target(vocab: Vocabulary, description: str) -> list[int]:
    return [START] + vocab.encode(tokenize(description)) + [END]


def _guard_vocab_sources(vocab: Vocabulary, train_ids: set[str], label: str) -> None:
    if vocab.source_ids is not None and not set(vocab.source_ids) <= train_ids:
        leaked = sorted(set(vocab.source_ids) - train_ids)[:3]
        raise ValueError(
            f"{label} vocabulary was built from non-train records (e.g. {leaked}); "
            "rebuild it from the train split to avoid leakage"
        )


_KEYWORD_MODE = "decoder.keyword_mode"  # 1 or 0; a decoder file without it means 1


def train_captioner(manifest: DatasetManifest, cfg: TrainConfig,
                    encoder_ckpt: ModelCheckpoint,
                    vocab: Vocabulary, kw_vocab: Vocabulary,
                    ) -> tuple[ModelCheckpoint, TrainingCurve]:
    """Teacher-forced captioner training over frozen encoder features."""
    _check_splits(manifest, "train", "val")
    train = manifest.by_split("train")
    val = manifest.by_split("val")
    train_ids = {r.id for r in train}
    _guard_vocab_sources(vocab, train_ids, "caption")
    _guard_vocab_sources(kw_vocab, train_ids, "keyword")
    encoder = VisionEncoder.from_checkpoint(encoder_ckpt)
    inputs = _preprocessed(manifest, train + val, encoder)
    pooled = {}
    for batch in _batches(train + val, cfg.batch_size):
        feats = encoder.forward(_stacked(inputs, batch)).pooled.data
        pooled.update(zip((r.id for r in batch), feats))
    dim = encoder.config.feature_channels
    rng = Xoshiro256(derive_seed(cfg.seed, 3))
    decoder = DecoderParams.init(rng, vocab.size, dim, cfg.decoder_hidden)
    kw_proj = KeywordProjection.init(rng, kw_vocab.size, dim)
    params = decoder.parameters() + (kw_proj.parameters() if cfg.keyword_mode else [])
    targets = {r.id: caption_target(vocab, r.description) for r in train + val}
    bags = {r.id: keyword_multihot(r.keywords, kw_vocab) for r in train + val}
    refs = [tokenize(r.description) for r in val]

    def fused(batch: list[CaseRecord]) -> Tensor:
        img = Tensor(_stacked(pooled, batch))
        return kw_proj.fuse(img, _stacked(bags, batch)) if cfg.keyword_mode else img

    def batch_loss(batch: list[CaseRecord]) -> Tensor:
        return caption_loss(fused(batch), [targets[r.id] for r in batch], decoder)

    def validate() -> tuple[float, float]:
        val_loss, decoded = 0.0, []
        for batch in _batches(val, cfg.batch_size):
            feats = fused(batch)
            val_loss += float(caption_loss(feats, [targets[r.id] for r in batch], decoder).data) \
                * len(batch)
            decoded += [h.words(vocab)
                        for h in decode_greedy(feats.data, decoder, cfg.max_caption_len)]
        return val_loss / len(val), bleu_corpus(decoded, refs)[1]

    curve = _fit(params, train, cfg, 4, batch_loss, validate)
    return ModelCheckpoint({
        **{p.name: p.data for p in decoder.parameters() + kw_proj.parameters()},
        _KEYWORD_MODE: np.array([1.0 if cfg.keyword_mode else 0.0]),
    }), curve


# ---------------------------------------------------------------------------
# inference and evaluation

@dataclass
class Inference:
    ranked: list[tuple[int, float]]  # every class id with its probability, best first
    caption_words: list[str]
    image_path: str | None = None  # the asset paths, relative to the report bundle
    cam_path: str | None = None


class Pipeline:
    """Classify, caption and explain a stream of images, with the models and
    vocabularies loaded and cross-checked once.

    keyword_mode None takes the mode the decoder was trained with; False
    forces the keyword bypass. class_names, if given, must name every
    encoder class; by default they are class_0, class_1, ...
    """

    def __init__(self, encoder_ckpt: ModelCheckpoint, decoder_ckpt: ModelCheckpoint,
                 vocab: Vocabulary, kw_vocab: Vocabulary,
                 keyword_mode: bool | None = None, class_names: list[str] | None = None):
        self.encoder = VisionEncoder.from_checkpoint(encoder_ckpt)
        self.decoder = DecoderParams.from_checkpoint(decoder_ckpt)
        self.kw_proj = KeywordProjection.from_checkpoint(decoder_ckpt)
        self.vocab, self.kw_vocab = vocab, kw_vocab
        trained_mode = decoder_ckpt.take({_KEYWORD_MODE: (1,)})[_KEYWORD_MODE][0] \
            if _KEYWORD_MODE in decoder_ckpt else 1.0
        if trained_mode not in (0.0, 1.0):
            raise DataError(f"checkpoint entry {_KEYWORD_MODE} is {trained_mode}, not 0 or 1")
        self.keyword_mode = bool(trained_mode) if keyword_mode is None else keyword_mode
        self.num_classes = self.encoder.config.num_classes
        self.class_names = class_names if class_names is not None else \
            [f"class_{i}" for i in range(self.num_classes)]
        for what, a, b in (
            ("decoder input dim != encoder feature channels",
             self.decoder.input_dim, self.encoder.config.feature_channels),
            ("keyword projection output dim != decoder input dim",
             self.kw_proj.weight.data.shape[0], self.decoder.input_dim),
            ("caption vocabulary size != decoder vocabulary size",
             vocab.size, self.decoder.vocab_size),
            ("keyword vocabulary size != keyword projection input dim",
             kw_vocab.size, self.kw_proj.weight.data.shape[1]),
            ("manifest classes != encoder classes", len(self.class_names), self.num_classes),
        ):
            if a != b:
                raise DataError(f"{what}: {a} != {b}")

    def infer(self, cases, beam_width: int, max_len: int, alpha: float = 0.5,
              assets_dir=None) -> list[Inference]:
        """One Inference per (case id, image, keywords) from cases, in order.

        The cases are taken in chunks of at most _CHUNK_PIXELS (see _chunks). Each
        chunk is encoded as one batch and ranked, and with assets_dir set its
        images and CAM overlays are written there. Only the rankings and the fused
        features are kept, so a lazy cases holds one chunk of images at a time
        (encoding the split as one batch would hold it all). Then one beam search
        captions every case. Every case comes out as it would alone.
        """
        looked, fused = [], []
        for chunk in _chunks(cases, self.encoder.config.image_size ** 2):
            ids, images, keywords = zip(*chunk)
            out = self.encoder.forward(np.stack([self.encoder.preprocess(im) for im in images]))
            ranked = [predict_topk(row, self.num_classes) for row in out.logits.data]
            feature = out.pooled
            if self.keyword_mode:
                feature = self.kw_proj.fuse(
                    feature, np.stack([keyword_multihot(kw, self.kw_vocab) for kw in keywords]))
            fused.extend(feature.data)
            paths = [(None, None)] * len(chunk)
            if assets_dir is not None:
                paths = [write_case_assets(assets_dir, *case) for case in zip(
                    ids, images, self._overlays(images, out.feature_maps.data, ranked, alpha))]
            looked += zip(ranked, paths)
            del chunk, images, out  # before cases loads the next image
        beams = _beam_search(np.stack(fused), self.decoder, beam_width, max_len)
        return [Inference(ranked, beam[0].words(self.vocab), *paths)
                for (ranked, paths), beam in zip(looked, beams)]

    def _overlays(self, images: tuple[RetinalImage, ...], feature_maps: np.ndarray,
                  ranked: list[list[tuple[int, float]]], alpha: float) -> list[np.ndarray]:
        """The CAM overlay of each image for its top class, by one overlay call
        per stack of same-shape images (so gray and RGB apart)."""
        groups: dict[tuple, list[int]] = {}
        for i, image in enumerate(images):
            groups.setdefault(image.pixels.shape, []).append(i)
        overlays = {}
        for members in groups.values():
            cams = [compute_cam(feature_maps[i], self.encoder.classifier_weights,
                                ranked[i][0][0]).values for i in members]
            pixels = overlay(np.stack([images[i].pixels for i in members]), np.stack(cams), alpha)
            overlays.update(zip(members, pixels))
        return [overlays[i] for i in range(len(images))]


# A chunk of cases weighs at most this many pixels, a case weighing
# max(its source pixels, image_size^2): 8 images at the default 32 px side.
_CHUNK_PIXELS = 8 * 32 * 32


def _chunks(cases, min_weight: int):
    """The (case id, image, keywords) cases in order, in lists that each weigh at
    most _CHUNK_PIXELS, or a single case that alone weighs more.

    A chunk closes as soon as no case could join it, else when the next case
    would take it over the budget; only then is that case loaded beside it.
    """
    chunk, weight = [], 0
    for case in cases:
        image = case[1]
        case_weight = max(image.height * image.width, min_weight)
        if chunk and weight + case_weight > _CHUNK_PIXELS:
            yield chunk
            chunk, weight = [], 0
        chunk.append(case)
        weight += case_weight
        del case, image  # the chunk holds them; none is held past its chunk
        if weight + min_weight > _CHUNK_PIXELS:
            yield chunk
            chunk, weight = [], 0
    if chunk:
        yield chunk


@dataclass
class CaseResult:
    record: CaseRecord
    predictions: list[tuple[str, float]]  # (disease name, probability)
    caption_words: list[str]
    image_path: str | None = None  # the asset paths, relative to the report bundle
    cam_path: str | None = None


def write_case_assets(assets_dir, case_id: str, image: RetinalImage,
                      cam_pixels: np.ndarray) -> tuple[str, str]:
    """Write a case's image as `<id>.png` and its CAM overlay as `<id>_cam.png` into
    assets_dir, a folder of a report bundle; return their bundle-relative paths."""
    os.makedirs(assets_dir, exist_ok=True)
    folder = os.path.basename(os.path.normpath(assets_dir))
    paths = (f"{folder}/{case_id}.png", f"{folder}/{case_id}_cam.png")
    for path, pixels in zip(paths, (image.pixels, cam_pixels)):
        write_png(os.path.join(assets_dir, os.path.basename(path)), pixels)
    return paths


def evaluate_pipeline(manifest: DatasetManifest, encoder_ckpt: ModelCheckpoint,
                      decoder_ckpt: ModelCheckpoint, vocab: Vocabulary,
                      kw_vocab: Vocabulary, beam_width: int = 3,
                      k_list: tuple[int, ...] = (1, 5), max_caption_len: int = 30,
                      keyword_mode: bool | None = None, heatmap_dir=None,
                      ) -> tuple[MetricReport, list[CaseResult]]:
    """Classify, caption and explain the test split through Pipeline.infer: the
    images are loaded and encoded a chunk at a time, a few small images per
    chunk and a large one alone, then one beam search captions every case.

    With heatmap_dir set, each case's image and CAM overlay are written there
    by write_case_assets in the pass that encoded its chunk; heatmap_dir is
    the assets directory of a report bundle.
    """
    test = manifest.by_split("test")
    if not test:
        raise ValueError("manifest has an empty 'test' split")
    pipe = Pipeline(encoder_ckpt, decoder_ckpt, vocab, kw_vocab, keyword_mode,
                    manifest.class_list)
    if max(k_list) > pipe.num_classes:
        raise ValueError(f"k={max(k_list)} exceeds number of classes {pipe.num_classes}")
    cases = ((r.id, load_image(manifest.image_file(r)), r.keywords) for r in test)
    inferences = pipe.infer(cases, beam_width, max_caption_len, assets_dir=heatmap_dir)
    classes = manifest.class_index()
    report = score_captions([inf.caption_words for inf in inferences],
                            [tokenize(r.description) for r in test])
    rankings = [[cid for cid, _ in inf.ranked] for inf in inferences]
    truths = [classes[r.disease] for r in test]
    report.prec_at = {k: precision_at_k(rankings, truths, k) for k in k_list}
    return report, [
        CaseResult(record=r, caption_words=inf.caption_words, image_path=inf.image_path,
                   cam_path=inf.cam_path,
                   predictions=[(pipe.class_names[c], p) for c, p in inf.ranked[: max(k_list)]])
        for r, inf in zip(test, inferences)]
