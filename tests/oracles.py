"""Reference code that only the tests use: the central finite-difference gradient
check, the taped ops the per-record oracles are built from, the encoder stage
and keyword fusion as the separate relu, max-pool, add and scale ops that
maxpool2d and average fold together, an independent
recomputation of a caption's log-probability, the xoshiro256** block draw
as one inline Python loop, the CAM overlay of one image, inference one case at
a time, the PNG writer that joins its scanlines row by row, CIDEr with every
n-gram counted afresh where it is read, the longest common subsequence by
the row-by-row dynamic programme, and the CLI's checked flag types as one
hand-written function each. The tests
compare the package against these, so their numerics must not change.
"""

import argparse
import math
import zlib
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from retinapipe.autodiff import (
    ShapeError, Tape, Tensor, _emit, backward, conv2d, global_avg_pool, linear, log_softmax_np,
    lstm_cell_np, matvec_rows, zero_grads,
)
from retinapipe.cam import colormap, compute_cam
from retinapipe.encoder import predict_topk
from retinapipe.imageio import _PNG_SIG, _png_chunk, resize_bilinear
from retinapipe.metrics import ngram_counts
from retinapipe.report import MedicalReport, build_report
from retinapipe.rng import _MASK, Xoshiro256
from retinapipe.textgen import START, DecoderParams, _beam_search, keyword_multihot
from retinapipe.training import write_case_assets


class InlineLoopXoshiro(Xoshiro256):
    """Block draws with the whole xoshiro256** step, scrambler included, inline
    in one Python loop: the reference for the package's array scrambler."""

    def _next_u64s(self, n: int) -> list[int]:
        s0, s1, s2, s3 = self._s
        out = []
        for _ in range(n):
            x = (s1 * 5) & _MASK
            out.append(((((x << 7) | (x >> 57)) & _MASK) * 9) & _MASK)
            t = (s1 << 17) & _MASK
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
        self._s = [s0, s1, s2, s3]
        return out


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum())

    def bwd(gs):
        x.accumulate(np.full_like(x.data, float(gs[0])))

    _emit((out,), bwd)
    return out


def mean_scalars(terms: list[Tensor]) -> Tensor:
    """Mean of scalar tensors as a single op (used for per-step losses)."""
    if not terms:
        raise ValueError("mean_scalars needs at least one term")
    n = len(terms)
    out = Tensor(sum(float(t.data) for t in terms) / n)

    def bwd(gs):
        g = float(gs[0]) / n
        for t in terms:
            t.accumulate(np.full_like(t.data, g))

    _emit((out,), bwd)
    return out


def as_row(x: Tensor) -> Tensor:
    """A D vector as a 1 x D batch, for the batched ops."""
    out = Tensor(x.data[None])

    def bwd(gs):
        x.accumulate(gs[0][0])

    _emit((out,), bwd)
    return out


def embedding_row(table: Tensor, index: int) -> Tensor:
    if table.data.ndim != 2:
        raise ShapeError(f"embedding_row: table must be 2-D, got {table.data.shape}")
    if not 0 <= index < table.data.shape[0]:
        raise ValueError(f"embedding_row: index {index} out of range")
    out = Tensor(table.data[index])

    def bwd(gs):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        table.grad[index] += gs[0]

    _emit((out,), bwd)
    return out


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))
    mask = x.data > 0.0

    def bwd(gs):
        x.accumulate(gs[0] * mask)

    _emit((out,), bwd)
    return out


def maxpool2d_unrectified(x: Tensor, window: int) -> Tensor:
    """The max of each non-overlapping window of an NCHW batch, not floored at 0;
    a tie sends the gradient to the first offset, as argmax's."""
    h, w = x.data.shape[2:]
    ho, wo = h // window, w // window
    offsets = [(a, b) for a in range(window) for b in range(window)]

    def at(arr, a, b):
        return arr[:, :, a : a + window * ho : window, b : b + window * wo : window]

    top = at(x.data, 0, 0).copy()
    for a, b in offsets[1:]:
        np.maximum(top, at(x.data, a, b), out=top)
    out = Tensor(top)

    def bwd(gs):
        gx = np.zeros_like(x.data)
        unclaimed = np.ones(top.shape, dtype=bool)
        for a, b in offsets:
            hit = unclaimed & (at(x.data, a, b) == top)
            unclaimed &= ~hit
            at(gx, a, b)[...] += gs[0] * hit
        x.accumulate(gx)

    _emit((out,), bwd)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} differ")
    out = Tensor(a.data + b.data)

    def bwd(gs):
        a.accumulate(gs[0])
        b.accumulate(gs[0])

    _emit((out,), bwd)
    return out


def scale(x: Tensor, s: float) -> Tensor:
    out = Tensor(x.data * s)

    def bwd(gs):
        x.accumulate(gs[0] * s)

    _emit((out,), bwd)
    return out


def encoder_forward_three_ops(encoder, nchw: np.ndarray) -> tuple[Tensor, Tensor, Tensor]:
    """VisionEncoder.forward's feature maps, pooled features and logits with each
    stage run as conv2d, then relu, then the unrectified max-pool."""
    x = Tensor(nchw, needs_grad=False)
    for i, (_out_ch, kernel, stride, pool) in enumerate(encoder.config.stages):
        x = conv2d(x, encoder._params[f"encoder.stage{i}.kernels"],
                   encoder._params[f"encoder.stage{i}.bias"], stride=stride, pad=kernel // 2)
        x = maxpool2d_unrectified(relu(x), pool)
    pooled = global_avg_pool(x)
    return x, pooled, linear(pooled, encoder._params["encoder.fc.weight"],
                             encoder._params["encoder.fc.bias"])


def fuse_three_ops(dec, image_feat: Tensor, bags: np.ndarray) -> Tensor:
    """DecoderParams.fuse as the scaled sum of the image features and the
    projected keyword bags."""
    return scale(add(image_feat, linear(Tensor(bags), dec.kw_weight, dec.kw_bias)), 0.5)


def sequence_log_prob(fused, params: DecoderParams, tokens: tuple[int, ...]) -> float:
    """Independent recomputation of a hypothesis' cumulative log-probability: the
    fused feature, then START, then each token but the last, fed one at a time."""
    emb, out_w, out_b = params.embedding.data, params.out_w.data, params.out_b.data
    wx, wh, b = params.cell.wx.data, params.cell.wh.data, params.cell.b.data
    h = c = np.zeros((1, params.hidden_size))
    total = 0.0
    inputs = [np.asarray(fused, dtype=np.float64), emb[START], *(emb[t] for t in tokens[:-1])]
    for i, x in enumerate(inputs):
        h, c, _ = lstm_cell_np(wx, wh, b, x[None], h, c)
        if i:
            total += float(log_softmax_np(matvec_rows(out_w, h) + out_b)[0, tokens[i - 1]])
    return total


@dataclass
class BlockCheck:
    max_rel_error: float
    passed: bool
    detail: str = ""


@dataclass
class FiniteDifferenceReport:
    blocks: dict[str, BlockCheck] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(b.passed for b in self.blocks.values())

    @property
    def max_rel_error(self) -> float:
        return max((b.max_rel_error for b in self.blocks.values()), default=0.0)


def finite_difference_check(model_fn, params: dict[str, Tensor],
                            eps: float = 1e-5, tol: float = 1e-4) -> FiniteDifferenceReport:
    """Compare analytic gradients of a scalar model_fn against central differences.

    model_fn must be deterministic and read parameter values afresh on each
    call. Relative error uses max(|analytic|, |fd|, 1e-4) as denominator so
    near-zero gradients are judged on an absolute scale.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    zero_grads(list(params.values()))
    with Tape() as tape:
        loss = model_fn()
    backward(tape, loss)
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }
    report = FiniteDifferenceReport()
    for name, p in params.items():
        flat = p.data.reshape(-1)
        aflat = analytic[name].reshape(-1)
        worst, detail = 0.0, ""
        failed = False
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            fp = float(model_fn().data)
            flat[j] = orig - eps
            fm = float(model_fn().data)
            flat[j] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                report.blocks[name] = BlockCheck(
                    max_rel_error=np.inf, passed=False,
                    detail=f"non-finite probe at {name}[{j}]",
                )
                failed = True
                break
            fd = (fp - fm) / (2.0 * eps)
            err = abs(aflat[j] - fd) / max(abs(aflat[j]), abs(fd), 1e-4)
            if err > worst:
                worst, detail = err, f"worst at {name}[{j}]: analytic={aflat[j]:.6g} fd={fd:.6g}"
        if not failed:
            report.blocks[name] = BlockCheck(max_rel_error=worst, passed=worst < tol, detail=detail)
    return report


def overlay_one(pixels: np.ndarray, raw: np.ndarray, alpha: float) -> np.ndarray:
    """The CAM overlay of one H x W x C image and its raw h x w CAM: normalize the
    map to [0, 1] (a constant map to 0.5), resample it to H x W, and blend its
    colormap with the grayscale image; H x W x 3 uint8."""
    lo, hi = raw.min(), raw.max()
    heat = np.full_like(raw, 0.5) if hi == lo else (raw - lo) / (hi - lo)
    heat = resize_bilinear(heat, *pixels.shape[:2])
    gray = pixels.mean(axis=2, dtype=np.float64) / 255.0
    blended = (1.0 - alpha) * gray[:, :, None] + alpha * colormap(heat)
    return np.rint(blended * 255.0).astype(np.uint8)


def infer_one_at_a_time(pipe, cases, topk: int, beam_width: int, max_len: int, assets_dir,
                        alpha: float = 0.5) -> list[MedicalReport]:
    """Pipeline.infer with each case encoded, fused and explained as a batch of
    one, then one beam search over all of them."""
    looked, fused = [], []
    for record, image in cases:
        out = pipe.encoder.forward(pipe.encoder.preprocess(image)[None])
        ranked = predict_topk(out.logits.data[0], pipe.num_classes)
        bag = keyword_multihot(record.keywords, pipe.kw_vocab)[None]
        fused.append(pipe.decoder.fuse(out.pooled, bag).data[0])
        cam = compute_cam(out.feature_maps.data[0], pipe.encoder.classifier_weights,
                          ranked[0][0])
        paths = write_case_assets(assets_dir, record.id, image,
                                  overlay_one(image, cam, alpha))
        looked.append((record, ranked, paths))
    beams = _beam_search(np.stack(fused), pipe.decoder, beam_width, max_len)
    return [build_report(record, [(pipe.class_names[c], p) for c, p in ranked[:topk]],
                         beam[0].words(pipe.vocab), *paths)
            for (record, ranked, paths), beam in zip(looked, beams)]


def png_bytes_row_join(pixels: np.ndarray) -> bytes:
    """An 8-bit gray (H x W) or RGB (H x W x 3) PNG file, filter type 0, with its
    scanlines joined one row at a time."""
    h, w = pixels.shape[:2]
    color = 0 if pixels.ndim == 2 else 2
    ihdr = w.to_bytes(4, "big") + h.to_bytes(4, "big") + bytes([8, color, 0, 0, 0])
    rows = pixels.reshape(h, -1)
    raw = b"".join(b"\x00" + rows[y].tobytes() for y in range(h))
    return (_PNG_SIG + _png_chunk(b"IHDR", ihdr) + _png_chunk(b"IDAT", zlib.compress(raw, 6))
            + _png_chunk(b"IEND", b""))


def cider_recounting(candidates: list[list[str]], references: list[list[str]],
                     up_to_n: int = 4) -> float:
    """CIDEr with each sentence's n-grams counted once for the document
    frequencies and again for the tf-idf vectors, and each log taken per use."""
    n_items = len(candidates)
    doc_freq = [Counter() for _ in range(up_to_n)]
    for ref in references:
        for n in range(1, up_to_n + 1):
            for gram in set(ngram_counts(ref, n)):
                doc_freq[n - 1][gram] += 1

    def tfidf(counts: Counter, n: int) -> dict:
        return {g: c * math.log(n_items / max(doc_freq[n - 1][g], 1)) for g, c in counts.items()}

    def cosine(u: dict, v: dict) -> float:
        nu = math.sqrt(sum(x * x for x in u.values()))
        nv = math.sqrt(sum(x * x for x in v.values()))
        if nu == 0.0 or nv == 0.0:
            return 0.0
        return sum(x * v[g] for g, x in u.items() if g in v) / (nu * nv)

    total = 0.0
    for cand, ref in zip(candidates, references):
        sims = [cosine(tfidf(ngram_counts(cand, n), n), tfidf(ngram_counts(ref, n), n))
                for n in range(1, up_to_n + 1)]
        total += 10.0 * sum(sims) / up_to_n
    return total / n_items


def lcs_length_dp(a: list[str], b: list[str]) -> int:
    """The longest common subsequence's length, one table row per token of a."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


# The CLI's checked flag types, one hand-written function each. On every input they
# give the value or the message of the package's types, except that the digit-only
# types let int raise ValueError for a digit that str.isdigit accepts but int does not
# read, such as '²'.

def triple(cast):
    """The argparse type of three comma-separated numbers, each read by cast."""
    def parse(text: str) -> tuple:
        try:
            values = tuple(map(cast, text.split(",")))
        except ValueError:
            values = ()
        if len(values) != 3:
            raise argparse.ArgumentTypeError(
                f"expected three comma-separated numbers, got {text!r}")
        return values
    return parse


def positive_int(text: str) -> int:
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def class_count(text: str) -> int:
    if not text.strip().isdigit() or int(text) < 2:
        raise argparse.ArgumentTypeError(f"expected at least 2 classes, got {text!r}")
    return int(text)


def class_id(text: str) -> int:
    try:
        if (value := int(text)) >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def positive_ints(text: str) -> tuple[int, ...]:
    return tuple(map(positive_int, text.split(",")))


def unit_float(text: str) -> float:
    try:
        if 0.0 <= (value := float(text)) <= 1.0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got {text!r}")


def positive_float(text: str) -> float:
    try:
        if 0.0 < (value := float(text)) < math.inf:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
