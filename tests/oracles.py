"""Reference code that only the tests use: the central finite-difference gradient
check, the taped ops the per-record oracles are built from, an independent
recomputation of a caption's log-probability, the xoshiro256** block draw
as one inline Python loop, the CAM overlay of one image, inference one case at
a time, the PNG writer that joins its scanlines row by row, CIDEr with every
n-gram counted afresh where it is read, and the longest common subsequence by
the row-by-row dynamic programme. The tests
compare the package against these, so their numerics must not change.
"""

import math
import zlib
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from retinapipe.autodiff import ShapeError, Tape, Tensor, _emit, backward, zero_grads
from retinapipe.cam import colormap, compute_cam
from retinapipe.encoder import predict_topk
from retinapipe.imageio import _PNG_SIG, _png_chunk, resize_bilinear
from retinapipe.metrics import ngram_counts
from retinapipe.rng import _MASK, Xoshiro256
from retinapipe.textgen import DecoderParams, _beam_search, _DecoderState, keyword_multihot
from retinapipe.training import Inference, write_case_assets


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


def sequence_log_prob(fused, params: DecoderParams, tokens: tuple[int, ...]) -> float:
    """Independent recomputation of a hypothesis' cumulative log-probability."""
    dec = _DecoderState(params)
    h, c = dec.start_state(np.asarray(fused, dtype=np.float64)[None])
    total = 0.0
    for i, tok in enumerate(tokens):
        total += float(dec.log_probs(h)[0, tok])
        if i + 1 < len(tokens):
            h, c = dec.step([tok], h, c)
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


def infer_one_at_a_time(pipe, cases, beam_width: int, max_len: int, alpha: float = 0.5,
                        assets_dir=None) -> list[Inference]:
    """Pipeline.infer with each case encoded, fused and explained as a batch of
    one, then one beam search over all of them."""
    looked, fused = [], []
    for case_id, image, keywords in cases:
        out = pipe.encoder.encode_image(image)
        ranked = predict_topk(out.logits.data[0], pipe.num_classes)
        feature = out.pooled
        if pipe.keyword_mode:
            feature = pipe.kw_proj.fuse(feature, keyword_multihot(keywords, pipe.kw_vocab)[None])
        fused.append(feature.data[0])
        paths = (None, None)
        if assets_dir is not None:
            cam = compute_cam(out.feature_maps.data[0], pipe.encoder.classifier_weights,
                              ranked[0][0])
            paths = write_case_assets(assets_dir, case_id, image,
                                      overlay_one(image.pixels, cam.values, alpha))
        looked.append((ranked, paths))
    beams = _beam_search(np.stack(fused), pipe.decoder, beam_width, max_len)
    return [Inference(ranked, beam[0].words(pipe.vocab), *paths)
            for (ranked, paths), beam in zip(looked, beams)]


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
