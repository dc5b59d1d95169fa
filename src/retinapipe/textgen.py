"""Clinical description generator: vocabulary, keyword bag-of-words embedding,
feature fusion, teacher-forced LSTM loss, and beam-search decoding (greedy
decoding is the width-1 beam)."""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import LstmParams, ShapeError, Tensor, init_arrays, parameters_from
from .checkpoint import ModelCheckpoint
from .errors import DataError, NonFiniteError
from .rng import Xoshiro256

PAD, START, END, UNK = 0, 1, 2, 3
RESERVED = ("<pad>", "<start>", "<end>", "<unk>")

_STRIP = '.,;:!?()"'


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip flanking punctuation, drop empties."""
    out = []
    for raw in text.lower().split():
        tok = raw.strip(_STRIP)
        if tok:
            out.append(tok)
    return out


def detokenize(tokens: list[str]) -> str:
    """Space-join, capitalize the first letter, ensure a terminal period."""
    if not tokens:
        return ""
    text = " ".join(tokens)
    text = text[0].upper() + text[1:]
    if not text.endswith("."):
        text += "."
    return text


class Vocabulary:
    """Token/index bijection with 4 reserved slots (PAD, START, END, UNK)."""

    FILE_HEADER = "retinapipe-vocab-v1"

    def __init__(self, tokens: list[str]):
        self._itos = list(RESERVED) + list(tokens)
        self._stoi = {t: i for i, t in enumerate(self._itos)}
        if len(self._stoi) != len(self._itos):
            raise ValueError("vocabulary contains duplicate tokens")
        if any("\n" in tok for tok in tokens):
            raise ValueError("a vocabulary token contains a line break, which the file cannot hold")

    @property
    def size(self) -> int:
        return len(self._itos)

    def index(self, token: str) -> int:
        return self._stoi.get(token, UNK)

    def token(self, index: int) -> str:
        return self._itos[index]

    def __contains__(self, token: str) -> bool:
        return token in self._stoi

    def encode(self, tokens: list[str]) -> list[int]:
        return [self.index(t) for t in tokens]

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(self.FILE_HEADER + "\n")
            for tok in self._itos:
                f.write(tok + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, "rb") as f:
            blob = f.read()
        try:
            lines = blob.decode("utf-8").removesuffix("\n").split("\n")  # the writer's line break
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: vocabulary is not UTF-8: {e}") from e
        if not lines or lines[0] != cls.FILE_HEADER:
            raise DataError(f"{path}: not a {cls.FILE_HEADER} file")
        body = lines[1:]
        if tuple(body[:4]) != RESERVED:
            raise DataError(f"{path}: reserved token block is corrupt")
        try:
            return cls(body[4:])
        except ValueError as e:
            raise DataError(f"{path}: {e}") from e


def build_vocabulary(corpus: list[list[str]], min_frequency: int = 1) -> Vocabulary:
    """Tokens with count >= min_frequency, ordered by (count desc, token asc)."""
    if min_frequency < 1:
        raise ValueError("min_frequency must be >= 1")
    counts: dict[str, int] = {}
    for sent in corpus:
        for tok in sent:
            counts[tok] = counts.get(tok, 0) + 1
    kept = sorted(
        (t for t, c in counts.items() if c >= min_frequency and t not in RESERVED),
        key=lambda t: (-counts[t], t),
    )
    return Vocabulary(kept)


# ---------------------------------------------------------------------------
# keyword embedding and fusion

def keyword_multihot(keywords, kw_vocab: Vocabulary) -> np.ndarray:
    """Order-independent {0,1} vector over the keyword vocabulary. A keyword outside
    it adds nothing, as in training, which never trains the `<unk>` column."""
    v = np.zeros(kw_vocab.size, dtype=np.float64)
    for kw in keywords:
        if kw in kw_vocab:
            v[kw_vocab.index(kw)] = 1.0
    return v


# ---------------------------------------------------------------------------
# decoder parameters

# the entries a decoder file's sizes are read from, and its keyword mode (1 or 0; none means 1)
_EMBEDDING, _LSTM_WH, _KW_WEIGHT = "decoder.embedding", "decoder.lstm.wh", "kw_proj.weight"
_KEYWORD_MODE = "decoder.keyword_mode"


def decoder_shapes(vocab_size: int, input_dim: int, hidden: int,
                   kw_vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every decoder parameter, in initialization order."""
    return {
        _EMBEDDING: (vocab_size, input_dim),
        "decoder.lstm.wx": (4 * hidden, input_dim),
        _LSTM_WH: (4 * hidden, hidden),
        "decoder.lstm.b": (4 * hidden,),
        "decoder.out.weight": (vocab_size, hidden),
        "decoder.out.bias": (vocab_size,),
        _KW_WEIGHT: (input_dim, kw_vocab_size),
        "kw_proj.bias": (input_dim,),
    }


@dataclass
class DecoderParams:
    """The captioner's one file: the LSTM decoder, its keyword projection and keyword mode."""

    embedding: Tensor  # V x D
    cell: LstmParams
    out_w: Tensor  # V x H
    out_b: Tensor  # V
    kw_weight: Tensor  # D x KV
    kw_bias: Tensor  # D
    keyword_mode: bool

    @property
    def vocab_size(self) -> int:
        return self.embedding.data.shape[0]

    @property
    def input_dim(self) -> int:
        return self.embedding.data.shape[1]

    @property
    def hidden_size(self) -> int:
        return self.cell.hidden_size

    @classmethod
    def init(cls, rng: Xoshiro256, vocab_size: int, input_dim: int, hidden: int,
             kw_vocab_size: int, keyword_mode: bool) -> "DecoderParams":
        arrays = init_arrays(rng, decoder_shapes(vocab_size, input_dim, hidden, kw_vocab_size))
        # the forget gates start open, which stabilizes early training
        arrays["decoder.lstm.b"][hidden : 2 * hidden] = 1.0
        return cls.from_checkpoint(ModelCheckpoint({**arrays, _KEYWORD_MODE: [keyword_mode]}))

    def _tensors(self) -> list[Tensor]:  # in decoder_shapes order
        return [self.embedding, self.cell.wx, self.cell.wh, self.cell.b, self.out_w, self.out_b,
                self.kw_weight, self.kw_bias]

    def parameters(self) -> list[Tensor]:
        """The trained tensors: the keyword projection's only in keyword mode."""
        return self._tensors()[: 8 if self.keyword_mode else 6]

    def fuse(self, image_feat: Tensor, bags: np.ndarray) -> Tensor:
        """The B x D image features averaged, in keyword mode, with their projected
        keyword bags, the B x KV rows of keyword_multihot, which take no gradient."""
        if not self.keyword_mode:
            return image_feat
        return ad.average(image_feat,
                          ad.linear(Tensor(bags, needs_grad=False), self.kw_weight, self.kw_bias))

    def to_checkpoint(self) -> ModelCheckpoint:
        return ModelCheckpoint({**{t.name: t.data for t in self._tensors()},
                                _KEYWORD_MODE: [self.keyword_mode]})

    @classmethod
    def from_checkpoint(cls, ckpt: ModelCheckpoint) -> "DecoderParams":
        """V and D come from the embedding, H from the recurrent weights and KV
        from the keyword projection; the rest must fit."""
        emb, wh, kw = ckpt.take({_EMBEDDING: (None, None), _LSTM_WH: (None, None),
                                 _KW_WEIGHT: (None, None)}).values()
        if kw.shape[0] != emb.shape[1]:
            raise DataError("keyword projection output dim != decoder input dim: "
                            f"{kw.shape[0]} != {emb.shape[1]}")
        shapes = decoder_shapes(*emb.shape, wh.shape[1], kw.shape[1])
        emb, wx, wh, b, out_w, out_b, kw_w, kw_b = parameters_from(ckpt.take(shapes)).values()
        mode = ckpt.take({_KEYWORD_MODE: (1,)})[_KEYWORD_MODE][0] if _KEYWORD_MODE in ckpt else 1.0
        if mode not in (0.0, 1.0):
            raise DataError(f"checkpoint entry {_KEYWORD_MODE} is {mode}, not 0 or 1")
        return cls(emb, LstmParams(wx=wx, wh=wh, b=b), out_w, out_b, kw_w, kw_b, bool(mode))


# ---------------------------------------------------------------------------
# training loss

def caption_loss(fused: Tensor, targets, params: DecoderParams) -> Tensor:
    """Mean over records of each record's mean teacher-forced cross-entropy, as one op.

    fused is B x D, with one token-id target per row; the fused feature is the
    step-0 input. Targets are padded to one length with PAD, and a PAD target
    scores nothing.
    """
    if fused.data.ndim != 2 or len(fused.data) != len(targets):
        raise ShapeError(f"caption_loss: need B x D features and B targets, "
                         f"got {fused.data.shape} and {len(targets)}")
    for target in targets:
        if len(target) < 2 or target[0] != START or target[-1] != END:
            raise ValueError("target must begin with START and end with END")
    seq = np.full((len(targets), max(map(len, targets))), PAD)
    for row, target in zip(seq, targets):
        row[: len(target)] = target
    scored = seq[:, 1:] != PAD
    weights = scored / (len(targets) * scored.sum(axis=1, keepdims=True))
    return ad.lstm_sequence_xent(fused, seq[:, :-1], seq[:, 1:], weights,
                                 params.embedding, params.cell, params.out_w, params.out_b)


# ---------------------------------------------------------------------------
# decoding

@dataclass(frozen=True)
class Hypothesis:
    tokens: tuple[int, ...]  # without START; END kept if emitted
    log_prob: float

    def words(self, vocab: Vocabulary) -> list[str]:
        """The caption's tokens, reserved symbols dropped."""
        return [vocab.token(i) for i in self.tokens if i >= len(RESERVED)]


def _beam_search(feats: np.ndarray, params: DecoderParams, width: int,
                 max_len: int) -> list[list[Hypothesis]]:
    """Beam search over cumulative log-probability for each row of the B x D
    features; gives each record's beam, best first.

    Each step scores the live hypotheses of every record at once and keeps each
    record's best `width` candidates; ties break toward the lexicographically
    smaller token sequence. Finished hypotheses are set aside. A record stops
    once `width` of its finished hypotheses all score strictly above its best
    live one: a token's log-probability is never positive, so no live one can
    reach its top `width` any more. Each row is stepped as a lone vector would
    be, so a record's beam does not depend on the rest of the batch. A record
    whose every score is NaN (a diverged decoder) raises NonFiniteError.
    """
    if width < 1:
        raise ValueError("beam width must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if feats.ndim != 2 or feats.shape[1] != params.input_dim:
        raise ShapeError(f"decoding needs B x {params.input_dim} features, got shape {feats.shape}")
    emb, out_w, out_b = params.embedding.data, params.out_w.data, params.out_b.data
    wx, wh, bias = params.cell.wx.data, params.cell.wh.data, params.cell.b.data

    def advance(tokens, h, c):  # the B x H state after feeding tokens[b] to row b
        return ad.lstm_cell_np(wx, wh, bias, emb[tokens], h, c)[:2]

    zeros = np.zeros((len(feats), params.hidden_size))  # the state before the features
    h, c = advance([START] * len(feats), *ad.lstm_cell_np(wx, wh, bias, feats, zeros, zeros)[:2])
    vocab = params.vocab_size
    k = min(width, vocab)
    finished: list[list[tuple[float, tuple[int, ...]]]] = [[] for _ in feats]
    # the record, cumulative log-prob and tokens of each row of h and c, grouped by record
    recs, lps, seqs = list(range(len(feats))), [0.0] * len(feats), [()] * len(feats)
    for step in range(max_len):
        scores = np.array(lps)[:, None] + ad.log_softmax_np(ad.matvec_rows(out_w, h) + out_b)
        # a candidate below its row's k-th best cannot make its record's top `width`
        picks = np.flatnonzero(scores >= np.partition(scores, -k, axis=1)[:, -k, None])
        candidates: dict[int, list] = {}  # each record's, in record order
        for j, lp in zip(picks.tolist(), scores.ravel()[picks].tolist()):
            row, tok = divmod(j, vocab)
            # every prefix has `step` tokens, so (prefix, tok) sorts as prefix + (tok,)
            candidates.setdefault(recs[row], []).append((-lp, seqs[row], tok, row))
        rows, recs, lps, seqs = [], [], [], []
        for rec, cands in candidates.items():
            done, first = finished[rec], len(rows)
            for neg_lp, prefix, tok, row in sorted(cands)[:width]:
                if tok == END:
                    done.append((-neg_lp, prefix + (tok,)))
                else:
                    rows.append(row)
                    recs.append(rec)
                    lps.append(-neg_lp)
                    seqs.append(prefix + (tok,))
            if len(done) >= width and len(rows) > first and \
                    heapq.nlargest(width, (lp for lp, _ in done))[-1] > lps[first]:
                # decided: each live one scores below `width` finished ones
                del rows[first:], recs[first:], lps[first:], seqs[first:]
        if not rows or step + 1 == max_len:
            break
        h, c = advance([toks[-1] for toks in seqs], h[rows], c[rows])
    for rec, lp, toks in zip(recs, lps, seqs):  # max_len reached
        finished[rec].append((lp, toks))
    beams = []
    for rec, done in enumerate(finished):
        if not done:  # NaN scores pass no candidate filter
            raise NonFiniteError(f"the decoder scores of record {rec} are not finite")
        done.sort(key=lambda f: (-f[0], f[1]))
        beams.append([Hypothesis(tokens=toks, log_prob=lp) for lp, toks in done[:width]])
    return beams


def decode_greedy(feats: np.ndarray, params: DecoderParams, max_len: int) -> list[Hypothesis]:
    """Argmax decoding of each row of the B x D features: the width-1 beam search,
    so a tie resolves to the lowest token index."""
    return [beam[0] for beam in _beam_search(feats, params, 1, max_len)]


def decode_beam(feature: np.ndarray, params: DecoderParams, width: int,
                max_len: int) -> list[Hypothesis]:
    """The beam of one D feature, best first (see _beam_search). No package code calls
    it; it stays because perfbench/layertrace.py wraps it by name."""
    return _beam_search(feature[None], params, width, max_len)[0]
