"""Caption and classification evaluation: BLEU-1..4 with brevity penalty,
ROUGE-L F-score, CIDEr, and Prec@k. All functions are pure and single-reference."""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field


def ngram_counts(tokens: list[str], n: int) -> Counter:
    if n < 1:
        raise ValueError("n must be >= 1")
    return Counter(zip(*(tokens[i:] for i in range(n))))


_Grams = list[list[Counter]]  # per sentence, its n-gram counts for n = 1, 2, ...


def _counted(candidates: list[list[str]], references: list[list[str]],
             up_to_n: int) -> tuple[_Grams, _Grams]:
    """Each candidate's and each reference's n-gram counts for n = 1..up_to_n,
    counted once for every metric that reads them."""
    if len(candidates) != len(references):
        raise ValueError(
            f"candidate/reference count mismatch: {len(candidates)} vs {len(references)}"
        )

    def count(sentences: list[list[str]]) -> _Grams:
        return [[ngram_counts(s, n) for n in range(1, up_to_n + 1)] for s in sentences]

    return count(candidates), count(references)


def bleu_corpus(candidates: list[list[str]], references: list[list[str]],
                up_to_n: int = 4) -> tuple[list[float], float]:
    """Corpus-level unsmoothed BLEU-1..up_to_n and their mean."""
    return _bleu(*_counted(candidates, references, up_to_n))


def _bleu(cand_grams: _Grams, ref_grams: _Grams) -> tuple[list[float], float]:
    if not cand_grams:
        raise ValueError("empty corpus")
    up_to_n = len(cand_grams[0])
    matched = [0] * up_to_n
    total = [0] * up_to_n
    cand_len = sum(sum(grams[0].values()) for grams in cand_grams)  # the unigram counts
    ref_len = sum(sum(grams[0].values()) for grams in ref_grams)
    for cand, ref in zip(cand_grams, ref_grams):
        for n, (cc, rc) in enumerate(zip(cand, ref)):
            matched[n] += sum(min(cnt, rc[g]) for g, cnt in cc.items())
            total[n] += sum(cc.values())
    precisions = [m / t if t > 0 else 0.0 for m, t in zip(matched, total)]
    if cand_len == 0:
        bp = 0.0
    else:
        bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    scores = []
    for k in range(1, up_to_n + 1):
        ps = precisions[:k]
        if any(p == 0.0 for p in ps):
            scores.append(0.0)
        else:
            scores.append(bp * math.exp(sum(math.log(p) for p in ps) / k))
    return scores, sum(scores) / up_to_n


def _lcs_length(a: list[str], b: list[str]) -> int:
    """Length of the longest common subsequence, by the bit-parallel recurrence of
    Hyyro (2004) over one integer: after each token of a, bit j of v is 0 exactly
    where the LCS of a's prefix read so far grows at b[j], so v's zero bits count
    it. The result is the integer the row-by-row dynamic programme gives."""
    match: dict[str, int] = {}
    for j, y in enumerate(b):
        match[y] = match.get(y, 0) | 1 << j
    full = (1 << len(b)) - 1
    v = full
    for x in a:
        u = v & match.get(x, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - bin(v).count("1")


def rouge_l(candidate: list[str], reference: list[str], beta: float = 1.2) -> float:
    """ROUGE-L F-score based on longest common subsequence."""
    if not candidate or not reference:
        return 0.0
    lcs = _lcs_length(candidate, reference)
    if lcs == 0:
        return 0.0
    p = lcs / len(candidate)
    r = lcs / len(reference)
    return (1 + beta * beta) * r * p / (r + beta * beta * p)


def rouge_l_corpus(candidates: list[list[str]], references: list[list[str]],
                   beta: float = 1.2) -> float:
    if len(candidates) != len(references):
        raise ValueError("candidate/reference count mismatch")
    if not candidates:
        raise ValueError("empty corpus")
    return sum(rouge_l(c, r, beta) for c, r in zip(candidates, references)) / len(candidates)


def cider(candidates: list[list[str]], references: list[list[str]],
          up_to_n: int = 4) -> float:
    """TF-IDF weighted n-gram cosine similarity, averaged over n and items, x10.

    IDF documents are the reference sentences; needs >= 2 items to be
    non-degenerate.
    """
    return _cider(*_counted(candidates, references, up_to_n))


def _cider(cand_grams: _Grams, ref_grams: _Grams) -> float:
    n_items = len(cand_grams)
    if n_items < 2:
        raise ValueError(
            "CIDEr needs at least 2 corpus items: IDF is degenerate on a single document"
        )
    up_to_n = len(cand_grams[0])
    doc_freq = [Counter() for _ in range(up_to_n)]
    for ref in ref_grams:
        for df, counts in zip(doc_freq, ref):
            df.update(counts.keys())
    # an n-gram in no reference weighs as if it were in one
    idf = [{g: math.log(n_items / df_g) for g, df_g in df.items()} for df in doc_freq]
    unseen = math.log(n_items)

    def tfidf(counts: Counter, n: int) -> dict:
        return {g: c * idf[n].get(g, unseen) for g, c in counts.items()}

    def cosine(u: dict, v: dict) -> float:
        nu = math.sqrt(sum(x * x for x in u.values()))
        nv = math.sqrt(sum(x * x for x in v.values()))
        if nu == 0.0 or nv == 0.0:
            return 0.0
        dot = sum(x * v[g] for g, x in u.items() if g in v)
        return dot / (nu * nv)

    total = 0.0
    for cand, ref in zip(cand_grams, ref_grams):
        sims = [cosine(tfidf(cand[n], n), tfidf(ref[n], n)) for n in range(up_to_n)]
        total += 10.0 * sum(sims) / up_to_n
    return total / n_items


def precision_at_k(rankings: list[list[int]], truths: list[int], k: int) -> float:
    """Fraction of records whose truth appears in the top k of its ranking."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not rankings:
        raise ValueError("empty record set")
    if len(rankings) != len(truths):
        raise ValueError("rankings/truths length mismatch")
    hits = 0
    for ranked, truth in zip(rankings, truths):
        if len(ranked) < k:
            raise ValueError(f"ranking has {len(ranked)} entries, need at least {k}")
        if truth in ranked[:k]:
            hits += 1
    return hits / len(rankings)


@dataclass
class MetricReport:
    bleu: list[float] = field(default_factory=lambda: [0.0] * 4)
    bleu_avg: float = 0.0
    rouge: float = 0.0
    cider: float = 0.0
    prec_at: dict[int, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "bleu_1": self.bleu[0],
            "bleu_2": self.bleu[1],
            "bleu_3": self.bleu[2],
            "bleu_4": self.bleu[3],
            "bleu_avg": self.bleu_avg,
            "rouge": self.rouge,
            "cider": self.cider,
            "prec_at": {str(k): v for k, v in sorted(self.prec_at.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def score_captions(candidates: list[list[str]], references: list[list[str]],
                   rouge_beta: float = 1.2) -> MetricReport:
    """All text metrics in one report, from one count of each sentence's n-grams;
    CIDEr set to 0 when the corpus is a single item."""
    cand_grams, ref_grams = _counted(candidates, references, 4)
    bleu, bleu_avg = _bleu(cand_grams, ref_grams)
    report = MetricReport(bleu=bleu, bleu_avg=bleu_avg,
                          rouge=rouge_l_corpus(candidates, references, rouge_beta))
    report.cider = _cider(cand_grams, ref_grams) if len(candidates) >= 2 else 0.0
    return report
