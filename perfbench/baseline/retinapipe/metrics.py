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
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu_corpus(candidates: list[list[str]], references: list[list[str]],
                up_to_n: int = 4) -> tuple[list[float], float]:
    """Corpus-level unsmoothed BLEU-1..up_to_n and their mean."""
    if len(candidates) != len(references):
        raise ValueError(
            f"candidate/reference count mismatch: {len(candidates)} vs {len(references)}"
        )
    if not candidates:
        raise ValueError("empty corpus")
    matched = [0] * up_to_n
    total = [0] * up_to_n
    cand_len = sum(len(c) for c in candidates)
    ref_len = sum(len(r) for r in references)
    for cand, ref in zip(candidates, references):
        for n in range(1, up_to_n + 1):
            cc = ngram_counts(cand, n)
            rc = ngram_counts(ref, n)
            matched[n - 1] += sum(min(cnt, rc[g]) for g, cnt in cc.items())
            total[n - 1] += sum(cc.values())
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
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


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
    if len(candidates) != len(references):
        raise ValueError("candidate/reference count mismatch")
    n_items = len(candidates)
    if n_items < 2:
        raise ValueError(
            "CIDEr needs at least 2 corpus items: IDF is degenerate on a single document"
        )
    doc_freq = [Counter() for _ in range(up_to_n)]
    for ref in references:
        for n in range(1, up_to_n + 1):
            for gram in set(ngram_counts(ref, n)):
                doc_freq[n - 1][gram] += 1

    def tfidf(counts: Counter, n: int) -> dict:
        return {
            g: c * math.log(n_items / max(doc_freq[n - 1][g], 1))
            for g, c in counts.items()
        }

    def cosine(u: dict, v: dict) -> float:
        nu = math.sqrt(sum(x * x for x in u.values()))
        nv = math.sqrt(sum(x * x for x in v.values()))
        if nu == 0.0 or nv == 0.0:
            return 0.0
        dot = sum(x * v[g] for g, x in u.items() if g in v)
        return dot / (nu * nv)

    total = 0.0
    for cand, ref in zip(candidates, references):
        sims = []
        for n in range(1, up_to_n + 1):
            cu = tfidf(ngram_counts(cand, n), n)
            cv = tfidf(ngram_counts(ref, n), n)
            sims.append(cosine(cu, cv))
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
    """All text metrics in one report; CIDEr set to 0 when the corpus is a single item."""
    bleu, bleu_avg = bleu_corpus(candidates, references)
    report = MetricReport(bleu=bleu, bleu_avg=bleu_avg,
                          rouge=rouge_l_corpus(candidates, references, rouge_beta))
    report.cider = cider(candidates, references) if len(candidates) >= 2 else 0.0
    return report
