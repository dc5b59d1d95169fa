import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from retinapipe.metrics import (
    _lcs_length, bleu_corpus, cider, ngram_counts, precision_at_k, rouge_l, rouge_l_corpus,
    score_captions,
)
from retinapipe.rng import Xoshiro256

from oracles import cider_recounting, lcs_length_dp

tokens_st = st.lists(st.sampled_from(list("abcde")), max_size=20)
corpus_st = st.lists(st.tuples(tokens_st, tokens_st), min_size=1, max_size=8)


class TestNgramCounts:
    def test_unigrams(self):
        assert ngram_counts(["a", "b", "a"], 1) == Counter({("a",): 2, ("b",): 1})

    def test_too_short(self):
        assert ngram_counts(["a", "b"], 3) == Counter()

    @given(tokens_st)
    def test_matches_sliding_window_oracle(self, toks):
        want = Counter()
        for i in range(len(toks)):
            if i + 2 <= len(toks):
                want[tuple(toks[i : i + 2])] += 1
        assert ngram_counts(toks, 2) == want

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            ngram_counts(["a"], 0)


class TestBleu:
    def test_identity_corpus(self):
        sents = [["the", "left", "optic", "disc", "is", "pale"],
                 ["mild", "macular", "edema", "noted", "today", "again"]]
        scores, avg = bleu_corpus(sents, [list(s) for s in sents])
        assert scores == [1.0, 1.0, 1.0, 1.0]
        assert avg == 1.0

    def test_clipped_counts_hand_oracle(self):
        scores, _ = bleu_corpus([["the", "the", "the"]], [["the", "cat"]])
        # p1 = clip(3 -> 1)/3; BP = 1 since c=3 > r=2
        assert abs(scores[0] - 1.0 / 3.0) < 1e-12

    def test_disjoint_gives_zero(self):
        scores, avg = bleu_corpus([["a", "b"]], [["c", "d"]])
        assert scores == [0.0, 0.0, 0.0, 0.0]
        assert avg == 0.0

    def test_brevity_penalty(self):
        # candidate shorter than reference: BP = exp(1 - r/c)
        scores, _ = bleu_corpus([["a", "b"]], [["a", "b", "c", "d"]])
        assert abs(scores[0] - math.exp(1 - 4 / 2)) < 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bleu_corpus([["a"]], [])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            bleu_corpus([], [])

    @given(st.lists(st.tuples(tokens_st, tokens_st), min_size=1, max_size=5))
    def test_scores_in_unit_interval(self, pairs):
        cands = [list(c) for c, _ in pairs]
        refs = [list(r) for _, r in pairs]
        scores, avg = bleu_corpus(cands, refs)
        assert all(0.0 <= s <= 1.0 for s in scores)
        assert abs(avg - sum(scores) / 4) < 1e-12


class TestRougeL:
    def test_identity(self):
        assert rouge_l(["a", "b", "c"], ["a", "b", "c"]) == 1.0

    def test_dp_lcs_hand_oracle(self):
        # LCS("abcd", "acbd") = 3, P = R = 0.75, beta cancels
        f = rouge_l(["a", "b", "c", "d"], ["a", "c", "b", "d"])
        assert abs(f - 0.75) < 1e-12

    def test_disjoint(self):
        assert rouge_l(["a"], ["b"]) == 0.0

    @given(tokens_st, st.lists(st.sampled_from(list("abcdef")), max_size=70))
    def test_lcs_equals_dynamic_programme(self, a, b):
        # b runs past 64 tokens, so the bit vector spans more than one machine word
        assert _lcs_length(a, b) == lcs_length_dp(a, b) == _lcs_length(b, a)

    def test_empty_inputs(self):
        assert rouge_l([], ["a"]) == 0.0
        assert rouge_l(["a"], []) == 0.0

    @given(tokens_st, tokens_st)
    def test_symmetric_when_beta_one_and_equal_lengths(self, a, b):
        if len(a) == len(b):
            assert abs(rouge_l(a, b, beta=1.0) - rouge_l(b, a, beta=1.0)) < 1e-12


def brute_cider(cands, refs, up_to_n=4):
    """Independent TF-IDF/cosine oracle with explicit dense vectors."""
    n_items = len(refs)
    total = 0.0
    for cand, ref in zip(cands, refs):
        sims = []
        for n in range(1, up_to_n + 1):
            grams = sorted(set(ngram_counts(cand, n)) | set(ngram_counts(ref, n)))
            def vec(toks):
                counts = ngram_counts(toks, n)
                out = []
                for g in grams:
                    df = sum(1 for r in refs if g in ngram_counts(r, n))
                    out.append(counts[g] * math.log(n_items / max(df, 1)))
                return np.array(out)
            u, v = vec(cand), vec(ref)
            nu, nv = np.linalg.norm(u), np.linalg.norm(v)
            sims.append(0.0 if nu == 0 or nv == 0 else float(u @ v) / (nu * nv))
        total += 10.0 * sum(sims) / up_to_n
    return total / n_items


class TestCider:
    def test_two_item_identity_corpus_scores_ten(self):
        a = ["pale", "disc", "with", "cupping", "noted"]
        b = ["macular", "edema", "and", "exudates", "seen"]
        score = cider([list(a), list(b)], [list(a), list(b)])
        assert abs(score - 10.0) < 1e-8

    def test_no_shared_ngrams_gives_zero(self):
        score = cider([["x", "y"], ["p", "q"]], [["a", "b"], ["c", "d"]])
        assert score == 0.0

    def test_matches_brute_force_oracle(self):
        rng = Xoshiro256(8)
        words = ["disc", "pale", "edema", "mild", "severe", "left", "right"]
        cands = [[words[rng.randrange(len(words))] for _ in range(6)] for _ in range(10)]
        refs = [[words[rng.randrange(len(words))] for _ in range(6)] for _ in range(10)]
        assert abs(cider(cands, refs) - brute_cider(cands, refs)) < 1e-8

    def test_single_item_rejected(self):
        with pytest.raises(ValueError, match="IDF"):
            cider([["a"]], [["a"]])

    @given(corpus_st.filter(lambda pairs: len(pairs) >= 2))
    def test_equals_recounting_oracle(self, pairs):
        cands, refs = [list(c) for c, _ in pairs], [list(r) for _, r in pairs]
        assert cider(cands, refs) == cider_recounting(cands, refs)

    def test_invariant_to_other_item_order(self):
        cands = [["a", "b"], ["c", "d"], ["e", "f"]]
        refs = [["a", "b"], ["c", "x"], ["e", "f"]]
        base = cider(cands, refs)
        swapped = cider([cands[0], cands[2], cands[1]], [refs[0], refs[2], refs[1]])
        assert abs(base - swapped) < 1e-12


class TestPrecisionAtK:
    def test_truth_always_first(self):
        rankings = [[0, 1, 2, 3, 4]] * 6
        truths = [0] * 6
        assert precision_at_k(rankings, truths, 1) == 1.0
        assert precision_at_k(rankings, truths, 5) == 1.0

    def test_two_record_example(self):
        rankings = [[7, 1, 2, 3, 4], [0, 1, 7, 3, 4]]
        truths = [7, 7]
        assert precision_at_k(rankings, truths, 1) == 0.5
        assert precision_at_k(rankings, truths, 5) == 1.0

    def test_matches_counting_oracle(self):
        rng = Xoshiro256(12)
        n_classes = 10
        rankings, truths = [], []
        for _ in range(200):
            order = list(range(n_classes))
            rng.shuffle(order)
            rankings.append(order)
            truths.append(rng.randrange(n_classes))
        for k in (1, 3, 5, 10):
            want = sum(1 for r, t in zip(rankings, truths) if t in r[:k]) / 200
            assert precision_at_k(rankings, truths, k) == want

    def test_monotone_in_k(self):
        rng = Xoshiro256(13)
        rankings, truths = [], []
        for _ in range(50):
            order = list(range(6))
            rng.shuffle(order)
            rankings.append(order)
            truths.append(rng.randrange(6))
        prev = 0.0
        for k in range(1, 7):
            cur = precision_at_k(rankings, truths, k)
            assert cur >= prev
            prev = cur

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            precision_at_k([], [], 1)

    def test_short_ranking_rejected(self):
        with pytest.raises(ValueError):
            precision_at_k([[0]], [0], 2)


def test_metric_report_fields():
    a = ["one", "two", "three", "four", "five"]
    b = ["six", "seven", "eight", "nine", "ten"]
    report = score_captions([list(a), list(b)], [list(a), list(b)])
    assert report.bleu == [1.0, 1.0, 1.0, 1.0]
    assert abs(report.bleu_avg - sum(report.bleu) / 4) < 1e-12
    assert report.rouge == 1.0
    assert abs(report.cider - 10.0) < 1e-8
    d = report.to_dict()
    assert d["bleu_avg"] == report.bleu_avg
    assert all(np.isfinite(v) for v in [d["bleu_avg"], d["rouge"], d["cider"]])


def test_metrics_pure_and_deterministic():
    cands = [["a", "b", "c"], ["d", "e", "f"]]
    refs = [["a", "b", "x"], ["d", "y", "f"]]
    r1 = score_captions(cands, refs)
    r2 = score_captions(cands, refs)
    assert r1.to_json() == r2.to_json()


@given(corpus_st)
def test_score_captions_equals_the_separate_metrics(pairs):
    """One count of each sentence's n-grams gives every metric its exact value."""
    cands, refs = [list(c) for c, _ in pairs], [list(r) for _, r in pairs]
    report = score_captions(cands, refs)
    assert (report.bleu, report.bleu_avg) == bleu_corpus(cands, refs)
    assert report.rouge == rouge_l_corpus(cands, refs)
    assert report.cider == (cider(cands, refs) if len(pairs) >= 2 else 0.0)
