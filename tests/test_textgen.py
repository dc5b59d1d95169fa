import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from oracles import as_row, embedding_row, finite_difference_check, mean_scalars, sequence_log_prob

from retinapipe import autodiff as ad
from retinapipe.autodiff import Tape, Tensor, backward, sgd_step, zero_grads
from retinapipe.errors import DataError, NonFiniteError
from retinapipe.rng import Xoshiro256
from retinapipe.textgen import (
    END, PAD, RESERVED, START, UNK, DecoderParams, KeywordProjection, Vocabulary, _beam_search,
    build_vocabulary, caption_loss, decode_beam, decode_greedy, detokenize,
    fuse_features, keyword_multihot, tokenize,
)


class TestTokenize:
    def test_casefold_and_strip(self):
        assert tokenize("Optic Neuritis.") == ["optic", "neuritis"]

    def test_empty(self):
        assert tokenize("") == []

    def test_numerals_and_punctuation_rules(self):
        # rule trace: lowercase, whitespace split, strip flanking .,;:!?()"
        assert tokenize("20/40 vision, OD") == ["20/40", "vision", "od"]
        assert tokenize('(severe) edema!! "left eye":') == ["severe", "edema", "left", 'eye']

    def test_only_punctuation_dropped(self):
        assert tokenize(". , ;; !?") == []


class TestVocabulary:
    def test_min_frequency_and_unk(self):
        v = build_vocabulary([["a", "a", "b"]], min_frequency=2)
        assert "a" in v
        assert v.index("b") == UNK

    def test_deterministic_build(self):
        corpus = [["x", "y", "y"], ["z", "x"]]
        v1 = build_vocabulary(corpus)
        v2 = build_vocabulary(corpus)
        assert [v1.token(i) for i in range(v1.size)] == [v2.token(i) for i in range(v2.size)]

    def test_order_matches_count_then_sort_oracle(self):
        rng = Xoshiro256(3)
        words = [f"w{i:02d}" for i in range(30)]
        corpus = [[words[rng.randrange(len(words))] for _ in range(8)] for _ in range(100)]
        v = build_vocabulary(corpus, min_frequency=2)
        counts = {}
        for sent in corpus:
            for t in sent:
                counts[t] = counts.get(t, 0) + 1
        want = sorted((t for t, c in counts.items() if c >= 2), key=lambda t: (-counts[t], t))
        got = [v.token(i) for i in range(4, v.size)]
        assert got == want

    def test_empty_corpus_reserved_only(self):
        v = build_vocabulary([])
        assert v.size == 4

    def test_save_load_round_trip(self, tmp_path):
        v = build_vocabulary([["beta", "alpha", "beta"]])
        path = tmp_path / "vocab.txt"
        v.save(path)
        v2 = Vocabulary.load(path)
        assert v2.size == v.size
        assert all(v2.token(i) == v.token(i) for i in range(v.size))

    def test_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("not-a-vocab\n<pad>\n")
        with pytest.raises(DataError):
            Vocabulary.load(path)

    @pytest.mark.parametrize("body, message", [
        (b"soft\xffdrusen\n", "not UTF-8"),
        (b"drusen\nedema\ndrusen\n", "duplicate tokens"),
    ])
    def test_load_error_names_the_file(self, tmp_path, body, message):
        path = tmp_path / "vocab.txt"
        path.write_bytes("\n".join((Vocabulary.FILE_HEADER, *RESERVED, "")).encode() + body)
        with pytest.raises(DataError, match=message) as err:
            Vocabulary.load(path)
        assert str(path) in str(err.value)

    def test_token_with_a_line_break_is_refused(self):
        with pytest.raises(ValueError, match="line break"):
            Vocabulary(["soft\ndrusen"])


VOCAB_HEAD = "\n".join((Vocabulary.FILE_HEADER, *RESERVED, "")).encode()
TOKENS = st.text(alphabet=st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)),
                 min_size=1, max_size=6).filter(lambda t: t not in RESERVED)


class TestVocabularyLoadProperty:
    """Any bytes either load or raise DataError, and every vocabulary the writer
    accepts loads back with the same tokens."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(blob=st.one_of(
        st.binary(max_size=64),
        st.binary(max_size=64).map(lambda b: VOCAB_HEAD[:24] + b),
        st.binary(max_size=64).map(lambda b: VOCAB_HEAD + b),
        st.lists(st.sampled_from(["drusen", "edema", "\r", ""]) | TOKENS, max_size=6).map(
            lambda toks: VOCAB_HEAD + "\n".join(toks).encode()),
    ))
    def test_loads_or_raises_data_error(self, blob, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes(blob)
        try:
            v = Vocabulary.load(path)
        except DataError:
            return
        assert [v.token(i) for i in range(4)] == list(RESERVED)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tokens=st.lists(TOKENS, unique=True, max_size=6))
    def test_round_trip(self, tokens, tmp_path):
        Vocabulary(tokens).save(tmp_path / "vocab.txt")
        v = Vocabulary.load(tmp_path / "vocab.txt")
        assert [v.token(i) for i in range(v.size)] == [*RESERVED, *tokens]


def embed(keywords, kw_vocab, proj):
    """The projected keyword bag, doubled back out of its average with a zero image feature."""
    zero = Tensor(np.zeros((1,) + proj.bias.data.shape))
    return 2.0 * proj.fuse(zero, keyword_multihot(keywords, kw_vocab)[None]).data[0]


class TestKeywordEmbedding:
    def test_empty_keywords_zero_bias_gives_zero(self):
        kw_vocab = build_vocabulary([["drusen"], ["edema"]])
        proj = KeywordProjection.init(Xoshiro256(1), kw_vocab.size, 5)
        proj.bias.data[:] = 0.0
        assert np.all(embed([], kw_vocab, proj) == 0.0)

    def test_order_invariant(self):
        kw_vocab = build_vocabulary([["a"], ["b"]])
        proj = KeywordProjection.init(Xoshiro256(2), kw_vocab.size, 4)
        assert np.array_equal(embed(["a", "b"], kw_vocab, proj), embed(["b", "a"], kw_vocab, proj))

    def test_matches_matvec_oracle(self):
        kw_vocab = build_vocabulary([["a"], ["b"], ["c"]])
        proj = KeywordProjection.init(Xoshiro256(3), kw_vocab.size, 4)
        m = keyword_multihot(["a", "b", "c"], kw_vocab)
        want = proj.weight.data @ m + proj.bias.data
        assert np.allclose(embed(["a", "b", "c"], kw_vocab, proj), want, atol=1e-12)

    def test_unknown_keyword_adds_nothing(self):
        # the <unk> column of a trained projection is never trained, so an
        # unknown keyword must not reach it
        kw_vocab = build_vocabulary([["soft drusen"], ["hard exudates"]])
        assert keyword_multihot(["mystery"], kw_vocab).sum() == 0.0
        proj = KeywordProjection.init(Xoshiro256(4), kw_vocab.size, 4)
        with_unknown = embed(["soft drusen", "zzz"], kw_vocab, proj)
        assert np.array_equal(with_unknown, embed(["soft drusen"], kw_vocab, proj))


class TestFusion:
    def test_idempotent_on_equal(self):
        v = Tensor([1.0, 2.0])
        assert np.array_equal(fuse_features(v, Tensor([1.0, 2.0])).data, [1.0, 2.0])

    def test_antisymmetric(self):
        v = Tensor([1.0, -2.0])
        w = Tensor([-1.0, 2.0])
        assert np.all(fuse_features(v, w).data == 0.0)

    def test_arithmetic(self):
        out = fuse_features(Tensor([1.0, 3.0]), Tensor([3.0, 5.0]))
        assert out.data.tolist() == [2.0, 4.0]

    def test_dim_mismatch(self):
        with pytest.raises(ad.ShapeError):
            fuse_features(Tensor([1.0]), Tensor([1.0, 2.0]))


def zero_decoder(vocab_size=4, dim=3, hidden=2) -> DecoderParams:
    z = lambda *s: Tensor(np.zeros(s))
    return DecoderParams(
        embedding=z(vocab_size, dim),
        cell=ad.LstmParams(wx=z(4 * hidden, dim), wh=z(4 * hidden, hidden), b=z(4 * hidden)),
        out_w=z(vocab_size, hidden),
        out_b=z(vocab_size),
    )


class TestCaptionLoss:
    def test_uniform_logits_gives_log_vocab(self):
        dec = zero_decoder(vocab_size=4)
        fused = Tensor(np.zeros((1, 3)))
        for target in ([START, END], [START, UNK, UNK, END]):
            loss = caption_loss(fused, [target], dec)
            assert abs(float(loss.data) - math.log(4)) < 1e-12

    def test_malformed_target_rejected(self):
        dec = zero_decoder()
        with pytest.raises(ValueError):
            caption_loss(Tensor(np.zeros((1, 3))), [[UNK, END]], dec)
        with pytest.raises(ValueError):
            caption_loss(Tensor(np.zeros((1, 3))), [[START, UNK]], dec)

    def test_loss_decreases_with_sgd(self):
        wins = 0
        for seed in range(20):
            rng = Xoshiro256(seed)
            dec = DecoderParams.init(rng, 6, 4, 5)
            fused = np.asarray(rng.uniform(-1, 1, (4,)))
            target = [START, 4, 5, 4, END]
            params = dec.parameters()
            losses = []
            for _ in range(50):
                zero_grads(params)
                with Tape() as tape:
                    loss = caption_loss(Tensor(fused[None]), [target], dec)
                backward(tape, loss)
                sgd_step(params, 0.5)
                losses.append(float(loss.data))
            if losses[-1] < losses[0]:
                wins += 1
        assert wins >= 19  # >= 95% of 20 seeds

    def test_gradients_match_finite_differences(self):
        rng = Xoshiro256(77)
        dec = DecoderParams.init(rng, 6, 3, 4)
        proj = KeywordProjection.init(rng, 5, 3)
        kw_vocab = build_vocabulary([["a"]])
        img = np.asarray(rng.uniform(-1, 1, (3,)))
        target = [START, 4, 5, END]

        def model():
            fused = proj.fuse(Tensor(img[None]), keyword_multihot(["a"], kw_vocab)[None])
            return caption_loss(fused, [target], dec)

        params = {p.name: p for p in dec.parameters() + proj.parameters()}
        rep = finite_difference_check(model, params)
        assert rep.passed, rep.blocks
        assert rep.max_rel_error < 1e-4


def enumerate_best(fused, dec, max_len):
    """Exhaustive search over all terminated sequences, greedy's search space."""
    best = None
    vocab = dec.vocab_size

    def extend(tokens):
        nonlocal best
        lp = sequence_log_prob(fused, dec, tokens)
        if tokens[-1] == END or len(tokens) == max_len:
            key = (-lp, tokens)
            if best is None or key < best:
                best = key
            return
        for tok in range(vocab):
            extend(tokens + (tok,))

    for tok in range(vocab):
        extend((tok,))
    return best[1], -best[0]


def reference_beam(fused, dec, width, max_len):
    """Beam search one hypothesis at a time: a lone LSTM cell and log-softmax per
    live hypothesis, a full sort of every candidate, no early stop."""
    emb, wx, wh, b, ow, ob = (p.data for p in dec.parameters())

    def step(x, h, c):
        h2, c2, _ = ad.lstm_cell_np(wx, wh, b, x[None], h, c)
        return h2, c2

    zeros = np.zeros((1, dec.hidden_size))
    h, c = step(np.asarray(fused), zeros, zeros)
    live = [(0.0, (), *step(emb[START], h, c))]
    finished = []
    for _ in range(max_len):
        candidates = []
        for idx, (lp, toks, h, _) in enumerate(live):
            step_lp = ad.log_softmax_np(ow @ h[0] + ob)
            candidates += [(lp + float(step_lp[tok]), toks + (tok,), idx)
                           for tok in range(dec.vocab_size)]
        candidates.sort(key=lambda cand: (-cand[0], cand[1]))
        next_live = []
        for lp, toks, idx in candidates[:width]:
            if toks[-1] == END:
                finished.append((lp, toks))
            else:
                next_live.append((lp, toks, *step(emb[toks[-1]], *live[idx][2:])))
        live = next_live
        if not live:
            break
    finished += [(lp, toks) for lp, toks, _, _ in live]
    finished.sort(key=lambda f: (-f[0], f[1]))
    return [(toks, lp.hex()) for lp, toks in finished[:width]]


def beam_bits(hyps):
    return [(h.tokens, h.log_prob.hex()) for h in hyps]


def random_decoder(seed, all_tie=False):
    rng = Xoshiro256(200 + seed)
    vocab, dim = 4 + seed % 3, 3
    dec = DecoderParams.init(rng, vocab, dim, 2 + seed % 4)
    if all_tie:  # every token equally likely at every step
        dec.out_w.data[:] = 0.0
        dec.out_b.data[:] = 0.0
    return dec, np.asarray(rng.uniform(-1, 1, (dim,)))


class CellCounter:
    """Wraps ad.lstm_cell_np, counting calls and hypothesis rows stepped."""

    def __init__(self, monkeypatch):
        self.calls = self.rows = 0
        cell = ad.lstm_cell_np

        def counted(wx, wh, b, x, h, c):
            self.calls += 1
            self.rows += x.shape[0]
            return cell(wx, wh, b, x, h, c)

        monkeypatch.setattr(ad, "lstm_cell_np", counted)


class TestBatchedBeam:
    @pytest.mark.parametrize("all_tie", [False, True])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_bit_for_bit(self, seed, all_tie):
        dec, fused = random_decoder(seed, all_tie)
        max_len = 3
        for width in (1, 3, dec.vocab_size ** max_len):
            got = beam_bits(decode_beam(fused, dec, width, max_len))
            assert got == reference_beam(fused, dec, width, max_len), width

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_reference_on_longer_captions(self, seed):
        # finished and live hypotheses mix, so the early stop is put to the test
        dec, fused = random_decoder(seed)
        dec.out_w.data *= 1 + 2 * (seed % 3)  # sharper distributions for some seeds
        for width in (1, 2, 3, 4):
            got = beam_bits(decode_beam(fused, dec, width, 8))
            assert got == reference_beam(fused, dec, width, 8), width

    def test_early_stop_saves_cells_with_same_output(self, monkeypatch):
        dec, fused = random_decoder(1)
        dec.out_b.data[END] += 3.0  # hypotheses finish early, but some stay live
        width, max_len = 3, 12
        want = reference_beam(fused, dec, width, max_len)
        ref = CellCounter(monkeypatch)
        reference_beam(fused, dec, width, max_len)
        beam = CellCounter(monkeypatch)
        assert beam_bits(decode_beam(fused, dec, width, max_len)) == want
        assert ref.rows >= 2 + max_len  # some hypothesis stays live up to max_len
        # without the stop: 2 start cells, then one per step up to max_len
        assert beam.calls < 2 + (max_len - 1)
        assert beam.rows < ref.rows

    def test_batched_cell_matches_lone_rows(self):
        rng = Xoshiro256(7)
        cell = DecoderParams.init(rng, 4, 5, 6).cell
        x, h, c = (np.asarray(rng.uniform(-2, 2, (4, n))) for n in (5, 6, 6))
        params = (cell.wx.data, cell.wh.data, cell.b.data)
        batched = ad.lstm_cell_np(*params, x, h, c)
        for row in range(4):
            lone = ad.lstm_cell_np(*params, x[row:row + 1], h[row:row + 1], c[row:row + 1])
            assert np.array_equal(batched[0][row], lone[0][0])
            assert np.array_equal(batched[1][row], lone[1][0])
            assert np.array_equal(ad.matvec_rows(cell.wx.data, x)[row], cell.wx.data @ x[row])


def masked_sigmoid(x):
    """The boolean-mask sigmoid that ad._sigmoid_np replaced."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_branch_free_sigmoid_matches_masked_form():
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.normal(0.0, 20.0, 20000), rng.normal(0.0, 1e-3, 1000),
                        [0.0, -0.0, 5e-324, -5e-324, 709.0, -745.0, 1e308, -1e308,
                         np.inf, -np.inf]])
    for arr in (x, x.reshape(-1, 1)[::3]):
        assert np.array_equal(ad._sigmoid_np(arr).view(np.uint64), masked_sigmoid(arr).view(np.uint64))


class TestDecoding:
    def test_rigged_end_gives_empty_caption(self):
        dec = zero_decoder(vocab_size=4)
        dec.out_b.data[END] = 100.0  # END dominates every step
        hyp = decode_greedy(np.zeros((1, 3)), dec, max_len=10)[0]
        assert hyp.tokens == (END,)
        assert hyp.finished
        vocab = build_vocabulary([])
        assert hyp.words(vocab) == []

    def test_greedy_deterministic(self):
        rng = Xoshiro256(5)
        dec = DecoderParams.init(rng, 8, 4, 6)
        fused = np.asarray(rng.uniform(-1, 1, (1, 4)))
        a = decode_greedy(fused, dec, 12)
        b = decode_greedy(fused, dec, 12)
        assert a == b

    @pytest.mark.parametrize("seed", range(25))
    def test_beam_width_one_equals_greedy(self, seed):
        rng = Xoshiro256(seed)
        dec = DecoderParams.init(rng, 7, 3, 5)
        fused = np.asarray(rng.uniform(-1, 1, (3,)))
        greedy = decode_greedy(fused[None], dec, 8)[0]
        beam = decode_beam(fused, dec, width=1, max_len=8)
        assert beam[0].tokens == greedy.tokens
        assert abs(beam[0].log_prob - greedy.log_prob) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_beam_matches_exhaustive_enumeration(self, seed):
        rng = Xoshiro256(100 + seed)
        vocab, max_len = 4, 3
        dec = DecoderParams.init(rng, vocab, 3, 4)
        fused = np.asarray(rng.uniform(-1, 1, (3,)))
        top = decode_beam(fused, dec, width=vocab ** max_len, max_len=max_len)[0]
        want_tokens, want_lp = enumerate_best(fused, dec, max_len)
        assert top.tokens == want_tokens
        assert abs(top.log_prob - want_lp) < 1e-10

    def test_beam_output_sorted_and_finished(self):
        rng = Xoshiro256(9)
        dec = DecoderParams.init(rng, 6, 3, 4)
        fused = np.asarray(rng.uniform(-1, 1, (3,)))
        hyps = decode_beam(fused, dec, width=4, max_len=6)
        assert all(h.finished == (h.tokens[-1] == END) for h in hyps)
        assert any(h.finished for h in hyps) and not all(h.finished for h in hyps)
        lps = [h.log_prob for h in hyps]
        assert lps == sorted(lps, reverse=True)

    def test_suppressed_end_is_not_finished(self):
        rng = Xoshiro256(12)
        dec = DecoderParams.init(rng, 6, 3, 4)
        dec.out_b.data[END] = -100.0  # END is never the best next token
        fused = np.asarray(rng.uniform(-1, 1, (3,)))
        greedy = decode_greedy(fused[None], dec, 5)[0]
        beam = decode_beam(fused, dec, width=3, max_len=5)
        for hyp in [greedy, *beam]:
            assert len(hyp.tokens) == 5 and END not in hyp.tokens
            assert not hyp.finished

    def test_tokens_are_plain_ints(self):
        rng = Xoshiro256(13)
        dec = DecoderParams.init(rng, 6, 3, 4)
        fused = np.asarray(rng.uniform(-1, 1, (3,)))
        hyps = [decode_greedy(fused[None], dec, 6)[0], *decode_beam(fused, dec, width=3, max_len=6)]
        assert all(type(t) is int for h in hyps for t in h.tokens)

    def test_log_prob_matches_independent_recompute(self):
        rng = Xoshiro256(10)
        dec = DecoderParams.init(rng, 6, 3, 4)
        fused = np.asarray(rng.uniform(-1, 1, (3,)))
        for hyp in decode_beam(fused, dec, width=3, max_len=6):
            lp = sequence_log_prob(fused, dec, hyp.tokens)
            assert abs(lp - hyp.log_prob) < 1e-10

    def test_keyword_permutation_gives_identical_caption(self):
        rng = Xoshiro256(11)
        kw_vocab = build_vocabulary([["a"], ["b"], ["c"]])
        proj = KeywordProjection.init(rng, kw_vocab.size, 4)
        dec = DecoderParams.init(rng, 8, 4, 6)
        img = Tensor(np.asarray(rng.uniform(-1, 1, (1, 4))))
        captions = set()
        for perm in itertools.permutations(["a", "b", "c"]):
            fused = proj.fuse(img, keyword_multihot(list(perm), kw_vocab)[None])
            captions.add(decode_greedy(fused.data, dec, 10)[0].tokens)
        assert len(captions) == 1


def test_detokenize():
    assert detokenize(["optic", "neuritis"]) == "Optic neuritis."
    assert detokenize([]) == ""
    assert detokenize(["stable", "disc."]) == "Stable disc."


def per_record_caption_loss(fused, target, params):
    """The per-record loss caption_loss replaced: one taped op per step."""
    h = Tensor(np.zeros(params.hidden_size))
    c = Tensor(np.zeros(params.hidden_size))
    h, c = ad.lstm_step(fused, h, c, params.cell)
    losses = []
    for inp, tgt in zip(target[:-1], target[1:]):
        x = embedding_row(params.embedding, inp)
        h, c = ad.lstm_step(x, h, c, params.cell)
        if tgt == PAD:
            continue
        logits = ad.linear(as_row(h), params.out_w, params.out_b)
        losses.append(ad.softmax_cross_entropy(logits, [tgt]))
    return mean_scalars(losses)


def ragged_targets(rng, n, vocab_size, longest=7):
    """START, 0 to `longest` word ids (one of them PAD, which scores nothing), END."""
    targets = [[START] + [int(v) for v in rng.integers(4, vocab_size, size=rng.integers(0, longest + 1))]
               + [END] for _ in range(n)]
    targets[0][1:1] = [PAD]
    return targets


class TestBatchedCaptionLoss:
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_mean_of_per_record_losses(self, seed):
        rng = np.random.default_rng(seed)
        dec = DecoderParams.init(Xoshiro256(seed), 9, 5, 6)
        feats = rng.uniform(-1, 1, (6, 5))
        targets = ragged_targets(rng, 6, 9)
        params = dec.parameters()

        def run(loss_fn):
            zero_grads(params)
            with Tape() as tape:
                loss, fused = loss_fn()
            backward(tape, loss)
            return float(loss.data), [p.grad.copy() for p in params] + [fused]

        def batched():
            fused = Tensor(feats)
            return caption_loss(fused, targets, dec), fused

        def per_record():
            fused = [Tensor(f) for f in feats]
            return mean_scalars([per_record_caption_loss(f, t, dec)
                                    for f, t in zip(fused, targets)]), fused

        got_loss, got = run(batched)
        want_loss, want = run(per_record)
        got[-1] = got[-1].grad
        want[-1] = np.stack([f.grad for f in want[-1]])
        assert abs(got_loss - want_loss) <= 1e-12 * abs(want_loss)
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        dec = DecoderParams.init(Xoshiro256(3), 7, 3, 4)
        proj = KeywordProjection.init(Xoshiro256(4), 5, 3)
        img = rng.uniform(-1, 1, (4, 3))
        bags = rng.integers(0, 2, size=(4, 5)).astype(float)
        targets = ragged_targets(rng, 4, 7, longest=4)

        def model():
            return caption_loss(proj.fuse(Tensor(img), bags), targets, dec)

        params = {p.name: p for p in dec.parameters() + proj.parameters()}
        rep = finite_difference_check(model, params)
        assert rep.passed, rep.blocks
        assert rep.max_rel_error < 1e-4

    def test_one_taped_op_per_batch(self):
        dec = DecoderParams.init(Xoshiro256(1), 6, 3, 4)
        with Tape() as tape:
            caption_loss(Tensor(np.zeros((3, 3))), [[START, 4, END], [START, END], [START, 5, 4, END]],
                         dec)
        assert len(tape) == 1

    def test_malformed_target_in_batch_rejected(self):
        dec = zero_decoder()
        with pytest.raises(ValueError):
            caption_loss(Tensor(np.zeros((2, 3))), [[START, END], [START, UNK]], dec)


class TestBatchedGreedy:
    @pytest.mark.parametrize("seed", range(5))
    def test_rows_equal_per_record_decoding(self, seed):
        rng = np.random.default_rng(seed)
        dec = DecoderParams.init(Xoshiro256(seed), 8, 4, 6)
        for p in dec.parameters():
            p.data *= 4.0  # sharper outputs: most seeds finish rows at different steps
        feats = rng.uniform(-2, 2, (7, 4))
        batch = decode_greedy(feats, dec, 9)
        assert len(batch) == 7
        for f, hyp in zip(feats, batch):
            alone = decode_greedy(f[None], dec, 9)[0]
            assert hyp.tokens == alone.tokens
            assert hyp.log_prob == alone.log_prob

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_equals_width_one_beam_over_mixed_batch(self, seed):
        """Greedy is the width-1 beam, bit for bit, for every record of a batch that mixes
        finished, cut-off and tied records."""
        dec = DecoderParams.init(Xoshiro256(seed), 8, 4, 6)
        for p in dec.parameters():
            p.data *= 3.0
        dec.out_w.data[5] = dec.out_w.data[4]  # tokens 4 and 5 tie at every step
        dec.out_b.data[5] = dec.out_b.data[4]
        feats = np.random.default_rng(seed).uniform(-2, 2, (10, 4))
        batch = decode_greedy(feats, dec, 6)
        assert any(h.finished for h in batch) and not all(h.finished for h in batch)
        assert any(4 in h.tokens for h in batch) and not any(5 in h.tokens for h in batch)
        for f, hyp in zip(feats, batch):
            assert beam_bits([hyp]) == beam_bits(decode_beam(f, dec, 1, 6))
            assert beam_bits([hyp]) == reference_beam(f, dec, 1, 6)


@pytest.mark.parametrize("seed", range(4))
def test_batched_beams_equal_lone_beams(seed):
    """One search over a batch gives each record the beam it gets alone."""
    dec, _ = random_decoder(seed)
    dec.out_w.data *= 3.0
    feats = np.random.default_rng(seed).uniform(-2, 2, (6, dec.input_dim))
    for width in (2, 3):
        beams = _beam_search(feats, dec, width, 7)
        for f, beam in zip(feats, beams):
            assert beam_bits(beam) == reference_beam(f, dec, width, 7)


def test_nan_decoder_raises_non_finite_error():
    """A NaN output weight makes every score NaN: the search names the record
    instead of returning an empty beam."""
    dec = DecoderParams.init(Xoshiro256(1), 6, 3, 4)
    dec.out_w.data[0, 0] = np.nan
    with pytest.raises(NonFiniteError, match="record 0"):
        decode_greedy(np.zeros((2, 3)), dec, 5)


def test_single_item_inputs_rejected():
    """Loss, fusion and greedy decoding take batches only."""
    dec = DecoderParams.init(Xoshiro256(1), 6, 3, 4)
    proj = KeywordProjection.init(Xoshiro256(2), 5, 3)
    with pytest.raises(ad.ShapeError):
        caption_loss(Tensor(np.zeros(3)), [START, 4, END], dec)
    with pytest.raises(ad.ShapeError):
        proj.fuse(Tensor(np.zeros((1, 3))), np.zeros(5))
    with pytest.raises(ad.ShapeError):
        decode_greedy(np.zeros(3), dec, 5)
    with pytest.raises(ad.ShapeError):
        decode_beam(np.zeros((1, 3)), dec, 2, 5)
