"""End-to-end acceptance gate for the pipeline.

Each test covers one release criterion and prints a single PASS/FAIL line, so
a full run reads as a checklist. Tolerances and runtime budgets are asserted
explicitly inside each test.
"""

import math
import time

import numpy as np
from oracles import finite_difference_check, mean_scalars, sequence_log_prob, sum_all

from retinapipe import autodiff as ad
from retinapipe.autodiff import (
    Tape, Tensor, backward, glorot_uniform, sgd_step, zero_grads,
)
from retinapipe.cam import compute_cam
from retinapipe.checkpoint import ModelCheckpoint
from retinapipe.cli import main as cli_main
from retinapipe.data import (
    generate_synthetic_dataset, parse_manifest, save_manifest, split_dataset,
)
from retinapipe.encoder import EncoderConfig, VisionEncoder
from retinapipe.metrics import bleu_corpus, precision_at_k, rouge_l, score_captions
from retinapipe.rng import Xoshiro256
from retinapipe.textgen import (
    END, START, DecoderParams, build_vocabulary,
    caption_loss, decode_beam, decode_greedy, keyword_multihot,
)
from retinapipe.training import (
    Pipeline, TrainConfig, evaluate_pipeline, lr_schedule, train_captioner, train_classifier,
)

SMALL_STAGES = ((4, 3, 1, 2), (8, 3, 1, 2))


def _verdict(num: int, name: str, ok: bool) -> None:
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_gradient_correctness():
    """Every differentiable op and full encoder/decoder micro-models pass
    central finite-difference checks (fp64, eps=1e-5, rel err < 1e-4, 10 seeds)."""
    start = time.monotonic()
    worst = 0.0
    for seed in range(10):
        rng = Xoshiro256(seed)

        # encoder micro-model: conv -> maxpool (which rectifies) -> GAP -> linear -> xent
        kern = Tensor(glorot_uniform(rng, (3, 2, 3, 3)), name="k")
        kbias = Tensor(np.asarray(rng.uniform(-0.1, 0.1, (3,))), name="kb")
        w = Tensor(glorot_uniform(rng, (4, 3)), name="w")
        b = Tensor(np.asarray(rng.uniform(-0.1, 0.1, (4,))), name="b")
        img = np.asarray(rng.uniform(-1, 1, (2, 6, 6)))[None]

        def encoder_model():
            x = ad.conv2d(Tensor(img), kern, kbias, stride=1, pad=1)
            x = ad.maxpool2d(x, 2)
            pooled = ad.global_avg_pool(x)
            logits = ad.linear(pooled, w, b)
            return ad.softmax_cross_entropy(logits, [1])

        rep = finite_difference_check(
            encoder_model, {p.name: p for p in (kern, kbias, w, b)})
        assert rep.passed, rep.blocks
        worst = max(worst, rep.max_rel_error)

        # decoder micro-model: keyword projection and fusion (linear, average)
        # -> the one-op teacher-forced LSTM loss (lstm_sequence_xent)
        kw_vocab = build_vocabulary([["a"], ["b"]])
        dec = DecoderParams.init(rng, 6, 3, 4, kw_vocab.size, True)
        feat = np.asarray(rng.uniform(-1, 1, (3,)))

        def decoder_model():
            fused = dec.fuse(Tensor(feat[None]), keyword_multihot(["a", "b"], kw_vocab)[None])
            return caption_loss(fused, [[START, 4, 5, END]], dec)

        rep = finite_difference_check(
            decoder_model, {p.name: p for p in dec.parameters()})
        assert rep.passed, rep.blocks
        worst = max(worst, rep.max_rel_error)

        # the elementwise op, exercised standalone
        v = Tensor(np.asarray(rng.uniform(-1, 1, (5,))), name="v")
        u = Tensor(np.asarray(rng.uniform(-1, 1, (5,))), name="u")

        def elementwise_model():
            return sum_all(ad.average(u, v))

        rep = finite_difference_check(elementwise_model, {"v": v, "u": u})
        assert rep.passed, rep.blocks
        worst = max(worst, rep.max_rel_error)

    elapsed = time.monotonic() - start
    _verdict(1, f"gradient correctness (max rel err {worst:.2e}, {elapsed:.1f}s)",
             worst < 1e-4 and elapsed < 60.0)


def _enumerate_best(fused, dec, max_len):
    best = None

    def extend(tokens):
        nonlocal best
        lp = sequence_log_prob(fused, dec, tokens)
        if tokens[-1] == END or len(tokens) == max_len:
            key = (-lp, tokens)
            if best is None or key < best:
                best = key
            return
        for tok in range(dec.vocab_size):
            extend(tokens + (tok,))

    for tok in range(dec.vocab_size):
        extend((tok,))
    return best[1], -best[0]


def test_criterion_2_beam_search_optimality():
    """Beam(B=V^max_len) equals exhaustive argmax on 25 seeds; Beam(1) == greedy."""
    start = time.monotonic()
    for seed in range(25):
        rng = Xoshiro256(1000 + seed)
        vocab_size = 4 if seed % 2 else 5
        max_len = 3 if seed % 2 else 2
        dec = DecoderParams.init(rng, vocab_size, 3, 4, 4, False)
        fused = np.asarray(rng.uniform(-1, 1, (3,)))

        top = decode_beam(fused, dec, width=vocab_size ** max_len, max_len=max_len)[0]
        want_tokens, want_lp = _enumerate_best(fused, dec, max_len)
        assert top.tokens == want_tokens
        assert abs(top.log_prob - want_lp) < 1e-10

        greedy = decode_greedy(fused[None], dec, 8)[0]
        one = decode_beam(fused, dec, width=1, max_len=8)[0]
        assert one.tokens == greedy.tokens
        assert abs(one.log_prob - greedy.log_prob) < 1e-12
    elapsed = time.monotonic() - start
    _verdict(2, f"beam-search optimality oracle ({elapsed:.1f}s)", elapsed < 30.0)


def test_criterion_3_cam_logit_identity():
    """mean(CAM_c) + bias_c == logit_c within 1e-10, all classes, 50 inputs."""
    cfg = EncoderConfig(num_classes=5, image_size=16, stages=SMALL_STAGES)
    enc = VisionEncoder.init(cfg, Xoshiro256(42))
    bias = enc.to_checkpoint().params["encoder.fc.bias"]
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        out = enc.forward(rng.uniform(-1, 1, (3, 16, 16))[None])
        for c in range(5):
            cam = compute_cam(out.feature_maps.data[0], enc.classifier_weights, c)
            err = abs(cam.mean() + bias[c]
                      - float(out.logits.data[0, c]))
            worst = max(worst, err)
    _verdict(3, f"CAM-logit identity (max err {worst:.2e})", worst < 1e-10)


def test_criterion_4_metric_oracles():
    start = time.monotonic()
    ok = True

    # BLEU identity corpus -> exactly 1.0 per n
    sents = [["the", "optic", "disc", "appears", "pale", "today"],
             ["mild", "macular", "edema", "is", "noted", "nasally"]]
    scores, _ = bleu_corpus(sents, [list(s) for s in sents])
    ok &= scores == [1.0, 1.0, 1.0, 1.0]

    # clipped precision hand example: p1 = 1/3, BP = 1
    scores, _ = bleu_corpus([["the", "the", "the"]], [["the", "cat"]])
    ok &= abs(scores[0] - 1.0 / 3.0) < 1e-12

    # ROUGE-L DP example: LCS 3 of 4 -> F = 0.75
    ok &= abs(rouge_l(["a", "b", "c", "d"], ["a", "c", "b", "d"]) - 0.75) < 1e-12

    # CIDEr 2-item identity corpus: 10.0 per item (sentences long enough to
    # populate every n-gram order up to 4)
    corpus = [["pale", "disc", "with", "cupping", "noted"],
              ["mild", "macular", "edema", "seen", "today"]]
    ok &= abs(score_captions(corpus, corpus).cider - 10.0) < 1e-8

    # Prec@k vs counting oracle on 200 synthetic records
    rng = Xoshiro256(99)
    rankings, truths = [], []
    for _ in range(200):
        order = list(range(8))
        rng.shuffle(order)
        rankings.append(order)
        truths.append(rng.randrange(8))
    for k in (1, 5):
        want = sum(1 for r, t in zip(rankings, truths) if t in r[:k]) / 200
        ok &= precision_at_k(rankings, truths, k) == want

    elapsed = time.monotonic() - start
    _verdict(4, f"metric oracles ({elapsed:.1f}s)", ok and elapsed < 10.0)


def test_criterion_5_split_arithmetic(tmp_path):
    from retinapipe.data import CaseRecord, DatasetManifest

    def manifest(n):
        return DatasetManifest(records=[
            CaseRecord(id=f"c{i}", image_path=f"{i}.pgm", modality="FA",
                       disease="x", keywords=[], description="d")
            for i in range(n)
        ])

    from collections import Counter
    m = split_dataset(manifest(15709), (0.6, 0.2, 0.2), seed=0)
    sizes = Counter(r.split for r in m.records)
    ok = sum(sizes.values()) == 15709
    ok &= (sizes["train"], sizes["val"], sizes["test"]) == (9425, 3141, 3143)

    m2 = split_dataset(manifest(15709), (0.6, 0.2, 0.2), seed=0,
                       explicit_counts=(9425, 3142, 3142))
    sizes2 = Counter(r.split for r in m2.records)
    ok &= (sizes2["train"], sizes2["val"], sizes2["test"]) == (9425, 3142, 3142)
    _verdict(5, "split arithmetic", ok)


def test_criterion_6_keyword_ablation(tmp_path):
    """Keyword-driven captioner beats the keyword-free one on test BLEU-avg
    in >= 4 of 5 seeds (4 classes, 200 records)."""
    start = time.monotonic()
    wins = 0
    for seed in range(5):
        m = generate_synthetic_dataset(tmp_path / f"s{seed}", n_classes=4,
                                       n_records=200, seed=seed)
        split_dataset(m, (0.6, 0.2, 0.2), seed=seed)
        enc_ckpt, _ = train_classifier(m, TrainConfig(
            epochs=8, batch_size=8, seed=seed,
            learning_rate=0.1, decay_factor=2.0, decay_period_epochs=30,
            encoder_stages=SMALL_STAGES))
        bleu = {}
        for mode in (True, False):
            cfg = TrainConfig(epochs=80, batch_size=8, seed=seed, keyword_mode=mode,
                              learning_rate=1.0, decay_factor=2.0, decay_period_epochs=60,
                              encoder_stages=SMALL_STAGES, decoder_hidden=24)
            dec_ckpt, _, vocab, kw_vocab = train_captioner(m, cfg, enc_ckpt)
            pipe = Pipeline(enc_ckpt, dec_ckpt, vocab, kw_vocab, mode, m.class_list)
            report, _ = evaluate_pipeline(m, pipe, 3, (1, 4), 30,
                                          tmp_path / f"s{seed}_{mode}" / "assets")
            bleu[mode] = report.bleu_avg
        if bleu[True] >= bleu[False]:
            wins += 1
    elapsed = time.monotonic() - start
    _verdict(6, f"keyword ablation sensitivity ({wins}/5 wins, {elapsed:.0f}s)",
             wins >= 4 and elapsed < 600.0)


def test_criterion_7_lr_schedule():
    cfg = TrainConfig(learning_rate=0.1, decay_factor=5.0, decay_period_epochs=50)
    ok = lr_schedule(0, cfg) == 0.1
    ok &= lr_schedule(49, cfg) == 0.1
    ok &= abs(lr_schedule(50, cfg) - 0.02) < 1e-15
    ok &= abs(lr_schedule(100, cfg) - 0.004) < 1e-15
    rates = [lr_schedule(e, cfg) for e in range(500)]
    ok &= all(b <= a for a, b in zip(rates, rates[1:]))
    _verdict(7, "learning-rate schedule", ok)


def test_criterion_8_determinism_and_round_trips(tmp_path):
    m = generate_synthetic_dataset(tmp_path / "data", n_classes=3, n_records=24,
                                   seed=7)
    split_dataset(m, (0.6, 0.2, 0.2), seed=7)
    cfg = TrainConfig(epochs=3, batch_size=4, seed=7,
                      learning_rate=0.1, decay_factor=2.0, decay_period_epochs=30,
                      encoder_stages=SMALL_STAGES, decoder_hidden=24)

    # fixed-seed training twice -> bit-identical checkpoints
    ck_a, _ = train_classifier(m, cfg)
    ck_b, _ = train_classifier(m, cfg)
    pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    ck_a.save(pa)
    ck_b.save(pb)
    ok = pa.read_bytes() == pb.read_bytes()

    # checkpoint round-trip
    ok &= ModelCheckpoint.load(pa) == ModelCheckpoint.load(pb)

    # manifest round-trip
    mpath = tmp_path / "m.json"
    save_manifest(m, mpath)
    ok &= parse_manifest(mpath).records == m.records

    # `report` subcommand re-run -> byte-identical HTML
    dec_ckpt, _, vocab, kw_vocab = train_captioner(m, cfg, ck_a)
    enc_path, dec_path = tmp_path / "enc.ckpt", tmp_path / "dec.ckpt"
    ck_a.save(enc_path)
    dec_ckpt.save(dec_path)
    vpath, kpath = tmp_path / "vocab.txt", tmp_path / "kw.txt"
    vocab.save(vpath)
    kw_vocab.save(kpath)
    image = tmp_path / "data" / "images" / "case0000.ppm"
    args = ["report", "--image", str(image), "--keywords", "soft drusen",
            "--encoder", str(enc_path), "--decoder", str(dec_path),
            "--vocab", str(vpath), "--kw-vocab", str(kpath), "--topk", "1"]
    assert cli_main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "r2")]) == 0
    ok &= (tmp_path / "r1" / "report.html").read_bytes() == \
        (tmp_path / "r2" / "report.html").read_bytes()

    _verdict(8, "determinism and round-trips", ok)


def test_criterion_9_overfitting_sanity():
    """An 8-record toy captioning problem reaches mean teacher-forced loss
    < 0.05 and greedy decoding reproduces >= 7 of 8 training captions."""
    rng = Xoshiro256(13)
    n_records, dim = 8, 6
    captions = [
        "stable optic disc",
        "pale optic disc",
        "mild macular edema",
        "severe macular edema",
        "scattered dot hemorrhages",
        "dense flame hemorrhages",
        "early disc cupping",
        "advanced disc cupping",
    ]
    from retinapipe.textgen import tokenize
    vocab = build_vocabulary([tokenize(c) for c in captions])
    targets = [[START] + vocab.encode(tokenize(c)) + [END] for c in captions]
    feats = [np.asarray(rng.uniform(-1, 1, (dim,))) for _ in range(n_records)]
    dec = DecoderParams.init(rng, vocab.size, dim, 24, 4, False)
    params = dec.parameters()

    best_loss = math.inf
    for epoch in range(800):
        zero_grads(params)
        with Tape() as tape:
            loss = mean_scalars([
                caption_loss(Tensor(f[None]), [t], dec) for f, t in zip(feats, targets)
            ])
        backward(tape, loss)
        sgd_step(params, 1.0 / 2.0 ** (epoch // 300))
        best_loss = min(best_loss, float(loss.data))
        if best_loss < 0.01:
            break

    exact = 0
    for f, caption in zip(feats, captions):
        hyp = decode_greedy(f[None], dec, max_len=10)[0]
        if hyp.words(vocab) == tokenize(caption):
            exact += 1
    _verdict(9, f"overfitting sanity (loss {best_loss:.4f}, {exact}/8 exact)",
             best_loss < 0.05 and exact >= 7)
