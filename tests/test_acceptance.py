"""Acceptance gate: ten checks, one test each, named and numbered.
Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion. Tolerances and budgets are asserted inside the tests.
"""

import json
import math
import time
from dataclasses import asdict

import numpy as np
import pytest

import charsent as cs
from charsent import cli
from charsent.corpus import save_corpus
from charsent.embedding import (
    EmbeddingMatrix,
    cbow_gradients,
    cbow_step,
    init_embedding_matrix,
    skipgram_gradients,
    skipgram_step,
)
from charsent.network import LstmParams, lstm_cell_forward
from charsent.synthetic import generate_corpus
from charsent.tokenizer import PAD_ID
from charsent.training import AdamState

from helpers import make_model
from oracles import (
    adam_trace_ref,
    central_difference,
    confusion_ref,
    lstm_sequence_ref,
    params_to_lists,
    relative_error,
)

CHARS = "好坏中啊呀很不太还挺真假冷热高低"


def _random_instance(rng, hsize, dim, length, vocab_size=18, scale=0.5):
    params = LstmParams(
        w_gates=rng.normal(0, scale, (4 * hsize, hsize + dim)),
        b_gates=rng.normal(0, scale, 4 * hsize),
        w_out=rng.normal(0, scale, hsize),
        b_out=rng.normal(0, scale, 1),
    )
    vocab = cs.build_vocab([CHARS[: vocab_size - 2]], min_count=1)
    vectors = rng.normal(0, scale, (len(vocab), dim))
    vectors[PAD_ID] = 0.0
    emb = EmbeddingMatrix(vectors=vectors, vocab_hash=vocab.content_hash())
    model = cs.Model(vocab=vocab, embeddings=emb, params=params, max_len=max(length, 1))
    ids = rng.integers(2, len(vocab), size=length)
    tokens = [vocab.id_to_token[i] for i in ids]
    seq = cs.encode(tokens, vocab, max_len=length)
    return model, seq


def test_criterion_01_forward_matches_scalar_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(100):
        hsize = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 9))
        length = int(rng.integers(1, 11))
        model, seq = _random_instance(rng, hsize, dim, length)
        p, cache = cs.sequence_forward(seq, model)
        xs = [model.embeddings.vectors[i].tolist() for i in seq.ids[: seq.true_length]]
        h_ref, p_ref = lstm_sequence_ref(xs, params_to_lists(model.params))
        assert abs(p - p_ref) <= 1e-12
        assert np.max(np.abs(cache.h_out - np.array(h_ref))) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 01 PASS - 100 forward instances within 1e-12 ({elapsed:.2f}s)")


def test_criterion_02_bptt_gradients_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    for case in range(20):
        model, seq = _random_instance(rng, hsize=6, dim=5, length=7)
        y = case % 2
        _, cache = cs.sequence_forward(seq, model)
        grads = cs.backward(cache, y, model)

        def loss_fn():
            p, _ = cs.sequence_forward(seq, model)
            return cs.bce_loss(p, y)

        for name, tensor in model.params.tensors().items():
            flat = grads[name].reshape(-1)
            for index in range(tensor.size):
                num = central_difference(loss_fn, tensor, index, step=1e-5)
                assert relative_error(num, flat[index]) < 1e-4, (case, name, index)
        touched = sorted(set(seq.ids[: seq.true_length]))
        emb = model.embeddings.vectors
        for row in touched:
            for j in range(emb.shape[1]):
                index = row * emb.shape[1] + j
                num = central_difference(loss_fn, emb, index, step=1e-5)
                assert relative_error(num, grads["embeddings"][row, j]) < 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 02 PASS - 20 instances, all tensors within 1e-4 ({elapsed:.2f}s)")


def test_criterion_03_closed_form_cell_cases():
    hsize, dim = 4, 3
    params = LstmParams(
        w_gates=np.zeros((4 * hsize, hsize + dim)),
        b_gates=np.zeros(4 * hsize),
        w_out=np.zeros(hsize),
        b_out=np.zeros(1),
    )
    x = np.ones(dim)
    h_t, c_t, gates = lstm_cell_forward(x, np.zeros(hsize), np.zeros(hsize), params)
    f, i, o, _ = gates
    for gate in (f, i, o):
        assert np.max(np.abs(gate - 0.5)) <= 1e-12
    assert np.max(np.abs(h_t)) <= 1e-12
    assert np.max(np.abs(c_t)) <= 1e-12

    h_t, c_t, _ = lstm_cell_forward(x, np.zeros(hsize), np.ones(hsize), params)
    want = 0.5 * math.tanh(0.5)  # 0.231059...
    assert np.max(np.abs(c_t - 0.5)) <= 1e-12
    assert np.max(np.abs(h_t - want)) <= 1e-12
    print("ACCEPTANCE 03 PASS - zero-parameter cell closed forms exact")


def test_criterion_04_embedding_objective():
    vocab = cs.build_vocab([CHARS], min_count=1)

    # (a) at all-zero matrices both objectives cost (k+1) ln 2 exactly
    zero = (np.zeros((len(vocab), 8)), np.zeros((len(vocab), 8)))
    for k in (1, 2, 5, 10):
        negs = [2 + (i % 6) for i in range(k)]
        got = cbow_step([3, 4], 5, negs, *zero, lr=0.025)
        assert abs(got - (k + 1) * math.log(2.0)) <= 1e-12
        got = skipgram_step(3, 5, negs, *zero, lr=0.025)
        assert abs(got - (k + 1) * math.log(2.0)) <= 1e-12

    # (b) one step strictly decreases the re-evaluated loss from the
    # standard initialization (random input rows, zero context rows)
    vectors = init_embedding_matrix(vocab, dim=8, seed=5).vectors
    m = (vectors, np.zeros_like(vectors))
    before, _, _ = cbow_gradients([3, 4], 5, [2, 6], *m)
    cbow_step([3, 4], 5, [2, 6], *m, lr=0.025)
    after, _, _ = cbow_gradients([3, 4], 5, [2, 6], *m)
    assert after < before
    vectors = init_embedding_matrix(vocab, dim=8, seed=5).vectors
    m = (vectors, np.zeros_like(vectors))
    before, _, _ = skipgram_gradients(3, 5, [2, 6], *m)
    skipgram_step(3, 5, [2, 6], *m, lr=0.025)
    after, _, _ = skipgram_gradients(3, 5, [2, 6], *m)
    assert after < before

    # (c) gradients pass finite differences at d=8 within 1e-5 relative
    rng = np.random.default_rng(404)
    vectors = rng.normal(0, 0.5, (len(vocab), 8))
    vectors[PAD_ID] = 0.0
    context = rng.normal(0, 0.5, (len(vocab), 8))
    context_ids, center, negs = [3, 7, 7], 5, [2, 6, 6, 9]

    def cbow_loss():
        loss, _, _ = cbow_gradients(context_ids, center, negs, vectors, context)
        return loss

    _, in_g, out_g = cbow_gradients(context_ids, center, negs, vectors, context)
    for rows, array, loss_fn in ((in_g, vectors, cbow_loss), (out_g, context, cbow_loss)):
        for rid, grad in rows.items():
            for j in range(8):
                num = central_difference(loss_fn, array, rid * 8 + j, step=1e-5)
                assert relative_error(num, grad[j]) < 1e-5, (rid, j)

    def sg_loss():
        loss, _, _ = skipgram_gradients(4, 8, negs, vectors, context)
        return loss

    _, in_g, out_g = skipgram_gradients(4, 8, negs, vectors, context)
    for rows, array in ((in_g, vectors), (out_g, context)):
        for rid, grad in rows.items():
            for j in range(8):
                num = central_difference(sg_loss, array, rid * 8 + j, step=1e-5)
                assert relative_error(num, grad[j]) < 1e-5, (rid, j)
    print("ACCEPTANCE 04 PASS - closed form, strict decrease, gradients within 1e-5")


def test_criterion_05_planted_similarity_retrieval():
    start = time.perf_counter()
    pairs = [("甲", "乙"), ("丙", "丁"), ("戊", "己"), ("庚", "辛"), ("壬", "癸")]
    fillers = [
        list("山水田林湖泉"),
        list("笔墨纸砚书画"),
        list("春夏秋冬雨雪"),
        list("金木火土石沙"),
        list("车马舟桥路街"),
    ]
    rng = np.random.default_rng(77)
    texts = []
    for (a, b), pool in zip(pairs, fillers):
        for _ in range(120):
            for target in (a, b):
                picks = rng.choice(len(pool), size=4)
                chars = [pool[i] for i in picks]
                texts.append("".join(chars[:2]) + target + "".join(chars[2:]))
    rng.shuffle(texts)

    vocab = cs.build_vocab(texts, min_count=1)
    sequences = [[vocab.id_for(t) for t in cs.segment_chars(x)] for x in texts]
    matrix, _ = cs.train_embeddings(sequences, vocab, cs.W2vConfig(seed=77))
    hits = 0
    for a, b in pairs:
        top = [t for t, _ in cs.nearest_neighbors(a, 3, matrix, vocab)]
        hits += b in top
    elapsed = time.perf_counter() - start
    assert hits >= 4, f"only {hits}/5 planted partners in top 3"
    assert elapsed < 60.0
    print(f"ACCEPTANCE 05 PASS - {hits}/5 planted partners in top 3 ({elapsed:.1f}s)")


def test_criterion_06_end_to_end_synthetic_pipeline(tmp_path):
    start = time.perf_counter()
    corpus = generate_corpus(2000, seed=42)
    save_corpus(corpus, tmp_path / "labeled.jsonl")
    config = {
        "seed": 42,
        "paths": {
            "labeled": str(tmp_path / "labeled.jsonl"),
            "vocab": str(tmp_path / "vocab.json"),
            "embeddings": str(tmp_path / "emb.bin"),
            "model": str(tmp_path / "model.ssm"),
            "history": str(tmp_path / "history.json"),
        },
        "tokenizer": {"max_len": 60},
        "word2vec": {"dim": 16},
        "network": {"hidden_size": 32},
        "training": {"epochs": 30},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["embed", "--config", str(tmp_path / "cfg.json")]) == 0
    assert cli.main(["train", "--config", str(tmp_path / "cfg.json")]) == 0

    records = json.loads((tmp_path / "history.json").read_text(encoding="utf-8"))
    assert len(records) <= 30
    best = min(records, key=lambda r: r["val_loss"])
    assert best["val_acc"] >= 0.95, f"best validation accuracy {best['val_acc']}"
    assert best["val_loss"] <= records[0]["val_loss"]
    model = cs.load_model(tmp_path / "model.ssm")
    assert model.metrics_snapshot["accuracy"] >= 0.95
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 06 PASS - val acc {best['val_acc']:.3f} at epoch {best['epoch']} ({elapsed:.1f}s)"
    )


def test_criterion_07_adam_trace_and_first_step():
    cfg = cs.TrainConfig()  # lr 1e-3, betas 0.9/0.999, eps 1e-8
    # two steps on f(theta) = theta^2, gradient 2*theta, from theta = 1
    tensors = {"theta": np.array([1.0])}
    state = AdamState.for_tensors(tensors)
    thetas = []
    grads = []
    for _ in range(2):
        g = 2.0 * float(tensors["theta"][0])
        grads.append(g)
        cs.adam_step(tensors, {"theta": np.array([g])}, state, cfg)
        thetas.append(float(tensors["theta"][0]))

    # hand recurrence, step 1: m=0.2, v=0.004, m_hat=2, v_hat=4
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    m = (1 - b1) * grads[0]
    v = (1 - b2) * grads[0] ** 2
    theta_1 = 1.0 - lr * (m / (1 - b1)) / (math.sqrt(v / (1 - b2)) + eps)
    assert abs(thetas[0] - theta_1) <= 1e-12
    m = b1 * m + (1 - b1) * grads[1]
    v = b2 * v + (1 - b2) * grads[1] ** 2
    theta_2 = theta_1 - lr * (m / (1 - b1**2)) / (math.sqrt(v / (1 - b2**2)) + eps)
    assert abs(thetas[1] - theta_2) <= 1e-12
    ref = adam_trace_ref(grads, theta0=1.0, lr=lr, beta1=b1, beta2=b2, eps=eps)
    assert abs(thetas[0] - ref[0]) <= 1e-12 and abs(thetas[1] - ref[1]) <= 1e-12

    # first-step magnitude is lr (within 1e-6) across gradient scales;
    # below |g| ~ eps the bias-corrected ratio shrinks, so "any nonzero"
    # is demonstrated down to 1e-4 where the claim provably holds
    for g in (1e-4, 3e-3, 0.5, -0.5, 1.0, 42.0, -1e3, 1e6):
        tensors = {"x": np.array([0.0])}
        state = AdamState.for_tensors(tensors)
        cs.adam_step(tensors, {"x": np.array([float(g)])}, state, cfg)
        delta = float(tensors["x"][0])
        assert abs(abs(delta) - cfg.learning_rate) <= 1e-6, g
        assert math.copysign(1.0, delta) == -math.copysign(1.0, g)
    print("ACCEPTANCE 07 PASS - two-step trace within 1e-12, first step within 1e-6 of lr")


def test_criterion_08_metrics_match_brute_force(trained_setup):
    rng = np.random.default_rng(808)
    ps = rng.random(1000)
    ys = rng.integers(0, 2, size=1000)
    m = cs.compute_metrics(ps, ys, threshold=0.5)
    tp, fp, fn, tn = confusion_ref(ps.tolist(), ys.tolist(), 0.5)
    assert (m.tp, m.fp, m.fn, m.tn) == (tp, fp, fn, tn)
    assert m.accuracy == (tp + tn) / 1000
    assert m.precision == tp / (tp + fp)
    assert m.recall == tp / (tp + fn)

    # the same identity through evaluate() on the trained fixture
    model, test_set = trained_setup["model"], trained_setup["test_set"]
    assert model.threshold == 0.5
    got = cs.evaluate(model, test_set)
    ps2, ys2 = [], []
    for seq, y in test_set:
        p, _ = cs.sequence_forward(seq, model)
        ps2.append(p)
        ys2.append(y)
    tp, fp, fn, tn = confusion_ref(ps2, ys2, 0.5)
    assert (got.tp, got.fp, got.fn, got.tn) == (tp, fp, fn, tn)
    assert got.accuracy == (tp + tn) / len(test_set)

    payload = asdict(got)
    for field in ("loss", "mae", "accuracy", "precision", "recall"):
        assert field in payload
    print("ACCEPTANCE 08 PASS - confusion recount exact on 1000 pairs and fixture")


def test_criterion_09_determinism_and_serialization(tmp_path, trained_setup):
    corpus = generate_corpus(100, seed=91)
    train_c, val_c, _ = cs.split(corpus, 0.7, 0.2, seed=91)
    vocab = cs.build_vocab(corpus.texts(), min_count=1)
    cfg = cs.TrainConfig(epochs=3, batch_size=16, dropout_rate=0.3, seed=91)
    paths = []
    for run in (0, 1):
        model = make_model(vocab, hidden_size=8, dim=8, max_len=60, seed=91)
        _, history = cs.train(
            cs.encode_labeled(train_c, vocab, 60),
            cs.encode_labeled(val_c, vocab, 60),
            model,
            cfg,
        )
        path = tmp_path / f"history_{run}.json"
        cs.save_history(history, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    model, test_set = trained_setup["model"], trained_setup["test_set"]
    cs.save_model(model, tmp_path / "model.ssm")
    back = cs.load_model(tmp_path / "model.ssm")
    worst = 0.0
    for seq, _ in test_set:
        p_orig, _ = cs.sequence_forward(seq, model)
        p_back, _ = cs.sequence_forward(seq, back)
        worst = max(worst, abs(p_orig - p_back))
    assert worst <= 1e-6, worst
    print(f"ACCEPTANCE 09 PASS - byte-identical histories, round-trip dp {worst:.2e}")


def test_criterion_10_property_battery():
    start = time.perf_counter()
    rng = np.random.default_rng(1010)
    pool = list("好坏中啊呀 很不\t太还挺abZ19!,。#@　") + ["😀"]

    # segmentation: tokens are exactly the non-whitespace scalars, in order
    for _ in range(10_000):
        n = int(rng.integers(0, 30))
        text = "".join(pool[i] for i in rng.integers(0, len(pool), size=n))
        assert cs.segment_chars(text) == [ch for ch in text if not ch.isspace()]

    # padding and truncation shape properties
    vocab = cs.build_vocab(["好坏中啊呀很不太"], min_count=1)
    tokens_pool = list("好坏中啊呀很不太新")
    for _ in range(10_000):
        n = int(rng.integers(1, 25))
        max_len = int(rng.integers(1, 15))
        tokens = [tokens_pool[i] for i in rng.integers(0, len(tokens_pool), size=n)]
        seq = cs.encode(tokens, vocab, max_len)
        assert seq.ids == tuple(vocab.id_for(t) for t in tokens[:max_len])
        assert seq.true_length == min(n, max_len)
        assert all(i != PAD_ID for i in seq.ids[: seq.true_length])
        assert all(0 <= i < len(vocab) for i in seq.ids)

    # PAD-invariance: extra padding never changes the probability
    model = make_model(vocab, hidden_size=3, dim=4, max_len=12, seed=10, scale=0.4)
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        tokens = [tokens_pool[i] for i in rng.integers(0, len(tokens_pool) - 1, size=n)]
        padded = cs.encode(tokens, vocab, max_len=int(rng.integers(n, 13)))
        exact = cs.encode(tokens, vocab, max_len=n)
        p_padded, _ = cs.sequence_forward(padded, model)
        p_exact, _ = cs.sequence_forward(exact, model)
        assert p_padded == p_exact

    # prelabel scale-monotonicity: positive rescaling never flips labels
    lex_chars = list("好坏中啊呀很不太")
    for _ in range(10_000):
        weights = rng.normal(0, 1.5, size=len(lex_chars))
        lex = cs.PolarityLexicon(entries=dict(zip(lex_chars, weights.tolist())))
        n = int(rng.integers(1, 12))
        text = "".join(lex_chars[i] for i in rng.integers(0, len(lex_chars), size=n))
        factor = float(rng.uniform(0.01, 10.0))
        label_a, score_a = cs.prelabel(text, lex)
        scaled = cs.PolarityLexicon({t: w * factor for t, w in lex.entries.items()})
        label_b, score_b = cs.prelabel(text, scaled)
        assert label_a == label_b
        assert abs(score_b - factor * score_a) <= 1e-9 * max(1.0, abs(score_b))

    # cleaning idempotence over adversarial compositions
    fragments = [
        "好棒", "太 差", "http://t.example/x", "https://a.b/c?d=e", "@某人", "@u",
        "#话题#", "#tag", "  ", "\t", "　", "。", "x", "",
    ]
    for _ in range(10_000):
        k = int(rng.integers(0, 8))
        text = "".join(fragments[i] for i in rng.integers(0, len(fragments), size=k))
        once = cs.clean_text(text)
        assert cs.clean_text(once) == once

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 10 PASS - 5 properties x 10,000 cases ({elapsed:.1f}s)")
