import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import charsent as cs
from charsent import embedding
from charsent.embedding import (
    MIN_LEARNING_RATE,
    SAMPLE_BLOCK,
    EmbeddingMatrix,
    NegativeSampler,
    _keep_probabilities,
    cbow_gradients,
    cbow_step,
    extract_windows,
    init_embedding_matrix,
    skipgram_gradients,
    skipgram_step,
    token_counts,
)
from charsent.errors import CharsentError, ConfigError, DataError
from charsent.rng import substream
from charsent.tokenizer import PAD_ID

from oracles import (
    NegativeSamplerRef,
    cbow_step_rowwise_ref,
    central_difference,
    negative_sampling_loss_ref,
    relative_error,
)


def _random_matrix(vocab_size=12, dim=8, seed=0, scale=0.5):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(0.0, scale, size=(vocab_size, dim))
    context = rng.normal(0.0, scale, size=(vocab_size, dim))
    vectors[PAD_ID] = 0.0
    return vectors, context


def test_extract_windows_boundaries():
    ids = [5, 6, 7, 8]
    got = extract_windows(ids, window=2)
    assert got == [
        (5, [6, 7]),
        (6, [5, 7, 8]),
        (7, [5, 6, 8]),
        (8, [6, 7]),
    ]


def test_extract_windows_skips_empty_context():
    assert extract_windows([7], window=3) == []
    assert extract_windows([], window=1) == []


def test_loss_at_zero_context_is_closed_form():
    vectors, context = _random_matrix()
    context[:] = 0.0
    for k in (1, 3, 5, 9):
        loss, _, _ = cbow_gradients([4, 5], 3, [6] * k, vectors, context)
        assert loss == pytest.approx((k + 1) * math.log(2.0), abs=1e-12)
        loss, _, _ = skipgram_gradients(4, 3, [6, 7][: min(k, 2)], vectors, context)
        assert loss == pytest.approx((min(k, 2) + 1) * math.log(2.0), abs=1e-12)


def test_cbow_loss_matches_reference():
    vectors, context = _random_matrix(seed=5)
    context_ids, center, negs = [3, 7, 7], 4, [2, 6, 6]
    loss, _, _ = cbow_gradients(context_ids, center, negs, vectors, context)
    h = vectors[context_ids].mean(axis=0)
    want = negative_sampling_loss_ref(
        h.tolist(),
        context[center].tolist(),
        [context[n].tolist() for n in negs],
    )
    assert loss == pytest.approx(want, abs=1e-12)


def _check_rows(analytic: dict, loss_fn, array, tol=1e-5, step=1e-5):
    for rid, grad in analytic.items():
        for j in range(array.shape[1]):
            flat_index = rid * array.shape[1] + j
            num = central_difference(loss_fn, array, flat_index, step)
            assert relative_error(num, grad[j]) < tol, (rid, j, num, grad[j])


def test_cbow_gradients_match_finite_differences():
    vectors, context = _random_matrix(seed=1)
    context_ids, center, negs = [3, 5, 5], 4, [2, 6, 6, 8]

    def loss_fn():
        loss, _, _ = cbow_gradients(context_ids, center, negs, vectors, context)
        return loss

    loss, in_grads, out_grads = cbow_gradients(context_ids, center, negs, vectors, context)
    _check_rows(in_grads, loss_fn, vectors)
    _check_rows(out_grads, loss_fn, context)


def test_skipgram_gradients_match_finite_differences():
    vectors, context = _random_matrix(seed=2)
    center, ctx, negs = 3, 7, [2, 5, 5]

    def loss_fn():
        loss, _, _ = skipgram_gradients(center, ctx, negs, vectors, context)
        return loss

    loss, in_grads, out_grads = skipgram_gradients(center, ctx, negs, vectors, context)
    _check_rows(in_grads, loss_fn, vectors)
    _check_rows(out_grads, loss_fn, context)


def test_single_step_decreases_loss():
    for seed in range(5):
        matrix = _random_matrix(seed=seed)
        before, in_g, out_g = cbow_gradients([3, 5], 4, [2, 6], *matrix)
        cbow_step([3, 5], 4, [2, 6], *matrix, lr=0.05)
        after, _, _ = cbow_gradients([3, 5], 4, [2, 6], *matrix)
        assert after < before

        matrix = _random_matrix(seed=seed + 100)
        before, _, _ = skipgram_gradients(3, 7, [2, 5], *matrix)
        skipgram_step(3, 7, [2, 5], *matrix, lr=0.05)
        after, _, _ = skipgram_gradients(3, 7, [2, 5], *matrix)
        assert after < before


def test_step_returns_pre_update_loss():
    matrix = _random_matrix(seed=3)
    want, _, _ = cbow_gradients([3, 5], 4, [2, 6], *matrix)
    got = cbow_step([3, 5], 4, [2, 6], *matrix, lr=0.05)
    assert got == pytest.approx(want, abs=0.0)


@pytest.mark.parametrize("dim", [1, 8, 16, 64, 300])
def test_step_matches_the_rowwise_reference_bit_for_bit(dim):
    """Random examples over a 9-id vocabulary, so context ids and
    negatives repeat and negatives hit the center; the vectorized step
    must round every value as the row-by-row step does.
    """
    rng = np.random.default_rng(dim)
    vectors, context_vectors = _random_matrix(vocab_size=9, dim=dim, seed=dim)
    ref_vectors = vectors.copy()
    ref_context = context_vectors.copy()
    repeats = 0
    for _ in range(300):
        context = rng.integers(1, 9, size=rng.integers(1, 9)).tolist()
        center = int(rng.integers(1, 9))
        negatives = rng.integers(1, 9, size=rng.choice([1, 5, 15])).tolist()
        repeats += len(set(context)) < len(context) and len(set(negatives)) < len(negatives)
        lr = float(rng.uniform(0.001, 0.5))
        want = cbow_step_rowwise_ref(context, center, negatives, ref_vectors, ref_context, lr)
        assert cbow_step(context, center, negatives, vectors, context_vectors, lr) == want
        assert np.array_equal(vectors, ref_vectors)
        assert np.array_equal(context_vectors, ref_context)
    assert repeats >= 30


def test_sampler_matches_the_one_draw_per_round_reference():
    """Block draws hand out the ids of the reference's per-call rounds,
    across block refills, with and without exclusions; a count of 0 or
    below returns no id and draws none.
    """
    counts = np.array([0, 40, 9, 3, 0, 1, 17, 5], dtype=np.float64)
    sampler = NegativeSampler(counts, substream(4, "negative_sampling"))
    ref = NegativeSamplerRef(counts, substream(4, "negative_sampling"))
    rng = np.random.default_rng(0)
    drawn = 0
    while drawn < 3 * SAMPLE_BLOCK:
        k = int(rng.integers(-1, 16))
        exclude = set(rng.choice([1, 2, 3, 6, 7], size=rng.integers(0, 3)).tolist())
        got = sampler.sample(k, exclude=exclude)
        assert got == ref.sample(k, exclude=exclude)
        drawn += len(got)
    assert sampler.sample(0) == sampler.sample(-1, exclude={6}) == []
    # one call that spans a refill
    assert sampler.sample(SAMPLE_BLOCK + 7, exclude={1}) == ref.sample(SAMPLE_BLOCK + 7, exclude={1})


def test_sampler_respects_exclusions_and_pad():
    counts = np.array([99, 0, 10, 5, 1, 0, 3], dtype=np.float64)
    sampler = NegativeSampler(counts, substream(0, "negative_sampling"))
    drawn = []
    for _ in range(2000):
        got = sampler.sample(3, exclude={2})
        assert len(got) == 3
        drawn.extend(got)
    assert PAD_ID not in drawn
    assert 2 not in drawn
    assert 5 not in drawn  # zero count
    assert set(drawn) <= {3, 4, 6}


def test_sampler_raises_when_exclusions_cover_every_counted_id():
    counts = np.array([40, 0, 6, 0, 2], dtype=np.float64)
    sampler = NegativeSampler(counts, substream(0, "negative_sampling"))
    with pytest.raises(DataError, match="distinct tokens"):
        sampler.sample(3, exclude={2, 4})
    with pytest.raises(DataError, match="distinct tokens"):
        sampler.sample(1, exclude=(4, 3, 2))
    assert sampler.sample(3, exclude={2}) == [4, 4, 4]


def test_sampler_tracks_powered_unigram():
    counts = np.zeros(6)
    counts[2], counts[3], counts[4] = 81.0, 16.0, 1.0
    sampler = NegativeSampler(counts, substream(1, "negative_sampling"))
    draws = np.array([sampler.sample(1)[0] for _ in range(30000)])
    weights = counts**0.75
    want = weights / weights.sum()
    for tid in (2, 3, 4):
        got = float(np.mean(draws == tid))
        assert abs(got - want[tid]) < 0.02


def test_init_embedding_matrix_shape_and_pad_row():
    vocab = cs.build_vocab(["好坏中啊"], min_count=1)
    emb = init_embedding_matrix(vocab, dim=16, seed=4)
    assert emb.vectors.shape == (len(vocab), 16)
    assert np.all(emb.vectors[PAD_ID] == 0.0)
    bound = 0.5 / 16
    others = emb.vectors[1:]
    assert np.all(np.abs(others) <= bound)
    assert np.any(others != 0.0)
    again = init_embedding_matrix(vocab, dim=16, seed=4)
    assert np.array_equal(emb.vectors, again.vectors)


def test_token_counts_rejects_pad():
    vocab = cs.build_vocab(["好坏"], min_count=1)
    seqs = [[vocab.id_for(t) for t in ["好", "坏", "好"]]]
    counts = token_counts(seqs, len(vocab))
    assert counts[PAD_ID] == 0
    assert counts[vocab.id_for("好")] == 2
    assert counts[vocab.id_for("坏")] == 1
    assert counts.dtype == np.int64 and counts.shape == (len(vocab),)
    new_id = len(vocab)
    mixed = token_counts([[new_id, new_id], seqs[0], []], len(vocab) + 2)
    assert mixed.tolist() == [*counts.tolist(), 2, 0]
    assert token_counts([], 3).tolist() == [0, 0, 0]
    with pytest.raises(DataError, match=r"\[1, "):
        token_counts([seqs[0] + [PAD_ID]], len(vocab))


@pytest.mark.parametrize("bad", [-1, 0, 4])
def test_token_counts_rejects_ids_outside_the_vocabulary(bad):
    with pytest.raises(DataError, match=r"\[1, 4\)"):
        token_counts([[2, 3], [bad]], 4)


def _train_setup(mode, epochs=3, dim=8, subsample=None):
    corpus = ["好棒好棒极了", "坏差坏差极了", "好棒妙", "坏差糟"] * 8
    vocab = cs.build_vocab(corpus, min_count=1)
    seqs = [[vocab.id_for(t) for t in cs.segment_chars(text)] for text in corpus]
    cfg = cs.W2vConfig(
        mode=mode, window=2, negatives=3, epochs=epochs, dim=dim, seed=6,
        subsample_threshold=subsample,
    )
    matrix, losses = cs.train_embeddings(seqs, vocab, cfg)
    return vocab, matrix, losses


@pytest.mark.parametrize("mode", ["cbow", "skipgram"])
def test_training_reduces_average_loss(mode):
    _, matrix, losses = _train_setup(mode)
    assert len(losses) == 3
    assert all(np.isfinite(losses))
    assert losses[-1] < losses[0]
    assert np.all(matrix.vectors[PAD_ID] == 0.0)


def _replay_step_stream(seqs, vocab, cfg):
    """train_embeddings as the documented schedule of one-example steps:
    windows in corpus order, the seeded sampler excluding the center (and
    the context token for skip-gram), and the linear lr decay per step
    over the unsubsampled example count. With a subsample threshold each
    epoch first draws one uniform per token, in corpus order, and keeps
    the token when it falls below min(1, sqrt(threshold / frequency)).
    Returns the matrix, the epoch losses and each epoch's step count.
    """
    want = init_embedding_matrix(vocab, cfg.dim, cfg.seed)
    context = np.zeros_like(want.vectors)
    counts = token_counts(seqs, len(vocab))
    sampler = NegativeSampler(counts, substream(cfg.seed, "negative_sampling"))
    rng_sub = substream(cfg.seed, "subsample")

    def examples(texts):
        out = []
        for seq in texts:
            for center, context in extract_windows(seq, cfg.window):
                if cfg.mode == "cbow":
                    out.append((cbow_step, context, center, {center}))
                else:
                    out.extend((skipgram_step, center, ctx, {center, ctx}) for ctx in context)
        return out

    def kept(tid):
        f = counts[tid] / counts.sum()
        keep = 1.0 if f <= cfg.subsample_threshold else math.sqrt(cfg.subsample_threshold / f)
        return rng_sub.random() < keep

    lr0 = cfg.learning_rate
    floor = min(MIN_LEARNING_RATE, lr0)
    total = cfg.epochs * len(examples(seqs))
    want_losses, epoch_steps = [], []
    step = 0
    for _ in range(cfg.epochs):
        texts = seqs
        if cfg.subsample_threshold is not None:
            texts = [[tid for tid in seq if kept(tid)] for seq in seqs]
        epoch = examples(texts)
        loss = 0.0
        for step_fn, first, second, exclude in epoch:
            lr = lr0 - (lr0 - floor) * (step / total)
            negatives = sampler.sample(cfg.negatives, exclude=exclude)
            loss += step_fn(first, second, negatives, want.vectors, context, lr)
            step += 1
        want_losses.append(loss / len(epoch))
        epoch_steps.append(len(epoch))
    return want, want_losses, epoch_steps


_REPLAY_CORPUS = ["好棒好棒极了", "坏差坏差极了", "好棒妙", "坏差糟"] * 3


@pytest.mark.parametrize("mode", ["cbow", "skipgram"])
def test_training_replays_the_scalar_step_stream(mode):
    vocab = cs.build_vocab(_REPLAY_CORPUS, min_count=1)
    seqs = [[vocab.id_for(t) for t in cs.segment_chars(text)] for text in _REPLAY_CORPUS]
    cfg = cs.W2vConfig(mode=mode, window=2, negatives=3, epochs=2, dim=8, seed=6)
    got, losses = cs.train_embeddings(seqs, vocab, cfg)
    want, want_losses, _ = _replay_step_stream(seqs, vocab, cfg)
    assert np.array_equal(got.vectors, want.vectors)
    assert losses == want_losses


@pytest.mark.parametrize("mode", ["cbow", "skipgram"])
def test_training_replays_the_subsampled_step_stream(mode):
    vocab = cs.build_vocab(_REPLAY_CORPUS, min_count=1)
    seqs = [[vocab.id_for(t) for t in cs.segment_chars(text)] for text in _REPLAY_CORPUS]
    cfg = cs.W2vConfig(
        mode=mode, window=2, negatives=3, epochs=3, dim=8, seed=6, subsample_threshold=0.1
    )
    got, losses = cs.train_embeddings(seqs, vocab, cfg)
    want, want_losses, epoch_steps = _replay_step_stream(seqs, vocab, cfg)
    full = _replay_step_stream(seqs, vocab, replace(cfg, subsample_threshold=None))[2][0]
    assert 0 < min(epoch_steps) <= max(epoch_steps) < full  # some windows lost, some kept
    assert np.array_equal(got.vectors, want.vectors)
    assert losses == want_losses


@pytest.mark.parametrize("mode, texts", [("cbow", ["好好好好", "好好"]), ("skipgram", ["好坏好坏"])])
def test_training_without_a_drawable_negative_raises(mode, texts):
    vocab = cs.build_vocab(texts, min_count=1)
    seqs = [[vocab.id_for(t) for t in cs.segment_chars(text)] for text in texts]
    cfg = cs.W2vConfig(mode=mode, window=2, negatives=2, epochs=1, dim=4)
    with pytest.raises(DataError, match="distinct tokens"):
        cs.train_embeddings(seqs, vocab, cfg)


def test_training_without_a_window_raises():
    vocab = cs.build_vocab(["好", "坏"], min_count=1)
    seqs = [[vocab.id_for("好")], [vocab.id_for("坏")], [vocab.id_for("好")]]
    with pytest.raises(DataError, match="no token has a neighbor"):
        cs.train_embeddings(seqs, vocab, cs.W2vConfig(dim=4, epochs=1))


@pytest.mark.parametrize("sequences", [[], [[]], [[2]]], ids=["no-text", "empty-text", "one-token"])
def test_training_on_no_window_raises_one_error_whatever_is_missing(sequences):
    vocab = cs.build_vocab(["好坏"], min_count=1)
    with pytest.raises(DataError) as err:
        cs.train_embeddings(sequences, vocab, cs.W2vConfig(window=3, dim=4, epochs=1))
    assert str(err.value) == "cannot train embeddings: no token has a neighbor within window 3"


def test_training_raises_when_subsampling_empties_an_epoch():
    # 1e-3 keeps each token here with probability 0.08 to 0.13; epoch 2 keeps no window
    with pytest.raises(DataError) as err:
        _train_setup("cbow", subsample=1e-3)
    assert str(err.value) == (
        "cannot train embeddings: subsampling at threshold 0.001 kept no window in epoch 2"
    )


def _scalar_keep(counts, threshold):
    """The keep rule one id at a time: 1 if f <= t, else sqrt(t / f)."""
    total = int(counts.sum())
    keep = []
    for tid in range(len(counts)):
        f = counts[tid] / total
        keep.append(1.0 if f <= threshold else math.sqrt(threshold / f))
    return keep


@st.composite
def _counts_and_threshold(draw):
    counts = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=30))
    counts[draw(st.integers(0, len(counts) - 1))] += 1  # some id is counted
    total = sum(counts)
    threshold = draw(
        st.floats(min_value=1e-12, max_value=2.0)
        | st.sampled_from([c / total for c in counts if c])  # f == t exactly
    )
    return np.array(counts, dtype=np.int64), threshold


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_counts_and_threshold())
def test_keep_table_equals_the_scalar_rule_for_every_id(case):
    counts, threshold = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an unseen id's zero f divides nothing
        table = _keep_probabilities(counts, threshold)
    assert table.dtype == np.float64
    assert table.tolist() == _scalar_keep(counts, threshold)


def test_keep_table_keeps_an_id_whose_frequency_is_the_threshold():
    counts = np.array([0, 0, 1, 999])
    assert counts[2] / counts.sum() == 1e-3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = _keep_probabilities(counts, 1e-3)
    assert table.tolist() == [1.0, 1.0, 1.0, math.sqrt(1e-3 / 0.999)]


class _CountingGenerator:
    """A Generator stand-in that records the size of each random() call."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def random(self, size=None):
        self.sizes.append(size)
        return self.rng.random(size)


@pytest.mark.parametrize("mode", ["cbow", "skipgram"])
def test_subsampling_draws_each_texts_uniforms_in_one_call(mode, monkeypatch):
    texts = ["好棒好棒极了", "坏", "坏差坏差极了", "好棒妙", "差"]  # one-token texts still draw
    vocab = cs.build_vocab(texts, min_count=1)
    seqs = [[vocab.id_for(t) for t in cs.segment_chars(text)] for text in texts]
    cfg = cs.W2vConfig(mode=mode, window=2, negatives=2, epochs=1, dim=4, subsample_threshold=0.05)
    plain, plain_losses = cs.train_embeddings(seqs, vocab, cfg)
    streams = {}

    def counting_substream(seed, name):
        rng = substream(seed, name)
        if name == "subsample":
            rng = streams[name] = _CountingGenerator(rng)
        return rng

    monkeypatch.setattr(embedding, "substream", counting_substream)
    matrix, losses = cs.train_embeddings(seqs, vocab, cfg)
    assert streams["subsample"].sizes == [len(seq) for seq in seqs]
    assert np.array_equal(matrix.vectors, plain.vectors)
    assert losses == plain_losses


def test_training_memory_does_not_grow_with_the_windows():
    """One epoch holds one text's windows at a time, so beyond its inputs
    the peak traced memory grows by at most about 32 bytes per token; a
    list of every window costs about 140 bytes per token here.
    """
    texts = ["好棒好棒极了", "坏差坏差极了", "好棒妙", "坏差糟", "好极了", "差"]
    vocab = cs.build_vocab(texts, min_count=1)
    seqs = [[vocab.id_for(t) for t in cs.segment_chars(text)] for text in texts]
    cfg = cs.W2vConfig(window=2, negatives=1, epochs=1, dim=4)

    def peak(copies):
        corpus = seqs * copies
        tracemalloc.start()
        try:
            cs.train_embeddings(corpus, vocab, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # first-call allocations
    small, large = peak(50), peak(200)
    added_tokens = 150 * sum(map(len, seqs))
    assert (large - small) / added_tokens <= 32


def test_training_is_deterministic():
    _, a, _ = _train_setup("cbow")
    _, b, _ = _train_setup("cbow")
    assert np.array_equal(a.vectors, b.vectors)


def test_modes_differ_on_same_seed():
    _, a, _ = _train_setup("cbow", epochs=1)
    _, b, _ = _train_setup("skipgram", epochs=1)
    assert not np.array_equal(a.vectors, b.vectors)


def test_zero_epochs_returns_seeded_init():
    vocab, matrix, losses = _train_setup("cbow", epochs=0)
    fresh = init_embedding_matrix(vocab, dim=8, seed=6)
    assert losses == []
    assert np.array_equal(matrix.vectors, fresh.vectors)


def test_subsampling_changes_training_but_keeps_shapes():
    _, plain, _ = _train_setup("cbow")
    _, sub, _ = _train_setup("cbow", subsample=0.05)
    assert plain.vectors.shape == sub.vectors.shape
    assert not np.array_equal(plain.vectors, sub.vectors)


def test_nearest_neighbors_ranking():
    vocab = cs.build_vocab(["好坏中"], min_count=1)
    vectors = np.zeros((5, 4))
    vectors[2] = [1.0, 0.0, 0.0, 0.0]  # query row
    vectors[3] = [0.9, 0.1, 0.0, 0.0]  # close
    vectors[4] = [-1.0, 0.0, 0.0, 0.0]  # opposite
    matrix = EmbeddingMatrix(vectors=vectors, vocab_hash="h")
    token = vocab.id_to_token[2]
    got = cs.nearest_neighbors(token, 2, matrix, vocab)
    assert [t for t, _ in got] == [vocab.id_to_token[3], vocab.id_to_token[4]]
    assert got[0][1] > 0.99
    assert got[1][1] == pytest.approx(-1.0)


def test_nearest_neighbors_zero_rows_rank_last():
    vocab = cs.build_vocab(["好坏中"], min_count=1)
    vectors = np.zeros((5, 4))
    vectors[2] = [1.0, 0.0, 0.0, 0.0]
    vectors[3] = [0.5, 0.5, 0.0, 0.0]
    matrix = EmbeddingMatrix(vectors=vectors, vocab_hash="h")
    got = cs.nearest_neighbors(vocab.id_to_token[2], 5, matrix, vocab)
    assert got[-1][1] == -1.0  # the all-zero row


def test_nearest_neighbors_errors():
    vocab = cs.build_vocab(["好坏"], min_count=1)
    matrix = EmbeddingMatrix(vectors=np.zeros((4, 3)), vocab_hash="h")
    with pytest.raises(DataError):
        cs.nearest_neighbors("好" if "好" not in vocab else "新", 2, matrix, vocab)
    with pytest.raises(DataError):
        cs.nearest_neighbors(vocab.id_to_token[2], 2, matrix, vocab)  # zero vector


@pytest.mark.parametrize("k", [0, -1])
def test_nearest_neighbors_rejects_k_below_one(k):
    vocab = cs.build_vocab(["好坏中"], min_count=1)
    vectors = np.eye(5, 4)
    matrix = EmbeddingMatrix(vectors=vectors, vocab_hash="h")
    with pytest.raises(ConfigError, match="k must be >= 1"):
        cs.nearest_neighbors(vocab.id_to_token[2], k, matrix, vocab)


def test_embeddings_roundtrip(tmp_path):
    vocab, matrix, _ = _train_setup("cbow", epochs=1)
    path = tmp_path / "emb.bin"
    cs.save_embeddings(matrix, vocab, path)
    back, tokens = cs.load_embeddings(path)
    assert tokens == list(vocab.id_to_token)
    assert back.dim == matrix.dim
    assert back.vocab_hash == vocab.content_hash()
    # float32 write: loading must reproduce the quantized values exactly
    assert np.array_equal(back.vectors, matrix.vectors.astype("<f4").astype(np.float64))


def test_save_embeddings_refuses_a_matrix_of_another_vocabulary(tmp_path):
    vocab = cs.build_vocab(["好坏中"], min_count=1)
    matrix = init_embedding_matrix(vocab, dim=2, seed=1)
    same_size = cs.build_vocab(["好坏差"], min_count=1)
    fewer = cs.build_vocab(["好坏"], min_count=1)
    cut = EmbeddingMatrix(vectors=matrix.vectors[:-1], vocab_hash=matrix.vocab_hash)
    path = tmp_path / "emb.bin"
    for m, v in [(matrix, same_size), (matrix, fewer), (cut, vocab)]:
        with pytest.raises(DataError) as err:
            cs.save_embeddings(m, v, path)
        assert str(err.value) == (
            f"embedding matrix does not match the vocabulary: {m.vocab_size} rows, hash {m.vocab_hash};"
            f" {len(v)} tokens, hash {v.content_hash()}"
        )
        assert not path.exists()


# st.text() draws no lone surrogate (category Cs); half the lists draw
# from an alphabet that adds them, so that most examples are admitted
_WITH_SURROGATES = st.one_of(st.characters(), st.characters(categories=["Cs"]))
_TOKEN_LISTS = st.one_of(
    st.lists(st.text(max_size=3), max_size=6),
    st.lists(st.text(_WITH_SURROGATES, max_size=3), max_size=6),
)


@settings(max_examples=200, deadline=None)
@given(_TOKEN_LISTS)
def test_every_admitted_vocabulary_round_trips_through_w2v1(tmp_path_factory, tokens):
    try:
        vocab = cs.Vocabulary(tokens, 1)
    except DataError:
        reject()
    path = tmp_path_factory.mktemp("w2v1") / "emb.bin"
    cs.save_embeddings(init_embedding_matrix(vocab, dim=1, seed=0), vocab, path)
    _, back = cs.load_embeddings(path)
    assert tuple(back) == vocab.id_to_token


def test_load_embeddings_refuses_a_file_without_pad_and_unk_first(tmp_path):
    rows = (t.encode("utf-8") + b" " + bytes(8) + b"\n" for t in "甲乙丙丁")
    path = tmp_path / "emb.bin"
    path.write_bytes(b"W2V1 4 2 h\n" + b"".join(rows))
    with pytest.raises(DataError) as err:
        cs.load_embeddings(path)
    assert str(err.value) == f"{path}: embedding rows 0 and 1 must be <pad> and <unk>, got ['甲', '乙']"


def test_load_embeddings_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE not an embedding file")
    with pytest.raises(DataError) as err:
        cs.load_embeddings(path)
    assert "W2V1" in str(err.value)


def _tiny_embedding_bytes(tmp_path) -> bytes:
    vocab = cs.build_vocab(["好坏"], min_count=1)
    path = tmp_path / "tiny.bin"
    cs.save_embeddings(init_embedding_matrix(vocab, dim=2, seed=1), vocab, path)
    return path.read_bytes()


def test_load_embeddings_rejects_every_truncation_and_trailing_bytes(tmp_path):
    blob = _tiny_embedding_bytes(tmp_path)
    path = tmp_path / "cut.bin"
    for end in range(len(blob)):
        path.write_bytes(blob[:end])
        with pytest.raises(DataError):
            cs.load_embeddings(path)
    path.write_bytes(blob + b"\n")
    with pytest.raises(DataError, match="trailing"):
        cs.load_embeddings(path)
    path.write_bytes(blob)
    cs.load_embeddings(path)


@pytest.mark.parametrize("header", [b"W2V1 x 2 h", b"W2V1 4 2.0 h", b"W2V1 -4 2 h", b"W2V1 4 0 h",
                                    b"W2V1 4 2", b"W2V1 99999999999 2 h",
                                    # more digits than int() reads, and than any file's size
                                    pytest.param(b"W2V1 " + b"9" * 4301 + b" 2 h", id="size-of-4301-digits"),
                                    pytest.param(b"W2V1 4 " + b"1" * 19 + b" h", id="dim-of-19-digits")])
def test_load_embeddings_rejects_bad_header_fields(tmp_path, header):
    blob = _tiny_embedding_bytes(tmp_path)
    path = tmp_path / "edited.bin"
    path.write_bytes(header + blob[blob.index(b"\n") :])
    with pytest.raises(DataError):
        cs.load_embeddings(path)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), min_size=1, max_size=4))
def test_load_embeddings_flipped_bytes_raise_only_charsent_errors(tmp_path_factory, flips):
    tmp_path = tmp_path_factory.mktemp("flip")
    blob = bytearray(_tiny_embedding_bytes(tmp_path))
    for offset, mask in flips:
        blob[offset % len(blob)] ^= mask
    path = tmp_path / "flipped.bin"
    path.write_bytes(bytes(blob))
    try:
        cs.load_embeddings(path)
    except CharsentError:
        pass


def test_load_embeddings_signaling_nan_raises_data_error_without_warning(tmp_path):
    blob = bytearray(_tiny_embedding_bytes(tmp_path))
    floats = blob.index(b" ", blob.index(b"\n") + 1) + 1  # the first row's first float
    blob[floats : floats + 4] = b"\x00\x00\xa0\x7f"  # float32 signaling NaN
    path = tmp_path / "snan.bin"
    path.write_bytes(bytes(blob))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="non-finite"):
            cs.load_embeddings(path)


def test_w2v_config_validation():
    with pytest.raises(ConfigError):
        cs.W2vConfig(mode="glove")
    with pytest.raises(ConfigError):
        cs.W2vConfig(window=0)
    with pytest.raises(ConfigError):
        cs.W2vConfig(negatives=0)
    with pytest.raises(ConfigError):
        cs.W2vConfig(dim=0)
    with pytest.raises(ConfigError, match=r"negatives must lie in \[1, 2147483648\), got 2147483648"):
        cs.W2vConfig(negatives=2**31)
    with pytest.raises(ConfigError):
        cs.W2vConfig(subsample_threshold=0.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_sampler_never_draws_excluded(seed):
    counts = np.array([50, 3, 10, 5, 1, 7], dtype=np.float64)
    sampler = NegativeSampler(counts, substream(seed, "negative_sampling"))
    got = sampler.sample(4, exclude={2, 3})
    assert len(got) == 4
    assert not set(got) & {2, 3, PAD_ID}
