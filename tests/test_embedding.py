import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charsent as cs
from charsent.embedding import (
    MIN_LEARNING_RATE,
    SAMPLE_BLOCK,
    EmbeddingMatrix,
    NegativeSampler,
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
    return EmbeddingMatrix(vectors=vectors, context_vectors=context, vocab_hash="x" * 16)


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
    matrix = _random_matrix()
    matrix.context_vectors[:] = 0.0
    for k in (1, 3, 5, 9):
        loss, _, _ = cbow_gradients([4, 5], 3, [6] * k, matrix)
        assert loss == pytest.approx((k + 1) * math.log(2.0), abs=1e-12)
        loss, _, _ = skipgram_gradients(4, 3, [6, 7][: min(k, 2)], matrix)
        assert loss == pytest.approx((min(k, 2) + 1) * math.log(2.0), abs=1e-12)


def test_cbow_loss_matches_reference():
    matrix = _random_matrix(seed=5)
    context_ids, center, negs = [3, 7, 7], 4, [2, 6, 6]
    loss, _, _ = cbow_gradients(context_ids, center, negs, matrix)
    h = matrix.vectors[context_ids].mean(axis=0)
    want = negative_sampling_loss_ref(
        h.tolist(),
        matrix.context_vectors[center].tolist(),
        [matrix.context_vectors[n].tolist() for n in negs],
    )
    assert loss == pytest.approx(want, abs=1e-12)


def _check_rows(analytic: dict, loss_fn, array, tol=1e-5, step=1e-5):
    for rid, grad in analytic.items():
        for j in range(array.shape[1]):
            flat_index = rid * array.shape[1] + j
            num = central_difference(loss_fn, array, flat_index, step)
            assert relative_error(num, grad[j]) < tol, (rid, j, num, grad[j])


def test_cbow_gradients_match_finite_differences():
    matrix = _random_matrix(seed=1)
    context_ids, center, negs = [3, 5, 5], 4, [2, 6, 6, 8]

    def loss_fn():
        loss, _, _ = cbow_gradients(context_ids, center, negs, matrix)
        return loss

    loss, in_grads, out_grads = cbow_gradients(context_ids, center, negs, matrix)
    _check_rows(in_grads, loss_fn, matrix.vectors)
    _check_rows(out_grads, loss_fn, matrix.context_vectors)


def test_skipgram_gradients_match_finite_differences():
    matrix = _random_matrix(seed=2)
    center, ctx, negs = 3, 7, [2, 5, 5]

    def loss_fn():
        loss, _, _ = skipgram_gradients(center, ctx, negs, matrix)
        return loss

    loss, in_grads, out_grads = skipgram_gradients(center, ctx, negs, matrix)
    _check_rows(in_grads, loss_fn, matrix.vectors)
    _check_rows(out_grads, loss_fn, matrix.context_vectors)


def test_single_step_decreases_loss():
    for seed in range(5):
        matrix = _random_matrix(seed=seed)
        before, in_g, out_g = cbow_gradients([3, 5], 4, [2, 6], matrix)
        cbow_step([3, 5], 4, [2, 6], matrix, lr=0.05)
        after, _, _ = cbow_gradients([3, 5], 4, [2, 6], matrix)
        assert after < before

        matrix = _random_matrix(seed=seed + 100)
        before, _, _ = skipgram_gradients(3, 7, [2, 5], matrix)
        skipgram_step(3, 7, [2, 5], matrix, lr=0.05)
        after, _, _ = skipgram_gradients(3, 7, [2, 5], matrix)
        assert after < before


def test_step_returns_pre_update_loss():
    matrix = _random_matrix(seed=3)
    want, _, _ = cbow_gradients([3, 5], 4, [2, 6], matrix)
    got = cbow_step([3, 5], 4, [2, 6], matrix, lr=0.05)
    assert got == pytest.approx(want, abs=0.0)


@pytest.mark.parametrize("dim", [1, 8, 16, 64])
def test_step_matches_the_rowwise_reference_bit_for_bit(dim):
    """Random examples over a 9-id vocabulary, so context ids and
    negatives repeat and negatives hit the center; the vectorized step
    must round every value as the row-by-row step does.
    """
    rng = np.random.default_rng(dim)
    matrix = _random_matrix(vocab_size=9, dim=dim, seed=dim)
    ref_vectors = matrix.vectors.copy()
    ref_context = matrix.context_vectors.copy()
    repeats = 0
    for _ in range(300):
        context = rng.integers(1, 9, size=rng.integers(1, 9)).tolist()
        center = int(rng.integers(1, 9))
        negatives = rng.integers(1, 9, size=rng.choice([1, 5, 15])).tolist()
        repeats += len(set(context)) < len(context) and len(set(negatives)) < len(negatives)
        lr = float(rng.uniform(0.001, 0.5))
        want = cbow_step_rowwise_ref(context, center, negatives, ref_vectors, ref_context, lr)
        assert cbow_step(context, center, negatives, matrix, lr) == want
        assert np.array_equal(matrix.vectors, ref_vectors)
        assert np.array_equal(matrix.context_vectors, ref_context)
    assert repeats >= 30


def test_sampler_matches_the_one_draw_per_round_reference():
    """Block draws hand out the ids of the reference's per-call rounds,
    across block refills, with and without exclusions.
    """
    counts = np.array([0, 40, 9, 3, 0, 1, 17, 5], dtype=np.float64)
    sampler = NegativeSampler(counts, substream(4, "negative_sampling"))
    ref = NegativeSamplerRef(counts, substream(4, "negative_sampling"))
    rng = np.random.default_rng(0)
    drawn = 0
    while drawn < 3 * SAMPLE_BLOCK:
        k = int(rng.integers(1, 16))
        exclude = set(rng.choice([1, 2, 3, 6, 7], size=rng.integers(0, 3)).tolist())
        got = sampler.sample(k, exclude=exclude)
        assert got == ref.sample(k, exclude=exclude)
        drawn += len(got)
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
    assert np.all(emb.context_vectors == 0.0)
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


@pytest.mark.parametrize("mode", ["cbow", "skipgram"])
def test_training_replays_the_scalar_step_stream(mode):
    """train_embeddings is the documented schedule of one-example steps:
    windows in corpus order, the seeded sampler excluding the center (and
    the context token for skip-gram), and the linear lr decay per step.
    """
    corpus = ["好棒好棒极了", "坏差坏差极了", "好棒妙", "坏差糟"] * 3
    vocab = cs.build_vocab(corpus, min_count=1)
    seqs = [[vocab.id_for(t) for t in cs.segment_chars(text)] for text in corpus]
    cfg = cs.W2vConfig(mode=mode, window=2, negatives=3, epochs=2, dim=8, seed=6)
    got, losses = cs.train_embeddings(seqs, vocab, cfg)

    want = init_embedding_matrix(vocab, cfg.dim, cfg.seed)
    sampler = NegativeSampler(
        token_counts(seqs, len(vocab)), substream(cfg.seed, "negative_sampling")
    )
    examples = []
    for seq in seqs:
        for center, context in extract_windows(seq, cfg.window):
            if mode == "cbow":
                examples.append((cbow_step, context, center, {center}))
            else:
                examples.extend((skipgram_step, center, ctx, {center, ctx}) for ctx in context)
    lr0 = cfg.learning_rate
    floor = min(MIN_LEARNING_RATE, lr0)
    total = cfg.epochs * len(examples)
    want_losses = []
    step = 0
    for _ in range(cfg.epochs):
        loss = 0.0
        for step_fn, first, second, exclude in examples:
            lr = lr0 - (lr0 - floor) * (step / total)
            negatives = sampler.sample(cfg.negatives, exclude=exclude)
            loss += step_fn(first, second, negatives, want, lr)
            step += 1
        want_losses.append(loss / len(examples))
    assert np.array_equal(got.vectors, want.vectors)
    assert np.array_equal(got.context_vectors, want.context_vectors)
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


def test_training_is_deterministic():
    _, a, _ = _train_setup("cbow")
    _, b, _ = _train_setup("cbow")
    assert np.array_equal(a.vectors, b.vectors)
    assert np.array_equal(a.context_vectors, b.context_vectors)


def test_modes_differ_on_same_seed():
    _, a, _ = _train_setup("cbow", epochs=1)
    _, b, _ = _train_setup("skipgram", epochs=1)
    assert not np.array_equal(a.vectors, b.vectors)


def test_zero_epochs_returns_seeded_init():
    vocab, matrix, losses = _train_setup("cbow", epochs=0)
    fresh = init_embedding_matrix(vocab, dim=8, seed=6)
    assert losses == []
    assert np.array_equal(matrix.vectors, fresh.vectors)
    assert np.array_equal(matrix.context_vectors, fresh.context_vectors)


def test_subsampling_changes_training_but_keeps_shapes():
    _, plain, _ = _train_setup("cbow")
    _, sub, _ = _train_setup("cbow", subsample=1e-3)
    assert plain.vectors.shape == sub.vectors.shape
    assert not np.array_equal(plain.vectors, sub.vectors)


def test_nearest_neighbors_ranking():
    vocab = cs.build_vocab(["好坏中"], min_count=1)
    vectors = np.zeros((5, 4))
    vectors[2] = [1.0, 0.0, 0.0, 0.0]  # query row
    vectors[3] = [0.9, 0.1, 0.0, 0.0]  # close
    vectors[4] = [-1.0, 0.0, 0.0, 0.0]  # opposite
    matrix = EmbeddingMatrix(vectors=vectors, context_vectors=None, vocab_hash="h")
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
    matrix = EmbeddingMatrix(vectors=vectors, context_vectors=None, vocab_hash="h")
    got = cs.nearest_neighbors(vocab.id_to_token[2], 5, matrix, vocab)
    assert got[-1][1] == -1.0  # the all-zero row


def test_nearest_neighbors_errors():
    vocab = cs.build_vocab(["好坏"], min_count=1)
    matrix = EmbeddingMatrix(vectors=np.zeros((4, 3)), context_vectors=None, vocab_hash="h")
    with pytest.raises(DataError):
        cs.nearest_neighbors("好" if "好" not in vocab else "新", 2, matrix, vocab)
    with pytest.raises(DataError):
        cs.nearest_neighbors(vocab.id_to_token[2], 2, matrix, vocab)  # zero vector


@pytest.mark.parametrize("k", [0, -1])
def test_nearest_neighbors_rejects_k_below_one(k):
    vocab = cs.build_vocab(["好坏中"], min_count=1)
    vectors = np.eye(5, 4)
    matrix = EmbeddingMatrix(vectors=vectors, context_vectors=None, vocab_hash="h")
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
                                    b"W2V1 4 2", b"W2V1 99999999999 2 h"])
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
