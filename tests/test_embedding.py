import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charsent as cs
from charsent.embedding import (
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

from oracles import central_difference, negative_sampling_loss_ref, relative_error


def _random_matrix(vocab_size=12, dim=8, seed=0, scale=0.5):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(0.0, scale, size=(vocab_size, dim))
    context = rng.normal(0.0, scale, size=(vocab_size, dim))
    vectors[PAD_ID] = 0.0
    return EmbeddingMatrix(vectors=vectors, context_vectors=context, dim=dim, vocab_hash="x" * 16)


def test_extract_windows_boundaries():
    ids = [5, 6, 7, 8]
    got = extract_windows(ids, window=2)
    assert got == [
        (5, [6, 7]),
        (6, [5, 7, 8]),
        (7, [5, 6, 8]),
        (8, [6, 7]),
    ]


def test_extract_windows_skips_pad():
    # the window is positional, so the PAD at index 1 eats one slot but
    # never appears as a center or context member
    ids = [5, PAD_ID, 6, PAD_ID]
    got = extract_windows(ids, window=2)
    assert got == [(5, [6]), (6, [5])]
    assert extract_windows(ids, window=1) == []


def test_extract_windows_skips_empty_context():
    assert extract_windows([7], window=3) == []
    assert extract_windows([7, PAD_ID, PAD_ID], window=1) == []


def test_extract_windows_accepts_token_sequence():
    vocab = cs.build_vocab(["好坏中"], min_count=1)
    seq = cs.encode(["好", "坏"], vocab, max_len=6)
    got = extract_windows(seq, window=2)
    assert len(got) == 2


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


def test_token_counts_ignores_padding():
    vocab = cs.build_vocab(["好坏"], min_count=1)
    seqs = [cs.encode(["好", "坏", "好"], vocab, max_len=8)]
    counts = token_counts(seqs, len(vocab))
    assert counts[PAD_ID] == 0
    assert counts[vocab.id_for("好")] == 2
    assert counts[vocab.id_for("坏")] == 1


def _train_setup(mode, epochs=3, dim=8, subsample=None):
    corpus = ["好棒好棒极了", "坏差坏差极了", "好棒妙", "坏差糟"] * 8
    vocab = cs.build_vocab(corpus, min_count=1)
    seqs = [cs.encode(cs.segment_chars(t), vocab, max_len=20) for t in corpus]
    cfg = cs.W2vConfig(
        mode=mode, window=2, negatives=3, epochs=epochs, dim=dim, seed=6,
        subsample_threshold=subsample,
    )
    losses: list[float] = []
    matrix = cs.train_embeddings(seqs, vocab, cfg, epoch_losses=losses)
    return vocab, matrix, losses


@pytest.mark.parametrize("mode", ["cbow", "skipgram"])
def test_training_reduces_average_loss(mode):
    _, matrix, losses = _train_setup(mode)
    assert len(losses) == 3
    assert all(np.isfinite(losses))
    assert losses[-1] < losses[0]
    assert np.all(matrix.vectors[PAD_ID] == 0.0)


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
    matrix = EmbeddingMatrix(vectors=vectors, context_vectors=None, dim=4, vocab_hash="h")
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
    matrix = EmbeddingMatrix(vectors=vectors, context_vectors=None, dim=4, vocab_hash="h")
    got = cs.nearest_neighbors(vocab.id_to_token[2], 5, matrix, vocab)
    assert got[-1][1] == -1.0  # the all-zero row


def test_nearest_neighbors_errors():
    vocab = cs.build_vocab(["好坏"], min_count=1)
    matrix = EmbeddingMatrix(vectors=np.zeros((4, 3)), context_vectors=None, dim=3, vocab_hash="h")
    with pytest.raises(DataError):
        cs.nearest_neighbors("好" if "好" not in vocab else "新", 2, matrix, vocab)
    with pytest.raises(DataError):
        cs.nearest_neighbors(vocab.id_to_token[2], 2, matrix, vocab)  # zero vector


@pytest.mark.parametrize("format", ["binary", "json"])
def test_embeddings_roundtrip(tmp_path, format):
    vocab, matrix, _ = _train_setup("cbow", epochs=1)
    path = tmp_path / f"emb.{format}"
    cs.save_embeddings(matrix, vocab, path, format=format)
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


def _tiny_embedding_bytes(tmp_path, format="binary") -> bytes:
    vocab = cs.build_vocab(["好坏"], min_count=1)
    path = tmp_path / f"tiny.{format}"
    cs.save_embeddings(init_embedding_matrix(vocab, dim=2, seed=1), vocab, path, format=format)
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


@pytest.mark.parametrize("key", ["rows", "dim", "vocab_hash"])
def test_load_embeddings_json_rejects_missing_or_mistyped_fields(tmp_path, key):
    payload = json.loads(_tiny_embedding_bytes(tmp_path, "json"))
    path = tmp_path / "edited.json"
    for edit in ("drop", True, [None], None):
        edited = dict(payload)
        if edit == "drop":
            del edited[key]
        else:
            edited[key] = edit
        path.write_text(json.dumps(edited), encoding="utf-8")
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
