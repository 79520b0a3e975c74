import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charsent as cs
from charsent.embedding import EmbeddingMatrix, init_embedding_matrix
from charsent.errors import ConfigError, DataError
from charsent.network import LstmParams
from charsent.tokenizer import PAD_ID, TokenSequence

from oracles import lstm_sequence_ref, params_to_lists, sigmoid_ref


def _random_params(hsize, dim, rng, scale=0.4):
    return LstmParams(
        w_gates=rng.normal(0, scale, (4 * hsize, hsize + dim)),
        b_gates=rng.normal(0, scale, 4 * hsize),
        w_out=rng.normal(0, scale, hsize),
        b_out=rng.normal(0, scale, 1),
    )


def _random_model(vocab, hsize=4, dim=3, seed=0, max_len=12, scale=0.4):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(0, scale, (len(vocab), dim))
    vectors[PAD_ID] = 0.0
    emb = EmbeddingMatrix(
        vectors=vectors, context_vectors=None, dim=dim, vocab_hash=vocab.content_hash()
    )
    return cs.Model(
        vocab=vocab,
        embeddings=emb,
        params=_random_params(hsize, dim, rng, scale),
        max_len=max_len,
    )


@pytest.fixture(scope="module")
def small_vocab():
    return cs.build_vocab(["好坏中啊呀很不太还挺"], min_count=1)


def test_sigmoid_matches_reference_and_clamps():
    for z in (-50.0, -30.0, -3.2, 0.0, 1.7, 30.0, 80.0):
        assert cs.sigmoid(z) == pytest.approx(sigmoid_ref(z), abs=0.0)
    assert cs.sigmoid(1000.0) == cs.sigmoid(30.0)
    assert cs.sigmoid(-1000.0) == cs.sigmoid(-30.0)
    arr = cs.sigmoid(np.array([-100.0, 0.0, 100.0]))
    assert arr[1] == 0.5
    assert 0.0 < arr[0] < arr[1] < arr[2] < 1.0
    assert abs(cs.sigmoid(30.0) - 1.0) < 1e-13
    assert cs.sigmoid(-30.0) < 1e-13
    for z in (-4.1, -0.3, 0.0, 2.6):
        assert cs.sigmoid(z) + cs.sigmoid(-z) == pytest.approx(1.0, abs=1e-15)
    z = np.array([[-100.0, -3.2, 0.0], [1.7, 30.0, 80.0]])
    want = cs.sigmoid(z)
    assert cs.sigmoid(z, out=z) is z  # in place, the same values
    assert np.array_equal(z, want)
    # the clamp rounds as np.clip does, signed zeros and infinities included
    z = np.append(np.random.default_rng(0).normal(0.0, 20.0, 5000), [0.0, -0.0, np.inf, -np.inf])
    want = 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))
    assert np.array_equal(cs.sigmoid(z), want)
    assert np.array_equal(cs.sigmoid(z, out=z), want)


def test_init_lstm_params_biases_and_bounds():
    params = cs.init_lstm_params(16, 8, seed=5)
    b_f, b_i, b_o, b_c = np.split(params.b_gates, 4)
    assert np.all(b_f == 1.0)
    assert np.all(b_i == 0.0)
    assert np.all(b_o == 0.0)
    assert np.all(b_c == 0.0)
    assert params.b_out[0] == 0.0
    bound = math.sqrt(6.0 / (16 + 8 + 16))
    for w in np.split(params.w_gates, 4):
        assert np.all(np.abs(w) <= bound)
        assert np.any(w != 0.0)
    # one draw for the stacked matrix is the four per-gate draws in order
    rng = cs.substream(5, "lstm_init")
    per_gate = [rng.uniform(-bound, bound, size=(16, 24)) for _ in "fioc"]
    assert np.array_equal(params.w_gates, np.vstack(per_gate))
    again = cs.init_lstm_params(16, 8, seed=5)
    assert np.array_equal(params.w_gates, again.w_gates)
    other = cs.init_lstm_params(16, 8, seed=6)
    assert not np.array_equal(params.w_gates, other.w_gates)


def test_init_lstm_params_validation():
    with pytest.raises(ConfigError):
        cs.init_lstm_params(0, 8, seed=1)
    with pytest.raises(ConfigError):
        cs.init_lstm_params(8, 0, seed=1)


def test_cell_forward_matches_scalar_reference(small_vocab):
    model = _random_model(small_vocab, hsize=4, dim=3, seed=7)
    seq = cs.encode(list("好坏中啊呀"), small_vocab, max_len=8)
    p, cache = cs.sequence_forward(seq, model)
    xs = [model.embeddings.vectors[i].tolist() for i in seq.ids[: seq.true_length]]
    h_ref, p_ref = lstm_sequence_ref(xs, params_to_lists(model.params))
    assert p == pytest.approx(p_ref, abs=1e-12)
    assert cache.h_final.shape == (1, 4)
    np.testing.assert_allclose(cache.h_final[0], h_ref, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 10))
def test_forward_oracle_random_weights(seed, length):
    vocab = cs.build_vocab(["好坏中啊呀很不太还挺"], min_count=1)
    model = _random_model(vocab, hsize=4, dim=3, seed=seed, max_len=10)
    tokens = list("好坏中啊呀很不太还挺")[:length]
    seq = cs.encode(tokens, vocab, max_len=10)
    p, cache = cs.sequence_forward(seq, model)
    xs = [model.embeddings.vectors[i].tolist() for i in seq.ids[: seq.true_length]]
    _, p_ref = lstm_sequence_ref(xs, params_to_lists(model.params))
    assert abs(p - p_ref) < 1e-12


def test_cell_state_decomposition_exact(small_vocab):
    """The identities c = i*c_tilde + f*c_prev and h = o*tanh(c) hold
    bit for bit on every row of a mixed-length batch, also on rows that
    keep stepping past their end; the head reads each row at its own
    last step.
    """
    model = _random_model(small_vocab, hsize=6, dim=3, seed=9)
    pool = list("好坏中啊呀很不")
    seqs = [cs.encode(pool[:n], small_vocab, max_len=8) for n in (7, 2, 1, 4)]
    _, cache = cs.forward_batch(seqs, model)
    assert cache.cs.shape == cache.hs.shape == (8, 4, 6)  # zero start state, then 7 steps
    assert not cache.cs[0].any() and not cache.hs[0].any()
    for row, seq in enumerate(seqs):
        assert np.array_equal(cache.h_final[row], cache.hs[seq.true_length, row])
    for t in range(7):
        f, i, o, c_tilde = cache.gates[t]
        from_input = i * c_tilde
        from_past = f * cache.cs[t]
        assert np.array_equal(cache.cs[t + 1], from_input + from_past)
        assert np.array_equal(cache.hs[t + 1], o * np.tanh(cache.cs[t + 1]))
        for gate in (f, i, o):
            assert np.all((gate > 0.0) & (gate < 1.0))
        assert np.all(np.abs(c_tilde) < 1.0)


def test_cell_forward_equals_the_cache_rows(small_vocab):
    """lstm_cell_forward and forward_batch run one cell: on a step's
    inputs it returns that step's cached rows bit for bit, on (B, .)
    rows against a mixed-length batch and on 1-D rows against a batch
    of one (a single row and a row of a larger batch may round apart
    in the gate matmul).
    """
    model = _random_model(small_vocab, hsize=6, dim=3, seed=23)
    pool = list("好坏中啊呀很不")
    seqs = [cs.encode(pool[:n], small_vocab, max_len=8) for n in (7, 2, 1, 4)]
    _, batch = cs.forward_batch(seqs, model)
    _, single = cs.sequence_forward(seqs[0], model)
    for cache, row in ((batch, slice(None)), (single, 0)):
        for t in range(7):
            h, c, gates = cs.lstm_cell_forward(
                cache.xs[row, t], cache.hs[t, row], cache.cs[t, row], model.params
            )
            assert h.shape == cache.hs[t + 1, row].shape
            assert np.array_equal(h, cache.hs[t + 1, row])
            assert np.array_equal(c, cache.cs[t + 1, row])
            assert np.array_equal(gates, cache.gates[t, :, row])


def test_forget_gate_extremes(small_vocab):
    """A saturated forget gate either preserves or erases the carried state."""
    hsize, dim = 4, 3
    model = _random_model(small_vocab, hsize=hsize, dim=dim, seed=29)
    model.params.w_gates[:hsize] = 0.0  # the forget gate's rows
    seq = cs.encode(list("好坏中啊呀"), small_vocab, max_len=6)

    model.params.b_gates[:hsize] = 30.0
    _, cache = cs.sequence_forward(seq, model)
    _, i, _, c_tilde = cache.gates.swapaxes(0, 1)
    expected = cache.cs[:-1] + i * c_tilde
    np.testing.assert_allclose(cache.cs[1:], expected, atol=1e-12)

    model.params.b_gates[:hsize] = -30.0
    _, cache = cs.sequence_forward(seq, model)
    f = cache.gates[:, 0]
    assert np.all(np.abs(f * cache.cs[:-1]) < 1e-12)


def test_padding_never_reaches_the_recurrence(small_vocab):
    model = _random_model(small_vocab, hsize=4, dim=3, seed=11)
    padded = cs.encode(list("好坏中"), small_vocab, max_len=9)
    exact = cs.encode(list("好坏中"), small_vocab, max_len=3)
    p_padded, cache_padded = cs.sequence_forward(padded, model)
    p_exact, _ = cs.sequence_forward(exact, model)
    assert p_padded == p_exact
    assert cache_padded.gates.shape[0] == 3


def test_cell_forward_rejects_mismatched_shapes():
    params = _random_params(4, 3, np.random.default_rng(31))
    cs.lstm_cell_forward(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 4)), params)
    for x_shape, h_shape, c_shape in (
        (2, 4, 4),  # input width
        (3, 5, 5),  # hidden width
        (3, 4, (1, 4)),  # h and c disagree
        ((3, 3), (2, 4), (2, 4)),  # batch sizes disagree
    ):
        with pytest.raises(DataError):
            cs.lstm_cell_forward(np.zeros(x_shape), np.zeros(h_shape), np.zeros(c_shape), params)


@pytest.mark.parametrize(
    "w_gates",
    [np.zeros(8), np.zeros((2, 4, 3)), np.zeros((0, 3)), np.zeros((8, 2)), np.zeros((8, 1))],
    ids=["1-D", "3-D", "no rows", "no input columns", "too few columns"],
)
def test_lstm_params_reject_malformed_gate_matrix(w_gates):
    with pytest.raises(DataError):
        LstmParams(w_gates=w_gates, b_gates=np.zeros(8), w_out=np.zeros(2), b_out=np.zeros(1))


def test_forward_rejects_empty_sequence(small_vocab):
    model = _random_model(small_vocab)
    empty = TokenSequence(ids=(PAD_ID,) * 4, true_length=0)
    with pytest.raises(DataError):
        cs.sequence_forward(empty, model)
    with pytest.raises(DataError):
        cs.forward_batch([empty], model)


def test_dropout_mask_applies_to_final_state_only(small_vocab):
    model = _random_model(small_vocab, hsize=5, dim=3, seed=13)
    seq = cs.encode(list("好坏中啊"), small_vocab, max_len=6)
    p_plain, cache_plain = cs.sequence_forward(seq, model)
    ones = np.ones(5)
    ps_ones, _ = cs.forward_batch([seq], model, ones[None])
    assert ps_ones[0] == p_plain
    zeros = np.zeros(5)
    ps_zeros, cache_zeros = cs.forward_batch([seq], model, zeros[None])
    assert ps_zeros[0] == pytest.approx(cs.sigmoid(model.params.b_out[0]), abs=0.0)
    # the recurrence itself is untouched by the mask
    np.testing.assert_array_equal(cache_zeros.h_final, cache_plain.h_final)
    assert np.all(cache_zeros.h_out == 0.0)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 10_000),
    st.lists(st.integers(1, 9), min_size=1, max_size=7),
)
def test_batch_forward_matches_per_example(seed, lengths):
    vocab = cs.build_vocab(["好坏中啊呀很不太还挺"], min_count=1)
    model = _random_model(vocab, hsize=5, dim=4, seed=seed, max_len=9)
    pool = list("好坏中啊呀很不太还")
    seqs = [cs.encode(pool[:n], vocab, max_len=9) for n in lengths]
    ps_batch, cache = cs.forward_batch(seqs, model)
    params = params_to_lists(model.params)
    for row, (seq, pb) in enumerate(zip(seqs, ps_batch, strict=True)):
        p1, _ = cs.sequence_forward(seq, model)
        assert abs(p1 - pb) < 1e-12
        xs = [model.embeddings.vectors[i].tolist() for i in seq.ids[: seq.true_length]]
        h_ref, p_ref = lstm_sequence_ref(xs, params)
        assert abs(pb - p_ref) < 1e-12
        np.testing.assert_allclose(cache.h_final[row], h_ref, rtol=0.0, atol=1e-12)


def test_batch_forward_with_dropout_matches_per_example(small_vocab):
    model = _random_model(small_vocab, hsize=5, dim=3, seed=17)
    pool = list("好坏中啊呀很不")
    seqs = [cs.encode(pool[:n], small_vocab, max_len=8) for n in (2, 5, 7)]
    rng = np.random.default_rng(3)
    masks = (rng.random((3, 5)) >= 0.5) / 0.5
    ps_batch, _ = cs.forward_batch(seqs, model, dropout_masks=masks)
    params = params_to_lists(model.params)
    for row, (seq, pb) in enumerate(zip(seqs, ps_batch, strict=True)):
        p1, _ = cs.forward_batch([seq], model, masks[row][None])
        assert abs(p1[0] - pb) < 1e-12
        xs = [model.embeddings.vectors[i].tolist() for i in seq.ids[: seq.true_length]]
        h_ref, _ = lstm_sequence_ref(xs, params)
        logit = sum(w * m * h for w, m, h in zip(params["w_out"], masks[row], h_ref, strict=True))
        assert abs(pb - sigmoid_ref(logit + params["b_out"][0])) < 1e-12


def test_predict_labels_and_threshold(small_vocab):
    model = _random_model(small_vocab, seed=19)
    label, p = cs.predict("好坏中", model)
    assert label == (1 if p >= 0.5 else 0)
    # ties at the threshold go positive
    label_tie, _ = cs.predict("好坏中", model, threshold=p)
    assert label_tie == 1
    label_zero, _ = cs.predict("好坏中", model, threshold=0.0)
    assert label_zero == 1
    label_one, _ = cs.predict("好坏中", model, threshold=1.0)
    assert label_one == 0


def test_predict_cleans_and_rejects_empty(small_vocab):
    model = _random_model(small_vocab, seed=21)
    _, p_spaced = cs.predict("好 坏 中", model)
    _, p_plain = cs.predict("好坏中", model)
    assert p_spaced == p_plain
    with pytest.raises(DataError):
        cs.predict("", model)
    with pytest.raises(DataError):
        cs.predict("http://only.a.link/x", model)


def test_model_validates_embedding_match(small_vocab):
    model = _random_model(small_vocab, hsize=4, dim=3)
    other_vocab = cs.build_vocab(["好坏"], min_count=1)
    with pytest.raises(DataError):
        cs.Model(
            vocab=other_vocab,
            embeddings=model.embeddings,
            params=model.params,
            max_len=8,
        )
    with pytest.raises(DataError):
        bad_dim = EmbeddingMatrix(
            vectors=np.zeros((len(small_vocab), 5)),
            context_vectors=None,
            dim=5,
            vocab_hash=small_vocab.content_hash(),
        )
        cs.Model(vocab=small_vocab, embeddings=bad_dim, params=model.params, max_len=8)


def test_model_copy_is_independent(small_vocab):
    model = _random_model(small_vocab, seed=23)
    clone = model.copy()
    clone.params.w_gates[0, 0] += 1.0
    clone.embeddings.vectors[2, 0] += 1.0
    assert model.params.w_gates[0, 0] != clone.params.w_gates[0, 0]
    assert model.embeddings.vectors[2, 0] != clone.embeddings.vectors[2, 0]


def test_trained_model_flags_planted_polarity(trained_setup):
    model = trained_setup["model"]
    label_pos, p_pos = cs.predict("这家店很好很棒真的赞", model)
    label_neg, p_neg = cs.predict("这家店很差很糟真的烂", model)
    assert label_pos == 1
    assert label_neg == 0
    assert p_pos > p_neg
