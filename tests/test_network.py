import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charsent as cs
from charsent.embedding import EmbeddingMatrix, init_embedding_matrix
from charsent.errors import ConfigError, DataError
from charsent import network
from charsent.network import LstmParams
from charsent.tokenizer import PAD_ID, TokenSequence

from helpers import no_dropout
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
    emb = EmbeddingMatrix(vectors=vectors, vocab_hash=vocab.content_hash())
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
    assert cache.h_out.shape == (1, 4)
    np.testing.assert_allclose(cache.h_out[0], h_ref, atol=1e-12)


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
    """The identity c = i*c_tilde + f*c_prev holds bit for bit on every
    live row of a mixed-length batch, and the head reads each row's
    h = o*tanh(c) at its own last step. The rows run sorted by length,
    step t runs only the rows still going, and an ended row's later
    states stay exactly zero.
    """
    model = _random_model(small_vocab, hsize=6, dim=3, seed=9)
    pool = list("好坏中啊呀很不")
    seqs = [cs.encode(pool[:n], small_vocab, max_len=8) for n in (7, 2, 1, 4)]
    _, cache = cs.forward_batch(seqs, model, no_dropout(seqs, model))
    assert cache.order.tolist() == [0, 3, 1, 2]
    assert cache.lengths.tolist() == [7, 4, 2, 1]
    assert cache.cs.shape == (8, 4, 6)  # zero start state, then 7 steps
    assert not cache.cs[0].any()
    for k, (row, length) in enumerate(zip(cache.order, cache.lengths, strict=True)):
        o = cache.gates[length - 1, 2, k]
        assert np.array_equal(cache.h_out[row], o * np.tanh(cache.cs[length, k]))
        assert np.array_equal(cache.cs[length + 1 :, k], np.zeros((7 - length, 6)))
    for t in range(7):
        live = int((cache.lengths > t).sum())
        f, i, o, c_tilde = cache.gates[t, :, :live]
        from_input = i * c_tilde
        from_past = f * cache.cs[t, :live]
        assert np.array_equal(cache.cs[t + 1, :live], from_input + from_past)
        for gate in (f, i, o):
            assert np.all((gate > 0.0) & (gate < 1.0))
        assert np.all(np.abs(c_tilde) < 1.0)


def test_batch_id_matrix_is_time_major_with_pad_past_each_row_end(small_vocab):
    """The cache's id matrix equals the per-row loop that fills column k
    with sorted row k's ids, and is C-contiguous (T, B), which fixes the
    order np.add.at adds the embedding gradient in.
    """
    model = _random_model(small_vocab, hsize=2, dim=3, seed=5)
    pool = list("好坏中啊呀很不")
    seqs = [cs.encode(pool[:n], small_vocab, max_len=8) for n in (3, 7, 1, 7, 4)]
    _, cache = cs.forward_batch(seqs, model, no_dropout(seqs, model))
    want = np.full((7, len(seqs)), PAD_ID, dtype=np.int64)
    for k, b in enumerate(cache.order):
        want[: cache.lengths[k], k] = seqs[b].ids
    assert cache.ids.dtype == np.int64 and cache.ids.flags.c_contiguous
    assert np.array_equal(cache.ids, want)


def test_cell_forward_equals_the_cache_rows(small_vocab):
    """lstm_cell_forward and forward_batch run one cell: fed a step's
    cached inputs and cell state and the h it returned for the step
    before (zero at step 0), it returns that step's cached rows bit for
    bit, on the live (n_t, .) rows of a mixed-length batch and on 1-D
    rows against a batch of one (a single row and a row of a larger
    batch may round apart in the gate matmul). The head reads each
    row's h at its own last step, the rows past a row's end stay zero,
    and BPTT writes each earlier step's h over its cell state bit for
    bit.
    """
    model = _random_model(small_vocab, hsize=6, dim=3, seed=23)
    pool = list("好坏中啊呀很不")
    seqs = [cs.encode(pool[:n], small_vocab, max_len=8) for n in (7, 2, 1, 4)]
    _, batch = cs.forward_batch(seqs, model, no_dropout(seqs, model))
    _, single = cs.sequence_forward(seqs[0], model)
    for cache in (batch, single):
        one = cache is single  # 1-D rows
        h, hs = np.zeros(6 if one else (4, 6)), []
        for t in range(7):
            live = int((cache.lengths > t).sum())
            rows = 0 if one else slice(live)
            h, c, gates = cs.lstm_cell_forward(
                cache.xs[t, rows], h if one else h[:live], cache.cs[t, rows], model.params
            )
            hs.append(h)
            assert h.shape == c.shape == cache.cs[t + 1, rows].shape
            assert np.array_equal(c, cache.cs[t + 1, rows])
            assert np.array_equal(gates, cache.gates[t, :, rows])
            ended = slice(live, None)
            assert not cache.cs[t + 1, ended].any() and not cache.gates[t, :, ended].any()
            for k in range(int((cache.lengths > t + 1).sum()), live):  # rows ending at step t
                assert np.array_equal(cache.h_out[cache.order[k]], h if one else h[k])
        cs.backward_batch(cache, np.ones(len(cache.lengths)), model)
        for t, h in enumerate(hs[:-1]):  # BPTT zeroes the final states' slot
            assert np.array_equal(cache.cs[t + 1, 0 if one else slice(len(h))], h)


def test_cell_steps_only_live_rows(small_vocab, monkeypatch):
    """Step t hands the cell only the rows of length > t, in forward
    passes and in scoring alike, so the rows stepped add up to the sum
    of the lengths.
    """
    model = _random_model(small_vocab, hsize=6, dim=3, seed=27)
    pool = list("好坏中啊呀很不")
    seqs = [cs.encode(pool[:n], small_vocab, max_len=8) for n in (7, 2, 1, 4)]
    stepped = []
    real = network._cell_into

    def counting(x_t, *rest):
        stepped.append(x_t.shape[0])
        real(x_t, *rest)

    monkeypatch.setattr(network, "_cell_into", counting)
    for run in (
        lambda: cs.forward_batch(seqs, model, no_dropout(seqs, model)),
        lambda: cs.predict_proba(model, seqs),
    ):
        stepped.clear()
        run()
        assert stepped == [4, 3, 2, 2, 1, 1, 1]
        assert sum(stepped) == sum(s.true_length for s in seqs)


def test_every_product_runs_through_the_one_matmul(small_vocab, monkeypatch):
    """network._matmul makes every matrix product of the LSTM, so a fake
    put in its place sees them all: on a batch whose longest row has T
    steps, the gate product at each step forward and in scoring, and in
    BPTT the read-out gradient, the recurrence at each step, the two
    weight-gradient products and the input gradient. A fake that hands
    each call to np.matmul leaves every bit as it was.
    """
    model = _random_model(small_vocab, hsize=6, dim=3, seed=27)
    pool = list("好坏中啊呀很不")
    seqs = [cs.encode(pool[:n], small_vocab, max_len=8) for n in (7, 2, 1, 4)]
    ys = np.array([1.0, 0.0, 0.0, 1.0])
    want_ps, cache = cs.forward_batch(seqs, model, no_dropout(seqs, model))
    want_grads = cs.backward_batch(cache, ys, model)
    want_scores = cs.predict_proba(model, seqs)
    calls = []

    def counting(*args, **kwargs):
        calls.append(len(args))
        return np.matmul(*args, **kwargs)

    monkeypatch.setattr(network, "_matmul", counting)
    ps, cache = cs.forward_batch(seqs, model, no_dropout(seqs, model))
    assert len(calls) == 7
    grads = cs.backward_batch(cache, ys, model)
    assert len(calls) == 7 + 7 + 4
    scores = cs.predict_proba(model, seqs)
    assert len(calls) == 7 + 11 + 7
    assert np.array_equal(ps, want_ps) and np.array_equal(scores, want_scores)
    assert grads.keys() == want_grads.keys()
    for name, grad in grads.items():
        assert np.array_equal(grad, want_grads[name]), name


@pytest.mark.parametrize("seed", [31, 37])
def test_permuting_a_batch_permutes_its_probabilities(small_vocab, seed):
    """A row's probability does not depend on its position in the batch:
    the rows run sorted by length (stable) and the head sums within each
    row. Equal-length rows change places under the permutation too. At
    h=128 these seeds caught the matrix-vector read-out h @ w_out, which
    rounds some rows by their position.
    """
    model = _random_model(small_vocab, hsize=128, dim=3, seed=seed, max_len=10)
    rng = np.random.default_rng(seed)
    pool = list("好坏中啊呀很不太还挺")
    lengths = rng.integers(1, 11, 11)
    seqs = [cs.encode(pool[k % 3 :][:n], small_vocab, max_len=10) for k, n in enumerate(lengths)]
    perm = rng.permutation(len(seqs))
    shuffled = [seqs[i] for i in perm]
    for run in (
        lambda s: cs.forward_batch(s, model, no_dropout(s, model))[0],
        lambda s: cs.predict_proba(model, s),
    ):
        assert np.array_equal(run(shuffled), run(seqs)[perm])


def test_predict_proba_equals_forward_batch_bit_for_bit(small_vocab):
    """predict_proba steps the cell through two state slots and
    forward_batch through one per step; both give the same
    probabilities, on a mixed-length batch with rows of length 1 and of
    the full length, on a batch of one and on an equal-length batch.
    """
    model = _random_model(small_vocab, hsize=6, dim=3, seed=29, max_len=10)
    pool = list("好坏中啊呀很不太还挺")
    mixed = [cs.encode(pool[:n], small_vocab, max_len=10) for n in (10, 1, 4, 10, 2, 7, 1, 5)]
    equal = [cs.encode(pool[k : k + 6], small_vocab, max_len=10) for k in range(4)]
    for seqs in (mixed, mixed[2:3], equal):
        want, _ = cs.forward_batch(seqs, model, no_dropout(seqs, model))
        assert np.array_equal(cs.predict_proba(model, seqs), want)


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


def test_forward_rejects_empty_sequence():
    # an empty sequence cannot be built, so the network never sees one
    with pytest.raises(DataError, match="at least one token"):
        TokenSequence(ids=())


@pytest.mark.parametrize("past_end", [False, True], ids=["negative", "vocabulary size"])
def test_forward_and_scoring_reject_an_id_outside_the_vocabulary(small_vocab, past_end):
    """The inputs are gathered from the embedding matrix with clipping,
    so an id outside it is refused, never read as another row.
    """
    model = _random_model(small_vocab, hsize=4, dim=3, seed=3)
    good = cs.encode(list("好坏"), small_vocab, max_len=4)
    bad = TokenSequence(ids=(1, len(small_vocab) if past_end else -1))
    with pytest.raises(DataError, match="outside"):
        cs.forward_batch([good, bad], model, no_dropout([good, bad], model))
    with pytest.raises(DataError, match="outside"):
        cs.predict_proba(model, [good, bad])


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
    np.testing.assert_array_equal(cache_zeros.cs, cache_plain.cs)
    np.testing.assert_array_equal(cache_zeros.gates, cache_plain.gates)
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
    ps_batch, cache = cs.forward_batch(seqs, model, no_dropout(seqs, model))
    params = params_to_lists(model.params)
    for row, (seq, pb) in enumerate(zip(seqs, ps_batch, strict=True)):
        p1, _ = cs.sequence_forward(seq, model)
        assert abs(p1 - pb) < 1e-12
        xs = [model.embeddings.vectors[i].tolist() for i in seq.ids[: seq.true_length]]
        h_ref, p_ref = lstm_sequence_ref(xs, params)
        assert abs(pb - p_ref) < 1e-12
        np.testing.assert_allclose(cache.h_out[row], h_ref, rtol=0.0, atol=1e-12)


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
    label_tie, _ = cs.predict("好坏中", replace(model, threshold=p))
    assert label_tie == 1
    label_zero, _ = cs.predict("好坏中", replace(model, threshold=0.0))
    assert label_zero == 1
    label_one, _ = cs.predict("好坏中", replace(model, threshold=1.0))
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
    one_row_short = EmbeddingMatrix(vectors=model.embeddings.vectors[:-1], vocab_hash=small_vocab.content_hash())
    for vocab, embeddings in [(other_vocab, model.embeddings), (small_vocab, one_row_short)]:
        with pytest.raises(DataError, match="^embedding matrix does not match the vocabulary: "):
            cs.Model(vocab=vocab, embeddings=embeddings, params=model.params, max_len=8)
    with pytest.raises(DataError, match="^embedding dim does not match LSTM input dim$"):
        bad_dim = EmbeddingMatrix(
            vectors=np.zeros((len(small_vocab), 5)),
            vocab_hash=small_vocab.content_hash(),
        )
        cs.Model(vocab=small_vocab, embeddings=bad_dim, params=model.params, max_len=8)


def test_trained_model_flags_planted_polarity(trained_setup):
    model = trained_setup["model"]
    label_pos, p_pos = cs.predict("这家店很好很棒真的赞", model)
    label_neg, p_neg = cs.predict("这家店很差很糟真的烂", model)
    assert label_pos == 1
    assert label_neg == 0
    assert p_pos > p_neg


def test_bptt_products_meet_only_zero_rows_past_the_steps(small_vocab):
    """The input, cell-state and gate row arrays run on in zero rows to a
    multiple of 32 rows past the T B step rows (21 here), whose inputs
    are the gathered embedding rows bit for bit; BPTT's two weight
    products read the zero rows, and after it they are still zero in
    all three, the final states' slot among them.
    """
    model = _random_model(small_vocab, hsize=5, dim=3, seed=29)
    pool = list("好坏中啊呀很不")
    seqs = [cs.encode(pool[:n], small_vocab, max_len=8) for n in (7, 3, 5)]
    _, cache = cs.forward_batch(seqs, model, no_dropout(seqs, model))
    steps = 7 * 3
    assert len(cache.x_rows) == len(cache.gate_rows) == len(cache.c_rows) == 32
    assert np.array_equal(cache.x_rows[:steps], model.embeddings.vectors[cache.ids.ravel()])
    assert not cache.x_rows[steps:].any() and not cache.gate_rows[steps:].any()
    assert cache.c_rows[steps : steps + 3].any() and not cache.c_rows[steps + 3 :].any()
    cs.backward_batch(cache, np.array([1.0, 0.0, 1.0]), model)
    for rows in (cache.x_rows, cache.c_rows, cache.gate_rows):
        assert not rows[steps:].any()


_GRADIENT_HASH = """
import hashlib
import numpy as np
import charsent as cs
from charsent.synthetic import generate_corpus

vocab = cs.build_vocab(generate_corpus(100, seed=3).texts(), min_count=1)
rng = np.random.default_rng(5)
chars = list(vocab.tokens)
seqs = [cs.encode(list(rng.choice(chars, size=59 - k % 10)), vocab, 60) for k in range(24)]
embeddings = cs.embedding.init_embedding_matrix(vocab, 16, seed=1)
model = cs.Model(
    vocab=vocab, embeddings=embeddings, params=cs.init_lstm_params(32, 16, seed=1), max_len=60
)
_, cache = cs.forward_batch(seqs, model, np.ones((24, 32)))
assert cache.ids.size % 32 != 0  # T B = 59 * 24
grads = cs.backward_batch(cache, np.arange(24) % 2.0, model)
print(hashlib.sha256(b"".join(grads[k].tobytes() for k in sorted(grads))).hexdigest())
"""


def test_bptt_gradients_do_not_depend_on_the_blas_thread_count():
    """One batch's gradients have the same bits at one and at two
    OpenBLAS threads. The thread count is read when numpy loads, so each
    runs in its own interpreter. T B is not a multiple of 32, the case
    in which the unpadded hoisted products differed.
    """
    hashes = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "PYTHONPATH": str(Path(cs.__file__).parents[1]),
        }
        done = subprocess.run(
            [sys.executable, "-c", _GRADIENT_HASH], capture_output=True, text=True, env=env,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        hashes.append(done.stdout.strip())
    assert hashes[0] == hashes[1]
