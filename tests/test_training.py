import inspect
import json
import math
import struct
import tracemalloc
import warnings
import weakref
from dataclasses import FrozenInstanceError, asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charsent as cs
from charsent import network, training
from charsent.errors import CharsentError, ConfigError, DataError, NumericalError
from charsent.network import _EVAL_CHUNK, param_shapes
from charsent.rng import substream
from charsent.synthetic import generate_corpus
from charsent.tokenizer import PAD_ID, TokenSequence
from charsent.training import AdamState

from helpers import make_model, no_dropout
from oracles import (
    adam_trace_ref,
    bce_ref,
    central_difference,
    confusion_ref,
    lstm_sequence_ref,
    relative_error,
)

FIXTURES = Path(__file__).with_name("data")


def test_bce_loss_values_and_clamping():
    assert cs.bce_loss(0.5, 1) == pytest.approx(math.log(2.0), abs=1e-15)
    assert cs.bce_loss(0.5, 0) == pytest.approx(math.log(2.0), abs=1e-15)
    assert cs.bce_loss(0.9, 1) == pytest.approx(bce_ref(0.9, 1), abs=1e-15)
    # certainty about the wrong answer stays finite via clamping
    assert cs.bce_loss(0.0, 1) == pytest.approx(-math.log(1e-12), abs=1e-6)
    assert cs.bce_loss(1.0, 0) == pytest.approx(-math.log(1e-12), rel=1e-5)
    assert np.isfinite(cs.bce_loss(0.0, 0))


@given(st.floats(1e-9, 1 - 1e-9), st.integers(0, 1))
def test_bce_matches_reference(p, y):
    assert cs.bce_loss(p, y) == pytest.approx(bce_ref(p, y), abs=1e-12)


def _grad_setup(seed=0, hsize=5, dim=6, n=12, max_len=20):
    corpus = generate_corpus(n, seed=seed)
    vocab = cs.build_vocab(corpus.texts(), min_count=1)
    model = make_model(vocab, hidden_size=hsize, dim=dim, max_len=max_len, seed=seed, scale=0.4)
    dataset = cs.encode_labeled(corpus, vocab, max_len)
    return model, dataset


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_backward_matches_finite_differences(seed):
    model, dataset = _grad_setup(seed=seed)
    seq, y = dataset[seed % len(dataset)]
    _, cache = cs.sequence_forward(seq, model)
    grads = cs.backward(cache, y, model)

    def loss_fn():
        p, _ = cs.sequence_forward(seq, model)
        return cs.bce_loss(p, y)

    rng = np.random.default_rng(seed)
    tensors = dict(model.params.tensors())
    tensors["embeddings"] = model.embeddings.vectors
    for name, tensor in tensors.items():
        flat_grad = grads[name].reshape(-1)
        picks = rng.choice(tensor.size, size=min(12, tensor.size), replace=False)
        for index in picks:
            num = central_difference(loss_fn, tensor, int(index), step=1e-5)
            assert relative_error(num, flat_grad[index]) < 1e-4, (name, index)


def test_backward_with_dropout_mask_matches_finite_differences():
    model, dataset = _grad_setup(seed=3)
    seq, y = dataset[0]
    mask = (np.random.default_rng(5).random(5) >= 0.4) / 0.6
    _, cache = cs.forward_batch([seq], model, mask[None])
    grads = cs.backward(cache, y, model)

    def loss_fn():
        ps, _ = cs.forward_batch([seq], model, mask[None])
        return cs.bce_loss(float(ps[0]), y)

    for name in ("w_gates", "w_out", "b_gates", "embeddings"):
        tensor = model.embeddings.vectors if name == "embeddings" else getattr(model.params, name)
        flat_grad = grads[name].reshape(-1)
        for index in range(0, tensor.size, max(1, tensor.size // 8)):
            num = central_difference(loss_fn, tensor, index, step=1e-5)
            assert relative_error(num, flat_grad[index]) < 1e-4, (name, index)


def test_backward_batch_equals_mean_of_per_example():
    model, dataset = _grad_setup(seed=6, n=10)
    # mixed lengths, so most rows end before the batch's longest row
    lengths = (15, 3, 20, 8, 1, 12, 5)
    seqs = [
        cs.encode([model.vocab.id_to_token[i] for i in seq.ids[:n]], model.vocab, 20)
        for (seq, _), n in zip(dataset[:7], lengths, strict=True)
    ]
    assert [s.true_length for s in seqs] == list(lengths)
    ys = np.array([float(y) for _, y in dataset[:7]])
    rng = np.random.default_rng(9)
    masks = (rng.random((7, 5)) >= 0.3) / 0.7
    _, bcache = cs.forward_batch(seqs, model, dropout_masks=masks)
    batch_grads = cs.backward_batch(bcache, ys, model)
    mean_grads = None
    for row, (seq, y) in enumerate(zip(seqs, ys, strict=True)):
        _, cache = cs.forward_batch([seq], model, masks[row][None])
        g = cs.backward(cache, y, model)
        if mean_grads is None:
            mean_grads = {k: v.copy() for k, v in g.items()}
        else:
            for k in mean_grads:
                mean_grads[k] += g[k]
    for k in mean_grads:
        mean_grads[k] /= 7.0
        np.testing.assert_allclose(batch_grads[k], mean_grads[k], atol=1e-12, err_msg=k)

    def mean_loss():
        ps, _ = cs.forward_batch(seqs, model, dropout_masks=masks)
        return float(np.mean([cs.bce_loss(p, y) for p, y in zip(ps, ys, strict=True)]))

    tensors = dict(model.params.tensors())
    tensors["embeddings"] = model.embeddings.vectors
    touched = sorted({i for seq in seqs for i in seq.ids[: seq.true_length]})
    dim = model.embeddings.dim
    for name, tensor in tensors.items():
        flat_grad = batch_grads[name].reshape(-1)
        if name == "embeddings":
            picks = [row * dim + j for row in touched for j in range(dim)]
        else:
            picks = rng.choice(tensor.size, size=min(12, tensor.size), replace=False)
        for index in picks:
            num = central_difference(mean_loss, tensor, int(index), step=1e-5)
            assert relative_error(num, flat_grad[index]) < 1e-4, (name, index)


def test_backward_batch_exact_beside_a_long_ended_row():
    """A length-1 row beside a length-45 row stops after its one step:
    with the forget gate saturated open, the long row's cell state keeps
    growing, while the short row's later states stay exactly zero and
    its BPTT enters only at step 0. Every gradient stays finite and the
    batch gradient is the mean of the two batch-of-one gradients.
    """
    model, dataset = _grad_setup(seed=7, max_len=48)
    model.params.b_gates[: model.params.hidden_size] = 30.0  # forget gate open
    pool = [model.vocab.id_to_token[i] for seq, _ in dataset for i in seq.ids]
    seqs = [cs.encode(pool[:n], model.vocab, 48) for n in (1, 45)]
    assert [s.true_length for s in seqs] == [1, 45]
    ys = np.array([1.0, 0.0])
    _, bcache = cs.forward_batch(seqs, model, no_dropout(seqs, model))
    assert bcache.order.tolist() == [1, 0]  # the long row runs first
    assert np.abs(bcache.cs[45, 0]).max() > 5.0 * np.abs(bcache.cs[1, 0]).max()
    assert np.array_equal(bcache.cs[2:, 1], np.zeros_like(bcache.cs[2:, 1]))
    assert np.array_equal(bcache.gates[1:, :, 1], np.zeros_like(bcache.gates[1:, :, 1]))
    batch_grads = cs.backward_batch(bcache, ys, model)
    # the spent gate slots hold the pre-activation gradients, zero in the rows that did not run
    d_pres = bcache.gates.reshape(45, 2, -1)
    assert np.array_equal(d_pres[1:, 1], np.zeros_like(d_pres[1:, 1]))
    assert d_pres[0, 1].any()
    singles = [
        cs.backward(cs.sequence_forward(seq, model)[1], y, model)
        for seq, y in zip(seqs, ys, strict=True)
    ]
    for name, grad in batch_grads.items():
        assert np.isfinite(grad).all(), name
        mean = (singles[0][name] + singles[1][name]) / 2.0
        np.testing.assert_allclose(grad, mean, rtol=0.0, atol=1e-12, err_msg=name)


def test_backward_batch_consumes_its_cache():
    model, dataset = _grad_setup(seed=4)
    seqs = [s for s, _ in dataset[:5]]
    ys = np.array([float(y) for _, y in dataset[:5]])
    _, cache = cs.forward_batch(seqs, model, no_dropout(seqs, model))
    cs.backward_batch(cache, ys, model)
    with pytest.raises(DataError):
        cs.backward_batch(cache, ys, model)


def test_adam_matches_scalar_trace():
    cfg = cs.TrainConfig(learning_rate=0.01, beta1=0.9, beta2=0.999, epsilon=1e-8)
    rng = np.random.default_rng(12)
    grads_seq = rng.normal(0.0, 1.0, size=50)
    want = adam_trace_ref(grads_seq, theta0=0.3, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
    tensors = {"theta": np.array([0.3])}
    state = AdamState.for_tensors(tensors)
    got = []
    for g in grads_seq:
        cs.adam_step(tensors, {"theta": np.array([g])}, state, cfg)
        got.append(float(tensors["theta"][0]))
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert state.t == 50


def test_adam_first_step_magnitude_is_learning_rate():
    cfg = cs.TrainConfig(learning_rate=1e-3)
    for g in (1e-4, 0.01, 1.0, -1.0, 250.0, -1e6):
        tensors = {"x": np.array([0.7])}
        state = AdamState.for_tensors(tensors)
        cs.adam_step(tensors, {"x": np.array([float(g)])}, state, cfg)
        delta = float(tensors["x"][0]) - 0.7
        assert abs(abs(delta) - cfg.learning_rate) <= 1e-6
        assert math.copysign(1.0, delta) == -math.copysign(1.0, g)


def test_adam_updates_in_place_and_tracks_tensors_independently():
    cfg = cs.TrainConfig(learning_rate=0.1)
    a = np.zeros(3)
    b = np.zeros((2, 2))
    tensors = {"a": a, "b": b}
    state = AdamState.for_tensors(tensors)
    cs.adam_step(tensors, {"a": np.ones(3), "b": np.zeros((2, 2))}, state, cfg)
    assert tensors["a"] is a and tensors["b"] is b
    assert np.all(a != 0.0)
    assert np.all(b == 0.0)  # zero gradient moves nothing


def test_adam_rejects_nonfinite_gradients():
    cfg = cs.TrainConfig()
    tensors = {"w_gates": np.zeros(2)}
    state = AdamState.for_tensors(tensors)
    with pytest.raises(NumericalError) as err:
        cs.adam_step(tensors, {"w_gates": np.array([1.0, np.nan])}, state, cfg)
    assert "w_gates" in str(err.value)


def test_backward_zero_params_gives_readout_residual():
    model, dataset = _grad_setup(seed=8)
    seq, y = dataset[0]
    touched = set(seq.ids[: seq.true_length])
    untouched = [row for row in range(len(model.vocab)) if row not in touched]
    assert untouched

    # rows of absent tokens never accumulate gradient, whatever the weights
    _, cache = cs.sequence_forward(seq, model)
    grads = cs.backward(cache, y, model)
    assert np.all(grads["embeddings"][untouched] == 0.0)

    # PAD's row is exactly +0.0 on a mixed-length batch, whose padding BPTT meets
    seqs = [s for s, _ in dataset]
    assert len({s.true_length for s in seqs}) > 1
    _, cache = cs.forward_batch(seqs, model, no_dropout(seqs, model))
    grads = cs.backward_batch(cache, np.array([float(y) for _, y in dataset]), model)
    assert np.all(grads["embeddings"][PAD_ID] == 0.0)
    assert not np.signbit(grads["embeddings"][PAD_ID]).any()

    for tensor in model.params.tensors().values():
        tensor[:] = 0.0
    for label in (0, 1):
        p, cache = cs.sequence_forward(seq, model)
        assert p == 0.5
        grads = cs.backward(cache, label, model)
        assert grads["b_out"][0] == pytest.approx(0.5 - label, abs=0.0)


def test_one_small_adam_step_does_not_increase_batch_loss():
    cfg = cs.TrainConfig(learning_rate=1e-4)
    for seed in range(20):
        model, dataset = _grad_setup(seed=100 + seed, n=8)
        seqs = [s for s, _ in dataset]
        ys = np.array([float(y) for _, y in dataset])

        def batch_loss():
            ps, _ = cs.forward_batch(seqs, model, no_dropout(seqs, model))
            return float(np.mean([cs.bce_loss(p, y) for p, y in zip(ps, ys)]))

        before = batch_loss()
        _, cache = cs.forward_batch(seqs, model, no_dropout(seqs, model))
        grads = cs.backward_batch(cache, ys, model)
        tensors = dict(model.params.tensors())
        tensors["embeddings"] = model.embeddings.vectors
        state = AdamState.for_tensors(tensors)
        cs.adam_step(tensors, grads, state, cfg)
        assert batch_loss() <= before, seed


def test_train_config_validation():
    with pytest.raises(ConfigError):
        cs.TrainConfig(beta1=1.0)
    with pytest.raises(ConfigError):
        cs.TrainConfig(epsilon=0.0)
    with pytest.raises(ConfigError):
        cs.TrainConfig(dropout_rate=1.0)
    with pytest.raises(ConfigError):
        cs.TrainConfig(patience=0)
    with pytest.raises(ConfigError):
        cs.TrainConfig(batch_size=0)
    cs.TrainConfig(dropout_rate=0.0)  # no dropout is allowed


def test_compute_metrics_against_brute_force():
    rng = np.random.default_rng(31)
    ps = rng.random(500)
    ys = rng.integers(0, 2, size=500)
    m = cs.compute_metrics(ps, ys, threshold=0.42)
    tp, fp, fn, tn = confusion_ref(ps.tolist(), ys.tolist(), 0.42)
    assert (m.tp, m.fp, m.fn, m.tn) == (tp, fp, fn, tn)
    assert m.accuracy == pytest.approx((tp + tn) / 500)
    assert m.precision == pytest.approx(tp / (tp + fp))
    assert m.recall == pytest.approx(tp / (tp + fn))
    assert m.loss == pytest.approx(sum(bce_ref(p, y) for p, y in zip(ps, ys)) / 500, abs=1e-12)
    assert m.mae == pytest.approx(float(np.abs(ps - ys).mean()), abs=1e-15)


def test_compute_metrics_threshold_tie_goes_positive():
    m = cs.compute_metrics(np.array([0.5]), np.array([1]), threshold=0.5)
    assert m.tp == 1 and m.fn == 0


def test_compute_metrics_pinned_confusions():
    ps = np.array([0.9, 0.8, 0.7, 0.2, 0.1, 0.3])
    ys = np.array([1, 1, 0, 1, 0, 0])
    m = cs.compute_metrics(ps, ys, threshold=0.5)
    assert (m.tp, m.fp, m.fn, m.tn) == (2, 1, 1, 2)
    assert m.accuracy == 4 / 6
    assert m.precision == 2 / 3
    assert m.recall == 2 / 3

    # constant-positive predictor on a balanced set
    m = cs.compute_metrics(np.full(10, 0.9), np.array([1, 0] * 5), threshold=0.5)
    assert m.recall == 1.0
    assert m.accuracy == 0.5
    assert m.precision == 0.5

    # every prediction correct
    m = cs.compute_metrics(np.array([0.9, 0.1, 0.8]), np.array([1, 0, 1]), threshold=0.5)
    assert m.accuracy == m.precision == m.recall == 1.0


def test_compute_metrics_degenerate_cases():
    # nothing predicted positive: precision 0 by convention
    m = cs.compute_metrics(np.array([0.1, 0.2]), np.array([1, 0]), threshold=0.5)
    assert m.precision == 0.0 and m.tp + m.fp == 0
    assert m.tp + m.fn == 1
    # no positive labels at all: recall 0 by convention
    m = cs.compute_metrics(np.array([0.9, 0.1]), np.array([0, 0]), threshold=0.5)
    assert m.recall == 0.0 and m.tp + m.fn == 0
    with pytest.raises(DataError):
        cs.compute_metrics(np.array([]), np.array([]), threshold=0.5)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    st.data(),
)
def test_metrics_identities(ps, data):
    ys = [data.draw(st.integers(0, 1)) for _ in ps]
    m = cs.compute_metrics(np.array(ps), np.array(ys), threshold=0.5)
    n = len(ps)
    assert m.tp + m.fp + m.fn + m.tn == n
    assert 0.0 <= m.accuracy <= 1.0
    assert 0.0 <= m.precision <= 1.0
    assert 0.0 <= m.recall <= 1.0
    assert 0.0 <= m.mae <= 1.0
    assert m.loss >= 0.0
    assert m.accuracy == pytest.approx((m.tp + m.tn) / n)


def test_evaluate_agrees_with_per_example_forward():
    model, dataset = _grad_setup(seed=8, n=9)
    assert model.threshold == 0.5
    metrics = cs.evaluate(model, dataset)
    ps = []
    for seq, _ in dataset:
        p, _ = cs.sequence_forward(seq, model)
        ps.append(p)
    ys = np.array([y for _, y in dataset])
    want = cs.compute_metrics(np.array(ps), ys, 0.5)
    assert metrics.loss == pytest.approx(want.loss, abs=1e-12)
    assert (metrics.tp, metrics.fp, metrics.fn, metrics.tn) == (want.tp, want.fp, want.fn, want.tn)


def _mixed_length_sequences(n=600, max_len=40, seed=5):
    """A model and n sequences of shuffled lengths 1..max_len, enough
    for more than two scoring parts.
    """
    corpus = generate_corpus(60, seed=seed)
    vocab = cs.build_vocab(corpus.texts(), min_count=1)
    model = make_model(vocab, hidden_size=5, dim=6, max_len=max_len, seed=seed, scale=0.4)
    rng = np.random.default_rng(seed)
    seqs = []
    for length in rng.integers(1, max_len + 1, size=n):
        ids = rng.integers(PAD_ID + 1, len(vocab), size=length).tolist()
        seqs.append(TokenSequence(ids=tuple(ids)))
    return model, seqs


def test_predict_proba_matches_single_forward_in_input_order():
    model, seqs = _mixed_length_sequences()
    assert len(seqs) > 2 * _EVAL_CHUNK
    ps = training.predict_proba(model, seqs)
    assert ps.shape == (len(seqs),)
    for i, seq in enumerate(seqs):
        p1, _ = cs.forward_batch([seq], model, no_dropout([seq], model))
        assert abs(ps[i] - p1[0]) < 1e-12


def test_predict_proba_runs_equal_length_sorted_parts(monkeypatch):
    model, seqs = _mixed_length_sequences()
    index_of = {id(seq): i for i, seq in enumerate(seqs)}
    calls = []
    real_batch_inputs = network._batch_inputs

    def recording_batch_inputs(batch):
        calls.append([index_of[id(seq)] for seq in batch])
        return real_batch_inputs(batch)

    monkeypatch.setattr(network, "_batch_inputs", recording_batch_inputs)
    training.predict_proba(model, seqs)

    assert len(calls) == math.ceil(len(seqs) / _EVAL_CHUNK)
    sizes = [len(call) for call in calls]
    assert max(sizes) <= _EVAL_CHUNK
    assert max(sizes) - min(sizes) <= 1
    flat = [i for call in calls for i in call]
    assert sorted(flat) == list(range(len(seqs)))
    lengths = [seqs[i].true_length for i in flat]
    assert all(a <= b for a, b in zip(lengths, lengths[1:]))
    # stable: equal lengths keep their input order
    assert flat == sorted(range(len(seqs)), key=lambda i: seqs[i].true_length)


def _scoring_peak(hidden_size: int, dim: int, length: int) -> int:
    """tracemalloc's peak while predict_proba scores one 256-row part of
    random rows of `length` ids.
    """
    vocab = cs.build_vocab(generate_corpus(60, seed=7).texts(), min_count=1)
    model = make_model(vocab, hidden_size=hidden_size, dim=dim, max_len=length, seed=7, scale=0.4)
    rng = np.random.default_rng(7)
    seqs = [
        TokenSequence(ids=tuple(rng.integers(PAD_ID + 1, len(vocab), size=length).tolist()))
        for _ in range(_EVAL_CHUNK)
    ]
    tracemalloc.start()
    try:
        training.predict_proba(model, seqs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predict_proba_peaks_below_a_quarter_of_one_gates_array():
    """Scoring holds only the step in flight, never a part's BPTT cache:
    one 256-row part of length-60 rows at h=64 peaks far below the
    (T, 4, B, h) gates array that forward_batch would keep.
    """
    hsize, length = 64, 60
    assert _scoring_peak(hsize, 16, length) < length * 4 * _EVAL_CHUNK * hsize * 8 / 4


def test_predict_proba_peaks_below_a_quarter_of_one_parts_inputs():
    """Scoring gathers each step's inputs when the step runs: one 256-row
    part of length-120 rows at d=64 peaks far below the (T, B, dim)
    embedded inputs that the part's steps read in all.
    """
    dim, length = 64, 120
    assert _scoring_peak(32, dim, length) < length * _EVAL_CHUNK * dim * 8 / 4


def test_predict_proba_frees_each_part_before_the_next():
    """Three 256-row parts peak no higher than one, give or take a
    quarter of one part's embedded inputs: nothing a part allocates
    outlives it.
    """
    length, dim, rows = 60, 16, 3 * _EVAL_CHUNK
    vocab = cs.build_vocab(generate_corpus(60, seed=7).texts(), min_count=1)
    model = make_model(vocab, hidden_size=64, dim=dim, max_len=length, seed=7, scale=0.4)
    rng = np.random.default_rng(7)
    seqs = [
        TokenSequence(ids=tuple(rng.integers(PAD_ID + 1, len(vocab), size=length).tolist()))
        for _ in range(rows)
    ]

    def peak(batch):
        tracemalloc.start()
        try:
            training.predict_proba(model, batch)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_part = peak(seqs[:_EVAL_CHUNK])
    assert peak(seqs) - one_part < _EVAL_CHUNK * length * dim * 8 / 4


def _live_caches_at_each_call(monkeypatch) -> list[int]:
    """Wrap training.forward_batch; each call appends how many caches
    returned by earlier calls are still alive when it starts.
    """
    real_forward_batch = training.forward_batch
    refs: list[weakref.ref] = []
    live: list[int] = []

    def tracking_forward_batch(*args):
        live.append(sum(ref() is not None for ref in refs))
        ps, cache = real_forward_batch(*args)
        refs.append(weakref.ref(cache))
        return ps, cache

    monkeypatch.setattr(training, "forward_batch", tracking_forward_batch)
    return live


def test_predict_proba_has_one_home():
    """Scoring sits beside the LSTM core; training and the package name
    that one function.
    """
    assert cs.predict_proba is training.predict_proba is network.predict_proba


def test_predict_proba_of_nothing_is_empty(tiny_model):
    ps = training.predict_proba(tiny_model, [])
    assert ps.shape == (0,)


def _quick_sets(seed=41, n=80, hsize=8, dim=8):
    corpus = generate_corpus(n, seed=seed)
    train_c, val_c, _ = cs.split(corpus, 0.7, 0.2, seed=seed)
    vocab = cs.build_vocab(corpus.texts(), min_count=1)
    model = make_model(vocab, hidden_size=hsize, dim=dim, max_len=60, seed=seed, scale=0.3)
    return (
        cs.encode_labeled(train_c, vocab, 60),
        cs.encode_labeled(val_c, vocab, 60),
        model,
    )


def test_train_returns_history_and_leaves_input_untouched():
    train_set, val_set, model = _quick_sets()
    before = {k: v.copy() for k, v in model.params.tensors().items()}
    before["embeddings"] = model.embeddings.vectors.copy()
    cfg = cs.TrainConfig(epochs=3, batch_size=16, dropout_rate=0.2, patience=5, seed=1)
    best, history = cs.train(train_set, val_set, model, cfg)
    for name, tensor in model.params.tensors().items():
        assert np.array_equal(tensor, before[name]), name
    assert np.array_equal(model.embeddings.vectors, before["embeddings"])
    assert len(history.records) == 3
    assert [r.epoch for r in history.records] == [1, 2, 3]
    assert history.best_epoch == min(
        range(1, 4), key=lambda e: history.records[e - 1].val_loss
    )
    assert len(history.records) == cfg.epochs  # did not stop early
    # restored checkpoint reproduces the recorded best validation loss exactly
    got = cs.evaluate(best, val_set)
    assert got.loss == history.records[history.best_epoch - 1].val_loss
    assert best.metrics_snapshot["loss"] == got.loss


def test_train_is_deterministic_per_seed():
    train_set, val_set, model = _quick_sets()
    cfg = cs.TrainConfig(epochs=2, batch_size=16, dropout_rate=0.4, patience=5, seed=7)
    a, ha = cs.train(train_set, val_set, model, cfg)
    b, hb = cs.train(train_set, val_set, model, cfg)
    assert ha.records == hb.records
    assert np.array_equal(a.params.w_gates, b.params.w_gates)
    assert np.array_equal(a.embeddings.vectors, b.embeddings.vectors)
    c, hc = cs.train(train_set, val_set, model, cs.TrainConfig(epochs=2, batch_size=16, dropout_rate=0.4, patience=5, seed=8))
    assert ha.records != hc.records


def test_train_frees_each_batch_before_the_next_pass(monkeypatch):
    train_set, val_set, model = _quick_sets()
    live = _live_caches_at_each_call(monkeypatch)
    config = cs.TrainConfig(epochs=2, batch_size=16, patience=2, seed=5)
    training.train(train_set, val_set, model, config)
    batches = math.ceil(len(train_set) / config.batch_size)
    assert len(live) == 2 * batches  # scoring calls no forward_batch and builds no cache
    assert live == [0] * len(live)


@pytest.mark.parametrize("batch_size", [200, 256])
def test_train_figures_of_one_undropped_batch_are_the_input_models(batch_size):
    # one batch holds the whole training set and dropout is off, so the
    # epoch's only forward pass scores the input model's weights
    corpus = generate_corpus(300, seed=3)
    vocab = cs.build_vocab(corpus.texts(), min_count=1)
    dataset = cs.encode_labeled(corpus, vocab, 60)
    train_set, val_set = dataset[:200], dataset[200:]
    model = make_model(vocab, hidden_size=16, dim=8, seed=3, scale=0.3)
    cfg = cs.TrainConfig(epochs=1, batch_size=batch_size, dropout_rate=0.0, seed=3)
    _, history = cs.train(train_set, val_set, model, cfg)
    before = cs.evaluate(model, train_set)
    record = history.records[0]
    assert (record.train_loss, record.train_acc) == (before.loss, before.accuracy)


def _recorded_batches(monkeypatch, train_set, val_set, model, config):
    """Run train with training.forward_batch wrapped, then unwrap it;
    each batch it ran, in order, as (training-set indices in input
    order, dropout masks).
    """
    index_of = {id(seq): i for i, (seq, _) in enumerate(train_set)}
    real_forward_batch = training.forward_batch
    batches = []

    def recording_forward_batch(seqs, model, masks):
        batches.append(([index_of[id(seq)] for seq in seqs], masks.copy()))
        return real_forward_batch(seqs, model, masks)

    monkeypatch.setattr(training, "forward_batch", recording_forward_batch)
    training.train(train_set, val_set, model, config)
    monkeypatch.undo()
    return batches


def _bucket_config(seed):
    # 56 training examples at B=4: 14 batches, in pools of 32 and 24 examples
    return cs.TrainConfig(epochs=2, batch_size=4, dropout_rate=0.3, patience=5, seed=seed)


def test_train_runs_each_training_example_once_per_epoch(monkeypatch):
    train_set, val_set, model = _quick_sets()
    config = _bucket_config(3)
    batches = _recorded_batches(monkeypatch, train_set, val_set, model, config)
    per_epoch = math.ceil(len(train_set) / config.batch_size)
    assert len(batches) == config.epochs * per_epoch
    for epoch in range(config.epochs):
        ran = [i for picks, _ in batches[epoch * per_epoch : (epoch + 1) * per_epoch] for i in picks]
        assert sorted(ran) == list(range(len(train_set)))


def test_train_batches_are_runs_of_a_length_sorted_pool_of_the_shuffle(monkeypatch):
    """Each epoch's shuffle permutation is cut into pools of
    _POOL_BATCHES batches, each pool sorted by length, longest first and
    stable; the batches are cut from the start of that order and run in
    the order of the substream's next permutation.
    """
    train_set, val_set, model = _quick_sets()
    config = _bucket_config(3)
    batches = _recorded_batches(monkeypatch, train_set, val_set, model, config)
    lengths = [seq.true_length for seq, _ in train_set]
    n, size = len(train_set), config.batch_size
    pool = training._POOL_BATCHES * size
    assert pool < n  # more than one pool
    rng = substream(config.seed, "shuffle")
    runs = iter(picks for picks, _ in batches)
    for _ in range(config.epochs):
        perm = rng.permutation(n).tolist()
        pools = [sorted(perm[s : s + pool], key=lambda i: -lengths[i]) for s in range(0, n, pool)]
        cuts = [p[s : s + size] for p in pools for s in range(0, len(p), size)]
        for k in rng.permutation(len(cuts)):
            picks = next(runs)
            assert picks == cuts[k]
            # a contiguous run of one pool's stable descending-length order
            home = next(p for p in pools if picks[0] in p)
            start = home.index(picks[0])
            assert home[start : start + len(picks)] == picks
    assert next(runs, None) is None


def test_train_batches_and_masks_repeat_per_seed(monkeypatch):
    train_set, val_set, model = _quick_sets()

    def run(seed):
        batches = _recorded_batches(monkeypatch, train_set, val_set, model, _bucket_config(seed))
        return [picks for picks, _ in batches], [masks for _, masks in batches]

    picks, masks = run(3)
    again_picks, again_masks = run(3)
    assert again_picks == picks
    assert all(np.array_equal(a, b) for a, b in zip(again_masks, masks, strict=True))
    other_picks, other_masks = run(4)
    assert other_picks != picks
    assert not all(np.array_equal(a, b) for a, b in zip(other_masks, masks, strict=True))


def test_train_batches_step_a_quarter_fewer_than_random_batches(monkeypatch):
    """The cell steps a batch to its longest text, so an epoch costs the
    sum of its batches' maximum lengths. On 800 reviews of 10-60 tokens
    at B=32, length-sorted pools bring it below 0.75 of what the same
    shuffle cut straight into batches costs.
    """
    corpus = generate_corpus(800, seed=801)
    vocab = cs.build_vocab(corpus.texts(), min_count=1)
    train_set = cs.encode_labeled(corpus, vocab, 60)
    model = make_model(vocab, hidden_size=4, dim=4, seed=3)
    config = cs.TrainConfig(epochs=1, batch_size=32, seed=42)
    batches = _recorded_batches(monkeypatch, train_set, train_set[:8], model, config)
    lengths = np.array([seq.true_length for seq, _ in train_set])
    bucketed = sum(int(lengths[picks].max()) for picks, _ in batches)
    order = substream(config.seed, "shuffle").permutation(len(train_set))
    random = sum(int(lengths[order[s : s + 32]].max()) for s in range(0, len(order), 32))
    assert bucketed < 0.75 * random


def test_train_scores_only_the_validation_set_each_epoch(monkeypatch):
    train_set, val_set, model = _quick_sets()
    calls = []

    def recording_predict_proba(model, sequences):
        calls.append(list(sequences))
        return network.predict_proba(model, sequences)

    monkeypatch.setattr(training, "predict_proba", recording_predict_proba)
    _, history = training.train(
        train_set, val_set, model, cs.TrainConfig(epochs=3, batch_size=16, patience=5, seed=6)
    )
    assert len(history.records) == 3
    assert calls == [[seq for seq, _ in val_set]] * 3


def test_train_zero_epochs_returns_copy():
    train_set, val_set, model = _quick_sets()
    best, history = cs.train(train_set, val_set, model, cs.TrainConfig(epochs=0))
    assert history.records == [] and history.best_epoch == 0
    assert np.array_equal(best.params.w_gates, model.params.w_gates)
    assert best.params.w_gates is not model.params.w_gates


def test_best_epoch_is_the_first_epoch_of_lowest_validation_loss():
    def history(*val_losses):
        records = [
            training.EpochRecord(epoch=e, train_loss=1.0, train_acc=0.5, val_loss=v, val_acc=0.5)
            for e, v in enumerate(val_losses, start=1)
        ]
        return cs.TrainHistory(records=records)

    assert history().best_epoch == 0
    assert history(0.7).best_epoch == 1
    assert history(0.7, 0.4, 0.5, 0.4).best_epoch == 2
    assert history(0.3, 0.4, 0.5).best_epoch == 1


def test_train_freeze_embeddings():
    train_set, val_set, model = _quick_sets()
    cfg = cs.TrainConfig(epochs=2, batch_size=16, dropout_rate=0.0, patience=5, seed=2, freeze_embeddings=True)
    best, _ = cs.train(train_set, val_set, model, cfg)
    assert np.array_equal(best.embeddings.vectors, model.embeddings.vectors)
    assert not np.array_equal(best.params.w_gates, model.params.w_gates)


def test_train_keeps_pad_row_at_zero():
    train_set, val_set, model = _quick_sets()
    cfg = cs.TrainConfig(epochs=2, batch_size=16, dropout_rate=0.1, patience=5, seed=3)
    best, _ = cs.train(train_set, val_set, model, cfg)
    assert np.all(best.embeddings.vectors[PAD_ID] == 0.0)
    assert not np.array_equal(best.embeddings.vectors[2], model.embeddings.vectors[2])


def test_train_stops_early_on_adversarial_validation():
    # validation labels are flipped: fitting train makes val loss rise,
    # so the stopper must fire after `patience` non-improving epochs
    train_set, _, model = _quick_sets(seed=43, n=60)
    flipped = [(seq, 1 - y) for seq, y in train_set]
    cfg = cs.TrainConfig(
        epochs=12, batch_size=8, learning_rate=0.02, dropout_rate=0.0, patience=2, seed=4
    )
    best, history = cs.train(train_set, flipped, model, cfg)
    assert len(history.records) == history.best_epoch + cfg.patience
    assert len(history.records) < cfg.epochs  # stopped early
    val_losses = [r.val_loss for r in history.records]
    assert history.records[history.best_epoch - 1].val_loss == min(val_losses)
    # a budget of exactly those epochs runs them all: patience runs out on
    # the last one, which is not stopping early
    spent = replace(cfg, epochs=len(history.records))
    again, full = cs.train(train_set, flipped, model, spent)
    assert full.records == history.records and len(full.records) == spent.epochs
    assert np.array_equal(again.params.w_gates, best.params.w_gates)


def test_train_rejects_empty_sets():
    train_set, val_set, model = _quick_sets()
    with pytest.raises(DataError):
        cs.train([], val_set, model, cs.TrainConfig(epochs=1))
    with pytest.raises(DataError):
        cs.train(train_set, [], model, cs.TrainConfig(epochs=1))


def test_encode_labeled_requires_labels():
    from charsent.corpus import Corpus, Review

    vocab = cs.build_vocab(["好坏"], min_count=1)
    corpus = Corpus(reviews=[Review(text="好", label=None)], name="u")
    with pytest.raises(DataError):
        cs.encode_labeled(corpus, vocab, 8)


def test_encode_labeled_cleans_as_predict_does():
    from charsent.corpus import Corpus, Review

    text = "好棒 @坏蛋 真好 #话题# https://t.cn/坏x"
    vocab = cs.build_vocab(["好棒真坏蛋话题"], min_count=1)
    model = make_model(vocab, hidden_size=8, dim=8, max_len=12)
    [(seq, label)] = cs.encode_labeled(Corpus(reviews=[Review(text=text, label=1)], name="c"), vocab, 12)
    assert label == 1
    assert seq == cs.encode(cs.segment_chars(cs.clean_text(text)), vocab, 12)
    assert [vocab.id_to_token[i] for i in seq.ids] == list("好棒真好话题")
    _, p = cs.predict(text, model)
    assert abs(training.predict_proba(model, [seq])[0] - p) <= 1e-12


def test_model_save_load_roundtrip(tmp_path, trained_setup):
    model = trained_setup["model"]
    test_set = trained_setup["test_set"]
    path = tmp_path / "model.ssm"
    cs.save_model(model, path)
    back = cs.load_model(path)
    assert back.max_len == model.max_len
    assert back.threshold == model.threshold
    assert back.vocab.token_to_id == model.vocab.token_to_id
    assert back.metrics_snapshot == model.metrics_snapshot
    for seq, _ in test_set[:20]:
        p_orig, _ = cs.sequence_forward(seq, model)
        p_back, _ = cs.sequence_forward(seq, back)
        assert p_orig == p_back


def _model_bits(model: cs.Model) -> dict:
    """Everything a Model holds, each array as its dtype, shape and bytes."""
    arrays = {**model.params.tensors(), "embeddings": model.embeddings.vectors}
    return {
        "arrays": {name: (a.dtype.str, a.shape, a.tobytes()) for name, a in arrays.items()},
        "tokens": model.vocab.id_to_token,
        "vocab_hash": model.embeddings.vocab_hash,
        "max_len": model.max_len,
        "threshold": model.threshold,
        "metrics": model.metrics_snapshot,
    }


# finite float64 values, with the ones float32 cannot hold drawn often:
# -0.0, subnormals and magnitudes past float32's largest
_WEIGHTS = st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e-300, 3.5e38, -1.7e308]) | st.floats(
    allow_nan=False, allow_infinity=False
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.lists(st.sampled_from("好坏棒差"), min_size=1, max_size=4, unique=True),
    st.data(),
)
def test_save_then_load_is_the_model_bit_for_bit(tmp_path_factory, hidden, dim, tokens, data):
    vocab = cs.Vocabulary(tokens, min_count=1)

    def draw(shape):
        size = math.prod(shape)
        return np.array(data.draw(st.lists(_WEIGHTS, min_size=size, max_size=size))).reshape(shape)

    params = cs.LstmParams(**{name: draw(shape) for name, shape in param_shapes(hidden, dim).items()})
    embeddings = cs.EmbeddingMatrix(vectors=draw((len(vocab), dim)), vocab_hash=vocab.content_hash())
    model = cs.Model(
        vocab=vocab,
        embeddings=embeddings,
        params=params,
        max_len=data.draw(st.integers(1, 200)),
        threshold=data.draw(st.floats(0, 1)),
        metrics_snapshot=data.draw(st.none() | st.just({"loss": 0.1 + 0.2, "tp": 3})),
    )
    path = tmp_path_factory.mktemp("roundtrip") / "model.ssm"
    cs.save_model(model, path)
    assert _model_bits(cs.load_model(path)) == _model_bits(model)


def test_model_file_magic_and_errors(tmp_path, trained_setup):
    path = tmp_path / "model.ssm"
    cs.save_model(trained_setup["model"], path)
    assert path.read_bytes()[:4] == b"SSM1"
    bad = tmp_path / "bad.ssm"
    bad.write_bytes(b"JUNKxxxxxxxx")
    with pytest.raises(DataError) as err:
        cs.load_model(bad)
    assert "magic" in str(err.value)
    truncated = tmp_path / "trunc.ssm"
    truncated.write_bytes(path.read_bytes()[:200])
    with pytest.raises(DataError):
        cs.load_model(truncated)
    with pytest.raises(DataError):
        cs.load_model(tmp_path / "missing.ssm")


def _tiny_model_bytes(tmp_path) -> bytes:
    vocab = cs.build_vocab(["好坏"], min_count=1)
    path = tmp_path / "tiny.ssm"
    cs.save_model(make_model(vocab, hidden_size=2, dim=2, max_len=4), path)
    return path.read_bytes()


def test_load_model_rejects_every_truncation_and_trailing_bytes(tmp_path):
    blob = _tiny_model_bytes(tmp_path)
    path = tmp_path / "cut.ssm"
    for end in range(len(blob)):
        path.write_bytes(blob[:end])
        with pytest.raises(DataError):
            cs.load_model(path)
    path.write_bytes(blob + b"\x00")
    with pytest.raises(DataError):
        cs.load_model(path)
    path.write_bytes(blob)
    cs.load_model(path)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), min_size=1, max_size=4))
def test_load_model_flipped_bytes_raise_only_charsent_errors(tmp_path_factory, flips):
    tmp_path = tmp_path_factory.mktemp("flip")
    blob = bytearray(_tiny_model_bytes(tmp_path))
    for offset, mask in flips:
        blob[offset % len(blob)] ^= mask
    path = tmp_path / "flipped.ssm"
    path.write_bytes(bytes(blob))
    try:
        cs.load_model(path)
    except CharsentError:
        pass


def test_load_model_signaling_nan_raises_data_error_without_warning(tmp_path):
    cases = [
        (2, _tiny_model_bytes(tmp_path), b"\x01\x00\x00\x00\x00\x00\xf0\x7f"),  # float64 signaling NaN
        (1, (FIXTURES / "ssm1_h2_d2.ssm").read_bytes(), b"\x00\x00\xa0\x7f"),  # float32 signaling NaN
    ]
    for version, original, snan in cases:
        blob = bytearray(original)
        (header_len,) = struct.unpack("<I", blob[4:8])
        assert json.loads(blob[8 : 8 + header_len])["version"] == version
        floats = 8 + header_len  # w_gates[0, 0]
        blob[floats : floats + len(snan)] = snan
        path = tmp_path / "snan.ssm"
        path.write_bytes(bytes(blob))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="non-finite"):
                cs.load_model(path)


@pytest.mark.parametrize(
    "key",
    ["version", "h", "d", "max_len", "threshold", "vocab_hash", "vocab_size", "min_count", "tokens"],
)
def test_load_model_rejects_missing_or_mistyped_header_fields(tmp_path, key):
    blob = _tiny_model_bytes(tmp_path)
    (header_len,) = struct.unpack("<I", blob[4:8])
    header = json.loads(blob[8 : 8 + header_len].decode("utf-8"))
    tensors = blob[8 + header_len :]
    path = tmp_path / "edited.ssm"
    for edit in ("drop", "x", [None], None, -0.2, 1.5):
        edited = dict(header)
        if edit == "drop":
            del edited[key]
        else:
            edited[key] = edit
        raw = json.dumps(edited, ensure_ascii=False).encode("utf-8")
        path.write_bytes(b"SSM1" + struct.pack("<I", len(raw)) + raw + tensors)
        with pytest.raises(DataError):
            cs.load_model(path)


@pytest.mark.parametrize("version", [0, 3])
def test_load_model_rejects_another_format_version(tmp_path, version):
    blob = _tiny_model_bytes(tmp_path)
    (header_len,) = struct.unpack("<I", blob[4:8])
    header = json.loads(blob[8 : 8 + header_len].decode("utf-8"))
    header["version"] = version
    raw = json.dumps(header, ensure_ascii=False).encode("utf-8")
    path = tmp_path / "edited.ssm"
    path.write_bytes(b"SSM1" + struct.pack("<I", len(raw)) + raw + blob[8 + header_len :])
    with pytest.raises(DataError, match=f"version {version} is not supported"):
        cs.load_model(path)


@pytest.mark.parametrize("threshold", [1.5, -0.2, math.nan, True, "0.5"])
def test_model_rejects_a_threshold_outside_unit_interval(threshold):
    model = make_model(cs.build_vocab(["好坏"], min_count=1), hidden_size=2, dim=2, max_len=4)
    with pytest.raises(DataError, match="threshold"):
        cs.Model(
            vocab=model.vocab,
            embeddings=model.embeddings,
            params=model.params,
            max_len=4,
            threshold=threshold,
        )


@pytest.mark.parametrize("max_len", [0, -3, 2.5, True, None])
def test_model_rejects_a_max_len_below_one(max_len):
    model = make_model(cs.build_vocab(["好坏"], min_count=1), hidden_size=2, dim=2, max_len=4)
    with pytest.raises(DataError, match="max_len must be an integer >= 1"):
        replace(model, max_len=max_len)


@pytest.mark.parametrize("snapshot", [5, [], "x"])
def test_model_rejects_a_metrics_snapshot_that_is_not_a_dict(snapshot):
    model = make_model(cs.build_vocab(["好坏"], min_count=1), hidden_size=2, dim=2, max_len=4)
    with pytest.raises(DataError, match="metrics_snapshot must be a dict or None"):
        replace(model, metrics_snapshot=snapshot)


def test_scoring_reads_the_models_threshold_and_takes_none_of_its_own(tiny_model):
    assert list(inspect.signature(cs.predict).parameters) == ["text", "model"]
    assert list(inspect.signature(cs.evaluate).parameters) == ["model", "dataset"]
    parameter = inspect.signature(cs.compute_metrics).parameters["threshold"]
    assert parameter.default is inspect.Parameter.empty
    dataset = cs.encode_labeled(generate_corpus(12, seed=3), tiny_model.vocab, tiny_model.max_len)
    ps = training.predict_proba(tiny_model, [seq for seq, _ in dataset])
    ys = np.array([y for _, y in dataset])
    for threshold in (0.0, float(np.median(ps)), 1.0):
        model = replace(tiny_model, threshold=threshold)
        assert cs.evaluate(model, dataset) == cs.compute_metrics(ps, ys, threshold)
        label, p = cs.predict("好坏", model)
        assert label == int(p >= threshold)


@pytest.mark.parametrize("threshold", [1.5, -1, math.nan, True])
def test_scoring_rejects_a_threshold_outside_unit_interval(threshold):
    # predict and evaluate read the Model's threshold, which the Model checks
    with pytest.raises(ConfigError, match="threshold"):
        cs.compute_metrics(np.array([0.2, 0.8]), np.array([0, 1]), threshold)


@pytest.mark.parametrize("threshold", [1.5, -0.2, math.nan])
def test_save_model_refuses_a_threshold_load_model_would_reject(tmp_path, threshold):
    """No model that save_model meets holds such a threshold: a Model is
    frozen, and a changed copy is checked as a new one is.
    """
    model = make_model(cs.build_vocab(["好坏"], min_count=1), hidden_size=2, dim=2, max_len=4)
    with pytest.raises(FrozenInstanceError):
        model.threshold = threshold
    with pytest.raises(DataError, match="threshold"):
        replace(model, threshold=threshold)
    cs.save_model(replace(model, threshold=1.0), tmp_path / "model.ssm")
    assert cs.load_model(tmp_path / "model.ssm").threshold == 1.0


def test_history_roundtrip_is_plain_json_array(tmp_path, trained_setup):
    history = trained_setup["history"]
    path = tmp_path / "history.json"
    cs.save_history(history, path)
    raw = json.loads(path.read_text(encoding="utf-8"))
    assert raw == [asdict(r) for r in history.records]


def test_ssm1_per_gate_file_loads_as_stacked_f_i_o_c(tmp_path):
    """ssm1_h2_d2.ssm was written when each gate had its own tensor
    (w_f, w_i, w_o, w_c, then b_f, b_i, b_o, b_c); the JSON beside it
    holds those tensors. Its bytes load as the stacked gate matrix, the
    cell reads the blocks as forget, input, output and candidate (the
    per-gate scalar oracle agrees), and saving it again writes a version
    2 file that loads to the same arrays.
    """
    per_gate = json.loads((FIXTURES / "ssm1_h2_d2.json").read_text(encoding="utf-8"))
    model = cs.load_model(FIXTURES / "ssm1_h2_d2.ssm")
    params = model.params
    assert (params.hidden_size, params.input_dim) == (2, 2)
    assert np.array_equal(params.w_gates, np.vstack([per_gate[f"w_{g}"] for g in "fioc"]))
    assert np.array_equal(params.b_gates, np.concatenate([per_gate[f"b_{g}"] for g in "fioc"]))
    assert np.array_equal(params.w_out, per_gate["w_out"])
    assert np.array_equal(params.b_out, per_gate["b_out"])
    assert np.array_equal(model.embeddings.vectors, per_gate["embeddings"])

    seq = cs.encode(list("好差好好差"), model.vocab, model.max_len)
    p, _ = cs.sequence_forward(seq, model)
    xs = [per_gate["embeddings"][i] for i in seq.ids[: seq.true_length]]
    _, p_ref = lstm_sequence_ref(xs, per_gate)
    assert abs(p - p_ref) < 1e-12

    cs.save_model(model, tmp_path / "again.ssm")
    again = (tmp_path / "again.ssm").read_bytes()
    (header_len,) = struct.unpack("<I", again[4:8])
    assert json.loads(again[8 : 8 + header_len])["version"] == 2
    assert _model_bits(cs.load_model(tmp_path / "again.ssm")) == _model_bits(model)


def test_trained_model_beats_chance(trained_setup):
    metrics = cs.evaluate(trained_setup["model"], trained_setup["test_set"])
    assert metrics.accuracy > 0.7
    assert np.isfinite(metrics.loss)


def test_bce_losses_vector_matches_scalar():
    ps = np.array([0.1, 0.5, 0.99, 0.0, 1.0])
    ys = np.array([0, 1, 1, 1, 0])
    vec = cs.bce_loss(ps, ys.astype(float))
    for p, y, l in zip(ps, ys, vec):
        assert l == pytest.approx(cs.bce_loss(float(p), int(y)), abs=1e-12)
