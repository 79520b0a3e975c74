import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charsent as cs
from charsent.errors import CharsentError, ConfigError, DataError, NumericalError
from charsent.synthetic import generate_corpus
from charsent.tokenizer import PAD_ID
from charsent.training import AdamState, _bce_losses

from conftest import make_model
from oracles import adam_trace_ref, bce_ref, central_difference, confusion_ref, relative_error


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
    vocab = cs.build_vocab(corpus, min_count=1)
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
    _, cache = cs.sequence_forward(seq, model, dropout_mask=mask)
    grads = cs.backward(cache, y, model)

    def loss_fn():
        p, _ = cs.sequence_forward(seq, model, dropout_mask=mask)
        return cs.bce_loss(p, y)

    for name in ("w_f", "w_out", "b_c", "embeddings"):
        tensor = model.embeddings.vectors if name == "embeddings" else getattr(model.params, name)
        flat_grad = grads[name].reshape(-1)
        for index in range(0, tensor.size, max(1, tensor.size // 8)):
            num = central_difference(loss_fn, tensor, index, step=1e-5)
            assert relative_error(num, flat_grad[index]) < 1e-4, (name, index)


def test_backward_freeze_embeddings_omits_rows():
    model, dataset = _grad_setup(seed=4)
    seq, y = dataset[0]
    _, cache = cs.sequence_forward(seq, model)
    grads = cs.backward(cache, y, model, freeze_embeddings=True)
    assert "embeddings" not in grads
    assert set(grads) == set(model.params.tensors())


def test_backward_batch_equals_mean_of_per_example():
    model, dataset = _grad_setup(seed=6, n=10)
    # mixed lengths, so most rows run past their end inside the batch
    lengths = (15, 3, 20, 8, 1, 12, 5)
    seqs = [
        cs.encode(cs.decode(seq, model.vocab)[:n], model.vocab, 20)
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
        _, cache = cs.sequence_forward(seq, model, dropout_mask=masks[row])
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
    """A length-1 row runs 44 steps past its end beside a length-45 row.
    With the forget gate saturated open its cell state keeps growing,
    yet every gradient stays finite and the batch gradient is the mean
    of the two batch-of-one gradients.
    """
    model, dataset = _grad_setup(seed=7, max_len=48)
    model.params.b_f[:] = 30.0
    pool = [token for seq, _ in dataset for token in cs.decode(seq, model.vocab)]
    seqs = [cs.encode(pool[:n], model.vocab, 48) for n in (1, 45)]
    assert [s.true_length for s in seqs] == [1, 45]
    ys = np.array([1.0, 0.0])
    _, bcache = cs.forward_batch(seqs, model)
    assert np.abs(bcache.cs[45, 0]).max() > 5.0 * np.abs(bcache.cs[1, 0]).max()
    batch_grads = cs.backward_batch(bcache, ys, model)
    singles = [
        cs.backward(cs.sequence_forward(seq, model)[1], y, model)
        for seq, y in zip(seqs, ys, strict=True)
    ]
    for name, grad in batch_grads.items():
        assert np.isfinite(grad).all(), name
        mean = (singles[0][name] + singles[1][name]) / 2.0
        np.testing.assert_allclose(grad, mean, rtol=0.0, atol=1e-12, err_msg=name)


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
    tensors = {"w_f": np.zeros(2)}
    state = AdamState.for_tensors(tensors)
    with pytest.raises(NumericalError) as err:
        cs.adam_step(tensors, {"w_f": np.array([1.0, np.nan])}, state, cfg)
    assert "w_f" in str(err.value)


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
            ps, _ = cs.forward_batch(seqs, model)
            return float(np.mean([cs.bce_loss(p, y) for p, y in zip(ps, ys)]))

        before = batch_loss()
        _, cache = cs.forward_batch(seqs, model)
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
    # nothing predicted positive: precision 0 by convention, flagged
    m = cs.compute_metrics(np.array([0.1, 0.2]), np.array([1, 0]), threshold=0.5)
    assert m.precision == 0.0 and m.precision_degenerate
    assert not m.recall_degenerate
    # no positive labels at all: recall 0 by convention, flagged
    m = cs.compute_metrics(np.array([0.9, 0.1]), np.array([0, 0]), threshold=0.5)
    assert m.recall == 0.0 and m.recall_degenerate
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
    metrics = cs.evaluate(model, dataset, threshold=0.5)
    ps = []
    for seq, _ in dataset:
        p, _ = cs.sequence_forward(seq, model)
        ps.append(p)
    ys = np.array([y for _, y in dataset])
    want = cs.compute_metrics(np.array(ps), ys, 0.5)
    assert metrics.loss == pytest.approx(want.loss, abs=1e-12)
    assert (metrics.tp, metrics.fp, metrics.fn, metrics.tn) == (want.tp, want.fp, want.fn, want.tn)


def _quick_sets(seed=41, n=80, hsize=8, dim=8):
    corpus = generate_corpus(n, seed=seed)
    train_c, val_c, _ = cs.split(corpus, 0.7, 0.2, seed=seed)
    vocab = cs.build_vocab(corpus, min_count=1)
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
    assert not history.stopped_early
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
    assert np.array_equal(a.params.w_f, b.params.w_f)
    assert np.array_equal(a.embeddings.vectors, b.embeddings.vectors)
    c, hc = cs.train(train_set, val_set, model, cs.TrainConfig(epochs=2, batch_size=16, dropout_rate=0.4, patience=5, seed=8))
    assert ha.records != hc.records


def test_train_zero_epochs_returns_copy():
    train_set, val_set, model = _quick_sets()
    best, history = cs.train(train_set, val_set, model, cs.TrainConfig(epochs=0))
    assert history.records == [] and history.best_epoch == 0
    assert not history.stopped_early
    assert np.array_equal(best.params.w_f, model.params.w_f)
    assert best.params.w_f is not model.params.w_f


def test_train_freeze_embeddings():
    train_set, val_set, model = _quick_sets()
    cfg = cs.TrainConfig(epochs=2, batch_size=16, dropout_rate=0.0, patience=5, seed=2, freeze_embeddings=True)
    best, _ = cs.train(train_set, val_set, model, cfg)
    assert np.array_equal(best.embeddings.vectors, model.embeddings.vectors)
    assert not np.array_equal(best.params.w_f, model.params.w_f)


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
    assert history.stopped_early
    assert len(history.records) == history.best_epoch + cfg.patience
    assert len(history.records) < 12
    val_losses = [r.val_loss for r in history.records]
    assert history.records[history.best_epoch - 1].val_loss == min(val_losses)


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
    # float32 storage: probabilities must agree to 1e-6
    for seq, _ in test_set[:20]:
        p_orig, _ = cs.sequence_forward(seq, model)
        p_back, _ = cs.sequence_forward(seq, back)
        assert abs(p_orig - p_back) <= 1e-6


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
    for edit in ("drop", "x", [None], None):
        edited = dict(header)
        if edit == "drop":
            del edited[key]
        else:
            edited[key] = edit
        raw = json.dumps(edited, ensure_ascii=False).encode("utf-8")
        path.write_bytes(b"SSM1" + struct.pack("<I", len(raw)) + raw + tensors)
        with pytest.raises(DataError):
            cs.load_model(path)


def test_history_roundtrip_is_plain_json_array(tmp_path, trained_setup):
    history = trained_setup["history"]
    path = tmp_path / "history.json"
    cs.save_history(history, path)
    raw = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(raw, list) and len(raw) == len(history.records)
    assert set(raw[0]) == {"epoch", "train_loss", "train_acc", "val_loss", "val_acc"}
    from charsent.training import load_history

    back = load_history(path)
    assert back == history.records


def test_trained_model_beats_chance(trained_setup):
    metrics = cs.evaluate(trained_setup["model"], trained_setup["test_set"])
    assert metrics.accuracy > 0.7
    assert np.isfinite(metrics.loss)


def test_bce_losses_vector_matches_scalar():
    ps = np.array([0.1, 0.5, 0.99, 0.0, 1.0])
    ys = np.array([0, 1, 1, 1, 0])
    vec = _bce_losses(ps, ys.astype(float))
    for p, y, l in zip(ps, ys, vec):
        assert l == pytest.approx(cs.bce_loss(float(p), int(y)), abs=1e-12)
