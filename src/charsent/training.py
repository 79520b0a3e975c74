"""Loss, backpropagation through time, Adam, the training loop with
dropout and early stopping, and the five-quantity evaluation report
(loss, MAE, accuracy, precision, recall).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus
from .embedding import EmbeddingMatrix
from .errors import ConfigError, DataError, NumericalError
from .network import BatchCache, LstmParams, Model, forward_batch
from .rng import substream
from .tokenizer import PAD_ID, TokenSequence, Vocabulary, encode, segment_chars

MODEL_MAGIC = b"SSM1"
MODEL_VERSION = 1
_P_CLAMP = 1e-12
_EVAL_CHUNK = 512


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    epochs: int = 10
    batch_size: int = 32
    dropout_rate: float = 0.5
    patience: int = 3
    seed: int = 0
    freeze_embeddings: bool = False

    def __post_init__(self):
        if not 0 < self.beta1 < 1:
            raise ConfigError("beta1 must lie strictly between 0 and 1")
        if not 0 < self.beta2 < 1:
            raise ConfigError("beta2 must lie strictly between 0 and 1")
        if not self.epsilon > 0:
            raise ConfigError("epsilon must be > 0")
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be > 0")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not 0 <= self.dropout_rate < 1:
            raise ConfigError("dropout_rate must lie in [0, 1)")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")


def bce_loss(p: float, y: int) -> float:
    """Binary cross-entropy -[y ln p + (1-y) ln(1-p)], with p clamped
    to [1e-12, 1-1e-12] before the logs.
    """
    p = min(max(p, _P_CLAMP), 1.0 - _P_CLAMP)
    return float(-(y * np.log(p) + (1 - y) * np.log1p(-p)))


def _bce_losses(ps: np.ndarray, ys: np.ndarray) -> np.ndarray:
    ps = np.clip(ps, _P_CLAMP, 1.0 - _P_CLAMP)
    return -(ys * np.log(ps) + (1 - ys) * np.log1p(-ps))


def _zero_grads(model: Model, freeze_embeddings: bool) -> dict[str, np.ndarray]:
    grads = {name: np.zeros_like(t) for name, t in model.params.tensors().items()}
    if not freeze_embeddings:
        grads["embeddings"] = np.zeros_like(model.embeddings.vectors)
    return grads


def backward_batch(
    cache: BatchCache, ys: np.ndarray, model: Model, freeze_embeddings: bool = False
) -> dict[str, np.ndarray]:
    """Exact gradients of the mean bce_loss over the batch for every
    parameter tensor, and for the embedding rows the batch touched
    unless frozen, accumulated backward through all time steps. Each
    row's head gradient enters at that row's own last step, so the
    steps a row ran past its end see zero upstream gradient.
    """
    p = model.params
    hsize = p.hidden_size
    batch = cache.ps.shape[0]
    t_max = cache.fs.shape[0]
    grads = _zero_grads(model, freeze_embeddings)

    dlogits = (cache.ps - ys) / batch
    grads["w_out"] += cache.h_out.T @ dlogits
    grads["b_out"] += dlogits.sum()
    dh_head = dlogits[:, None] * p.w_out[None, :]
    if cache.dropout_masks is not None:
        dh_head = dh_head * cache.dropout_masks
    dh = np.zeros((batch, hsize))
    dc = np.zeros((batch, hsize))
    dxs = np.zeros_like(cache.xs)
    last_step = cache.lengths - 1

    # Past a row's end its gradients are zeros times its states. That
    # adds exact zeros only because those states stay finite: h lies in
    # (-1, 1) and |c_t| <= t, as each step adds at most 1 to |c|.
    for t in range(t_max - 1, -1, -1):
        ends = last_step == t
        dh[ends] = dh_head[ends]
        f, i, o = cache.fs[t], cache.is_[t], cache.os_[t]
        c_tilde, c = cache.c_tildes[t], cache.cs[t + 1]
        tanh_c = np.tanh(c)
        do = dh * tanh_c
        dc_full = dc + dh * o * (1.0 - tanh_c**2)
        df = dc_full * cache.cs[t]
        di = dc_full * c_tilde
        dct = dc_full * i
        d_f_pre = df * f * (1.0 - f)
        d_i_pre = di * i * (1.0 - i)
        d_o_pre = do * o * (1.0 - o)
        d_ct_pre = dct * (1.0 - c_tilde**2)
        z = np.concatenate([cache.hs[t], cache.xs[:, t, :]], axis=1)
        grads["w_f"] += d_f_pre.T @ z
        grads["w_i"] += d_i_pre.T @ z
        grads["w_o"] += d_o_pre.T @ z
        grads["w_c"] += d_ct_pre.T @ z
        grads["b_f"] += d_f_pre.sum(axis=0)
        grads["b_i"] += d_i_pre.sum(axis=0)
        grads["b_o"] += d_o_pre.sum(axis=0)
        grads["b_c"] += d_ct_pre.sum(axis=0)
        dz = d_f_pre @ p.w_f + d_i_pre @ p.w_i + d_o_pre @ p.w_o + d_ct_pre @ p.w_c
        dxs[:, t, :] = dz[:, hsize:]
        dh = dz[:, :hsize]
        dc = dc_full * f

    if not freeze_embeddings:
        np.add.at(grads["embeddings"], cache.id_matrix, dxs)
    return grads


def backward(
    cache: BatchCache, y: int, model: Model, freeze_embeddings: bool = False
) -> dict[str, np.ndarray]:
    """backward_batch on a batch of one: the gradients of
    bce_loss(p, y) for the cache of sequence_forward.
    """
    return backward_batch(cache, np.array([float(y)]), model, freeze_embeddings)


@dataclass
class AdamState:
    """First/second moment accumulators per tensor plus the step count."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_tensors(cls, tensors: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={name: np.zeros_like(t) for name, t in tensors.items()},
            v={name: np.zeros_like(t) for name, t in tensors.items()},
        )


def adam_step(
    tensors: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update, in place, on every tensor:

        m <- b1 m + (1-b1) g        m_hat = m / (1 - b1^t)
        v <- b2 v + (1-b2) g^2      v_hat = v / (1 - b2^t)
        theta <- theta - lr * m_hat / (sqrt(v_hat) + eps)

    Rows that must stay fixed (the PAD embedding row) are handled by the
    caller keeping their gradients at zero; their moments then never move.
    """
    state.t += 1
    bc1 = 1.0 - config.beta1**state.t
    bc2 = 1.0 - config.beta2**state.t
    for name, theta in tensors.items():
        g = grads[name]
        if not np.isfinite(g).all():
            raise NumericalError(f"non-finite gradient for tensor '{name}'")
        m = state.m[name]
        v = state.v[name]
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += (1.0 - config.beta2) * np.square(g)
        theta -= config.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + config.epsilon)
    return tensors, state


@dataclass(frozen=True)
class Metrics:
    """The headline evaluation quantities plus the confusion counts that
    generated them. Degeneracy flags mark zero-denominator conventions
    (precision or recall reported as 0 with no eligible cases).
    """

    loss: float
    mae: float
    accuracy: float
    precision: float
    recall: float
    tp: int
    fp: int
    fn: int
    tn: int
    precision_degenerate: bool = False
    recall_degenerate: bool = False

    def to_dict(self) -> dict:
        return {
            "loss": self.loss,
            "mae": self.mae,
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "tn": self.tn,
        }


def compute_metrics(ps: np.ndarray, ys: np.ndarray, threshold: float = 0.5) -> Metrics:
    """Confusion counts and the five headline quantities from predicted
    probabilities and 0/1 labels; prediction ties at the threshold go
    to the positive class.
    """
    ps = np.asarray(ps, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.int64)
    if ps.size == 0:
        raise DataError("cannot compute metrics on an empty dataset")
    preds = (ps >= threshold).astype(np.int64)
    tp = int(np.sum((preds == 1) & (ys == 1)))
    fp = int(np.sum((preds == 1) & (ys == 0)))
    fn = int(np.sum((preds == 0) & (ys == 1)))
    tn = int(np.sum((preds == 0) & (ys == 0)))
    accuracy = (tp + tn) / (tp + fp + fn + tn)
    precision_degenerate = (tp + fp) == 0
    recall_degenerate = (tp + fn) == 0
    precision = 0.0 if precision_degenerate else tp / (tp + fp)
    recall = 0.0 if recall_degenerate else tp / (tp + fn)
    return Metrics(
        loss=float(_bce_losses(ps, ys).mean()),
        mae=float(np.abs(ps - ys).mean()),
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        tp=tp,
        fp=fp,
        fn=fn,
        tn=tn,
        precision_degenerate=precision_degenerate,
        recall_degenerate=recall_degenerate,
    )


Dataset = list[tuple[TokenSequence, int]]


def encode_labeled(corpus: Corpus, vocab: Vocabulary, max_len: int) -> Dataset:
    """Encode a cleaned, labeled corpus for training or evaluation."""
    out: Dataset = []
    for review in corpus.reviews:
        if review.label is None:
            raise DataError("labels required: corpus contains an unlabeled review")
        tokens = segment_chars(review.text)
        if not tokens:
            raise DataError("corpus contains a review with no tokens after cleaning")
        out.append((encode(tokens, vocab, max_len), review.label))
    return out


def predict_proba(model: Model, sequences: list[TokenSequence]) -> np.ndarray:
    """Probabilities for many sequences, chunked through the batched
    forward pass; no dropout.
    """
    ps = np.empty(len(sequences))
    for start in range(0, len(sequences), _EVAL_CHUNK):
        chunk = sequences[start : start + _EVAL_CHUNK]
        ps[start : start + len(chunk)], _ = forward_batch(chunk, model)
    return ps


def evaluate(model: Model, dataset: Dataset, threshold: float | None = None) -> Metrics:
    """Full evaluation of a labeled dataset at `threshold` (the model's
    stored threshold when omitted).
    """
    if not dataset:
        raise DataError("cannot evaluate an empty dataset")
    if threshold is None:
        threshold = model.threshold
    ps = predict_proba(model, [seq for seq, _ in dataset])
    ys = np.array([y for _, y in dataset], dtype=np.int64)
    return compute_metrics(ps, ys, threshold)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float


@dataclass
class TrainHistory:
    records: list[EpochRecord]
    best_epoch: int
    stopped_early: bool


def train(
    train_set: Dataset, val_set: Dataset, model: Model, config: TrainConfig
) -> tuple[Model, TrainHistory]:
    """Minibatch Adam training with per-example dropout masks and early
    stopping on validation loss.

    The input model is left untouched; the returned model carries the
    parameters of the epoch with the lowest validation loss. Epoch
    shuffling and dropout draw from substreams of config.seed, so a
    rerun with identical inputs reproduces the history exactly.
    """
    if not train_set or not val_set:
        raise DataError("train and validation sets must be non-empty")
    work = model.copy()
    if config.epochs == 0:
        return work, TrainHistory(records=[], best_epoch=0, stopped_early=False)

    tensors = dict(work.params.tensors())
    if not config.freeze_embeddings:
        tensors["embeddings"] = work.embeddings.vectors
    state = AdamState.for_tensors(tensors)
    rng_shuffle = substream(config.seed, "shuffle")
    rng_dropout = substream(config.seed, "dropout")
    hsize = work.params.hidden_size

    records: list[EpochRecord] = []
    best_epoch = 0
    best_loss = np.inf
    best: Model | None = None
    since_best = 0
    stopped_early = False

    for epoch in range(1, config.epochs + 1):
        order = rng_shuffle.permutation(len(train_set))
        for batch_index, start in enumerate(range(0, len(order), config.batch_size)):
            picks = order[start : start + config.batch_size]
            seqs = [train_set[i][0] for i in picks]
            ys = np.array([train_set[i][1] for i in picks], dtype=np.float64)
            masks = None
            if config.dropout_rate > 0:
                keep = rng_dropout.random((len(picks), hsize)) >= config.dropout_rate
                masks = keep.astype(np.float64) / (1.0 - config.dropout_rate)
            ps, cache = forward_batch(seqs, work, masks)
            batch_loss = float(_bce_losses(ps, ys).mean())
            if not np.isfinite(batch_loss):
                raise NumericalError(
                    f"training diverged: non-finite loss at epoch {epoch}, batch {batch_index}"
                )
            grads = backward_batch(cache, ys, work, config.freeze_embeddings)
            if "embeddings" in grads:
                grads["embeddings"][PAD_ID] = 0.0  # PAD row never trains
            adam_step(tensors, grads, state, config)

        train_metrics = evaluate(work, train_set)
        val_metrics = evaluate(work, val_set)
        if not np.isfinite(val_metrics.loss):
            raise NumericalError(f"training diverged: non-finite validation loss at epoch {epoch}")
        records.append(
            EpochRecord(
                epoch=epoch,
                train_loss=train_metrics.loss,
                train_acc=train_metrics.accuracy,
                val_loss=val_metrics.loss,
                val_acc=val_metrics.accuracy,
            )
        )
        if val_metrics.loss < best_loss:
            best_loss = val_metrics.loss
            best_epoch = epoch
            best = work.copy()
            best.metrics_snapshot = val_metrics.to_dict()
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                stopped_early = True
                break

    return best, TrainHistory(
        records=records, best_epoch=best_epoch, stopped_early=stopped_early
    )


def save_history(history: TrainHistory, path: str | Path) -> None:
    """Write the per-epoch records as a plot-ready JSON array."""
    payload = [asdict(r) for r in history.records]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_history(path: str | Path) -> list[EpochRecord]:
    records = json.loads(Path(path).read_text(encoding="utf-8"))
    return [EpochRecord(**r) for r in records]


def save_model(model: Model, path: str | Path) -> None:
    """Serialize a model: magic, length-prefixed JSON header, then the
    tensor blocks as little-endian float32 in a fixed order (the four
    gate matrices, four gate biases, read-out weights and bias, then
    the embedding matrix).
    """
    header = {
        "version": MODEL_VERSION,
        "h": model.params.hidden_size,
        "d": model.embeddings.dim,
        "max_len": model.max_len,
        "threshold": model.threshold,
        "vocab_hash": model.embeddings.vocab_hash,
        "vocab_size": len(model.vocab),
        "min_count": model.vocab.min_count,
        "tokens": list(model.vocab.tokens),
        "metrics": model.metrics_snapshot,
    }
    header_bytes = json.dumps(header, ensure_ascii=False).encode("utf-8")
    with Path(path).open("wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for name, tensor in model.params.tensors().items():
            fh.write(np.ascontiguousarray(tensor, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(model.embeddings.vectors, dtype="<f4").tobytes())


def _check_header(header, path: Path) -> None:
    """Raise DataError unless every field load_model reads is present
    with a usable type and range.
    """
    if not isinstance(header, dict):
        raise DataError(f"{path}: model header must be a JSON object")

    def require(key: str, ok: bool) -> None:
        if not ok:
            raise DataError(f"{path}: model header field '{key}' is missing or invalid")

    lower_bounds = {"version": 0, "h": 1, "d": 1, "max_len": 1, "min_count": 1, "vocab_size": 2}
    for key, low in lower_bounds.items():
        value = header.get(key)
        require(key, isinstance(value, int) and not isinstance(value, bool) and value >= low)
    threshold = header.get("threshold")
    require(
        "threshold",
        isinstance(threshold, (int, float))
        and not isinstance(threshold, bool)
        and math.isfinite(threshold),
    )
    require("vocab_hash", isinstance(header.get("vocab_hash"), str))
    tokens = header.get("tokens")
    require("tokens", isinstance(tokens, list) and all(isinstance(t, str) for t in tokens))


def load_model(path: str | Path) -> Model:
    """Load an SSM1 model file; inverse of save_model up to float32
    quantization of the tensors. The file must be exactly as long as
    its header says.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"model file not found: {path}")
    blob = path.read_bytes()
    if blob[:4] != MODEL_MAGIC:
        raise DataError(f"{path}: not an SSM1 model file (bad magic)")
    if len(blob) < 8:
        raise DataError(f"{path}: truncated model header")
    (header_len,) = struct.unpack("<I", blob[4:8])
    try:
        header = json.loads(blob[8 : 8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: corrupt model header") from exc
    _check_header(header, path)
    hsize = header["h"]
    dim = header["d"]
    vocab = Vocabulary.from_tokens(header["tokens"], header["min_count"])
    if vocab.content_hash() != header["vocab_hash"]:
        raise DataError(f"{path}: vocabulary hash mismatch")
    if header["vocab_size"] != len(vocab):
        raise DataError(f"{path}: vocabulary size mismatch")

    shapes = [
        ("w_f", (hsize, hsize + dim)),
        ("w_i", (hsize, hsize + dim)),
        ("w_o", (hsize, hsize + dim)),
        ("w_c", (hsize, hsize + dim)),
        ("b_f", (hsize,)),
        ("b_i", (hsize,)),
        ("b_o", (hsize,)),
        ("b_c", (hsize,)),
        ("w_out", (hsize,)),
        ("b_out", (1,)),
        ("embeddings", (header["vocab_size"], dim)),
    ]
    offset = 8 + header_len
    expected = offset + 4 * sum(math.prod(shape) for _, shape in shapes)
    if len(blob) != expected:
        raise DataError(f"{path}: {len(blob)} bytes, but the header describes {expected}")
    tensors: dict[str, np.ndarray] = {}
    for name, shape in shapes:
        count = math.prod(shape)
        block = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        tensors[name] = block.astype(np.float64).reshape(shape)
        offset += 4 * count
    vectors = tensors.pop("embeddings")

    params = LstmParams(**tensors)
    embeddings = EmbeddingMatrix(
        vectors=vectors, context_vectors=None, dim=dim, vocab_hash=header["vocab_hash"]
    )
    return Model(
        vocab=vocab,
        embeddings=embeddings,
        params=params,
        max_len=header["max_len"],
        threshold=header["threshold"],
        version=header["version"],
        metrics_snapshot=header.get("metrics"),
    )
