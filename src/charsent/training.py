"""Adam, the training loop with dropout and early stopping, batched
scoring, the five-quantity evaluation report (loss, MAE, accuracy,
precision, recall) and the SSM1 model and history files.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .corpus import Corpus, clean_text
from .embedding import EmbeddingMatrix
from .errors import ConfigError, DataError, NumericalError
from .files import located, read_bytes, read_text, write_atomic
from .network import (
    LstmParams,
    Model,
    backward_batch,
    bce_loss,
    forward_batch,
    param_shapes,
    score_batch,
    threshold_ok,
)
from .numerics import divergence_raises
from .rng import substream
from .tokenizer import PAD_ID, TokenSequence, Vocabulary, encode, segment_chars

MODEL_MAGIC = b"SSM1"
MODEL_VERSION = 1
_EVAL_CHUNK = 256


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
) -> None:
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


@dataclass(frozen=True)
class Metrics:
    """The headline evaluation quantities plus the confusion counts that
    generated them. Precision with no predicted positive (tp + fp == 0)
    and recall with no actual positive (tp + fn == 0) read 0.
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
    to the positive class. A threshold outside [0, 1] raises ConfigError.
    """
    if not threshold_ok(threshold):
        raise ConfigError(f"threshold must be a number in [0, 1], got {threshold!r}")
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
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return Metrics(
        loss=float(bce_loss(ps, ys).mean()),
        mae=float(np.abs(ps - ys).mean()),
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        tp=tp,
        fp=fp,
        fn=fn,
        tn=tn,
    )


Dataset = list[tuple[TokenSequence, int]]


def encode_labeled(corpus: Corpus, vocab: Vocabulary, max_len: int) -> Dataset:
    """Clean and encode a labeled corpus for training or evaluation, as
    predict cleans and encodes one text.
    """
    out: Dataset = []
    for review in corpus.reviews:
        if review.label is None:
            raise DataError("labels required: corpus contains an unlabeled review")
        tokens = segment_chars(clean_text(review.text))
        if not tokens:
            raise DataError("corpus contains a review with no tokens after cleaning")
        out.append((encode(tokens, vocab, max_len), review.label))
    return out


def predict_proba(model: Model, sequences: list[TokenSequence]) -> np.ndarray:
    """Probabilities for many sequences, in input order; no dropout.
    The sequences run through score_batch in order of length (stable),
    split into ceil(n / 256) parts whose sizes differ by at most one, so
    each part steps only to its own longest row and holds only the step
    in flight. Within a part, step t runs only the rows still going, and
    OpenBLAS picks its gate-product kernel by the product's size, so a
    row's bits can depend on how many rows run beside it at each step.
    The read-out sums within a row and adds no such dependence. With
    random weights and 1000 texts (OpenBLAS 0.3.31, Haswell kernels),
    each text scored alone and in the whole set differed in 71
    probabilities at h=32, d=16 and in 109 at h=128, d=64, by at most
    1.1e-16; the first 500 texts and the whole set differed in 4 of
    those 500 at either size.
    """
    ps = np.empty(len(sequences))
    if not sequences:
        return ps
    order = np.argsort([s.true_length for s in sequences], kind="stable")
    for part in np.array_split(order, math.ceil(len(order) / _EVAL_CHUNK)):
        ps[part] = score_batch([sequences[i] for i in part], model)
    return ps


def evaluate(model: Model, dataset: Dataset, threshold: float | None = None) -> Metrics:
    """Full evaluation of a labeled dataset at `threshold` (the model's
    stored threshold when omitted).
    """
    if threshold is None:
        threshold = model.threshold
    ps = predict_proba(model, [seq for seq, _ in dataset])
    ys = np.array([y for _, y in dataset], dtype=np.int64)
    return compute_metrics(ps, ys, threshold)


@dataclass(frozen=True)
class EpochRecord:
    """One epoch's losses and accuracies: `epoch` an integer >= 1 and the
    four metrics real numbers, no bool among them.
    """

    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float

    def __post_init__(self):
        if type(self.epoch) is not int or self.epoch < 1:
            raise DataError(f"epoch must be an integer >= 1, got {self.epoch!r}")
        for name in ("train_loss", "train_acc", "val_loss", "val_acc"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise DataError(f"{name} must be a number, got {value!r}")


@dataclass
class TrainHistory:
    records: list[EpochRecord]
    best_epoch: int
    stopped_early: bool


def train(
    train_set: Dataset, val_set: Dataset, model: Model, config: TrainConfig
) -> tuple[Model, TrainHistory]:
    """Minibatch Adam training with per-example dropout masks and early
    stopping on validation loss. A floating-point overflow, invalid
    operation or division by zero stops it with NumericalError.

    The input model is left untouched; the returned model carries the
    parameters of the epoch with the lowest validation loss. Epoch
    shuffling and dropout draw from substreams of config.seed, so a
    rerun with identical inputs reproduces the history exactly.
    """
    if not train_set or not val_set:
        raise DataError(
            "train and validation sets must be non-empty, got "
            f"{len(train_set)} training and {len(val_set)} validation examples"
        )
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
        with divergence_raises("training", epoch):
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
                batch_loss = float(bce_loss(ps, ys).mean())
                if not np.isfinite(batch_loss):
                    raise NumericalError(
                        f"training diverged: non-finite loss at epoch {epoch}, batch {batch_index}"
                    )
                grads = backward_batch(cache, ys, work)
                grads["embeddings"][PAD_ID] = 0.0  # PAD row never trains
                adam_step(tensors, grads, state, config)
                del cache, grads  # free this batch's activations before the next pass

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
            best = replace(work.copy(), metrics_snapshot=val_metrics.to_dict())
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
    write_atomic(path, (json.dumps(payload, indent=2) + "\n").encode("utf-8"))


def load_history(path: str | Path) -> list[EpochRecord]:
    """Read the records save_history wrote; DataError, naming the file
    and the entry, unless the file is a JSON array of objects with
    exactly the EpochRecord fields and values EpochRecord accepts.
    """
    path = Path(path)
    text = read_text(path, "history file")
    keys = {f.name for f in fields(EpochRecord)}
    records = []
    with located(path):
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid history JSON ({exc.msg})") from exc
        if not isinstance(rows, list):
            raise DataError("history must be a JSON array of epoch records")
        for n, row in enumerate(rows):
            with located(f"history entry {n}"):
                if not isinstance(row, dict) or set(row) != keys:
                    raise DataError(f"must be an object with keys {sorted(keys)}")
                records.append(EpochRecord(**row))
    return records


def save_model(model: Model, path: str | Path) -> None:
    """Serialize a model: magic, length-prefixed JSON header, then the
    tensor blocks as little-endian float32 in a fixed order (the gate
    matrix and the gate biases, each stacked f, i, o, c, the read-out
    weights and bias, then the embedding matrix). The header's metrics
    are the model's metrics_snapshot, which describes the float64
    weights, not the float32 ones written here.
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
    tensors = [*model.params.tensors().values(), model.embeddings.vectors]
    blocks = b"".join(np.ascontiguousarray(t, dtype="<f4").tobytes() for t in tensors)
    write_atomic(path, MODEL_MAGIC + struct.pack("<I", len(header_bytes)) + header_bytes + blocks)


def _check_header(header) -> None:
    """Raise DataError unless the header is a JSON object of this format
    version holding what sizes and fills the tensor blocks: the integers
    h, d and vocab_size, each >= 1, and a token list. The types the
    header builds check the rest.
    """
    if not isinstance(header, dict):
        raise DataError("model header must be a JSON object")
    version = header.get("version")
    if type(version) is not int or version != MODEL_VERSION:
        raise DataError(
            f"model format version {json.dumps(version)} is not supported "
            f"(this charsent reads version {MODEL_VERSION})"
        )
    for key in ("h", "d", "vocab_size"):
        value = header.get(key)
        if type(value) is not int or value < 1:
            raise DataError(f"model header field '{key}' is missing or invalid")
    if not isinstance(header.get("tokens"), list):
        raise DataError("model header field 'tokens' is missing or invalid")


def load_model(path: str | Path) -> Model:
    """Load an SSM1 model file; inverse of save_model up to float32
    quantization of the tensors. The file must be exactly as long as
    its header says.
    """
    path = Path(path)
    blob = read_bytes(path, "model file")
    with located(path):
        if blob[:4] != MODEL_MAGIC:
            raise DataError("not an SSM1 model file (bad magic)")
        if len(blob) < 8:
            raise DataError("truncated model header")
        (header_len,) = struct.unpack("<I", blob[4:8])
        try:
            header = json.loads(blob[8 : 8 + header_len].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError("corrupt model header") from exc
        _check_header(header)
        dim = header["d"]
        shapes = param_shapes(header["h"], dim) | {"embeddings": (header["vocab_size"], dim)}
        offset = 8 + header_len
        expected = offset + 4 * sum(math.prod(shape) for shape in shapes.values())
        if len(blob) != expected:
            raise DataError(f"{len(blob)} bytes, but the header describes {expected}")
        tensors: dict[str, np.ndarray] = {}
        for name, shape in shapes.items():
            count = math.prod(shape)
            block = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
            if not np.isfinite(block).all():  # before the cast, which warns on a signaling NaN
                raise DataError(f"{name} contains non-finite entries")
            tensors[name] = block.astype(np.float64).reshape(shape)
            offset += 4 * count
        vectors = tensors.pop("embeddings")
        return Model(
            vocab=Vocabulary.from_tokens(header["tokens"], header.get("min_count")),
            embeddings=EmbeddingMatrix(
                vectors=vectors, context_vectors=None, vocab_hash=header.get("vocab_hash")
            ),
            params=LstmParams(**tensors),
            max_len=header.get("max_len"),
            threshold=header.get("threshold"),
            metrics_snapshot=header.get("metrics"),
        )
