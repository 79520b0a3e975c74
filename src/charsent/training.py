"""Adam, the training loop with dropout and early stopping, the
five-quantity evaluation report (loss, MAE, accuracy, precision,
recall) and the SSM1 model and history files.
"""

from __future__ import annotations

import copy
import json
import math
import struct
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .corpus import Corpus, clean_text
from .embedding import EmbeddingMatrix
from .errors import ConfigError, DataError, NumericalError
from .files import SIZE_LIMIT, located, parse_json, read_bytes, write_atomic
from .network import (
    LstmParams,
    Model,
    backward_batch,
    bce_loss,
    forward_batch,
    param_shapes,
    predict_proba,
    threshold_ok,
)
from .numerics import divergence_raises
from .rng import substream
from .tokenizer import TokenSequence, Vocabulary, encode, segment_chars

MODEL_MAGIC = b"SSM1"
MODEL_VERSION = 2
# the tensor blocks' element type in each SSM1 version this charsent reads
_BLOCK_DTYPES = {1: "<f4", 2: "<f8"}
_QUOTE_CHARS = 20  # of a review's text, in an error that names the review
_POOL_BATCHES = 8  # batches per pool of an epoch's shuffled order that train sorts by length


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

    A row whose gradient stays zero keeps zero moments and does not
    move; backward_batch gives the PAD embedding row such a gradient.
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


def compute_metrics(ps: np.ndarray, ys: np.ndarray, threshold: float) -> Metrics:
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
    predict cleans and encodes one text. A review with no label, or no
    token after cleaning, raises DataError quoting the start of its text.
    """
    out: Dataset = []
    for review in corpus.reviews:
        try:
            if review.label is None:
                raise DataError("labels required, but the review has none")
            out.append((encode(segment_chars(clean_text(review.text)), vocab, max_len), review.label))
        except DataError as exc:
            text = review.text
            quote = repr(text if len(text) <= _QUOTE_CHARS else text[:_QUOTE_CHARS] + "...")
            raise DataError(f"review {quote}: {exc}") from exc
    return out


def evaluate(model: Model, dataset: Dataset) -> Metrics:
    """Full evaluation of a labeled dataset at the model's threshold."""
    ps = predict_proba(model, [seq for seq, _ in dataset])
    ys = np.array([y for _, y in dataset], dtype=np.int64)
    return compute_metrics(ps, ys, model.threshold)


@dataclass(frozen=True)
class EpochRecord:
    """One epoch's losses and accuracies, as train measured them. The
    training figures score each example by the forward pass of the batch
    that updated on it, with dropout on and the weights moving between
    batches; the validation figures evaluate the weights at the epoch's end.
    """

    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float


@dataclass
class TrainHistory:
    """train's epoch records; fewer than config.epochs means it stopped early."""

    records: list[EpochRecord]

    @property
    def best_epoch(self) -> int:
        """The first epoch of lowest validation loss; 0 with no records."""
        return min(self.records, key=lambda r: r.val_loss).epoch if self.records else 0


def train(
    train_set: Dataset, val_set: Dataset, model: Model, config: TrainConfig
) -> tuple[Model, TrainHistory]:
    """Minibatch Adam training with per-example dropout masks and early
    stopping on validation loss. A floating-point overflow, invalid
    operation or division by zero stops it with NumericalError.

    The input model is left untouched; the returned model carries the
    parameters of the epoch with the lowest validation loss.

    Each epoch shuffles the training set, cuts the shuffled order into
    pools of _POOL_BATCHES batches and sorts each pool by length,
    longest first and stable, so a batch holds texts of near-equal
    length and steps little past most of its rows. The batches, cut
    from the start of the sorted order, then run in a second shuffled
    order. Both shuffles draw from one substream of config.seed, and the
    dropout masks from another, one draw per batch in the order the
    batches run, so a rerun with identical inputs reproduces the
    history exactly.
    """
    if not train_set or not val_set:
        raise DataError(
            "train and validation sets must be non-empty, got "
            f"{len(train_set)} training and {len(val_set)} validation examples"
        )
    work = copy.deepcopy(model)
    tensors = dict(work.params.tensors())
    if not config.freeze_embeddings:
        tensors["embeddings"] = work.embeddings.vectors
    state = AdamState.for_tensors(tensors)
    rng_shuffle = substream(config.seed, "shuffle")
    rng_dropout = substream(config.seed, "dropout")
    hsize = work.params.hidden_size
    labels = np.array([y for _, y in train_set], dtype=np.float64)
    lengths = np.array([seq.true_length for seq, _ in train_set])
    pool = _POOL_BATCHES * config.batch_size
    starts = range(0, len(train_set), config.batch_size)
    epoch_ps = np.empty(len(train_set))

    history = TrainHistory(records=[])
    best = work
    for epoch in range(1, config.epochs + 1):
        with divergence_raises("training", epoch):
            order = rng_shuffle.permutation(len(train_set))
            for head in range(0, len(order), pool):
                part = order[head : head + pool]
                order[head : head + pool] = part[np.argsort(-lengths[part], kind="stable")]
            for batch_index, k in enumerate(rng_shuffle.permutation(len(starts))):
                picks = order[starts[k] : starts[k] + config.batch_size]
                seqs = [train_set[i][0] for i in picks]
                ys = labels[picks]
                keep = rng_dropout.random((len(picks), hsize)) >= config.dropout_rate
                masks = keep.astype(np.float64) / (1.0 - config.dropout_rate)
                ps, cache = forward_batch(seqs, work, masks)
                epoch_ps[picks] = ps
                batch_loss = float(bce_loss(ps, ys).mean())
                if not np.isfinite(batch_loss):
                    raise NumericalError(
                        f"training diverged: non-finite loss at epoch {epoch}, batch {batch_index}"
                    )
                grads = backward_batch(cache, ys, work)
                adam_step(tensors, grads, state, config)
                del cache, grads  # free this batch's activations before the next pass

            train_metrics = compute_metrics(epoch_ps, labels, work.threshold)
            val_metrics = evaluate(work, val_set)
        if not np.isfinite(val_metrics.loss):
            raise NumericalError(f"training diverged: non-finite validation loss at epoch {epoch}")
        history.records.append(
            EpochRecord(
                epoch=epoch,
                train_loss=train_metrics.loss,
                train_acc=train_metrics.accuracy,
                val_loss=val_metrics.loss,
                val_acc=val_metrics.accuracy,
            )
        )
        if history.best_epoch == epoch:
            best = replace(copy.deepcopy(work), metrics_snapshot=asdict(val_metrics))
        elif epoch - history.best_epoch >= config.patience:
            break
    return best, history


def save_history(history: TrainHistory, path: str | Path) -> None:
    """Write the per-epoch records as a plot-ready JSON array."""
    payload = [asdict(r) for r in history.records]
    write_atomic(path, (json.dumps(payload, indent=2) + "\n").encode("utf-8"))


def save_model(model: Model, path: str | Path) -> None:
    """Serialize a model: magic, length-prefixed JSON header, then the
    tensor blocks as little-endian float64 in a fixed order (the gate
    matrix and the gate biases, each stacked f, i, o, c, the read-out
    weights and bias, then the embedding matrix).
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
    dtype = _BLOCK_DTYPES[MODEL_VERSION]
    blocks = b"".join(np.ascontiguousarray(t, dtype=dtype).tobytes() for t in tensors)
    write_atomic(path, MODEL_MAGIC + struct.pack("<I", len(header_bytes)) + header_bytes + blocks)


def _check_header(header) -> None:
    """Raise DataError unless the header is a JSON object of a format
    version this charsent reads, holding what sizes and fills the tensor
    blocks: the integers h, d and vocab_size, each in [1, SIZE_LIMIT).
    The types the header builds check the rest.
    """
    if not isinstance(header, dict):
        raise DataError("model header must be a JSON object")
    version = header.get("version")
    if type(version) is not int or version not in _BLOCK_DTYPES:
        raise DataError(
            f"model format version {json.dumps(version)} is not supported "
            f"(this charsent reads versions {', '.join(map(str, _BLOCK_DTYPES))})"
        )
    for key in ("h", "d", "vocab_size"):
        value = header.get(key)
        if type(value) is not int or not 1 <= value < SIZE_LIMIT:
            raise DataError(f"model header field '{key}' is missing or invalid")


def load_model(path: str | Path) -> Model:
    """Load an SSM1 model file, the inverse of save_model: the model
    comes back bit for bit. Version 1 files, whose blocks are float32,
    load too. The file must be exactly as long as its header says.
    """
    path = Path(path)
    blob = read_bytes(path, "model file")
    with located(path):
        if blob[:4] != MODEL_MAGIC:
            raise DataError("not an SSM1 model file (bad magic)")
        if len(blob) < 8:
            raise DataError("truncated model header")
        (header_len,) = struct.unpack("<I", blob[4:8])
        header = parse_json(blob[8 : 8 + header_len], "model header")
        _check_header(header)
        dtype = np.dtype(_BLOCK_DTYPES[header["version"]])
        dim = header["d"]
        shapes = param_shapes(header["h"], dim) | {"embeddings": (header["vocab_size"], dim)}
        offset = 8 + header_len
        expected = offset + dtype.itemsize * sum(math.prod(shape) for shape in shapes.values())
        if len(blob) != expected:
            raise DataError(f"{len(blob)} bytes, but the header describes {expected}")
        tensors: dict[str, np.ndarray] = {}
        for name, shape in shapes.items():
            count = math.prod(shape)
            block = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
            if not np.isfinite(block).all():  # before the cast, which warns on a signaling NaN
                raise DataError(f"{name} contains non-finite entries")
            tensors[name] = block.astype(np.float64).reshape(shape)
            offset += dtype.itemsize * count
        vectors = tensors.pop("embeddings")
        return Model(
            vocab=Vocabulary(header.get("tokens"), header.get("min_count")),
            embeddings=EmbeddingMatrix(vectors=vectors, vocab_hash=header.get("vocab_hash")),
            params=LstmParams(**tensors),
            max_len=header.get("max_len"),
            threshold=header.get("threshold"),
            metrics_snapshot=header.get("metrics"),
        )
