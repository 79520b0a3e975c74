"""Character embeddings trained with Word2Vec-style negative sampling.

Both training modes are provided: averaged-context prediction of the
center token (CBOW) and center-to-context prediction (skip-gram). The
input-side matrix is the product consumed by the classifier network;
the output-side (context) matrix only exists while training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .files import read_bytes, write_atomic
from .numerics import sigmoid
from .rng import substream
from .tokenizer import PAD_ID, TokenSequence, Vocabulary

MIN_LEARNING_RATE = 1e-4
NOISE_POWER = 0.75
EMBEDDING_MAGIC = "W2V1"


@dataclass(frozen=True)
class W2vConfig:
    mode: str = "cbow"
    window: int = 4
    negatives: int = 5
    learning_rate: float = 0.025
    epochs: int = 5
    dim: int = 300
    seed: int = 0
    subsample_threshold: float | None = None

    def __post_init__(self):
        if self.mode not in ("cbow", "skipgram"):
            raise ConfigError(f"mode must be 'cbow' or 'skipgram', got {self.mode!r}")
        if self.window < 1:
            raise ConfigError("window must be >= 1")
        if self.negatives < 1:
            raise ConfigError("negatives must be >= 1")
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be > 0")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.subsample_threshold is not None and not self.subsample_threshold > 0:
            raise ConfigError("subsample_threshold must be > 0 when set")


@dataclass
class EmbeddingMatrix:
    """Input-side vectors (one row per vocabulary id) plus the training-
    only context vectors. The PAD row is all zeros and never trained.
    """

    vectors: np.ndarray
    context_vectors: np.ndarray | None
    dim: int
    vocab_hash: str = ""

    def __post_init__(self):
        if self.vectors.ndim != 2 or self.vectors.shape[1] != self.dim:
            raise DataError("embedding matrix shape inconsistent with dim")
        if not np.isfinite(self.vectors).all():
            raise DataError("embedding matrix contains non-finite entries")

    @property
    def vocab_size(self) -> int:
        return self.vectors.shape[0]


def init_embedding_matrix(vocab: Vocabulary, dim: int, seed: int) -> EmbeddingMatrix:
    """Seeded start state: input rows uniform in [-0.5/dim, +0.5/dim),
    context rows zero, PAD row zero.
    """
    rng = substream(seed, "embedding_init")
    vectors = (rng.random((len(vocab), dim)) - 0.5) / dim
    vectors[PAD_ID] = 0.0
    context = np.zeros((len(vocab), dim))
    return EmbeddingMatrix(
        vectors=vectors, context_vectors=context, dim=dim, vocab_hash=vocab.content_hash()
    )


def extract_windows(ids, window: int) -> list[tuple[int, list[int]]]:
    """(center, context) records for every non-PAD position.

    Context is the up-to-2*window non-PAD neighbors, truncated at the
    sequence edges; positions whose context comes up empty are skipped.
    """
    if window < 1:
        raise ConfigError("window must be >= 1")
    if isinstance(ids, TokenSequence):
        ids = ids.ids
    out: list[tuple[int, list[int]]] = []
    n = len(ids)
    for pos, center in enumerate(ids):
        if center == PAD_ID:
            continue
        lo = max(0, pos - window)
        hi = min(n, pos + window + 1)
        context = [ids[j] for j in range(lo, hi) if j != pos and ids[j] != PAD_ID]
        if context:
            out.append((center, context))
    return out


def _positive_negative_grads(h, positive_id, negative_ids, context_matrix):
    """Shared core of both objectives: with hidden vector h and positive
    output row `positive_id`, returns (loss, dL/dh, {output row id: grad}).

    loss = -ln s(u_pos . h) - sum_neg ln s(-u_neg . h)
    """
    u_pos = context_matrix[positive_id]
    s_pos = sigmoid(u_pos @ h)
    loss = -math.log(max(s_pos, 1e-300))
    g_pos = s_pos - 1.0  # d loss / d (u_pos . h)
    dh = g_pos * u_pos
    out_grads: dict[int, np.ndarray] = {positive_id: g_pos * h}
    for neg in negative_ids:
        u_neg = context_matrix[neg]
        s_neg = sigmoid(u_neg @ h)
        loss += -math.log(max(1.0 - s_neg, 1e-300))
        dh = dh + s_neg * u_neg
        if neg in out_grads:
            out_grads[neg] = out_grads[neg] + s_neg * h
        else:
            out_grads[neg] = s_neg * h
    return loss, dh, out_grads


def cbow_gradients(context_ids, center_id, negative_ids, matrix: EmbeddingMatrix):
    """Loss and exact gradients of the averaged-context objective,
    without touching the matrices. Returns (loss, input-row grads,
    output-row grads) with duplicate ids accumulated.
    """
    h = matrix.vectors[list(context_ids)].mean(axis=0)
    loss, dh, out_grads = _positive_negative_grads(
        h, center_id, negative_ids, matrix.context_vectors
    )
    per_context = dh / len(context_ids)
    in_grads: dict[int, np.ndarray] = {}
    for cid in context_ids:
        if cid in in_grads:
            in_grads[cid] = in_grads[cid] + per_context
        else:
            in_grads[cid] = per_context.copy()
    return loss, in_grads, out_grads


def skipgram_gradients(center_id, context_id, negative_ids, matrix: EmbeddingMatrix):
    """Loss and exact gradients of the center-to-context objective;
    the hidden vector is the center token's input row.
    """
    h = matrix.vectors[center_id]
    loss, dh, out_grads = _positive_negative_grads(
        h, context_id, negative_ids, matrix.context_vectors
    )
    return loss, {center_id: dh}, out_grads


def _apply_row_updates(matrix: EmbeddingMatrix, in_grads, out_grads, lr: float) -> None:
    for rid, grad in in_grads.items():
        matrix.vectors[rid] -= lr * grad
    for rid, grad in out_grads.items():
        matrix.context_vectors[rid] -= lr * grad


def cbow_step(context_ids, center_id, negative_ids, matrix: EmbeddingMatrix, lr: float) -> float:
    """One SGD step on a CBOW example; returns the pre-update loss."""
    loss, in_grads, out_grads = cbow_gradients(context_ids, center_id, negative_ids, matrix)
    _apply_row_updates(matrix, in_grads, out_grads, lr)
    return loss


def skipgram_step(center_id, context_id, negative_ids, matrix: EmbeddingMatrix, lr: float) -> float:
    """One SGD step on a skip-gram example; returns the pre-update loss."""
    loss, in_grads, out_grads = skipgram_gradients(center_id, context_id, negative_ids, matrix)
    _apply_row_updates(matrix, in_grads, out_grads, lr)
    return loss


class NegativeSampler:
    """Draws noise tokens from the unigram^(3/4) distribution.

    PAD never appears; ids named in `exclude` are rejected and redrawn,
    which renormalizes the distribution over the remaining ids.
    """

    def __init__(self, counts: np.ndarray, rng: np.random.Generator):
        weights = np.asarray(counts, dtype=np.float64) ** NOISE_POWER
        weights[PAD_ID] = 0.0
        total = weights.sum()
        if total <= 0:
            raise DataError("negative sampler needs at least one counted token")
        self.probabilities = weights / total
        self._cumulative = np.cumsum(self.probabilities)
        self._cumulative[-1] = 1.0
        self._rng = rng

    def sample(self, k: int, exclude=()) -> list[int]:
        exclude = set(exclude)
        out: list[int] = []
        while len(out) < k:
            draws = np.searchsorted(
                self._cumulative, self._rng.random(k - len(out)), side="right"
            )
            out.extend(int(i) for i in draws if int(i) not in exclude)
        return out


def _as_id_list(sequence) -> list[int]:
    if isinstance(sequence, TokenSequence):
        return list(sequence.ids[: sequence.true_length])
    return [tid for tid in sequence if tid != PAD_ID]


def token_counts(sequences, vocab_size: int) -> np.ndarray:
    """Occurrence counts of every id over the non-PAD tokens of encoded
    sequences or plain id lists.
    """
    counts = np.zeros(vocab_size, dtype=np.int64)
    for seq in sequences:
        for tid in _as_id_list(seq):
            counts[tid] += 1
    return counts


def _subsample(sequence_ids, counts, total, threshold, rng):
    kept = []
    for tid in sequence_ids:
        f = counts[tid] / total
        keep = 1.0 if f <= threshold else math.sqrt(threshold / f)
        if rng.random() < keep:
            kept.append(tid)
    return kept


def train_embeddings(
    sequences,
    vocab: Vocabulary,
    config: W2vConfig,
    epoch_losses: list[float] | None = None,
) -> EmbeddingMatrix:
    """Train embeddings over encoded sequences or plain id lists.

    Runs `config.epochs` passes of cbow_step or skipgram_step over all
    windows in corpus order, negatives drawn from unigram^(3/4), with
    the learning rate decaying linearly to MIN_LEARNING_RATE. Averaged
    per-epoch losses are appended to `epoch_losses` when supplied.
    """
    if not sequences:
        raise DataError("cannot train embeddings on an empty corpus")
    sequences = [_as_id_list(seq) for seq in sequences]
    matrix = init_embedding_matrix(vocab, config.dim, config.seed)
    counts = token_counts(sequences, len(vocab))
    if counts.sum() == 0:
        raise DataError("cannot train embeddings: corpus has no tokens")
    sampler = NegativeSampler(counts, substream(config.seed, "negative_sampling"))
    rng_sub = substream(config.seed, "subsample")
    total_tokens = int(counts.sum())

    base_windows = [extract_windows(seq, config.window) for seq in sequences]
    per_epoch = sum(len(w) for w in base_windows)
    if config.mode == "skipgram":
        per_epoch = sum(len(ctx) for ws in base_windows for _, ctx in ws)
    total_steps = max(1, config.epochs * per_epoch)
    lr0 = config.learning_rate
    lr_floor = min(MIN_LEARNING_RATE, lr0)

    step = 0
    for _ in range(config.epochs):
        if config.subsample_threshold is not None:
            epoch_windows = []
            for seq in sequences:
                ids = _subsample(
                    seq, counts, total_tokens, config.subsample_threshold, rng_sub
                )
                epoch_windows.append(extract_windows(ids, config.window))
        else:
            epoch_windows = base_windows

        epoch_loss = 0.0
        epoch_examples = 0
        for windows in epoch_windows:
            for center, context in windows:
                if config.mode == "cbow":
                    lr = lr0 - (lr0 - lr_floor) * (step / total_steps)
                    negatives = sampler.sample(config.negatives, exclude={center})
                    epoch_loss += cbow_step(context, center, negatives, matrix, lr)
                    epoch_examples += 1
                    step += 1
                else:
                    for ctx in context:
                        lr = lr0 - (lr0 - lr_floor) * (step / total_steps)
                        negatives = sampler.sample(
                            config.negatives, exclude={center, ctx}
                        )
                        epoch_loss += skipgram_step(center, ctx, negatives, matrix, lr)
                        epoch_examples += 1
                        step += 1
        if epoch_losses is not None:
            epoch_losses.append(epoch_loss / max(1, epoch_examples))

    matrix.vocab_hash = vocab.content_hash()
    return matrix


def nearest_neighbors(
    token: str, k: int, matrix: EmbeddingMatrix, vocab: Vocabulary
) -> list[tuple[str, float]]:
    """The k most cosine-similar in-vocabulary tokens to `token`,
    descending, ties broken by id; the query, PAD, and UNK never appear.
    k larger than the eligible pool returns everything.
    """
    if token not in vocab:
        raise DataError(f"token {token!r} is not in the vocabulary")
    qid = vocab.token_to_id[token]
    q = matrix.vectors[qid]
    qnorm = np.linalg.norm(q)
    if qnorm == 0.0:
        raise DataError(f"token {token!r} has a zero embedding vector")
    norms = np.linalg.norm(matrix.vectors, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cosines = (matrix.vectors @ q) / (norms * qnorm)
    cosines = np.where(np.isfinite(cosines), cosines, -1.0)
    ranked = sorted(
        (i for i in range(2, matrix.vocab_size) if i != qid),
        key=lambda i: (-cosines[i], i),
    )
    return [(vocab.id_to_token[i], float(cosines[i])) for i in ranked[:k]]


def save_embeddings(matrix: EmbeddingMatrix, vocab: Vocabulary, path: str | Path) -> None:
    """Write the input-side matrix as a W2V1 file: a header line, then
    per id the token, a space, dim little-endian float32 values and a
    newline.
    """
    header = f"{EMBEDDING_MAGIC} {matrix.vocab_size} {matrix.dim} {matrix.vocab_hash}\n"
    chunks = [header.encode("utf-8")]
    for i in range(matrix.vocab_size):
        chunks.append(vocab.id_to_token[i].encode("utf-8") + b" ")
        chunks.append(matrix.vectors[i].astype("<f4").tobytes())
        chunks.append(b"\n")
    write_atomic(path, b"".join(chunks))


def load_embeddings(path: str | Path) -> tuple[EmbeddingMatrix, list[str]]:
    """Read a W2V1 file; returns the matrix (context side empty) and the
    token list in id order for validation by the caller. The file must
    end exactly after its last row.
    """
    path = Path(path)
    blob = read_bytes(path, "embedding file")
    if not blob.startswith(EMBEDDING_MAGIC.encode("utf-8") + b" "):
        raise DataError(f"{path}: not a {EMBEDDING_MAGIC} embedding file (bad magic)")
    newline = blob.find(b"\n")
    parts = blob[:newline].split(b" ")
    if newline < 0 or len(parts) != 4 or not (parts[1].isdigit() and parts[2].isdigit()):
        raise DataError(f"{path}: malformed embedding header")
    vocab_size, dim = int(parts[1]), int(parts[2])
    row_bytes = 4 * dim
    # each row is at least a 1-byte token, a space, the floats and a newline
    if dim < 1 or len(blob) - newline - 1 < vocab_size * (row_bytes + 3):
        raise DataError(
            f"{path}: {len(blob)} bytes, too short for {vocab_size} rows of dim {dim}"
        )
    tokens: list[str] = []
    vectors = np.empty((vocab_size, dim))
    offset = newline + 1
    try:
        vocab_hash = parts[3].decode("utf-8")
        for i in range(vocab_size):
            space = blob.index(b" ", offset)
            tokens.append(blob[offset:space].decode("utf-8"))
            offset = space + 1 + row_bytes + 1
            record = blob[space + 1 : offset]
            if len(record) != row_bytes + 1 or record[-1:] != b"\n":
                raise DataError(f"{path}: truncated embedding record for row {i}")
            vectors[i] = np.frombuffer(record[:-1], dtype="<f4")
    except ValueError as exc:  # no space before a row's floats, or a token not UTF-8
        raise DataError(f"{path}: malformed embedding record after byte {offset}") from exc
    if offset != len(blob):
        raise DataError(f"{path}: {len(blob) - offset} trailing bytes after the last row")
    matrix = EmbeddingMatrix(
        vectors=vectors, context_vectors=None, dim=dim, vocab_hash=vocab_hash
    )
    return matrix, tokens
