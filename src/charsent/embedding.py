"""Character embeddings trained with Word2Vec-style negative sampling.

Both training modes are provided: averaged-context prediction of the
center token (CBOW) and center-to-context prediction (skip-gram). They
share one objective and one update: a skip-gram example is a CBOW
update whose context is the center token alone. The input-side matrix
is the product consumed by the classifier network; the output-side
(context) matrix only exists while training.
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


def cbow_gradients(context_ids, center_id, negative_ids, matrix: EmbeddingMatrix):
    """Loss and exact gradients of the negative-sampling objective around
    h, the mean of the context's input rows, without touching the
    matrices:

        loss = -ln s(u_center . h) - sum_neg ln s(-u_neg . h)

    Returns (loss, input-row grads, output-row grads) as {row id: grad}
    dicts with duplicate ids accumulated.
    """
    # take() gathers rows faster than a list index; the sum and division
    # give the bits of .mean(axis=0)
    h = matrix.vectors.take(context_ids, axis=0).sum(axis=0) / len(context_ids)
    u_pos = matrix.context_vectors[center_id]
    s_pos = sigmoid(u_pos @ h)
    loss = -math.log(max(s_pos, 1e-300))
    g_pos = s_pos - 1.0  # d loss / d (u_center . h)
    dh = g_pos * u_pos
    out_grads: dict[int, np.ndarray] = {center_id: g_pos * h}
    for neg in negative_ids:
        u_neg = matrix.context_vectors[neg]
        s_neg = sigmoid(u_neg @ h)
        loss += -math.log(max(1.0 - s_neg, 1e-300))
        dh = dh + s_neg * u_neg
        out_grads[neg] = out_grads[neg] + s_neg * h if neg in out_grads else s_neg * h
    per_context = dh / len(context_ids)
    in_grads: dict[int, np.ndarray] = {}
    for cid in context_ids:
        in_grads[cid] = in_grads[cid] + per_context if cid in in_grads else per_context
    return loss, in_grads, out_grads


def skipgram_gradients(center_id, context_id, negative_ids, matrix: EmbeddingMatrix):
    """The skip-gram objective: CBOW on the one-token context [center_id]."""
    return cbow_gradients([center_id], context_id, negative_ids, matrix)


def cbow_step(context_ids, center_id, negative_ids, matrix: EmbeddingMatrix, lr: float) -> float:
    """One SGD step on a CBOW example; returns the pre-update loss."""
    loss, in_grads, out_grads = cbow_gradients(context_ids, center_id, negative_ids, matrix)
    for rid, grad in in_grads.items():
        matrix.vectors[rid] -= lr * grad
    for rid, grad in out_grads.items():
        matrix.context_vectors[rid] -= lr * grad
    return loss


def skipgram_step(center_id, context_id, negative_ids, matrix: EmbeddingMatrix, lr: float) -> float:
    """One SGD step on a skip-gram example: a CBOW step on [center_id]."""
    return cbow_step([center_id], context_id, negative_ids, matrix, lr)


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
        self._support = set(np.flatnonzero(weights).tolist())
        self._rng = rng

    def sample(self, k: int, exclude=()) -> list[int]:
        exclude = set(exclude)
        # the size check inside <= settles this at once for real vocabularies
        if self._support <= exclude:
            raise DataError(
                "cannot draw negatives: every counted token is excluded; "
                "the corpus needs more distinct tokens"
            )
        out: list[int] = []
        while len(out) < k:
            draws = self._cumulative.searchsorted(self._rng.random(k - len(out)), side="right")
            out += [i for i in draws.tolist() if i not in exclude]
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


def _examples(windows, mode: str):
    """One epoch's examples as (input ids, target id, excluded negatives).

    CBOW predicts each center from its context. Skip-gram predicts each
    context token from the center alone, a one-token CBOW context, and
    also keeps that context token out of the negatives.
    """
    for center, context in windows:
        if mode == "cbow":
            yield context, center, (center,)
        else:
            for ctx in context:
                yield [center], ctx, (center, ctx)


def train_embeddings(
    sequences,
    vocab: Vocabulary,
    config: W2vConfig,
    epoch_losses: list[float] | None = None,
) -> EmbeddingMatrix:
    """Train embeddings over encoded sequences or plain id lists.

    Runs `config.epochs` passes of cbow_step over every example of the
    chosen mode, windows in corpus order, negatives drawn from
    unigram^(3/4), with the learning rate decaying linearly per example
    to MIN_LEARNING_RATE. Averaged per-epoch losses are appended to
    `epoch_losses` when supplied.
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

    windows = [w for seq in sequences for w in extract_windows(seq, config.window)]
    per_epoch = sum(1 for _ in _examples(windows, config.mode))
    total_steps = max(1, config.epochs * per_epoch)
    lr0 = config.learning_rate
    lr_floor = min(MIN_LEARNING_RATE, lr0)

    step = 0
    for _ in range(config.epochs):
        epoch_windows = windows
        if config.subsample_threshold is not None:
            kept = (
                _subsample(seq, counts, total_tokens, config.subsample_threshold, rng_sub)
                for seq in sequences
            )
            epoch_windows = [w for seq in kept for w in extract_windows(seq, config.window)]
        epoch_loss = 0.0
        epoch_start = step
        for inputs, target, exclude in _examples(epoch_windows, config.mode):
            lr = lr0 - (lr0 - lr_floor) * (step / total_steps)
            negatives = sampler.sample(config.negatives, exclude=exclude)
            epoch_loss += cbow_step(inputs, target, negatives, matrix, lr)
            step += 1
        if epoch_losses is not None:
            epoch_losses.append(epoch_loss / max(1, step - epoch_start))

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
