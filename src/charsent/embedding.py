"""Character embeddings trained with Word2Vec-style negative sampling.

Both training modes are provided: averaged-context prediction of the
center token (CBOW) and center-to-context prediction (skip-gram). They
share one objective and one update: a skip-gram example is a CBOW
update whose context is the center token alone. Training is one SGD
step per example, in corpus order; a step gathers its k+1 output rows
once and updates each matrix with one np.subtract.at call, and still
gives every value the bits of a row-by-row loop. The input-side
matrix is the product consumed by the classifier network; the
output-side (context) matrix only exists while training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .files import located, read_bytes, write_atomic
from .numerics import divergence_raises, sigmoid
from .rng import substream
from .tokenizer import PAD_ID, Vocabulary

MIN_LEARNING_RATE = 1e-4
NOISE_POWER = 0.75
EMBEDDING_MAGIC = "W2V1"
SAMPLE_BLOCK = 4096  # uniforms per draw of NegativeSampler


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
    vocab_hash: str = ""

    def __post_init__(self):
        if self.vectors.ndim != 2:
            raise DataError(f"embedding matrix must be 2-D, got shape {self.vectors.shape}")
        if not np.isfinite(self.vectors).all():
            raise DataError("embedding matrix contains non-finite entries")

    @property
    def vocab_size(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def init_embedding_matrix(vocab: Vocabulary, dim: int, seed: int) -> EmbeddingMatrix:
    """Seeded start state: input rows uniform in [-0.5/dim, +0.5/dim),
    context rows zero, PAD row zero.
    """
    rng = substream(seed, "embedding_init")
    vectors = (rng.random((len(vocab), dim)) - 0.5) / dim
    vectors[PAD_ID] = 0.0
    context = np.zeros((len(vocab), dim))
    return EmbeddingMatrix(vectors=vectors, context_vectors=context, vocab_hash=vocab.content_hash())


def extract_windows(ids, window: int) -> list[tuple[int, list[int]]]:
    """(center, context) records for every position of an id list.

    Context is the up-to-2*window neighbors, truncated at the sequence
    edges; a one-token list has no context and gives no record.
    """
    if window < 1:
        raise ConfigError("window must be >= 1")
    out: list[tuple[int, list[int]]] = []
    n = len(ids)
    for pos, center in enumerate(ids):
        lo = max(0, pos - window)
        hi = min(n, pos + window + 1)
        context = [ids[j] for j in range(lo, hi) if j != pos]
        if context:
            out.append((center, context))
    return out


def _objective(context_ids, center_id, negative_ids, matrix: EmbeddingMatrix):
    """The one-example kernel of cbow_gradients and cbow_step, a fixed
    number of array calls: returns (loss, the gradient of each context
    position's input row, the output ids [center, *negatives], their
    gradients as rows in that order). Every float is rounded as by a
    loop over the output rows, one scalar sigmoid and update per row.
    """
    # take() gathers rows faster than a list index; the sum and division
    # give the bits of .mean(axis=0)
    h = matrix.vectors.take(context_ids, axis=0).sum(axis=0) / len(context_ids)
    out_ids = [center_id, *negative_ids]
    u = matrix.context_vectors.take(out_ids, axis=0)
    # one dot per row: a single u @ h product rounds differently
    coef = sigmoid(np.fromiter(map(h.dot, u), np.float64, len(out_ids)))
    # the clamp keeps s and 1 - s above 9e-14, so every log is finite
    s_pos, *s_negs = coef.tolist()
    loss = -math.log(s_pos)
    for s_neg in s_negs:
        loss += -math.log(1.0 - s_neg)
    coef[0] -= 1.0  # d loss / d (u_center . h); the negatives' is s_neg
    coef = coef[:, None]
    # accumulate adds row by row; .sum(axis=0) would add pairwise at d=1
    dh = np.add.accumulate(coef * u, axis=0)[-1]
    return loss, dh / len(context_ids), out_ids, coef * h


def _row_sums(ids, grads) -> dict[int, np.ndarray]:
    """{id: the sum of the grads at its positions, added left to right},
    ids in first-seen order.
    """
    sums: dict[int, np.ndarray] = {}
    for rid, grad in zip(ids, grads):
        sums[rid] = sums[rid] + grad if rid in sums else grad
    return sums


def _subtract_rows(target: np.ndarray, ids: list, grads: np.ndarray, lr: float) -> None:
    """target[i] -= lr * g for each distinct id i, where g sums left to
    right the grads at i's positions in ids; grads holds one row per id,
    or is one row shared by all of them.
    """
    if len(set(ids)) < len(ids):
        sums = _row_sums(ids, grads if grads.ndim == 2 else [grads] * len(ids))
        ids, grads = list(sums), np.array(list(sums.values()))
    # the ids are distinct here, so this is target[ids] -= lr * grads, only faster
    np.subtract.at(target, np.array(ids), lr * grads)


def cbow_gradients(context_ids, center_id, negative_ids, matrix: EmbeddingMatrix):
    """Loss and exact gradients of the negative-sampling objective around
    h, the mean of the context's input rows, without touching the
    matrices:

        loss = -ln s(u_center . h) - sum_neg ln s(-u_neg . h)

    Returns (loss, input-row grads, output-row grads) as {row id: grad}
    dicts with duplicate ids accumulated.
    """
    loss, per_context, out_ids, out_grads = _objective(
        context_ids, center_id, negative_ids, matrix
    )
    in_grads = _row_sums(context_ids, [per_context] * len(context_ids))
    return loss, in_grads, _row_sums(out_ids, out_grads)


def skipgram_gradients(center_id, context_id, negative_ids, matrix: EmbeddingMatrix):
    """The skip-gram objective: CBOW on the one-token context [center_id]."""
    return cbow_gradients([center_id], context_id, negative_ids, matrix)


def cbow_step(context_ids, center_id, negative_ids, matrix: EmbeddingMatrix, lr: float) -> float:
    """One SGD step on a CBOW example; returns the pre-update loss."""
    loss, per_context, out_ids, out_grads = _objective(
        context_ids, center_id, negative_ids, matrix
    )
    _subtract_rows(matrix.vectors, context_ids, per_context, lr)
    _subtract_rows(matrix.context_vectors, out_ids, out_grads, lr)
    return loss


def skipgram_step(center_id, context_id, negative_ids, matrix: EmbeddingMatrix, lr: float) -> float:
    """One SGD step on a skip-gram example: a CBOW step on [center_id]."""
    return cbow_step([center_id], context_id, negative_ids, matrix, lr)


class NegativeSampler:
    """Draws noise tokens from the unigram^(3/4) distribution.

    PAD never appears; ids named in `exclude` are rejected and redrawn,
    which renormalizes the distribution over the remaining ids. Uniforms
    are drawn SAMPLE_BLOCK at a time and mapped to ids in one search;
    ids are handed out in draw order and only as many as are still
    needed, so the ids returned are those of drawing one uniform per id.
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
        self._block: list[int] = []
        self._next = 0

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
            if self._next == len(self._block):
                uniforms = self._rng.random(SAMPLE_BLOCK)
                self._block = self._cumulative.searchsorted(uniforms, side="right").tolist()
                self._next = 0
            # never more ids than are still missing, so no draw is skipped
            start, self._next = self._next, min(self._next + k - len(out), len(self._block))
            out += [tid for tid in self._block[start : self._next] if tid not in exclude]
        return out


def token_counts(sequences, vocab_size: int) -> np.ndarray:
    """Occurrence counts of every id over id lists; PAD (0) and any id
    outside the vocabulary raise DataError.
    """
    ids = np.fromiter(chain.from_iterable(sequences), dtype=np.int64)
    if ids.size and not PAD_ID < ids.min() <= ids.max() < vocab_size:
        raise DataError(f"token ids must lie in [1, {vocab_size}), got {ids.min()}..{ids.max()}")
    return np.bincount(ids, minlength=vocab_size)


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
    sequences, vocab: Vocabulary, config: W2vConfig
) -> tuple[EmbeddingMatrix, list[float]]:
    """Train embeddings over id lists, one per text, holding no PAD.

    Runs `config.epochs` passes of cbow_step over every example of the
    chosen mode, windows in corpus order, negatives drawn from
    unigram^(3/4), with the learning rate decaying linearly per example
    to MIN_LEARNING_RATE. Returns the matrix and each epoch's mean
    example loss. Sequences with no window at all (no token with a
    neighbor) raise DataError. A floating-point overflow, invalid
    operation or division by zero stops the run with NumericalError.
    """
    counts = token_counts(sequences, len(vocab))
    windows = [w for seq in sequences for w in extract_windows(seq, config.window)]
    if not windows:
        raise DataError(
            f"cannot train embeddings: no token has a neighbor within window {config.window}"
        )
    matrix = init_embedding_matrix(vocab, config.dim, config.seed)
    sampler = NegativeSampler(counts, substream(config.seed, "negative_sampling"))
    rng_sub = substream(config.seed, "subsample")
    total_tokens = int(counts.sum())
    per_epoch = sum(1 for _ in _examples(windows, config.mode))
    total_steps = max(1, config.epochs * per_epoch)
    lr0 = config.learning_rate
    lr_floor = min(MIN_LEARNING_RATE, lr0)

    epoch_losses: list[float] = []
    step = 0
    for epoch in range(1, config.epochs + 1):
        epoch_windows = windows
        if config.subsample_threshold is not None:
            kept = (
                _subsample(seq, counts, total_tokens, config.subsample_threshold, rng_sub)
                for seq in sequences
            )
            epoch_windows = [w for seq in kept for w in extract_windows(seq, config.window)]
        epoch_loss = 0.0
        epoch_start = step
        with divergence_raises("word2vec", epoch):
            for inputs, target, exclude in _examples(epoch_windows, config.mode):
                lr = lr0 - (lr0 - lr_floor) * (step / total_steps)
                negatives = sampler.sample(config.negatives, exclude=exclude)
                epoch_loss += cbow_step(inputs, target, negatives, matrix, lr)
                step += 1
        epoch_losses.append(epoch_loss / max(1, step - epoch_start))
    return matrix, epoch_losses


def nearest_neighbors(
    token: str, k: int, matrix: EmbeddingMatrix, vocab: Vocabulary
) -> list[tuple[str, float]]:
    """The k most cosine-similar in-vocabulary tokens to `token`,
    descending, ties broken by id; the query, PAD, and UNK never appear.
    k larger than the eligible pool returns everything; k < 1 raises
    ConfigError.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
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
    with located(path):
        if not blob.startswith(EMBEDDING_MAGIC.encode("utf-8") + b" "):
            raise DataError(f"not a {EMBEDDING_MAGIC} embedding file (bad magic)")
        newline = blob.find(b"\n")
        parts = blob[:newline].split(b" ")
        if newline < 0 or len(parts) != 4 or not (parts[1].isdigit() and parts[2].isdigit()):
            raise DataError("malformed embedding header")
        vocab_size, dim = int(parts[1]), int(parts[2])
        row_bytes = 4 * dim
        # each row is at least a 1-byte token, a space, the floats and a newline
        if dim < 1 or len(blob) - newline - 1 < vocab_size * (row_bytes + 3):
            raise DataError(f"{len(blob)} bytes, too short for {vocab_size} rows of dim {dim}")
        tokens: list[str] = []
        stored = np.empty((vocab_size, dim), dtype="<f4")
        offset = newline + 1
        try:
            vocab_hash = parts[3].decode("utf-8")
            for i in range(vocab_size):
                space = blob.index(b" ", offset)
                tokens.append(blob[offset:space].decode("utf-8"))
                offset = space + 1 + row_bytes + 1
                record = blob[space + 1 : offset]
                if len(record) != row_bytes + 1 or record[-1:] != b"\n":
                    raise DataError(f"truncated embedding record for row {i}")
                stored[i] = np.frombuffer(record[:-1], dtype="<f4")
        except ValueError as exc:  # no space before a row's floats, or a token not UTF-8
            raise DataError(f"malformed embedding record after byte {offset}") from exc
        if offset != len(blob):
            raise DataError(f"{len(blob) - offset} trailing bytes after the last row")
        # checked before the cast, which warns on a signaling NaN
        if not np.isfinite(stored).all():
            raise DataError("embedding matrix contains non-finite entries")
        matrix = EmbeddingMatrix(
            vectors=stored.astype(np.float64), context_vectors=None, vocab_hash=vocab_hash
        )
    return matrix, tokens
