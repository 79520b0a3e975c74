"""Single-layer LSTM over embedded character sequences with a sigmoid
binary classification head.

Cell equations, with z_t = [h_{t-1}, x_t] (previous hidden state
concatenated before the input, in that order):

    f_t       = sigmoid(W_f z_t + b_f)          forget gate
    i_t       = sigmoid(W_i z_t + b_i)          input gate
    c_tilde_t = tanh(W_c z_t + b_c)             candidate state
    c_t       = i_t * c_tilde_t + f_t * c_{t-1} cell state
    o_t       = sigmoid(W_o z_t + b_o)          output gate
    h_t       = o_t * tanh(c_t)

The head reads the final hidden state: p = sigmoid(w_out . h_T + b_out).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import CleaningConfig, clean_text
from .embedding import EmbeddingMatrix
from .errors import ConfigError, DataError
from .numerics import sigmoid
from .rng import substream
from .tokenizer import TokenSequence, Vocabulary, encode, segment_chars

__all__ = [
    "sigmoid",
    "LstmParams",
    "Gates",
    "BatchCache",
    "Model",
    "init_lstm_params",
    "lstm_cell_forward",
    "sequence_forward",
    "forward_batch",
    "predict",
]

# Order in which parameter tensors are serialized and optimized.
PARAM_NAMES = ("w_f", "w_i", "w_o", "w_c", "b_f", "b_i", "b_o", "b_c", "w_out", "b_out")


@dataclass
class LstmParams:
    """Gate weights over [h_prev, x], gate biases, and the classifier
    read-out. Weight matrices have shape (hidden, hidden + dim).
    """

    w_f: np.ndarray
    w_i: np.ndarray
    w_o: np.ndarray
    w_c: np.ndarray
    b_f: np.ndarray
    b_i: np.ndarray
    b_o: np.ndarray
    b_c: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray

    def __post_init__(self):
        h, hd = self.w_f.shape
        for name in ("w_i", "w_o", "w_c"):
            if getattr(self, name).shape != (h, hd):
                raise DataError(f"{name} shape mismatch")
        for name in ("b_f", "b_i", "b_o", "b_c", "w_out"):
            if getattr(self, name).shape != (h,):
                raise DataError(f"{name} shape mismatch")
        if self.b_out.shape != (1,):
            raise DataError("b_out must have shape (1,)")
        for name in PARAM_NAMES:
            if not np.isfinite(getattr(self, name)).all():
                raise DataError(f"{name} contains non-finite entries")

    @property
    def hidden_size(self) -> int:
        return self.w_f.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_f.shape[1] - self.w_f.shape[0]

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    def copy(self) -> "LstmParams":
        return LstmParams(**{name: getattr(self, name).copy() for name in PARAM_NAMES})


def init_lstm_params(hidden_size: int, input_dim: int, seed: int) -> LstmParams:
    """Glorot-uniform gate weights, zero biases except the forget bias
    at +1.0 (starts with long memory), Glorot read-out.
    """
    if hidden_size < 1:
        raise ConfigError(f"hidden_size must be >= 1, got {hidden_size}")
    if input_dim < 1:
        raise ConfigError(f"input_dim must be >= 1, got {input_dim}")
    rng = substream(seed, "lstm_init")
    fan_in = hidden_size + input_dim

    def glorot(fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_out, fan_in))

    return LstmParams(
        w_f=glorot(hidden_size),
        w_i=glorot(hidden_size),
        w_o=glorot(hidden_size),
        w_c=glorot(hidden_size),
        b_f=np.ones(hidden_size),
        b_i=np.zeros(hidden_size),
        b_o=np.zeros(hidden_size),
        b_c=np.zeros(hidden_size),
        w_out=rng.uniform(
            -np.sqrt(6.0 / (hidden_size + 1)), np.sqrt(6.0 / (hidden_size + 1)), size=hidden_size
        ),
        b_out=np.zeros(1),
    )


@dataclass
class Gates:
    """The gate activations of one cell step."""

    f: np.ndarray
    i: np.ndarray
    o: np.ndarray
    c_tilde: np.ndarray


def lstm_cell_forward(
    x_t: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, params: LstmParams
) -> tuple[np.ndarray, np.ndarray, Gates]:
    """One cell step on one row or on a (B, .) batch of rows; returns
    (h_t, c_t, gates).
    """
    hsize = params.hidden_size
    if (
        x_t.shape[-1:] != (params.input_dim,)
        or h_prev.shape[-1:] != (hsize,)
        or c_prev.shape != h_prev.shape
        or x_t.shape[:-1] != h_prev.shape[:-1]
    ):
        raise DataError("lstm_cell_forward: input shapes do not match params")
    z = np.concatenate([h_prev, x_t], axis=-1)
    f = sigmoid(z @ params.w_f.T + params.b_f)
    i = sigmoid(z @ params.w_i.T + params.b_i)
    c_tilde = np.tanh(z @ params.w_c.T + params.b_c)
    o = sigmoid(z @ params.w_o.T + params.b_o)
    c = i * c_tilde + f * c_prev
    h = o * np.tanh(c)
    return h, c, Gates(f=f, i=i, o=o, c_tilde=c_tilde)


@dataclass
class Model:
    """A complete classifier: vocabulary, embeddings, cell parameters,
    and the inference fingerprint (max_len, threshold, version).
    """

    vocab: Vocabulary
    embeddings: EmbeddingMatrix
    params: LstmParams
    max_len: int
    threshold: float = 0.5
    version: int = 1
    metrics_snapshot: dict | None = None

    def __post_init__(self):
        if self.embeddings.vocab_hash != self.vocab.content_hash():
            raise DataError("embedding matrix does not match the vocabulary")
        if self.embeddings.dim != self.params.input_dim:
            raise DataError("embedding dim does not match LSTM input dim")
        if self.embeddings.vocab_size != len(self.vocab):
            raise DataError("embedding row count does not match vocabulary size")

    def copy(self) -> "Model":
        emb = EmbeddingMatrix(
            vectors=self.embeddings.vectors.copy(),
            context_vectors=None,
            dim=self.embeddings.dim,
            vocab_hash=self.embeddings.vocab_hash,
        )
        return Model(
            vocab=self.vocab,
            embeddings=emb,
            params=self.params.copy(),
            max_len=self.max_len,
            threshold=self.threshold,
            version=self.version,
            metrics_snapshot=self.metrics_snapshot,
        )


@dataclass
class BatchCache:
    """Stacked per-step activations for a batch. The gate arrays are
    step-major, shape (T, B, hidden); `hs` and `cs` have T + 1 rows,
    row 0 the zero start state, so `hs[t]`/`cs[t]` feed step t and
    `hs[t + 1]`/`cs[t + 1]` are its outputs.
    """

    id_matrix: np.ndarray
    lengths: np.ndarray
    xs: np.ndarray
    hs: np.ndarray
    cs: np.ndarray
    fs: np.ndarray
    is_: np.ndarray
    os_: np.ndarray
    c_tildes: np.ndarray
    h_final: np.ndarray
    dropout_masks: np.ndarray | None
    h_out: np.ndarray
    ps: np.ndarray


def forward_batch(
    sequences: list[TokenSequence],
    model: Model,
    dropout_masks: np.ndarray | None = None,
) -> tuple[np.ndarray, BatchCache]:
    """Run the cell over the batch from zero state and classify each
    row's hidden state at its own last step. Steps beyond the longest
    row are never run; rows that have ended keep stepping over the PAD
    embedding, but the head never reads those states, so padding cannot
    change a probability. The dropout masks, when given (training
    only), multiply the final hidden states.
    """
    if not sequences:
        raise DataError("empty batch")
    lengths = np.array([s.true_length for s in sequences], dtype=np.int64)
    if (lengths == 0).any():
        raise DataError("cannot run the network on an empty sequence")
    batch = len(sequences)
    t_max = int(lengths.max())
    hsize = model.params.hidden_size
    p = model.params

    id_matrix = np.zeros((batch, t_max), dtype=np.int64)
    for b, seq in enumerate(sequences):
        id_matrix[b, : seq.true_length] = seq.ids[: seq.true_length]

    xs = model.embeddings.vectors[id_matrix]  # (B, T, dim)
    hs = np.zeros((t_max + 1, batch, hsize))
    cs = np.zeros((t_max + 1, batch, hsize))
    fs = np.empty((t_max, batch, hsize))
    is_ = np.empty((t_max, batch, hsize))
    os_ = np.empty((t_max, batch, hsize))
    c_tildes = np.empty((t_max, batch, hsize))
    for t in range(t_max):
        hs[t + 1], cs[t + 1], g = lstm_cell_forward(xs[:, t, :], hs[t], cs[t], p)
        fs[t], is_[t], os_[t], c_tildes[t] = g.f, g.i, g.o, g.c_tilde

    h_final = hs[lengths, np.arange(batch)]
    h_out = h_final if dropout_masks is None else h_final * dropout_masks
    ps = sigmoid(h_out @ p.w_out + p.b_out[0])
    cache = BatchCache(
        id_matrix=id_matrix,
        lengths=lengths,
        xs=xs,
        hs=hs,
        cs=cs,
        fs=fs,
        is_=is_,
        os_=os_,
        c_tildes=c_tildes,
        h_final=h_final,
        dropout_masks=dropout_masks,
        h_out=h_out,
        ps=ps,
    )
    return ps, cache


def sequence_forward(
    seq: TokenSequence, model: Model, dropout_mask: np.ndarray | None = None
) -> tuple[float, BatchCache]:
    """forward_batch on a batch of one: the probability of `seq` and the
    cache of its pass.
    """
    masks = None if dropout_mask is None else dropout_mask[None, :]
    ps, cache = forward_batch([seq], model, masks)
    return float(ps[0]), cache


def predict(
    text: str,
    model: Model,
    threshold: float | None = None,
    cleaning: CleaningConfig = CleaningConfig(),
) -> tuple[int, float]:
    """Full pipeline on one string: clean, segment, encode, forward (no
    dropout). Returns (label, p) with label 1 iff p >= threshold; the
    threshold defaults to the one stored in the model.
    """
    if threshold is None:
        threshold = model.threshold
    cleaned = clean_text(text, cleaning)
    tokens = segment_chars(cleaned)
    if not tokens:
        raise DataError("text is empty after cleaning")
    seq = encode(tokens, model.vocab, model.max_len)
    p, _ = sequence_forward(seq, model)
    return (1 if p >= threshold else 0), p
