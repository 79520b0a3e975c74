"""Single-layer LSTM over embedded character sequences with a sigmoid
binary classification head.

Cell equations, with z_t = [h_{t-1}, x_t] (previous hidden state
concatenated before the input, in that order) and the four gates'
weights and biases stacked in one matrix and one vector,
W = [W_f; W_i; W_o; W_c] and b = [b_f; b_i; b_o; b_c]:

    [a_f; a_i; a_o; a_c] = W z_t + b            four blocks of `hidden` rows
    f_t       = sigmoid(a_f)                    forget gate
    i_t       = sigmoid(a_i)                    input gate
    o_t       = sigmoid(a_o)                    output gate
    c_tilde_t = tanh(a_c)                       candidate state
    c_t       = i_t * c_tilde_t + f_t * c_{t-1} cell state
    h_t       = o_t * tanh(c_t)

The head reads the final hidden state: p = sigmoid(w_out . h_T + b_out).
The loss is binary cross-entropy, and backward_batch runs exact BPTT
over the cache forward_batch writes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import clean_text
from .embedding import EmbeddingMatrix
from .errors import ConfigError, DataError
from .numerics import sigmoid
from .rng import substream
from .tokenizer import TokenSequence, Vocabulary, encode, segment_chars

_P_CLAMP = 1e-12

__all__ = [
    "sigmoid",
    "LstmParams",
    "BatchCache",
    "Model",
    "init_lstm_params",
    "lstm_cell_forward",
    "sequence_forward",
    "forward_batch",
    "bce_loss",
    "backward_batch",
    "backward",
    "score_batch",
    "predict",
]


def param_shapes(hidden_size: int, input_dim: int) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter tensor, in the order they are
    serialized and optimized: the gate matrix over [h_prev, x] and the
    gate biases, each stacked f, i, o, c, then the read-out weights and
    bias.
    """
    return {
        "w_gates": (4 * hidden_size, hidden_size + input_dim),
        "b_gates": (4 * hidden_size,),
        "w_out": (hidden_size,),
        "b_out": (1,),
    }


PARAM_NAMES = tuple(param_shapes(1, 1))


@dataclass
class LstmParams:
    """The gate matrix over [h_prev, x], shape (4 hidden, hidden + dim),
    the gate biases (4 hidden,), both stacked f, i, o, c, and the
    classifier read-out.
    """

    w_gates: np.ndarray
    b_gates: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray

    def __post_init__(self):
        if self.w_gates.ndim != 2 or self.hidden_size < 1 or self.input_dim < 1:
            raise DataError(
                f"w_gates shape {self.w_gates.shape} is not (4 hidden, hidden + dim)"
                " with hidden and dim >= 1"
            )
        for name, shape in param_shapes(self.hidden_size, self.input_dim).items():
            if getattr(self, name).shape != shape:
                raise DataError(f"{name} shape mismatch, expected {shape}")
            if not np.isfinite(getattr(self, name)).all():
                raise DataError(f"{name} contains non-finite entries")

    @property
    def hidden_size(self) -> int:
        return self.w_gates.shape[0] // 4

    @property
    def input_dim(self) -> int:
        return self.w_gates.shape[1] - self.hidden_size

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    def copy(self) -> "LstmParams":
        return LstmParams(**{name: getattr(self, name).copy() for name in PARAM_NAMES})


def init_lstm_params(hidden_size: int, input_dim: int, seed: int) -> LstmParams:
    """Glorot-uniform gate weights (each gate's own fan-out), zero
    biases except the forget bias at +1.0 (starts with long memory),
    Glorot read-out.
    """
    if hidden_size < 1:
        raise ConfigError(f"hidden_size must be >= 1, got {hidden_size}")
    if input_dim < 1:
        raise ConfigError(f"input_dim must be >= 1, got {input_dim}")
    rng = substream(seed, "lstm_init")
    fan_in = hidden_size + input_dim
    limit = np.sqrt(6.0 / (fan_in + hidden_size))
    b_gates = np.zeros(4 * hidden_size)
    b_gates[:hidden_size] = 1.0
    return LstmParams(
        w_gates=rng.uniform(-limit, limit, size=(4 * hidden_size, fan_in)),
        b_gates=b_gates,
        w_out=rng.uniform(
            -np.sqrt(6.0 / (hidden_size + 1)), np.sqrt(6.0 / (hidden_size + 1)), size=hidden_size
        ),
        b_out=np.zeros(1),
    )


def lstm_cell_forward(
    x_t: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, params: LstmParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One cell step on one row or on a (B, .) batch of rows; returns
    (h_t, c_t, gates), where gates stacks the activations f, i, o and
    c_tilde on a leading axis of 4, each block shaped like h_t.
    """
    if (
        x_t.shape[-1:] != (params.input_dim,)
        or h_prev.shape[-1:] != (params.hidden_size,)
        or c_prev.shape != h_prev.shape
        or x_t.shape[:-1] != h_prev.shape[:-1]
    ):
        raise DataError("lstm_cell_forward: input shapes do not match params")
    h, c = np.empty(h_prev.shape), np.empty(h_prev.shape)
    gates = np.empty((4,) + h_prev.shape)
    _cell_into(x_t, h_prev, c_prev, params, h, c, gates)
    return h, c, gates


def _cell_into(x_t, h_prev, c_prev, params: LstmParams, h, c, gates) -> None:
    """The cell step of lstm_cell_forward, written into the given float64
    arrays `h`, `c` (shaped like h_prev) and `gates` (4 blocks of that
    shape). Each step is the same IEEE operation as the expression it
    stands for, so the bits do not depend on where the outputs live.
    """
    hsize = params.hidden_size
    z = np.concatenate([h_prev, x_t], axis=-1)
    # one matmul over the gate matrix's four row blocks gives each gate
    # as a contiguous block, gates[k] = z @ W_k.T + b_k, whose elementwise
    # steps run faster than on column slices of a (B, 4 hidden) product
    w = params.w_gates.reshape(4, hsize, -1).swapaxes(1, 2)
    np.matmul(z, w, out=gates)
    gates += params.b_gates.reshape((4,) + (1,) * (z.ndim - 1) + (hsize,))
    sigmoid(gates[:3], out=gates[:3])
    np.tanh(gates[3], out=gates[3])
    f, i, o, c_tilde = gates
    np.multiply(i, c_tilde, out=c)  # c = i * c_tilde + f * c_prev
    c += f * c_prev
    np.multiply(o, np.tanh(c), out=h)


@dataclass
class Model:
    """A complete classifier: vocabulary, embeddings, cell parameters,
    and the inference fingerprint (max_len, threshold).
    """

    vocab: Vocabulary
    embeddings: EmbeddingMatrix
    params: LstmParams
    max_len: int
    threshold: float = 0.5
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
            metrics_snapshot=self.metrics_snapshot,
        )


@dataclass
class BatchCache:
    """Stacked per-step activations for a batch, step-major: `gates`
    has shape (T, 4, B, hidden), f, i, o and c_tilde as the cell
    returns them; `hs` and `cs` have T + 1 rows,
    row 0 the zero start state, so `hs[t]`/`cs[t]` feed step t and
    `hs[t + 1]`/`cs[t + 1]` are its outputs.
    """

    id_matrix: np.ndarray
    lengths: np.ndarray
    xs: np.ndarray
    hs: np.ndarray
    cs: np.ndarray
    gates: np.ndarray
    h_final: np.ndarray
    dropout_masks: np.ndarray | None
    h_out: np.ndarray
    ps: np.ndarray


def _batch_inputs(sequences: list[TokenSequence], model: Model):
    """The (B, T) id matrix of a batch, PAD past each row's end and T its
    longest row, the row lengths and the (B, T, dim) embedded inputs.
    """
    if not sequences:
        raise DataError("empty batch")
    lengths = np.array([s.true_length for s in sequences], dtype=np.int64)
    if (lengths == 0).any():
        raise DataError("cannot run the network on an empty sequence")
    id_matrix = np.zeros((len(sequences), int(lengths.max())), dtype=np.int64)
    for b, seq in enumerate(sequences):
        id_matrix[b, : seq.true_length] = seq.ids[: seq.true_length]
    return id_matrix, lengths, model.embeddings.vectors[id_matrix]


def _run_cell(xs: np.ndarray, lengths: np.ndarray, params: LstmParams, history: int):
    """Step the cell from zero state over the (B, T, dim) inputs `xs`,
    holding `history` time slots of hidden and cell state and
    history - 1 of gates: step t reads state slot t % history, writes
    slot (t + 1) % history and its gates to slot t % (history - 1).
    history = T + 1 keeps every step, as BPTT needs; history = 2 keeps
    only the step in flight. Returns hs, cs, gates and h_final, each
    row's hidden state copied out at its own last step.
    """
    batch, t_max, _ = xs.shape
    hsize = params.hidden_size
    hs = np.zeros((history, batch, hsize))
    cs = np.zeros((history, batch, hsize))
    gates = np.empty((history - 1, 4, batch, hsize))
    h_final = np.empty((batch, hsize))
    ending = {int(t): np.flatnonzero(lengths == t + 1) for t in np.unique(lengths - 1)}
    for t in range(t_max):
        now, nxt = t % history, (t + 1) % history
        _cell_into(xs[:, t, :], hs[now], cs[now], params, hs[nxt], cs[nxt], gates[t % (history - 1)])
        rows = ending.get(t)
        if rows is not None:
            h_final[rows] = hs[nxt][rows]
    return hs, cs, gates, h_final


def forward_batch(
    sequences: list[TokenSequence],
    model: Model,
    dropout_masks: np.ndarray | None = None,
) -> tuple[np.ndarray, BatchCache]:
    """Run the cell over the batch from zero state and classify each
    row's hidden state at its own last step, keeping every step's
    activations for BPTT. Steps beyond the longest row are never run;
    rows that have ended keep stepping over the PAD embedding, but the
    head never reads those states, so padding cannot change a
    probability. The dropout masks, when given (training only),
    multiply the final hidden states.
    """
    id_matrix, lengths, xs = _batch_inputs(sequences, model)
    p = model.params
    hs, cs, gates, h_final = _run_cell(xs, lengths, p, id_matrix.shape[1] + 1)
    h_out = h_final if dropout_masks is None else h_final * dropout_masks
    ps = sigmoid(h_out @ p.w_out + p.b_out[0])
    cache = BatchCache(
        id_matrix=id_matrix,
        lengths=lengths,
        xs=xs,
        hs=hs,
        cs=cs,
        gates=gates,
        h_final=h_final,
        dropout_masks=dropout_masks,
        h_out=h_out,
        ps=ps,
    )
    return ps, cache


def bce_loss(p, y):
    """Binary cross-entropy -[y ln p + (1-y) ln(1-p)], with p clamped
    to [1e-12, 1-1e-12] before the logs. Accepts scalars or arrays,
    elementwise.
    """
    p = np.clip(p, _P_CLAMP, 1.0 - _P_CLAMP)
    return -(y * np.log(p) + (1 - y) * np.log1p(-p))


def backward_batch(cache: BatchCache, ys: np.ndarray, model: Model) -> dict[str, np.ndarray]:
    """Exact gradients of the mean bce_loss over the batch for every
    parameter tensor and for the embedding matrix (nonzero only in the
    rows the batch touched), accumulated backward through all time
    steps. Each row's head gradient enters at that row's own last step,
    so the steps a row ran past its end see zero upstream gradient.
    """
    p = model.params
    hsize = p.hidden_size
    batch = cache.ps.shape[0]
    t_max = cache.gates.shape[0]
    grads = {name: np.zeros_like(t) for name, t in p.tensors().items()}

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
        f, i, o, c_tilde = cache.gates[t]
        tanh_c = np.tanh(cache.cs[t + 1])
        dc_full = dc + dh * o * (1.0 - tanh_c**2)
        # gradients at the gates' pre-activations, stacked f, i, o, c
        d_pre = np.concatenate(
            [
                dc_full * cache.cs[t] * f * (1.0 - f),
                dc_full * c_tilde * i * (1.0 - i),
                dh * tanh_c * o * (1.0 - o),
                dc_full * i * (1.0 - c_tilde**2),
            ],
            axis=1,
        )
        z = np.concatenate([cache.hs[t], cache.xs[:, t, :]], axis=1)
        grads["w_gates"] += d_pre.T @ z
        grads["b_gates"] += d_pre.sum(axis=0)
        dz = d_pre @ p.w_gates
        dxs[:, t, :] = dz[:, hsize:]
        dh = dz[:, :hsize]
        dc = dc_full * f

    grads["embeddings"] = np.zeros_like(model.embeddings.vectors)
    np.add.at(grads["embeddings"], cache.id_matrix, dxs)
    return grads


def backward(cache: BatchCache, y: int, model: Model) -> dict[str, np.ndarray]:
    """backward_batch on a batch of one: the gradients of
    bce_loss(p, y) for the cache of sequence_forward.
    """
    return backward_batch(cache, np.array([float(y)]), model)


def score_batch(sequences: list[TokenSequence], model: Model) -> np.ndarray:
    """The probabilities forward_batch gives without dropout, bit for
    bit, from the same steps holding only the step in flight: two slots
    of hidden and cell state and one of gates, so no BPTT cache is built.
    """
    _, lengths, xs = _batch_inputs(sequences, model)
    p = model.params
    h_final = _run_cell(xs, lengths, p, 2)[3]
    return sigmoid(h_final @ p.w_out + p.b_out[0])


def sequence_forward(seq: TokenSequence, model: Model) -> tuple[float, BatchCache]:
    """forward_batch on a batch of one, without dropout: the probability
    of `seq` and the cache of its pass.
    """
    ps, cache = forward_batch([seq], model)
    return float(ps[0]), cache


def predict(text: str, model: Model, threshold: float | None = None) -> tuple[int, float]:
    """Full pipeline on one string: clean, segment, encode, forward (no
    dropout). Returns (label, p) with label 1 iff p >= threshold; the
    threshold defaults to the one stored in the model.
    """
    if threshold is None:
        threshold = model.threshold
    cleaned = clean_text(text)
    tokens = segment_chars(cleaned)
    if not tokens:
        raise DataError("text is empty after cleaning")
    seq = encode(tokens, model.vocab, model.max_len)
    p, _ = sequence_forward(seq, model)
    return (1 if p >= threshold else 0), p
