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

The head reads each row's hidden state at its own last step:
p = sigmoid((h_T * w_out).sum() + b_out), summed within the row, so a
row's probability does not depend on its position in the batch.

A batch runs sorted by length, descending and stable, and step t steps
only the n_t rows still running, in the forward pass and in BPTT; the
head puts the rows back in input order. The loss is binary
cross-entropy, and backward_batch runs exact BPTT over the cache
forward_batch writes. Only the recurrence through the hidden-state
columns of W stays in its time loop. After the loop, one product over
all steps' rows gives each of W's column blocks (hidden, input) and the
input gradient, and one sum the gradient of b. BPTT writes those rows
into the cache's gate and input arrays, so it consumes the cache. The
two weight products also run over zero rows that pad the step rows to a
multiple of 32, so their bits do not depend on the BLAS thread count.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from itertools import chain

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


def threshold_ok(value) -> bool:
    """Whether `value` can serve as a decision threshold: a real number,
    not a bool, in [0, 1] (so not NaN).
    """
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and 0 <= value <= 1


@dataclass(frozen=True)
class Model:
    """A complete classifier: vocabulary, embeddings, cell parameters,
    and the inference fingerprint (max_len, threshold). It is frozen, so
    the checks of __post_init__ hold for its whole life, and
    dataclasses.replace makes a changed copy; the arrays inside stay
    writable, and training updates them in place.

    `metrics_snapshot`, when set, is train's validation report
    (Metrics.to_dict) for these float64 weights at the best epoch.
    save_model stores the weights as float32, so a reloaded model's
    scores differ from it in the last digits: on acceptance criterion
    06's pipeline the reloaded validation loss reads 0.12600355 against
    the snapshot's 0.12600353.
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
        if type(self.max_len) is not int or self.max_len < 1:
            raise DataError(f"max_len must be an integer >= 1, got {self.max_len!r}")
        if not threshold_ok(self.threshold):
            raise DataError(f"threshold must be a number in [0, 1], got {self.threshold!r}")
        snapshot = self.metrics_snapshot
        if snapshot is not None and not isinstance(snapshot, dict):
            raise DataError(f"metrics_snapshot must be a dict or None, got {snapshot!r}")

    def copy(self) -> "Model":
        emb = EmbeddingMatrix(
            vectors=self.embeddings.vectors.copy(),
            context_vectors=None,
            vocab_hash=self.embeddings.vocab_hash,
        )
        return replace(self, embeddings=emb, params=self.params.copy())


# OpenBLAS 0.3.31 (Haswell kernels) splits a product's inner dimension
# among its threads so that the rounding depends on the thread count
# unless that dimension is a multiple of 32. Swept over K = 8..4192 at
# h=32, d=16 and h=128, d=64, such K never differed between one and two
# threads, other K from about 392 up mostly did, and zero rows appended
# up to the next multiple never did. BPTT's two hoisted products run
# over a batch's T B step rows, so the inputs, hidden states and gates
# are row arrays padded with zero rows to that multiple.
_ROW_MULTIPLE = 32


def _zero_rows(rows: int, width: int) -> np.ndarray:
    """A zero (R, width) array, R the least multiple of _ROW_MULTIPLE
    not below `rows`.
    """
    return np.zeros((-(-rows // _ROW_MULTIPLE) * _ROW_MULTIPLE, width))


def _by_step(rows: np.ndarray, *shape: int) -> np.ndarray:
    """The leading rows of the row array `rows` seen as `shape`, step
    slot first: the same memory, not a copy.
    """
    return rows.reshape(-1)[: math.prod(shape)].reshape(shape)


@dataclass
class BatchCache:
    """One forward_batch pass, laid out for BPTT. The rows are sorted by
    length, descending and stable: sorted row k is input row order[k],
    and step t ran only the first n_t rows, those with length > t.
    `ids` (T, B) is time-major. `x_rows` and `h_rows` hold the inputs
    and hidden states as rows of width dim and hidden, row t B + k for
    sorted row k at step t, then zero rows up to a multiple of
    _ROW_MULTIPLE. `gate_rows` has rows of width 4 hidden, padded alike,
    and step t owns its B rows from t B: the forward pass fills that
    block gate-major, as (4, B, hidden), and only BPTT writes row t B + k
    as sorted row k's gate gradients, stacked f, i, o, c. `xs` (T, B,
    dim), `hs` (T + 1, B, hidden) and `gates` (T, 4, B, hidden) show the
    same memory by step.
    `hs` and `cs` have T + 1 slots, slot 0 the zero start state, so
    `hs[t]`/`cs[t]` feed step t and `hs[t + 1]`/`cs[t + 1]` are its
    outputs; `gates` holds f, i, o and c_tilde as the cell returns them.
    Only a step's live rows are written: the state and gate rows of a
    row past its end stay zero. `dropout_masks`, `h_out` (the final
    hidden states times the masks) and `ps` are in input order.
    backward_batch overwrites the gates and inputs with their gradients,
    zeroes the last hidden-state slot and marks the cache spent.
    """

    order: np.ndarray
    lengths: np.ndarray
    ids: np.ndarray
    x_rows: np.ndarray
    h_rows: np.ndarray
    cs: np.ndarray
    gate_rows: np.ndarray
    dropout_masks: np.ndarray | None
    h_out: np.ndarray
    ps: np.ndarray
    spent: bool = False

    @property
    def xs(self) -> np.ndarray:
        return _by_step(self.x_rows, *self.ids.shape, self.x_rows.shape[1])

    @property
    def hs(self) -> np.ndarray:
        return _by_step(self.h_rows, *self.cs.shape)

    @property
    def gates(self) -> np.ndarray:
        t_max, batch = self.ids.shape
        return _by_step(self.gate_rows, t_max, 4, batch, self.cs.shape[2])


def _batch_inputs(sequences: list[TokenSequence], model: Model):
    """Sort a batch by length, descending and stable. Returns the sort
    order (input positions of the sorted rows), the sorted lengths, the
    (T, B) time-major id matrix of the sorted rows, PAD past each row's
    end and T its longest row, and the embedded inputs as rows (see
    BatchCache's `x_rows`).
    """
    if not sequences:
        raise DataError("empty batch")
    lengths = np.array([s.true_length for s in sequences], dtype=np.int64)
    if (lengths == 0).any():
        raise DataError("cannot run the network on an empty sequence")
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    ids = np.zeros((int(lengths[0]), len(sequences)), dtype=np.int64)
    # ids.T is (B, T), so the mask takes sorted row k's first lengths[k] slots, in order
    flat = chain.from_iterable(sequences[b].ids for b in order)
    ids.T[np.arange(len(ids)) < lengths[:, None]] = np.fromiter(flat, np.int64, int(lengths.sum()))
    x_rows = _zero_rows(ids.size, model.embeddings.dim)
    x_rows[: ids.size] = model.embeddings.vectors[ids.ravel()]
    return order, lengths, ids, x_rows


def _live_rows(lengths: np.ndarray) -> np.ndarray:
    """n_t for t = 0..T, the count of rows of length > t, from lengths
    sorted in descending order; n_T = 0.
    """
    t_max = int(lengths[0])
    return len(lengths) - np.cumsum(np.bincount(lengths, minlength=t_max + 1))


def _run_cell(
    x_rows: np.ndarray, lengths: np.ndarray, order: np.ndarray, params: LstmParams, history: int
):
    """Step the cell from zero state over the inputs `x_rows` (as in
    BatchCache) of rows sorted by `lengths`, descending, where sorted
    row k is input row order[k]; step t runs only the first n_t rows,
    those still going. Holds `history` time slots of
    hidden and cell state and history - 1 of gates: step t reads state
    slot t % history, writes slot (t + 1) % history and its gates to
    slot t % (history - 1). history = T + 1 keeps every step, as BPTT
    needs; history = 2 keeps only the step in flight. Returns h_rows, cs
    and gate_rows (as in BatchCache) in sorted order, and h_final in
    input order, each row's hidden state copied out at its own last step.
    """
    t_max, batch = int(lengths[0]), len(lengths)
    hsize = params.hidden_size
    live = _live_rows(lengths)
    xs = _by_step(x_rows, t_max, batch, params.input_dim)
    h_rows = _zero_rows(history * batch, hsize)
    gate_rows = _zero_rows((history - 1) * batch, 4 * hsize)
    hs = _by_step(h_rows, history, batch, hsize)
    cs = np.zeros((history, batch, hsize))
    gates = _by_step(gate_rows, history - 1, 4, batch, hsize)
    h_final = np.empty((batch, hsize))
    for t in range(t_max):
        now, nxt, n = t % history, (t + 1) % history, live[t]
        _cell_into(
            xs[t, :n], hs[now, :n], cs[now, :n], params, hs[nxt, :n], cs[nxt, :n],
            gates[t % (history - 1), :, :n],
        )
        h_final[order[live[t + 1] : n]] = hs[nxt, live[t + 1] : n]
    return h_rows, cs, gate_rows, h_final


def _head(h_out: np.ndarray, params: LstmParams) -> np.ndarray:
    """The read-out sigmoid(w_out . h + b_out) of each row, summed within
    the row so that no row's bits depend on its position in the batch.
    """
    return sigmoid((h_out * params.w_out).sum(axis=1) + params.b_out[0])


def forward_batch(
    sequences: list[TokenSequence],
    model: Model,
    dropout_masks: np.ndarray | None = None,
) -> tuple[np.ndarray, BatchCache]:
    """Run the cell over the batch from zero state and classify each
    row's hidden state at its own last step, keeping every step's
    activations for BPTT. The rows run sorted by length, and each step
    runs only the rows that have not ended, so padding is never stepped
    and cannot change a probability; the head reads the rows back in
    input order, and a row's probability does not depend on where it
    sits in the batch. The dropout masks, when given (training only),
    multiply the final hidden states.
    """
    order, lengths, ids, x_rows = _batch_inputs(sequences, model)
    p = model.params
    h_rows, cs, gate_rows, h_final = _run_cell(x_rows, lengths, order, p, ids.shape[0] + 1)
    h_out = h_final if dropout_masks is None else h_final * dropout_masks
    ps = _head(h_out, p)
    cache = BatchCache(
        order=order,
        lengths=lengths,
        ids=ids,
        x_rows=x_rows,
        h_rows=h_rows,
        cs=cs,
        gate_rows=gate_rows,
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
    and step t runs back only its n_t live rows.

    Only the recurrence through the hidden-state block of the gate
    matrix stays in the time loop. Step t's gradients at the gates'
    pre-activations, (B, 4 hidden) rows stacked f, i, o, c with zeros
    for the rows that did not run, overwrite its spent gate slot; after
    the loop one product each over all steps' rows gives the gate
    matrix's hidden and input columns, one sum the gate biases and one
    product the input gradients, which overwrite the spent inputs. The
    cache is spent: a second call raises DataError.
    """
    if cache.spent:
        raise DataError("backward_batch: this cache was already consumed by BPTT")
    cache.spent = True
    p = model.params
    hsize = p.hidden_size
    t_max, batch = cache.ids.shape
    gates = cache.gates
    grads = {name: np.zeros_like(t) for name, t in p.tensors().items()}

    dlogits = (cache.ps - ys) / batch
    grads["w_out"] += cache.h_out.T @ dlogits
    grads["b_out"] += dlogits.sum()
    dh_head = dlogits[:, None] * p.w_out[None, :]
    if cache.dropout_masks is not None:
        dh_head = dh_head * cache.dropout_masks
    dh_head = dh_head[cache.order]
    live = _live_rows(cache.lengths)
    w_h = p.w_gates[:, :hsize]
    dh = np.zeros((batch, hsize))
    dc = np.zeros((batch, hsize))
    work = np.empty((batch, 4 * hsize))

    for t in range(t_max - 1, -1, -1):
        n, ended = live[t], slice(live[t + 1], live[t])
        dh[ended] = dh_head[ended]
        f, i, o, c_tilde = gates[t, :, :n]
        tanh_c = np.tanh(cache.cs[t + 1, :n])
        dc_full = dc[:n] + dh[:n] * o * (1.0 - tanh_c**2)
        d_pre = work[:n]
        np.multiply(dc_full * cache.cs[t, :n] * f, 1.0 - f, out=d_pre[:, :hsize])
        np.multiply(dc_full * c_tilde * i, 1.0 - i, out=d_pre[:, hsize : 2 * hsize])
        np.multiply(dh[:n] * tanh_c * o, 1.0 - o, out=d_pre[:, 2 * hsize : 3 * hsize])
        np.multiply(dc_full * i, 1.0 - c_tilde**2, out=d_pre[:, 3 * hsize :])
        np.multiply(dc_full, f, out=dc[:n])
        slot = cache.gate_rows[t * batch : (t + 1) * batch]
        slot[:n] = d_pre
        slot[n:] = 0.0
        np.matmul(d_pre, w_h, out=dh[:n])

    # The zero rows of the rows that did not run add exact zeros below,
    # since the states and inputs they meet are finite. The two products
    # also run over the zero rows past T B (_ROW_MULTIPLE), which reach
    # into the final states' slot, read by no step; it is zeroed first.
    rows = t_max * batch
    d_pres = cache.gate_rows
    cache.h_rows[rows : rows + batch] = 0.0
    grads["w_gates"][:, :hsize] = d_pres.T @ cache.h_rows[: len(d_pres)]
    grads["w_gates"][:, hsize:] = d_pres.T @ cache.x_rows
    grads["b_gates"] += d_pres[:rows].sum(axis=0)
    np.matmul(d_pres[:rows], p.w_gates[:, hsize:], out=cache.x_rows[:rows])
    grads["embeddings"] = np.zeros_like(model.embeddings.vectors)
    np.add.at(grads["embeddings"], cache.ids, cache.xs)
    return grads


def backward(cache: BatchCache, y: int, model: Model) -> dict[str, np.ndarray]:
    """backward_batch on a batch of one: the gradients of
    bce_loss(p, y) for the cache of sequence_forward.
    """
    return backward_batch(cache, np.array([float(y)]), model)


def score_batch(sequences: list[TokenSequence], model: Model) -> np.ndarray:
    """The probabilities forward_batch gives without dropout, bit for
    bit, in input order, from the same steps over the same length-sorted
    live rows, holding only the step in flight: two slots of hidden and
    cell state and one of gates, so no BPTT cache is built.
    """
    order, lengths, _, x_rows = _batch_inputs(sequences, model)
    return _head(_run_cell(x_rows, lengths, order, model.params, 2)[3], model.params)


def sequence_forward(seq: TokenSequence, model: Model) -> tuple[float, BatchCache]:
    """forward_batch on a batch of one, without dropout: the probability
    of `seq` and the cache of its pass.
    """
    ps, cache = forward_batch([seq], model)
    return float(ps[0]), cache


def predict(text: str, model: Model, threshold: float | None = None) -> tuple[int, float]:
    """Full pipeline on one string: clean, segment, encode, forward (no
    dropout). Returns (label, p) with label 1 iff p >= threshold, by
    default the model's; one outside [0, 1] raises ConfigError.
    """
    if threshold is None:
        threshold = model.threshold
    if not threshold_ok(threshold):
        raise ConfigError(f"threshold must be a number in [0, 1], got {threshold!r}")
    cleaned = clean_text(text)
    tokens = segment_chars(cleaned)
    if not tokens:
        raise DataError("text is empty after cleaning")
    seq = encode(tokens, model.vocab, model.max_len)
    p, _ = sequence_forward(seq, model)
    return (1 if p >= threshold else 0), p
