"""Independent reference implementations used to cross-check the
package. Everything here is deliberately written in plain Python with
scalar loops and math.*, sharing no code with the library under test.
The Word2Vec step and sampler at the end are row-by-row numpy instead:
they fix the rounding that the vectorized code must reproduce exactly.
"""

from __future__ import annotations

import math

import numpy as np


def sigmoid_ref(z: float) -> float:
    z = max(-30.0, min(30.0, float(z)))
    return 1.0 / (1.0 + math.exp(-z))


def bce_ref(p: float, y: int) -> float:
    p = min(max(float(p), 1e-12), 1.0 - 1e-12)
    return -(y * math.log(p) + (1 - y) * math.log(1.0 - p))


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b, strict=True))


def lstm_sequence_ref(xs, params):
    """Scalar-loop forward pass over a sequence of input vectors.

    xs: list of input vectors (lists of floats), one per time step.
    params: dict with w_f/w_i/w_o/w_c as list-of-rows over the
    concatenated [h_prev, x] vector, b_f/b_i/b_o/b_c, w_out, b_out.
    Returns (h_final, p).
    """
    hsize = len(params["b_f"])
    h = [0.0] * hsize
    c = [0.0] * hsize
    for x in xs:
        z = list(h) + list(x)
        f = [sigmoid_ref(_dot(params["w_f"][j], z) + params["b_f"][j]) for j in range(hsize)]
        i = [sigmoid_ref(_dot(params["w_i"][j], z) + params["b_i"][j]) for j in range(hsize)]
        o = [sigmoid_ref(_dot(params["w_o"][j], z) + params["b_o"][j]) for j in range(hsize)]
        ct = [math.tanh(_dot(params["w_c"][j], z) + params["b_c"][j]) for j in range(hsize)]
        c = [i[j] * ct[j] + f[j] * c[j] for j in range(hsize)]
        h = [o[j] * math.tanh(c[j]) for j in range(hsize)]
    logit = _dot(params["w_out"], h) + params["b_out"][0]
    return h, sigmoid_ref(logit)


def params_to_lists(params) -> dict:
    """Convert an LstmParams-like object to the plain-list layout the
    scalar reference consumes, splitting the stacked gate matrix and
    biases into their f, i, o, c blocks of hidden rows.
    """
    hsize = len(params.w_out)
    out = {"w_out": params.w_out.tolist(), "b_out": params.b_out.tolist()}
    for k, gate in enumerate("fioc"):
        rows = slice(k * hsize, (k + 1) * hsize)
        out[f"w_{gate}"] = params.w_gates[rows].tolist()
        out[f"b_{gate}"] = params.b_gates[rows].tolist()
    return out


def central_difference(loss_fn, array, flat_index: int, step: float = 1e-5) -> float:
    """Two-sided numerical derivative of loss_fn with respect to one
    entry of a numpy array, restoring the entry afterwards.
    """
    flat = array.reshape(-1)
    old = float(flat[flat_index])
    flat[flat_index] = old + step
    up = loss_fn()
    flat[flat_index] = old - step
    down = loss_fn()
    flat[flat_index] = old
    return (up - down) / (2.0 * step)


def relative_error(numeric: float, analytic: float) -> float:
    return abs(numeric - analytic) / max(abs(numeric), 1e-8)


def adam_trace_ref(grads, theta0: float, lr: float, beta1: float, beta2: float, eps: float):
    """Scalar Adam updates computed with plain floats; returns the list
    of parameter values after each step.
    """
    theta = float(theta0)
    m = 0.0
    v = 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        g = float(g)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
        out.append(theta)
    return out


def negative_sampling_loss_ref(h, positive_row, negative_rows) -> float:
    """-ln sigmoid(pos . h) - sum ln sigmoid(-neg . h), scalar loops."""
    loss = -math.log(sigmoid_ref(_dot(positive_row, h)))
    for row in negative_rows:
        loss -= math.log(sigmoid_ref(-_dot(row, h)))
    return loss


def confusion_ref(ps, ys, threshold: float):
    """Brute-force confusion counts; returns (tp, fp, fn, tn)."""
    tp = fp = fn = tn = 0
    for p, y in zip(ps, ys, strict=True):
        pred = 1 if p >= threshold else 0
        if pred == 1 and y == 1:
            tp += 1
        elif pred == 1 and y == 0:
            fp += 1
        elif pred == 0 and y == 1:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def _sigmoid_np(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))


def cbow_step_rowwise_ref(context_ids, center_id, negative_ids, vectors, context_vectors, lr):
    """One negative-sampling SGD step written row by row in numpy, the
    rounding that charsent's vectorized step must reproduce bit for bit:
    h is the mean of the context rows, each score its own dot product,
    dh a running sum, and repeated ids' gradients added in first-seen
    order before one update per row. Updates both matrices in place and
    returns the pre-update loss.
    """
    h = vectors.take(context_ids, axis=0).sum(axis=0) / len(context_ids)
    u_pos = context_vectors[center_id]
    s_pos = _sigmoid_np(u_pos @ h)
    loss = -math.log(max(s_pos, 1e-300))
    g_pos = s_pos - 1.0
    dh = g_pos * u_pos
    out_grads = {center_id: g_pos * h}
    for neg in negative_ids:
        u_neg = context_vectors[neg]
        s_neg = _sigmoid_np(u_neg @ h)
        loss += -math.log(max(1.0 - s_neg, 1e-300))
        dh = dh + s_neg * u_neg
        out_grads[neg] = out_grads[neg] + s_neg * h if neg in out_grads else s_neg * h
    per_context = dh / len(context_ids)
    in_grads = {}
    for cid in context_ids:
        in_grads[cid] = in_grads[cid] + per_context if cid in in_grads else per_context
    for rid, grad in in_grads.items():
        vectors[rid] -= lr * grad
    for rid, grad in out_grads.items():
        context_vectors[rid] -= lr * grad
    return loss


class NegativeSamplerRef:
    """Unigram^(3/4) noise draws, one searchsorted call per round of
    exactly as many uniforms as are still missing, with excluded ids
    dropped and redrawn.
    """

    def __init__(self, counts, rng):
        weights = np.asarray(counts, dtype=np.float64) ** 0.75
        weights[0] = 0.0  # PAD
        cumulative = np.cumsum(weights / weights.sum())
        cumulative[-1] = 1.0
        self.cumulative = cumulative
        self.rng = rng

    def sample(self, k, exclude=()):
        exclude = set(exclude)
        out = []
        while len(out) < k:
            draws = self.cumulative.searchsorted(self.rng.random(k - len(out)), side="right")
            out += [i for i in draws.tolist() if i not in exclude]
        return out


def synthetic_reviews_ref(n, rng, positive_pool, negative_pool, neutral_pool):
    """(text, label) pairs drawn as `generate_corpus` draws them: one
    `rng.choice(p=...)` call per review, after its length, with the
    favored pool at 0.30, the opposing one at 0.10 and the rest neutral;
    reviews alternate positive and negative leaning, and the label is 1
    when positive-pool characters outnumber negative-pool ones.
    """
    def pool(favored, opposing):
        chars = list(favored) + list(opposing) + list(neutral_pool)
        weights = np.concatenate(
            [
                np.full(len(favored), 0.30 / len(favored)),
                np.full(len(opposing), 0.10 / len(opposing)),
                np.full(len(neutral_pool), (1.0 - 0.30 - 0.10) / len(neutral_pool)),
            ]
        )
        return chars, weights / weights.sum()

    leanings = (pool(positive_pool, negative_pool), pool(negative_pool, positive_pool))
    out = []
    for index in range(n):
        chars, weights = leanings[index % 2]
        length = int(rng.integers(10, 61))
        text = "".join(chars[i] for i in rng.choice(len(chars), size=length, p=weights))
        pos = sum(1 for ch in text if ch in positive_pool)
        neg = sum(1 for ch in text if ch in negative_pool)
        out.append((text, 1 if pos > neg else 0))
    return out
