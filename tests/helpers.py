"""Builders shared by test modules; import with `from helpers import ...`."""

import numpy as np

import charsent as cs
from charsent.embedding import init_embedding_matrix


def no_dropout(sequences, model):
    """forward_batch's dropout masks for no dropout: ones, one row per sequence."""
    return np.ones((len(sequences), model.params.hidden_size))


def make_model(vocab, hidden_size=6, dim=8, max_len=60, seed=3, scale=None):
    """Small model with seeded random embeddings; scale bumps the
    embedding magnitudes so gradients are not vanishingly small.
    """
    emb = init_embedding_matrix(vocab, dim=dim, seed=seed)
    if scale is not None:
        rng = np.random.default_rng(seed)
        emb.vectors[1:] = rng.normal(0.0, scale, size=emb.vectors[1:].shape)
    params = cs.init_lstm_params(hidden_size, dim, seed=seed)
    return cs.Model(vocab=vocab, embeddings=emb, params=params, max_len=max_len)
