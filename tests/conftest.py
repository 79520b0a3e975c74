import pytest

import charsent as cs
from charsent.synthetic import generate_corpus

from helpers import make_model


@pytest.fixture(scope="session")
def tiny_corpus():
    return generate_corpus(120, seed=11)


@pytest.fixture(scope="session")
def tiny_vocab(tiny_corpus):
    return cs.build_vocab(tiny_corpus.texts(), min_count=1)


@pytest.fixture()
def tiny_model(tiny_vocab):
    return make_model(tiny_vocab)


@pytest.fixture(scope="session")
def trained_setup():
    """One small end-to-end training run shared across tests that need a
    non-trivial model: 400 synthetic reviews, h=16, d=12.
    """
    corpus = generate_corpus(400, seed=23)
    train_c, val_c, test_c = cs.split(corpus, 0.7, 0.15, seed=23)
    vocab = cs.build_vocab(train_c.texts(), min_count=1)
    w2v = cs.W2vConfig(mode="cbow", window=3, negatives=4, epochs=2, dim=12, seed=23)
    sequences = [
        [vocab.id_for(t) for t in cs.segment_chars(text)] for text in train_c.texts()
    ]
    emb, _ = cs.train_embeddings(sequences, vocab, w2v)
    params = cs.init_lstm_params(16, 12, seed=23)
    model = cs.Model(vocab=vocab, embeddings=emb, params=params, max_len=60)
    train_set = cs.encode_labeled(train_c, vocab, 60)
    val_set = cs.encode_labeled(val_c, vocab, 60)
    test_set = cs.encode_labeled(test_c, vocab, 60)
    cfg = cs.TrainConfig(epochs=8, batch_size=32, dropout_rate=0.2, patience=3, seed=23)
    best, history = cs.train(train_set, val_set, model, cfg)
    return {
        "corpus": corpus,
        "vocab": vocab,
        "model": best,
        "history": history,
        "train_set": train_set,
        "val_set": val_set,
        "test_set": test_set,
        "config": cfg,
    }
