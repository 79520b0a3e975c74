"""Character-level Chinese sentiment classification, built from scratch
on numpy: lexicon prelabeling, trainable embeddings, a single-layer
recurrent classifier with gated memory, and a reproducible training
pipeline.
"""

from .corpus import (
    CleaningConfig,
    Corpus,
    PolarityLexicon,
    Review,
    clean_corpus,
    clean_text,
    load_corpus,
    load_lexicon,
    prelabel,
    save_corpus,
    split,
)
from .embedding import (
    EmbeddingMatrix,
    NegativeSampler,
    W2vConfig,
    load_embeddings,
    nearest_neighbors,
    save_embeddings,
    train_embeddings,
)
from .errors import CharsentError, ConfigError, DataError, NumericalError
from .network import (
    LstmParams,
    Model,
    forward_batch,
    init_lstm_params,
    lstm_cell_forward,
    predict,
    sequence_forward,
    sigmoid,
)
from .rng import substream
from .tokenizer import (
    PAD_ID,
    UNK_ID,
    TokenSequence,
    Vocabulary,
    build_vocab,
    decode,
    encode,
    segment_chars,
)
from .training import (
    AdamState,
    Metrics,
    TrainConfig,
    TrainHistory,
    adam_step,
    backward,
    backward_batch,
    bce_loss,
    compute_metrics,
    encode_labeled,
    evaluate,
    load_model,
    save_history,
    save_model,
    train,
)

__version__ = "0.1.0"
