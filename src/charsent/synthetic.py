"""Seeded synthetic review generator for experiments and self-checks.

Reviews are random character strings drawn from three pools. A
positive-leaning review samples mostly neutral characters with an
excess of positive ones, a negative-leaning review mirrors that, and
the label records which evidence pool actually won in the sampled text,
so the mapping from text to label is exact and learnable.
"""

from __future__ import annotations

import numpy as np

from .corpus import Corpus, Review
from .errors import ConfigError
from .rng import substream

POSITIVE_POOL = tuple("好棒佳优美乐喜爱赞妙欣悦良善誉馨快旺兴福")
NEGATIVE_POOL = tuple("坏差劣糟怒哀恨厌恶弊愁忧苦悲祸臭烂败衰危")
NEUTRAL_POOL = tuple("的一是在不了有和人这中大为上个国我以要他时来用们生到作地于出就分对成会可主发年动")

MIN_LENGTH = 10
MAX_LENGTH = 60
_EVIDENCE_RATE = 0.30  # favored pool
_COUNTER_RATE = 0.10  # opposing pool


def _cumulative(favored: tuple, opposing: tuple) -> np.ndarray:
    """The cumulative table of a leaning's characters (favored pool,
    opposing pool, neutral pool), normalised as `Generator.choice(p=...)`
    normalises `p`, so searching it with the same uniforms draws the
    same indices as `choice` would.
    """
    neutral_rate = 1.0 - _EVIDENCE_RATE - _COUNTER_RATE
    weights = np.concatenate(
        [
            np.full(len(favored), _EVIDENCE_RATE / len(favored)),
            np.full(len(opposing), _COUNTER_RATE / len(opposing)),
            np.full(len(NEUTRAL_POOL), neutral_rate / len(NEUTRAL_POOL)),
        ]
    )
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


# Each leaning's characters, its favored pool first, their polarity (+1
# for the positive pool, -1 for the negative pool, 0 for neutral) and
# their cumulative table.
_CHARS = (
    POSITIVE_POOL + NEGATIVE_POOL + NEUTRAL_POOL,
    NEGATIVE_POOL + POSITIVE_POOL + NEUTRAL_POOL,
)
_CODES = np.array([[ord(c) for c in chars] for chars in _CHARS], dtype="<u4")
_POLARITY = np.array(
    [[(c in POSITIVE_POOL) - (c in NEGATIVE_POOL) for c in chars] for chars in _CHARS], dtype=np.int8
)
_CDFS = (_cumulative(POSITIVE_POOL, NEGATIVE_POOL), _cumulative(NEGATIVE_POOL, POSITIVE_POOL))


def generate_corpus(n: int, seed: int, name: str = "synthetic") -> Corpus:
    """n seeded reviews, alternating positive and negative leaning.

    Each review draws its length with one `integers` call, then one
    uniform per character, searched in its leaning's cumulative table.
    These draws are the seed contract: changing them changes every
    seeded corpus.

    The label is 1 exactly when the sampled text contains strictly more
    positive-pool than negative-pool characters, so roughly 5% of
    reviews end up labeled against their leaning and the class balance
    stays near even.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ConfigError(f"n must be an integer >= 1, got {n!r}")
    rng = substream(seed, "synthetic")
    drawn = np.empty(n * MAX_LENGTH, dtype=np.uint8)
    bounds = [0]
    for index in range(n):
        length = int(rng.integers(MIN_LENGTH, MAX_LENGTH + 1))
        start = bounds[-1]
        drawn[start : start + length] = _CDFS[index % 2].searchsorted(rng.random(length), side="right")
        bounds.append(start + length)
    drawn = drawn[: bounds[-1]]
    leaning = np.repeat((np.arange(n) % 2).astype(np.uint8), np.diff(bounds))
    balance = np.add.reduceat(_POLARITY[leaning, drawn], bounds[:-1], dtype=np.int64).tolist()
    text = _CODES[leaning, drawn].tobytes().decode("utf-32-le")
    reviews = [
        Review(text=text[a:b], label=int(p > 0)) for a, b, p in zip(bounds, bounds[1:], balance)
    ]
    return Corpus(reviews=reviews, name=name)
