import pytest

from charsent.errors import ConfigError
from charsent.rng import substream
from charsent.synthetic import (
    MAX_LENGTH,
    MIN_LENGTH,
    NEGATIVE_POOL,
    NEUTRAL_POOL,
    POSITIVE_POOL,
    generate_corpus,
)

from oracles import synthetic_reviews_ref


# n=1, small odd and even sizes, acceptance 06's corpus and the
# benchmark's corpora
@pytest.mark.parametrize(
    "n, seed", [(1, 0), (2, 5), (7, 11), (2000, 42), (3500, 1), (3500, 3), (4000, 2), (4000, 101)]
)
def test_generate_corpus_matches_the_choice_oracle(n, seed):
    corpus = generate_corpus(n, seed)
    expected = synthetic_reviews_ref(
        n, substream(seed, "synthetic"), POSITIVE_POOL, NEGATIVE_POOL, NEUTRAL_POOL
    )
    assert [(r.text, r.label) for r in corpus.reviews] == expected


def test_generate_corpus_lengths_leanings_and_labels():
    positive, negative = set(POSITIVE_POOL), set(NEGATIVE_POOL)
    reviews = generate_corpus(600, seed=9).reviews
    assert len(reviews) == 600
    for index, review in enumerate(reviews):
        assert MIN_LENGTH <= len(review.text) <= MAX_LENGTH
        pos = sum(ch in positive for ch in review.text)
        neg = sum(ch in negative for ch in review.text)
        assert review.label == int(pos > neg)
        assert set(review.text) <= positive | negative | set(NEUTRAL_POOL)
    # leanings alternate, even reviews positive: about 5% of reviews
    # end up labeled against their leaning
    assert sum(r.label for r in reviews[0::2]) >= 0.9 * 300
    assert sum(r.label for r in reviews[1::2]) <= 0.1 * 300


@pytest.mark.parametrize("n", [0, -3, True, False, 2.5, 3.0, "4", None])
def test_generate_corpus_rejects_a_bad_n(n):
    with pytest.raises(ConfigError, match="n must be an integer >= 1"):
        generate_corpus(n, seed=1)
