"""Review corpora: loading, cleaning, lexicon pre-labeling, and splitting.

Corpora arrive as files (JSONL or CSV). Labels are optional on load;
the lexicon scorer in `prelabel` can fill them in. Record order is
preserved on load so seeded splits are reproducible.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import re
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import ConfigError, DataError
from .files import check_string, json_lines, located, read_text, write_atomic
from .rng import substream
from .tokenizer import segment_chars

_URL_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*://\S+")
_MENTION_RE = re.compile(r"@\S+")
_WS_RE = re.compile(r"\s+")


@dataclass(frozen=True)
class Review:
    """One review: raw or cleaned text, an optional 0/1 polarity and an
    optional source id. These are the record rules of every corpus file.
    The text and the source id must be valid Unicode: a lone surrogate,
    which a JSON `\\ud800` escape gives, cannot be written as UTF-8.
    """

    text: str
    label: int | None = None
    source_id: str | None = None

    def __post_init__(self):
        check_string("text", self.text)
        if self.label is not None and (type(self.label) is not int or self.label not in (0, 1)):
            raise DataError(f"label must be the integer 0 or 1, got {self.label!r}")
        if self.source_id is not None:
            check_string("source_id", self.source_id)


@dataclass
class Corpus:
    reviews: list[Review] = field(default_factory=list)
    name: str = ""

    def __len__(self) -> int:
        return len(self.reviews)

    def texts(self) -> list[str]:
        return [r.text for r in self.reviews]


@dataclass(frozen=True)
class PolarityLexicon:
    """Token -> polarity weight map, unlisted tokens scoring 0, from a dict
    or (token, weight) pairs, the last pair for a token winning.
    """

    entries: dict[str, float]

    def __post_init__(self):
        pairs = self.entries.items() if isinstance(self.entries, dict) else self.entries
        checked = {}
        for token, weight in pairs:
            if not isinstance(token, str):
                raise DataError(f"lexicon token must be a string, not {type(token).__name__}")
            # compared, not converted: float() takes a bool, and overflows on a huge int
            finite = isinstance(weight, numbers.Real) and abs(weight) <= sys.float_info.max
            if isinstance(weight, bool) or not finite:
                raise DataError(f"lexicon weight for {token!r} is not a finite number")
            checked[token] = float(weight)
        object.__setattr__(self, "entries", checked)

    def weight(self, token: str) -> float:
        return self.entries.get(token, 0.0)


def load_corpus(path: str | Path) -> Corpus:
    """Load a corpus file: CSV when the suffix is `.csv` in any case,
    JSONL otherwise. One Review per record, file order kept.
    """
    path = Path(path)
    reviews: list[Review] = []
    if path.suffix.lower() != ".csv":
        for where, record in json_lines(path, "corpus file"):
            with located(where):
                if not isinstance(record, dict) or "text" not in record:
                    raise DataError("record must be an object with a 'text' field")
                reviews.append(Review(record["text"], record.get("label"), record.get("source_id")))
    else:
        reader = csv.reader(io.StringIO(read_text(path, "corpus file"), newline=""))
        try:
            header = next(reader, [])
            if "text" not in header:
                raise DataError(f"{path}: CSV header must include a 'text' column")
            # a record is named by its first line; a quoted field may span several
            lineno = reader.line_num + 1
            for fields in reader:
                if fields:  # a blank line holds no record
                    row = dict(zip(header, fields))
                    label = row.get("label")
                    if label in (None, ""):
                        label = None
                    elif label in ("0", "1"):
                        label = int(label)
                    source_id = row.get("source_id") or None
                    with located(f"{path}:{lineno}"):
                        if len(fields) > len(header):  # an unquoted comma, say
                            raise DataError(f"{len(fields)} fields, but the header names {len(header)}")
                        reviews.append(Review(row.get("text"), label, source_id))
                lineno = reader.line_num + 1
        except csv.Error as exc:  # a field longer than csv.field_size_limit()
            raise DataError(f"{path}:{reader.line_num}: malformed CSV ({exc})") from exc
    return Corpus(reviews=reviews, name=path.stem)


def clean_text(raw: str) -> str:
    """Strip URLs, then @-mentions, then '#' marks; collapse whitespace
    runs to single spaces and trim. Total and idempotent.
    """
    text = _MENTION_RE.sub(" ", _URL_RE.sub(" ", raw)).replace("#", "")
    return _WS_RE.sub(" ", text).strip()


def clean_corpus(corpus: Corpus) -> tuple[Corpus, int]:
    """Clean every review; drop those whose text cleans to empty.

    Returns the cleaned corpus and the dropped-review count (real feeds
    contain media-only posts, so this is a warning condition, not an error).
    """
    kept: list[Review] = []
    dropped = 0
    for review in corpus.reviews:
        cleaned = clean_text(review.text)
        if cleaned:
            kept.append(replace(review, text=cleaned))
        else:
            dropped += 1
    return Corpus(reviews=kept, name=corpus.name), dropped


def prelabel(text: str, lexicon: PolarityLexicon) -> tuple[int, float]:
    """Score cleaned text by summed per-character lexicon weights.

    Returns (label, score) with label 1 iff score >= 0. The tie at
    exactly 0 goes to positive; flip downstream if your domain differs.
    """
    score = 0.0
    for token in segment_chars(text):
        score += lexicon.weight(token)
    return (1 if score >= 0 else 0), score


def check_split_fractions(train_frac: float, val_frac: float) -> None:
    """Raise ConfigError unless train_frac > 0, val_frac >= 0 and their
    sum is at most 1; the rule of `split` and of the config's split section.
    """
    if not (0 < train_frac and 0 <= val_frac and train_frac + val_frac <= 1):
        raise ConfigError(
            "train_frac must be > 0 and val_frac >= 0, summing to at most 1, "
            f"got train_frac={train_frac}, val_frac={val_frac}"
        )


def split(
    corpus: Corpus, train_frac: float, val_frac: float, seed: int
) -> tuple[Corpus, Corpus, Corpus]:
    """Seeded shuffle-and-partition into train/val/test corpora.

    Sizes are floor(n*train_frac) and floor(n*val_frac); the remainder
    is the test set. The same seed always yields the same partition.
    """
    check_split_fractions(train_frac, val_frac)
    n = len(corpus)
    order = substream(seed, "split").permutation(n)
    n_train = math.floor(n * train_frac)
    n_val = math.floor(n * val_frac)
    picks = [corpus.reviews[i] for i in order]
    return (
        Corpus(picks[:n_train], name=f"{corpus.name}.train"),
        Corpus(picks[n_train : n_train + n_val], name=f"{corpus.name}.val"),
        Corpus(picks[n_train + n_val :], name=f"{corpus.name}.test"),
    )


def load_lexicon(path: str | Path) -> PolarityLexicon:
    """Load a JSONL lexicon: one {"token": ..., "weight": ...} object per line."""
    path = Path(path)
    pairs = []
    for where, record in json_lines(path, "lexicon file"):
        with located(where):
            if not (isinstance(record, dict) and {"token", "weight"} <= record.keys()):
                raise DataError("expected a JSON object with fields 'token' and 'weight'")
        pairs.append((record["token"], record["weight"]))
    with located(path):
        return PolarityLexicon(pairs)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus as JSONL (text, label and source_id when present).
    A `.csv` path, which load_corpus would read as CSV, raises ConfigError.
    """
    if Path(path).suffix.lower() == ".csv":
        raise ConfigError(f"{path}: corpora are written as JSONL; use a suffix other than .csv")
    lines = []
    for review in corpus.reviews:
        record: dict = {"text": review.text}
        if review.label is not None:
            record["label"] = review.label
        if review.source_id is not None:
            record["source_id"] = review.source_id
        lines.append(json.dumps(record, ensure_ascii=False) + "\n")
    write_atomic(path, "".join(lines).encode("utf-8"))


def sample_lexicon_path() -> Path:
    """Path of the small bundled lexicon used in tests and demos."""
    return Path(__file__).parent / "data" / "sample_lexicon.jsonl"
