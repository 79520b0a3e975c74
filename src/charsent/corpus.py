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
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import ConfigError, DataError
from .files import located, read_text, write_atomic
from .rng import substream
from .tokenizer import segment_chars

_URL_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*://\S+")
_MENTION_RE = re.compile(r"@\S+")
_WS_RE = re.compile(r"\s+")


@dataclass(frozen=True)
class Review:
    """One review: raw or cleaned text, an optional 0/1 polarity and an
    optional source id. These are the record rules of every corpus file.
    """

    text: str
    label: int | None = None
    source_id: str | None = None

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise DataError(f"text must be a string, not {type(self.text).__name__}")
        if self.label is not None and (type(self.label) is not int or self.label not in (0, 1)):
            raise DataError(f"label must be the integer 0 or 1, got {self.label!r}")
        if self.source_id is not None and not isinstance(self.source_id, str):
            raise DataError(f"source_id must be a string, not {type(self.source_id).__name__}")


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
    """Token -> polarity weight map; unlisted tokens score 0."""

    entries: dict[str, float]

    def __post_init__(self):
        for token, weight in self.entries.items():
            if not math.isfinite(weight):
                raise DataError(f"lexicon weight for {token!r} is not finite")

    def weight(self, token: str) -> float:
        return self.entries.get(token, 0.0)

    def scaled(self, factor: float) -> "PolarityLexicon":
        return PolarityLexicon({t: w * factor for t, w in self.entries.items()})


def _json_lines(path: Path, what: str):
    """(where, parsed value) for each non-blank line of a JSONL file,
    `where` being `path:lineno`. Lines end at LF, CR LF or CR, as in a
    file read in text mode, and not at U+2028 or U+0085.
    """
    content = read_text(path, what)
    for lineno, line in enumerate(io.StringIO(content, newline=None), start=1):
        line = line.strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{where}: invalid JSON ({exc.msg})") from exc
        yield where, record


def load_corpus(path: str | Path) -> Corpus:
    """Load a corpus file: CSV when the suffix is `.csv` in any case,
    JSONL otherwise. One Review per record, file order kept.
    """
    path = Path(path)
    reviews: list[Review] = []
    if path.suffix.lower() != ".csv":
        for where, record in _json_lines(path, "corpus file"):
            with located(where):
                if not isinstance(record, dict) or "text" not in record:
                    raise DataError("record must be an object with a 'text' field")
                reviews.append(Review(record["text"], record.get("label"), record.get("source_id")))
    else:
        reader = csv.DictReader(io.StringIO(read_text(path, "corpus file"), newline=""))
        if reader.fieldnames is None or "text" not in reader.fieldnames:
            raise DataError(f"{path}: CSV header must include a 'text' column")
        for lineno, row in enumerate(reader, start=2):
            label = row.get("label")
            if label in (None, ""):
                label = None
            elif label in ("0", "1"):
                label = int(label)
            source_id = row.get("source_id") or None
            with located(f"{path}:{lineno}"):
                reviews.append(Review(row.get("text"), label, source_id))
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


def split(
    corpus: Corpus, train_frac: float, val_frac: float, seed: int
) -> tuple[Corpus, Corpus, Corpus]:
    """Seeded shuffle-and-partition into train/val/test corpora.

    Sizes are floor(n*train_frac) and floor(n*val_frac); the remainder
    is the test set. The same seed always yields the same partition.
    """
    if not (0 < train_frac and 0 <= val_frac and train_frac + val_frac <= 1):
        raise ConfigError(
            f"invalid split fractions train={train_frac}, val={val_frac}"
        )
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
    """Load a JSONL lexicon of {"token": str, "weight": finite float}."""
    path = Path(path)
    entries: dict[str, float] = {}
    for where, record in _json_lines(path, "lexicon file"):
        if not isinstance(record, dict):
            raise DataError(f"{where}: expected a JSON object, got {type(record).__name__}")
        token = record.get("token")
        weight = record.get("weight")
        if not isinstance(token, str) or isinstance(weight, bool) or not isinstance(
            weight, (int, float)
        ):
            raise DataError(f"{where}: expected fields 'token' (string) and 'weight' (number)")
        if not math.isfinite(weight):
            raise DataError(f"{where}: weight for {token!r} is not finite")
        entries[token] = float(weight)
    return PolarityLexicon(entries)


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
