"""Review corpora: loading, cleaning, lexicon pre-labeling, and splitting.

Corpora arrive as files (JSONL or CSV). Labels are optional on load;
the lexicon scorer in `prelabel` can fill them in. Record order is
preserved on load so seeded splits are reproducible.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import ConfigError, DataError
from .rng import substream
from .tokenizer import segment_chars

_URL_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*://\S+")
_MENTION_RE = re.compile(r"@\S+")
_WS_RE = re.compile(r"\s+")


@dataclass(frozen=True)
class Review:
    """One review: raw or cleaned text plus an optional 0/1 polarity."""

    text: str
    label: int | None = None
    source_id: str | None = None

    def __post_init__(self):
        if self.label is not None and self.label not in (0, 1):
            raise DataError(f"label must be 0 or 1, got {self.label!r}")


@dataclass
class Corpus:
    reviews: list[Review] = field(default_factory=list)
    name: str = ""

    def __len__(self) -> int:
        return len(self.reviews)

    def __iter__(self):
        return iter(self.reviews)

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


@dataclass(frozen=True)
class CleaningConfig:
    """Which cleaning rules to apply; all on by default."""

    strip_urls: bool = True
    strip_mentions: bool = True
    strip_hashtag_marks: bool = True


def _parse_label(value, where: str) -> int | None:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataError(f"{where}: label must be an integer 0 or 1, got {value!r}")
    if value not in (0, 1):
        raise DataError(f"{where}: label must be 0 or 1, got {value}")
    return value


def load_corpus(path: str | Path, format: str | None = None) -> Corpus:
    """Load a corpus file in `format` ('jsonl' or 'csv'; inferred from
    the suffix when omitted). One Review per record, file order kept.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"corpus file not found: {path}")
    if format is None:
        format = "csv" if path.suffix.lower() == ".csv" else "jsonl"
    if format not in ("jsonl", "csv"):
        raise ConfigError(f"unknown corpus format {format!r}")

    reviews: list[Review] = []
    if format == "jsonl":
        with path.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                where = f"{path}:{lineno}"
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataError(f"{where}: invalid JSON ({exc.msg})") from exc
                if not isinstance(record, dict) or "text" not in record:
                    raise DataError(f"{where}: record must be an object with a 'text' field")
                text = record["text"]
                if not isinstance(text, str):
                    raise DataError(f"{where}: 'text' must be a string")
                label = _parse_label(record.get("label"), where)
                source_id = record.get("source_id")
                if source_id is not None and not isinstance(source_id, str):
                    raise DataError(f"{where}: 'source_id' must be a string")
                reviews.append(Review(text=text, label=label, source_id=source_id))
    else:
        with path.open(encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "text" not in reader.fieldnames:
                raise DataError(f"{path}: CSV header must include a 'text' column")
            for lineno, row in enumerate(reader, start=2):
                where = f"{path}:{lineno}"
                text = row.get("text")
                if text is None:
                    raise DataError(f"{where}: missing 'text' value")
                raw_label = row.get("label")
                if raw_label in (None, ""):
                    label = None
                elif raw_label in ("0", "1"):
                    label = int(raw_label)
                else:
                    raise DataError(f"{where}: label must be 0 or 1, got {raw_label!r}")
                source_id = row.get("source_id") or None
                reviews.append(Review(text=text, label=label, source_id=source_id))
    return Corpus(reviews=reviews, name=path.stem)


def clean_text(raw: str, rules: CleaningConfig = CleaningConfig()) -> str:
    """Strip URLs, @-mentions, and '#' marks per `rules`; collapse
    whitespace runs to single spaces and trim. Total and idempotent.
    """
    text = raw
    if rules.strip_urls:
        text = _URL_RE.sub(" ", text)
    if rules.strip_mentions:
        text = _MENTION_RE.sub(" ", text)
    if rules.strip_hashtag_marks:
        text = text.replace("#", "")
    return _WS_RE.sub(" ", text).strip()


def clean_corpus(
    corpus: Corpus, rules: CleaningConfig = CleaningConfig()
) -> tuple[Corpus, int]:
    """Clean every review; drop those whose text cleans to empty.

    Returns the cleaned corpus and the dropped-review count (real feeds
    contain media-only posts, so this is a warning condition, not an error).
    """
    kept: list[Review] = []
    dropped = 0
    for review in corpus.reviews:
        cleaned = clean_text(review.text, rules)
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
    if not path.exists():
        raise DataError(f"lexicon file not found: {path}")
    entries: dict[str, float] = {}
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{where}: invalid JSON ({exc.msg})") from exc
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
    """Write a corpus as JSONL (text, label when present, source_id when present)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for review in corpus.reviews:
            record: dict = {"text": review.text}
            if review.label is not None:
                record["label"] = review.label
            if review.source_id is not None:
                record["source_id"] = review.source_id
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def sample_lexicon_path() -> Path:
    """Path of the small bundled lexicon used in tests and demos."""
    return Path(__file__).parent / "data" / "sample_lexicon.jsonl"
