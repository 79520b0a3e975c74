"""Character-level segmentation, vocabulary building, and integer encoding.

Chinese text is split into single Unicode scalar values (no word
segmentation); digits, Latin letters, punctuation, and emoji all pass
through as one-codepoint tokens, whitespace is dropped. Multi-codepoint
grapheme clusters are split, a documented limitation for some emoji.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

from .errors import ConfigError, DataError
from .files import check_string, located, parse_json, read_text, write_atomic

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"


def segment_chars(text: str) -> list[str]:
    """One token per Unicode scalar value, in order, whitespace dropped.

    `str.split()` splits on exactly the code points for which
    `str.isspace()` holds, so joining its pieces drops those and no
    others.
    """
    return list("".join(text.split()))


@dataclass(frozen=True)
class Vocabulary:
    """What vocab.json holds: the real tokens, which get ids 2.. in
    order, and the min_count they were kept at. PAD=0 and UNK=1 are
    always present. DataError unless min_count is an integer >= 1 and
    the tokens are a list or tuple of distinct strings that UTF-8 can
    encode (vocab.json and a W2V1 file hold them as UTF-8), not PAD or
    UNK, that hold no whitespace (segment_chars drops it, and a W2V1
    row's token ends at its first space).

    build_vocab orders the tokens by descending corpus frequency, ties
    broken by codepoint order, so a rebuild from the same corpus is
    always identical.
    """

    tokens: tuple[str, ...]
    min_count: int
    id_to_token: tuple[str, ...] = field(init=False, repr=False, compare=False)
    token_to_id: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        min_count = self.min_count
        if type(min_count) is not int or min_count < 1:
            raise DataError(f"vocabulary 'min_count' must be an integer >= 1, got {min_count!r}")
        if not isinstance(self.tokens, (list, tuple)):
            raise DataError("vocabulary 'tokens' must be a list")
        tokens = tuple(self.tokens)
        if not all(isinstance(t, str) for t in tokens):
            raise DataError("vocabulary 'tokens' must all be strings")
        for token in tokens:
            check_string("vocabulary token", token)
        if PAD_TOKEN in tokens or UNK_TOKEN in tokens:
            raise DataError(f"vocabulary tokens may not include {PAD_TOKEN} or {UNK_TOKEN}")
        if any(ch.isspace() for token in tokens for ch in token):
            raise DataError("vocabulary tokens may not hold whitespace")
        id_to_token = (PAD_TOKEN, UNK_TOKEN, *tokens)
        token_to_id = {t: i for i, t in enumerate(id_to_token)}
        if len(token_to_id) != len(id_to_token):
            raise DataError("duplicate token in vocabulary")
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "id_to_token", id_to_token)
        object.__setattr__(self, "token_to_id", token_to_id)

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def id_for(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def _json(self) -> str:
        """vocab.json's text without its final newline, which content_hash hashes."""
        return json.dumps({"min_count": self.min_count, "tokens": list(self.tokens)}, ensure_ascii=False)

    def content_hash(self) -> str:
        return hashlib.sha256(self._json().encode("utf-8")).hexdigest()[:16]

    def save(self, path: str | Path) -> None:
        write_atomic(path, (self._json() + "\n").encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        path = Path(path)
        text = read_text(path, "vocabulary file")
        with located(path):
            payload = parse_json(text, "vocabulary file")
            if not (isinstance(payload, dict) and {"min_count", "tokens"} <= payload.keys()):
                raise DataError("vocabulary JSON needs 'min_count' and 'tokens'")
            return cls(payload["tokens"], payload["min_count"])


@dataclass(frozen=True)
class TokenSequence:
    """A text's token ids, at least one, truncated and never padded; PAD may not occur."""

    ids: tuple[int, ...]

    def __post_init__(self):
        if not self.ids:
            raise DataError("a token sequence needs at least one token")
        if PAD_ID in self.ids:
            raise DataError("PAD id in a token sequence")

    @property
    def true_length(self) -> int:
        return len(self.ids)


def check_min_count(min_count: int) -> None:
    """Raise ConfigError unless min_count >= 1; the rule of build_vocab
    and of the config's tokenizer section.
    """
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")


def check_max_len(max_len: int) -> None:
    """Raise ConfigError unless max_len >= 1; the rule of encode and of
    the config's tokenizer section.
    """
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")


def build_vocab(texts: Iterable[str], min_count: int = 1) -> Vocabulary:
    """Count characters over texts and keep those seen at least
    `min_count` times.
    """
    check_min_count(min_count)
    texts = list(texts)
    counts: Counter[str] = Counter()
    for text in texts:
        counts.update(segment_chars(text))
    if not texts:
        raise DataError("cannot build a vocabulary from an empty corpus")
    kept = sorted(
        (t for t, c in counts.items() if c >= min_count),
        key=lambda t: (-counts[t], t),
    )
    return Vocabulary(kept, min_count)


def encode(tokens: list[str], vocab: Vocabulary, max_len: int) -> TokenSequence:
    """Ids of the first max_len tokens, UNK for out-of-vocabulary ones."""
    check_max_len(max_len)
    return TokenSequence(ids=tuple(map(vocab.token_to_id.get, tokens[:max_len], repeat(UNK_ID))))
