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
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, DataError

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"


def segment_chars(text: str) -> list[str]:
    """One token per Unicode scalar value, in order, whitespace dropped."""
    return [c for c in text if not c.isspace()]


@dataclass(frozen=True)
class Vocabulary:
    """Contiguous token ids with PAD=0 and UNK=1 always present.

    Real tokens get ids from 2 by descending corpus frequency, ties
    broken by codepoint order, so a rebuild from the same corpus is
    always identical.
    """

    token_to_id: dict[str, int]
    id_to_token: tuple[str, ...]
    min_count: int

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def id_for(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    @property
    def tokens(self) -> tuple[str, ...]:
        """Real tokens only (ids 2..), in id order."""
        return self.id_to_token[2:]

    def content_hash(self) -> str:
        payload = json.dumps(
            {"min_count": self.min_count, "tokens": list(self.tokens)},
            ensure_ascii=False,
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_tokens(cls, tokens: Iterable[str], min_count: int) -> "Vocabulary":
        id_to_token = (PAD_TOKEN, UNK_TOKEN, *tokens)
        token_to_id = {t: i for i, t in enumerate(id_to_token)}
        if len(token_to_id) != len(id_to_token):
            raise DataError("duplicate token in vocabulary")
        return cls(token_to_id=token_to_id, id_to_token=id_to_token, min_count=min_count)

    def save(self, path: str | Path) -> None:
        payload = {"min_count": self.min_count, "tokens": list(self.tokens)}
        Path(path).write_text(
            json.dumps(payload, ensure_ascii=False) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        path = Path(path)
        if not path.exists():
            raise DataError(f"vocabulary file not found: {path}")
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid vocabulary JSON ({exc.msg})") from exc
        if not isinstance(payload, dict) or "tokens" not in payload or "min_count" not in payload:
            raise DataError(f"{path}: vocabulary JSON needs 'min_count' and 'tokens'")
        return cls.from_tokens(payload["tokens"], int(payload["min_count"]))


@dataclass(frozen=True)
class TokenSequence:
    """Fixed-length id sequence; ids[true_length:] is all PAD padding."""

    ids: tuple[int, ...]
    true_length: int

    def __post_init__(self):
        if not 0 <= self.true_length <= len(self.ids):
            raise DataError("true_length out of range")
        if any(i == PAD_ID for i in self.ids[: self.true_length]):
            raise DataError("PAD id before true_length")
        if any(i != PAD_ID for i in self.ids[self.true_length :]):
            raise DataError("non-PAD id in the padding tail")


def build_vocab(corpus, min_count: int = 1) -> Vocabulary:
    """Count characters over a corpus (or any iterable of strings) and
    keep those seen at least `min_count` times.
    """
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    texts = corpus.texts() if hasattr(corpus, "texts") else list(corpus)
    counts: Counter[str] = Counter()
    for text in texts:
        counts.update(segment_chars(text))
    if not texts:
        raise DataError("cannot build a vocabulary from an empty corpus")
    kept = sorted(
        (t for t, c in counts.items() if c >= min_count),
        key=lambda t: (-counts[t], t),
    )
    return Vocabulary.from_tokens(kept, min_count)


def encode(tokens: list[str], vocab: Vocabulary, max_len: int) -> TokenSequence:
    """Map tokens to ids (UNK for out-of-vocabulary), truncate the tail
    beyond max_len, and right-pad with PAD up to exactly max_len.
    """
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    head = tokens[:max_len]
    ids = [vocab.id_for(t) for t in head]
    ids.extend([PAD_ID] * (max_len - len(ids)))
    return TokenSequence(ids=tuple(ids), true_length=len(head))


def decode(seq: TokenSequence, vocab: Vocabulary) -> list[str]:
    """Tokens for the non-PAD prefix of an encoded sequence."""
    return [vocab.id_to_token[i] for i in seq.ids[: seq.true_length]]
