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
from itertools import repeat
from pathlib import Path

from .errors import ConfigError, DataError
from .files import located, read_text, write_atomic

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
        """Ids 2.. for `tokens` in order; DataError unless min_count is an
        integer >= 1 and the tokens are distinct strings other than PAD and UNK.
        """
        if type(min_count) is not int or min_count < 1:
            raise DataError(f"vocabulary 'min_count' must be an integer >= 1, got {min_count!r}")
        tokens = tuple(tokens)
        if not all(isinstance(t, str) for t in tokens):
            raise DataError("vocabulary 'tokens' must all be strings")
        if PAD_TOKEN in tokens or UNK_TOKEN in tokens:
            raise DataError(f"vocabulary tokens may not include {PAD_TOKEN} or {UNK_TOKEN}")
        id_to_token = (PAD_TOKEN, UNK_TOKEN, *tokens)
        token_to_id = {t: i for i, t in enumerate(id_to_token)}
        if len(token_to_id) != len(id_to_token):
            raise DataError("duplicate token in vocabulary")
        return cls(token_to_id=token_to_id, id_to_token=id_to_token, min_count=min_count)

    def save(self, path: str | Path) -> None:
        payload = {"min_count": self.min_count, "tokens": list(self.tokens)}
        write_atomic(path, (json.dumps(payload, ensure_ascii=False) + "\n").encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        path = Path(path)
        text = read_text(path, "vocabulary file")
        with located(path):
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as exc:
                raise DataError(f"invalid vocabulary JSON ({exc.msg})") from exc
            if not (isinstance(payload, dict) and {"min_count", "tokens"} <= payload.keys()):
                raise DataError("vocabulary JSON needs 'min_count' and 'tokens'")
            if not isinstance(payload["tokens"], list):
                raise DataError("vocabulary field 'tokens' must be a list")
            return cls.from_tokens(payload["tokens"], payload["min_count"])


@dataclass(frozen=True)
class TokenSequence:
    """A text's token ids, truncated and never padded; PAD may not occur."""

    ids: tuple[int, ...]

    def __post_init__(self):
        if PAD_ID in self.ids:
            raise DataError("PAD id in a token sequence")

    @property
    def true_length(self) -> int:
        return len(self.ids)


def build_vocab(texts: Iterable[str], min_count: int = 1) -> Vocabulary:
    """Count characters over texts and keep those seen at least
    `min_count` times.
    """
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
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
    return Vocabulary.from_tokens(kept, min_count)


def encode(tokens: list[str], vocab: Vocabulary, max_len: int) -> TokenSequence:
    """Ids of the first max_len tokens, UNK for out-of-vocabulary ones."""
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    return TokenSequence(ids=tuple(map(vocab.token_to_id.get, tokens[:max_len], repeat(UNK_ID))))


def decode(seq: TokenSequence, vocab: Vocabulary) -> list[str]:
    """Tokens of an encoded sequence."""
    return [vocab.id_to_token[i] for i in seq.ids]
