import json
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import charsent as cs
from charsent.errors import ConfigError, DataError
from charsent.tokenizer import PAD_ID, PAD_TOKEN, UNK_ID, UNK_TOKEN, TokenSequence, Vocabulary


def test_segment_chars_basics():
    assert cs.segment_chars("很好") == ["很", "好"]
    assert cs.segment_chars("很 好\t啊\n") == ["很", "好", "啊"]
    assert cs.segment_chars("") == []
    assert cs.segment_chars("  　 ") == []
    # ideographic space, next line, line separator and the four
    # information separators are whitespace to str.isspace()
    assert cs.segment_chars("好\u3000坏\u0085中\u2028啊\x1c\x1d\x1e\x1f呀") == list("好坏中啊呀")
    # zero-width space and BOM are not
    assert cs.segment_chars("好\u200b坏\ufeff") == ["好", "\u200b", "坏", "\ufeff"]


def test_segment_chars_drops_exactly_the_whitespace_code_points():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert cs.segment_chars(every) == [c for c in every if not c.isspace()]


def test_segment_chars_mixed_scripts():
    assert cs.segment_chars("a好1!") == ["a", "好", "1", "!"]


def test_segment_chars_astral_plane():
    # a surrogate pair in UTF-16 is still one scalar, hence one token
    assert cs.segment_chars("好😀坏") == ["好", "😀", "坏"]


@given(st.text(max_size=60))
def test_segment_chars_covers_non_whitespace(text):
    tokens = cs.segment_chars(text)
    expected = [ch for ch in text if not ch.isspace()]
    assert tokens == expected


def test_build_vocab_frequency_then_codepoint():
    texts = ["好好好", "坏坏", "中坏", "啊"]
    vocab = cs.build_vocab(texts, min_count=1)
    # 好:3, 坏:3, 中:1, 啊:1; ties break on codepoint
    assert vocab.id_for("坏") == 2  # U+574F < U+597D
    assert vocab.id_for("好") == 3
    assert vocab.id_for("中") == 4  # U+4E2D < U+554A
    assert vocab.id_for("啊") == 5


def test_build_vocab_min_count_filters():
    vocab = cs.build_vocab(["好好", "坏"], min_count=2)
    assert "好" in vocab.token_to_id
    assert "坏" not in vocab.token_to_id
    assert vocab.id_for("坏") == UNK_ID


def test_build_vocab_reserved_ids():
    vocab = cs.build_vocab(["好"], min_count=1)
    assert vocab.id_for(PAD_TOKEN) == PAD_ID
    assert vocab.id_for(UNK_TOKEN) == UNK_ID
    assert vocab.id_for("好") == 2
    assert len(vocab) == 3


def test_build_vocab_rejects_bad_min_count():
    with pytest.raises(ConfigError):
        cs.build_vocab(["好"], min_count=0)


def test_encode_truncates():
    vocab = cs.build_vocab(["好坏中"], min_count=1)
    for tokens, max_len in ((["好", "坏"], 5), (list("好坏中好坏中好"), 4)):
        seq = cs.encode(tokens, vocab, max_len=max_len)
        # head kept, tail dropped, nothing padded
        assert seq.ids == tuple(vocab.id_for(t) for t in tokens[:max_len])
        assert seq.true_length == min(len(tokens), max_len)


def test_encode_maps_oov_to_unk():
    vocab = cs.build_vocab(["好"], min_count=1)
    seq = cs.encode(["好", "新"], vocab, max_len=4)
    assert seq.ids[0] == 2
    assert seq.ids[1] == UNK_ID


def test_token_sequence_invariants_enforced():
    for ids in ((PAD_ID,), (2, PAD_ID, 3), (2, 3, PAD_ID)):
        with pytest.raises(DataError, match="PAD"):
            TokenSequence(ids=ids)
    with pytest.raises(DataError, match="PAD"):
        cs.encode([PAD_TOKEN], cs.build_vocab(["好"], min_count=1), max_len=4)
    with pytest.raises(DataError, match="at least one token"):
        TokenSequence(ids=())
    with pytest.raises(AttributeError):
        TokenSequence(ids=(2, 3)).true_length = 1


@given(st.lists(st.sampled_from(list("好坏中啊呀很不太")), max_size=30), st.integers(4, 16))
def test_encode_shape_properties(tokens, max_len):
    vocab = cs.build_vocab(["好坏中啊呀很不太"], min_count=1)
    if not tokens:
        with pytest.raises(DataError, match="at least one token"):
            cs.encode(tokens, vocab, max_len=max_len)
        return
    seq = cs.encode(tokens, vocab, max_len=max_len)
    assert seq.ids == tuple(vocab.id_for(t) for t in tokens[:max_len])
    assert seq.true_length == min(len(tokens), max_len)
    assert all(0 < i < len(vocab) for i in seq.ids)


def test_vocab_roundtrip_and_hash(tmp_path):
    vocab = cs.build_vocab(["好好坏中"], min_count=1)
    path = tmp_path / "vocab.json"
    vocab.save(path)
    back = Vocabulary.load(path)
    assert back == vocab == Vocabulary(vocab.tokens, vocab.min_count)
    assert back.token_to_id == vocab.token_to_id
    assert back.id_to_token == (PAD_TOKEN, UNK_TOKEN, *vocab.tokens)
    assert back.content_hash() == vocab.content_hash()


@pytest.mark.parametrize(
    "tokens, min_count, match",
    [
        (["好", PAD_TOKEN], 1, "may not include"),
        ([UNK_TOKEN, "好"], 1, "may not include"),
        (["好", "坏", "好"], 1, "duplicate"),
        (["好", 2], 1, "strings"),
        (["好"], 0, "min_count"),
        (["好"], True, "min_count"),
        (["好"], 1.5, "min_count"),
        (["a b", "c"], 1, "whitespace"),
        ([" ", "c"], 1, "whitespace"),
        (["好\u3000"], 1, "whitespace"),
        (["好", "a\ud800"], 1, "vocabulary token is not valid Unicode .* at index 1"),
    ],
)
def test_vocab_constructor_checks_its_rules(tokens, min_count, match):
    with pytest.raises(DataError, match=match):
        Vocabulary(tokens, min_count)


@pytest.mark.parametrize(
    "tokens",
    ["好坏", {"好": 1}, {"好"}, (t for t in ["好"])],
    ids=["str", "dict", "set", "generator"],
)
def test_vocab_tokens_must_be_a_list(tokens):
    with pytest.raises(DataError, match="'tokens' must be a list"):
        Vocabulary(tokens, 1)


def test_vocab_hash_sensitive_to_content():
    a = cs.build_vocab(["好坏"], min_count=1)
    b = cs.build_vocab(["好中"], min_count=1)
    c = cs.build_vocab(["好坏", "好坏"], min_count=2)
    assert a.content_hash() != b.content_hash()
    assert a.content_hash() != c.content_hash()  # min_count differs
    assert len(a.content_hash()) == 16


def test_vocab_load_missing(tmp_path):
    with pytest.raises(DataError):
        Vocabulary.load(tmp_path / "missing.json")


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"min_count": "x", "tokens": ["好"]}, "min_count"),
        ({"min_count": 1.5, "tokens": ["好"]}, "min_count"),
        ({"min_count": True, "tokens": ["好"]}, "min_count"),
        ({"min_count": 0, "tokens": ["好"]}, "min_count"),
        ({"min_count": 1, "tokens": 5}, "tokens"),
        ({"min_count": 1, "tokens": "好坏"}, "tokens"),
        ({"min_count": 1, "tokens": ["好", 2]}, "tokens"),
    ],
)
def test_vocab_load_rejects_mistyped_fields(tmp_path, payload, field):
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(DataError, match=f"'{field}'"):
        Vocabulary.load(path)
