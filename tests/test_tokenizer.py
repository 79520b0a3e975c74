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


def test_encode_pads_and_truncates():
    vocab = cs.build_vocab(["好坏中"], min_count=1)
    seq = cs.encode(["好", "坏"], vocab, max_len=5)
    assert len(seq.ids) == 5
    assert seq.true_length == 2
    assert seq.ids[2:] == (PAD_ID, PAD_ID, PAD_ID)
    long = cs.encode(list("好坏中好坏中好"), vocab, max_len=4)
    assert long.true_length == 4
    assert len(long.ids) == 4
    # head kept, tail dropped
    assert long.ids == tuple(vocab.id_for(t) for t in ["好", "坏", "中", "好"])


def test_encode_maps_oov_to_unk():
    vocab = cs.build_vocab(["好"], min_count=1)
    seq = cs.encode(["好", "新"], vocab, max_len=4)
    assert seq.ids[0] == 2
    assert seq.ids[1] == UNK_ID


def test_token_sequence_invariants_enforced():
    with pytest.raises(DataError):
        TokenSequence(ids=(2, PAD_ID, 3), true_length=3)  # PAD inside prefix
    with pytest.raises(DataError):
        TokenSequence(ids=(2, 3, 3), true_length=2)  # non-PAD in suffix
    with pytest.raises(DataError):
        TokenSequence(ids=(2,), true_length=2)


def test_decode_drops_padding():
    vocab = cs.build_vocab(["好坏"], min_count=1)
    seq = cs.encode(["好", "坏"], vocab, max_len=6)
    assert cs.decode(seq, vocab) == ["好", "坏"]


@given(st.lists(st.sampled_from(list("好坏中啊呀很不太")), max_size=30), st.integers(4, 16))
def test_encode_shape_properties(tokens, max_len):
    vocab = cs.build_vocab(["好坏中啊呀很不太"], min_count=1)
    seq = cs.encode(tokens, vocab, max_len=max_len)
    assert len(seq.ids) == max_len
    assert seq.true_length == min(len(tokens), max_len)
    assert all(0 <= i < len(vocab) for i in seq.ids)
    assert all(i != PAD_ID for i in seq.ids[: seq.true_length])
    assert all(i == PAD_ID for i in seq.ids[seq.true_length :])


def test_vocab_roundtrip_and_hash(tmp_path):
    vocab = cs.build_vocab(["好好坏中"], min_count=1)
    path = tmp_path / "vocab.json"
    vocab.save(path)
    back = Vocabulary.load(path)
    assert back.token_to_id == vocab.token_to_id
    assert back.min_count == vocab.min_count
    assert back.content_hash() == vocab.content_hash()


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
