import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import charsent as cs
from charsent.corpus import CleaningConfig, Corpus, PolarityLexicon, Review
from charsent.corpus import sample_lexicon_path
from charsent.errors import ConfigError, DataError
from charsent.rng import substream


def test_review_label_validation():
    Review(text="好", label=1)
    Review(text="好", label=None)
    with pytest.raises(DataError):
        Review(text="好", label=2)


def test_clean_text_strips_urls_mentions_hashtags():
    raw = "这部电影 http://t.cn/abc 太好了 @某人 #强烈推荐#　必看"
    out = cs.clean_text(raw)
    assert "http" not in out
    assert "@" not in out
    assert "#" not in out
    assert "强烈推荐" in out
    assert "  " not in out
    assert out == out.strip()


def test_clean_text_targets_are_configurable():
    raw = "看 http://x.example/z @a #b#"
    keep_urls = cs.clean_text(raw, CleaningConfig(strip_urls=False))
    assert "http://x.example/z" in keep_urls
    keep_all = cs.clean_text(
        raw, CleaningConfig(strip_urls=False, strip_mentions=False, strip_hashtag_marks=False)
    )
    assert keep_all == raw


@given(st.text(max_size=80))
def test_clean_text_idempotent(text):
    once = cs.clean_text(text)
    assert cs.clean_text(once) == once


@given(st.text(max_size=80))
def test_clean_text_no_leading_trailing_or_double_spaces(text):
    out = cs.clean_text(text)
    assert out == out.strip()
    assert "  " not in out


def test_clean_corpus_drops_empty(tmp_path):
    corpus = Corpus(
        reviews=[
            Review(text="好极了", label=1),
            Review(text="http://only.a.url/x", label=0),
            Review(text="   ", label=0),
        ],
        name="t",
    )
    cleaned, dropped = cs.clean_corpus(corpus)
    assert dropped == 2
    assert [r.text for r in cleaned.reviews] == ["好极了"]


def test_corpus_roundtrip_jsonl(tmp_path):
    corpus = Corpus(
        reviews=[Review(text="很好", label=1), Review(text="不行", label=0), Review(text="中性", label=None)],
        name="rt",
    )
    path = tmp_path / "c.jsonl"
    cs.save_corpus(corpus, path)
    back = cs.load_corpus(path)
    assert [(r.text, r.label) for r in back.reviews] == [(r.text, r.label) for r in corpus.reviews]


def test_load_corpus_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"text": "好", "label": 1}\nnot json\n', encoding="utf-8")
    with pytest.raises(DataError) as err:
        cs.load_corpus(path)
    assert "bad.jsonl:2" in str(err.value)


def test_load_corpus_rejects_bad_label(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"text": "好", "label": 3}\n', encoding="utf-8")
    with pytest.raises(DataError) as err:
        cs.load_corpus(path)
    assert "bad.jsonl:1" in str(err.value)


def test_load_corpus_missing_file(tmp_path):
    with pytest.raises(DataError):
        cs.load_corpus(tmp_path / "nope.jsonl")


def test_load_corpus_csv(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text('text,label\n"很好,很棒",1\n糟糕,0\n', encoding="utf-8")
    corpus = cs.load_corpus(path)
    assert [(r.text, r.label) for r in corpus.reviews] == [("很好,很棒", 1), ("糟糕", 0)]


def test_prelabel_scores_characters():
    lex = PolarityLexicon(entries={"好": 1.0, "坏": -1.0, "差": -0.5})
    label, score = cs.prelabel("好 好 坏", lex)
    assert label == 1 and score == pytest.approx(1.0)
    label, score = cs.prelabel("坏差", lex)
    assert label == 0 and score == pytest.approx(-1.5)
    # zero score ties to positive
    label, score = cs.prelabel("好坏", lex)
    assert label == 1 and score == pytest.approx(0.0)
    # unknown characters contribute nothing
    label, score = cs.prelabel("中性文本", lex)
    assert label == 1 and score == 0.0


def test_bundled_lexicon_loads():
    lex = cs.load_lexicon(sample_lexicon_path())
    assert len(lex.entries) >= 20
    assert any(w > 0 for w in lex.entries.values())
    assert any(w < 0 for w in lex.entries.values())


def test_load_lexicon_rejects_nonfinite(tmp_path):
    path = tmp_path / "lex.jsonl"
    path.write_text('{"token": "好", "weight": Infinity}\n', encoding="utf-8")
    with pytest.raises(DataError):
        cs.load_lexicon(path)
    path.write_text('{"token": "好", "weight": 1}\n[1,2]\n', encoding="utf-8")
    with pytest.raises(DataError, match=r"lex\.jsonl:2: expected a JSON object"):
        cs.load_lexicon(path)


def _toy_corpus(n):
    return Corpus(reviews=[Review(text=f"评{i}", label=i % 2) for i in range(n)], name="toy")


def test_split_is_a_partition():
    corpus = _toy_corpus(103)
    train, val, test = cs.split(corpus, 0.7, 0.15, seed=5)
    assert len(train.reviews) == 72 and len(val.reviews) == 15
    assert len(train.reviews) + len(val.reviews) + len(test.reviews) == 103
    seen = sorted(r.text for part in (train, val, test) for r in part.reviews)
    assert seen == sorted(r.text for r in corpus.reviews)


def test_split_deterministic_per_seed():
    corpus = _toy_corpus(40)
    a = cs.split(corpus, 0.7, 0.15, seed=9)
    b = cs.split(corpus, 0.7, 0.15, seed=9)
    c = cs.split(corpus, 0.7, 0.15, seed=10)
    assert [r.text for r in a[0].reviews] == [r.text for r in b[0].reviews]
    assert [r.text for r in a[0].reviews] != [r.text for r in c[0].reviews]


def test_split_validates_fractions():
    corpus = _toy_corpus(10)
    with pytest.raises(ConfigError):
        cs.split(corpus, 0.9, 0.2, seed=1)
    with pytest.raises(ConfigError):
        cs.split(corpus, -0.1, 0.5, seed=1)


def test_substreams_differ_by_stage_and_match_by_seed():
    a = substream(7, "split").random(4)
    b = substream(7, "split").random(4)
    c = substream(7, "shuffle").random(4)
    d = substream(8, "split").random(4)
    assert (a == b).all()
    assert not (a == c).all()
    assert not (a == d).all()


def test_substream_rejects_bad_seed():
    with pytest.raises(ConfigError):
        substream(-1, "split")
    with pytest.raises(ConfigError):
        substream(True, "split")
