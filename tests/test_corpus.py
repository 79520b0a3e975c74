import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import charsent as cs
from charsent.corpus import Corpus, PolarityLexicon, Review
from charsent.corpus import sample_lexicon_path
from charsent.errors import ConfigError, DataError
from charsent.rng import substream


def test_review_label_validation():
    Review(text="好", label=1)
    Review(text="好", label=None)
    for bad in (2, True, False, 1.0):
        with pytest.raises(DataError):
            Review(text="好", label=bad)


def test_review_text_and_source_id_validation():
    Review(text="好", source_id="a1")
    for text, source_id in ((None, None), (5, None), (b"x", None), ("好", 7), ("好", ["a1"])):
        with pytest.raises(DataError, match="must be a string"):
            Review(text=text, source_id=source_id)


def test_review_refuses_a_lone_surrogate():
    for field, surrogate in (("text", "\ud800"), ("source_id", "\udfff")):
        fields = {"text": "好", "source_id": "a1"} | {field: f"好{surrogate}坏"}
        with pytest.raises(DataError, match=f"^{field} is not valid Unicode .* at index 1"):
            Review(**fields)


def test_clean_text_strips_urls_mentions_hashtags():
    raw = "这部电影 http://t.cn/abc 太好了 @某人 #强烈推荐#　必看"
    out = cs.clean_text(raw)
    assert "http" not in out
    assert "@" not in out
    assert "#" not in out
    assert "强烈推荐" in out
    assert "  " not in out
    assert out == out.strip()
    # URLs go before mentions: the URL is cut out of "@http://...",
    # which leaves a bare "@" that is no mention
    assert cs.clean_text("看 @http://x.example/z 好") == "看 @ 好"


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


@given(
    st.lists(
        st.tuples(
            st.text(max_size=20),
            st.sampled_from([None, 0, 1, True, False, 1.0]),
            st.none() | st.text(max_size=5),
        ),
        max_size=6,
    ),
    st.sampled_from(["c.jsonl", "c.txt", "c.csv", "c.CSV"]),
)
def test_every_saved_corpus_loads_back_equal(tmp_path_factory, records, name):
    """A corpus that can be built and saved loads back equal; what
    load_corpus would not read back is refused before it is written.
    """
    path = tmp_path_factory.mktemp("saved") / name
    try:
        reviews = [Review(text=t, label=label, source_id=s) for t, label, s in records]
        cs.save_corpus(Corpus(reviews=reviews), path)
    except (ConfigError, DataError):
        assert not path.exists()
        return
    assert cs.load_corpus(path).reviews == reviews


@pytest.mark.parametrize("name", ["c.csv", "c.CSV"])
def test_save_corpus_refuses_a_csv_path(tmp_path, name):
    """load_corpus reads a .csv path as CSV, so JSONL is never written there."""
    with pytest.raises(ConfigError, match="JSONL"):
        cs.save_corpus(Corpus(reviews=[Review(text="好", label=1)]), tmp_path / name)
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize(
    "record, field", [('{"text": 5}', "text"), ('{"text": "好", "source_id": 7}', "source_id")]
)
def test_load_corpus_rejects_mistyped_fields_with_their_line(tmp_path, record, field):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"text": "好", "label": 1}\n' + record + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=rf"bad\.jsonl:2: {field} must be a string"):
        cs.load_corpus(path)


def test_load_corpus_csv_rejects_bad_label_with_its_line(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("text,label\n好,1\n坏,2\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"c\.csv:3: label must be the integer 0 or 1, got '2'"):
        cs.load_corpus(path)


@pytest.mark.parametrize(
    "record", ["很好,1,extra", "很好,很棒,1"], ids=["extra-field", "unquoted-comma"]
)
def test_load_corpus_csv_rejects_a_record_with_more_fields_than_its_header(tmp_path, record):
    path = tmp_path / "c.csv"
    path.write_text(f"text,label\n好,1\n{record}\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"c\.csv:3: 3 fields, but the header names 2"):
        cs.load_corpus(path)


@pytest.mark.parametrize(
    "content",
    [
        'text,label\n"line one\nline two",1\nok,7\n',  # a quoted field spans lines 2 and 3
        "text,label\nok,1\n\nok,7\n",  # a blank line 3 holds no record
    ],
    ids=["quoted-newline", "blank-line"],
)
def test_load_corpus_csv_names_a_record_by_its_first_line(tmp_path, content):
    path = tmp_path / "c.csv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(DataError, match=r"c\.csv:4: label must be the integer 0 or 1, got '7'"):
        cs.load_corpus(path)


def test_load_corpus_missing_file(tmp_path):
    with pytest.raises(DataError):
        cs.load_corpus(tmp_path / "nope.jsonl")


def test_load_corpus_csv(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text('text,label\n"很好,很棒",1\n糟糕,0\n', encoding="utf-8")
    corpus = cs.load_corpus(path)
    assert [(r.text, r.label) for r in corpus.reviews] == [("很好,很棒", 1), ("糟糕", 0)]


@pytest.mark.parametrize(
    "name, content",
    [
        ("c.csv", 'text,label\n"很好,很棒",1\n糟糕,0\n'),
        ("c.jsonl", '{"text": "很好,很棒", "label": 1}\n{"text": "糟糕", "label": 0}\n'),
    ],
    ids=["csv", "jsonl"],
)
def test_load_corpus_ignores_a_leading_byte_order_mark(tmp_path, name, content):
    # as Excel, or pandas with encoding="utf-8-sig", saves a CSV
    path = tmp_path / name
    path.write_text(content, encoding="utf-8-sig")
    corpus = cs.load_corpus(path)
    assert [(r.text, r.label) for r in corpus.reviews] == [("很好,很棒", 1), ("糟糕", 0)]


def test_load_corpus_csv_suffix_in_any_case(tmp_path):
    path = tmp_path / "x.CSV"
    path.write_text('text,label\n"多行\n文本",1\n', encoding="utf-8")
    assert [(r.text, r.label) for r in cs.load_corpus(path).reviews] == [("多行\n文本", 1)]


def test_load_corpus_splits_jsonl_on_newlines_only(tmp_path):
    path = tmp_path / "c.jsonl"
    texts = ["好\u2028坏", "中\u0085啊", "行\x0c列"]
    lines = [json.dumps({"text": t, "label": 1}, ensure_ascii=False) for t in texts]
    path.write_bytes("\r\n".join(lines).encode("utf-8"))
    assert cs.load_corpus(path).texts() == texts


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
    path.write_text('{"token": "好"}\n', encoding="utf-8")
    with pytest.raises(DataError, match=r"lex\.jsonl:1: expected a JSON object with fields 'token' and 'weight'"):
        cs.load_lexicon(path)


HUGE_INT = 10**400  # too large for a float


@pytest.mark.parametrize(
    "entries, message",
    [
        ({5: 1.0}, "lexicon token must be a string, not int"),
        ({"好": True}, "lexicon weight for '好' is not a finite number"),
        ({"好": "1"}, "lexicon weight for '好' is not a finite number"),
        ({"好": math.inf}, "lexicon weight for '好' is not a finite number"),
        ({"好": math.nan}, "lexicon weight for '好' is not a finite number"),
        ({"好": HUGE_INT}, "lexicon weight for '好' is not a finite number"),
        ([("好", 1.0), (["坏"], -1.0)], "lexicon token must be a string, not list"),
    ],
    ids=["token-int", "weight-bool", "weight-str", "weight-inf", "weight-nan", "weight-huge-int", "token-list"],
)
def test_polarity_lexicon_checks_each_entry(entries, message):
    with pytest.raises(DataError) as err:
        PolarityLexicon(entries)
    assert str(err.value) == message


def test_polarity_lexicon_stores_float_weights_and_keeps_the_last_pair():
    lex = PolarityLexicon([("好", 1), ("坏", -2.5), ("好", 3)])
    assert lex.entries == {"好": 3.0, "坏": -2.5}
    assert all(type(w) is float for w in lex.entries.values())


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"token": 5, "weight": 1}', "lexicon token must be a string, not int"),
        ('{"token": ["好"], "weight": 1}', "lexicon token must be a string, not list"),
        ('{"token": "好", "weight": true}', "lexicon weight for '好' is not a finite number"),
        ('{"token": "好", "weight": null}', "lexicon weight for '好' is not a finite number"),
        ('{"token": "好", "weight": 1e400}', "lexicon weight for '好' is not a finite number"),
        (f'{{"token": "好", "weight": {HUGE_INT}}}', "lexicon weight for '好' is not a finite number"),
    ],
    ids=["token-int", "token-list", "weight-true", "weight-null", "weight-1e400", "weight-huge-int"],
)
def test_load_lexicon_errors_start_with_the_path(tmp_path, line, message):
    path = tmp_path / "lex.jsonl"
    path.write_text('{"token": "坏", "weight": -1}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        cs.load_lexicon(path)
    assert str(err.value) == f"{path}: {message}"


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
