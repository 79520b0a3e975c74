import os

import pytest

import charsent as cs
from charsent.corpus import Corpus, Review
from charsent.errors import DataError
from charsent.files import read_text
from charsent.training import EpochRecord, load_history

from helpers import make_model


def _savers():
    """One writer per artifact kind, each called with two versions of
    its content: (name, write(path, version)).
    """
    vocab = cs.build_vocab(["好坏中"], min_count=1)
    models = [make_model(vocab, hidden_size=2, dim=2, max_len=4, seed=s) for s in (1, 2)]

    def corpus(path, v):
        cs.save_corpus(Corpus([Review(text="好" * (v + 1), label=v)]), path)

    def history(path, v):
        record = EpochRecord(epoch=v + 1, train_loss=0.5, train_acc=0.5, val_loss=0.5, val_acc=0.5)
        cs.save_history(cs.TrainHistory(records=[record], best_epoch=1, stopped_early=False), path)

    return [
        ("corpus", corpus),
        ("vocabulary", lambda path, v: cs.build_vocab(["好坏中"[: v + 2]]).save(path)),
        ("embeddings", lambda path, v: cs.save_embeddings(models[v].embeddings, vocab, path)),
        ("model", lambda path, v: cs.save_model(models[v], path)),
        ("history", history),
    ]


@pytest.mark.parametrize("name, write", [pytest.param(*s, id=s[0]) for s in _savers()])
def test_failed_write_keeps_previous_file_and_leaves_no_temp(tmp_path, monkeypatch, name, write):
    path = tmp_path / name
    write(path, 0)
    before = path.read_bytes()
    write(path, 1)
    assert path.read_bytes() != before  # the second version differs
    write(path, 0)

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(DataError, match=f"cannot write {path}: Permission denied"):
        write(path, 1)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == [name]


def test_write_over_a_directory_raises_data_error(tmp_path):
    (tmp_path / "model.ssm").mkdir()
    vocab = cs.build_vocab(["好坏"], min_count=1)
    with pytest.raises(DataError, match="cannot write"):
        cs.save_model(make_model(vocab, hidden_size=2, dim=2, max_len=4), tmp_path / "model.ssm")
    assert os.listdir(tmp_path) == ["model.ssm"]


def test_read_text_drops_one_byte_order_mark_and_reports_file_offsets(tmp_path):
    path = tmp_path / "c.txt"
    path.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbf\xe5\xa5\xbd")
    assert read_text(path, "corpus file") == "\ufeff好"
    path.write_bytes(b"\xef\xbb\xbf\xe5\xa5\xbd\xff")
    with pytest.raises(DataError, match=r"not valid UTF-8 \(byte 6\)"):
        read_text(path, "corpus file")


LOADERS = [
    pytest.param(cs.load_corpus, "c.jsonl", id="corpus-jsonl"),
    pytest.param(cs.load_corpus, "c.csv", id="corpus-csv"),
    pytest.param(cs.load_lexicon, "lex.jsonl", id="lexicon"),
    pytest.param(cs.Vocabulary.load, "vocab.json", id="vocabulary"),
    pytest.param(cs.load_embeddings, "emb.bin", id="embeddings"),
    pytest.param(cs.load_model, "model.ssm", id="model"),
    pytest.param(load_history, "history.json", id="history"),
]


@pytest.mark.parametrize("content", [None, b"{", b"\xff"], ids=["missing", "malformed", "not-utf8"])
@pytest.mark.parametrize("load, name", LOADERS)
def test_every_loader_error_starts_with_its_file(tmp_path, load, name, content):
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(DataError) as err:
        load(path)
    assert str(err.value).startswith(str(path))
