import ast
import os
from pathlib import Path

import pytest

import charsent as cs
from charsent.corpus import Corpus, Review
from charsent.errors import DataError
from charsent.files import read_text
from charsent.training import EpochRecord

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
        cs.save_history(cs.TrainHistory(records=[record]), path)

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
]


# JSON nested past the recursion limit, and an integer past int()'s
# 4300-digit limit: json.loads raises RecursionError and ValueError on them
TOO_DEEP = b"[" * 100_000 + b"]" * 100_000
TOO_LONG = b'{"text": "x", "weight": ' + b"1" * 5000 + b"}"


@pytest.mark.parametrize(
    "content",
    [None, b"{", b"\xff", TOO_DEEP, TOO_LONG],
    ids=["missing", "malformed", "not-utf8", "too-deep", "integer-too-long"],
)
@pytest.mark.parametrize("load, name", LOADERS)
def test_every_loader_error_starts_with_its_file(tmp_path, load, name, content):
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(DataError) as err:
        load(path)
    assert str(err.value).startswith(str(path))


def test_json_is_parsed_only_in_files_py():
    """One home for the JSON parse rule: no other module calls json.load
    or json.loads, catches JSONDecodeError, or raises the interpreter's
    recursion or integer-digit limits.
    """
    found = []
    for source in sorted(Path(cs.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in ("setrecursionlimit", "set_int_max_str_digits"):
                found.append(f"{source.name}:{node.lineno}: {name}")
            if source.name == "files.py":
                continue
            if isinstance(node, ast.Attribute) and node.attr in ("load", "loads"):
                if isinstance(node.value, ast.Name) and node.value.id == "json":
                    found.append(f"{source.name}:{node.lineno}: json.{node.attr}")
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                found.append(f"{source.name}:{node.lineno}: from json import")
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                if "JSONDecodeError" in ast.unparse(node.type):
                    found.append(f"{source.name}:{node.lineno}: except JSONDecodeError")
    assert found == []


def test_only_network_names_its_private_functions():
    """One home for the LSTM core: no other charsent module and no
    script names a private function or module-level name of
    charsent.network, so no second loop over the cell, for scoring or
    for training, and no second matrix product grows outside it.
    """
    package = Path(cs.__file__).parent
    tree = ast.parse((package / "network.py").read_text(encoding="utf-8"))
    private = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            private.add(node.name)
        elif isinstance(node, ast.Assign):
            private.update(target.id for target in node.targets if isinstance(target, ast.Name))
    private = {name for name in private if name.startswith("_")}
    assert {"_batch_inputs", "_run_cell", "_head", "_matmul", "_EVAL_CHUNK"} <= private
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    sources = [p for p in sorted(package.glob("*.py")) if p.name != "network.py"]
    sources += sorted(scripts.glob("*.py"))
    assert any(p.parent == scripts for p in sources)
    found = []
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            else:
                name = getattr(node, "id", None)
            if name in private:
                found.append(f"{source.parent.name}/{source.name}:{node.lineno}: {name}")
    assert found == []


def test_network_multiplies_matrices_only_through_matmul():
    """One home for the LSTM's matrix products, the calls whose rounding
    depends on the BLAS kernel and thread count: network.py binds
    `_matmul = np.matmul` once and writes no other product, neither `@`
    nor a numpy product function or method.
    """
    tree = ast.parse((Path(cs.__file__).parent / "network.py").read_text(encoding="utf-8"))
    bindings = [
        node
        for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["_matmul"]
    ]
    assert [ast.unparse(node.value) for node in bindings] == ["np.matmul"]
    products = {"matmul", "dot", "einsum", "tensordot", "inner", "vdot"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"network.py:{node.lineno}: @")
        if node is bindings[0].value:
            continue
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", getattr(node, "name", None))
        if name in products:
            found.append(f"network.py:{node.lineno}: {name}")
    assert found == []


def test_only_the_cli_note_writes_to_stderr():
    """One diagnostic writer: no charsent module and no script names
    sys.stderr, as `print(..., file=sys.stderr)` and `sys.stderr.write`
    do, outside cli.note, which writes to stderr alone and never falls
    back to stdout when stderr is closed.
    """
    package = Path(cs.__file__).parent
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    sources = sorted(package.glob("*.py")) + sorted(scripts.glob("*.py"))
    assert any(p.parent == scripts for p in sources)
    found, in_note = [], []
    for source in sources:
        tree = ast.parse(source.read_text(encoding="utf-8"))
        note = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "note"]
        exempt = {id(n) for n in ast.walk(note[0])} if source.name == "cli.py" else set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("stderr", "__stderr__"):
                hit = ast.unparse(node) in ("sys.stderr", "sys.__stderr__")
            elif isinstance(node, ast.ImportFrom) and node.module == "sys":
                hit = any(alias.name in ("stderr", "__stderr__") for alias in node.names)
            else:
                continue
            if hit:
                where = f"{source.parent.name}/{source.name}:{node.lineno}"
                (in_note if id(node) in exempt else found).append(where)
    assert found == []
    assert len(in_note) == 1  # the writer itself


def test_scripts_end_only_through_the_cli_run():
    """One exit path: no script catches a charsent error class or
    BrokenPipeError, so each maps errors to exit codes and ends a closed
    stdout only through cli.run, as the CLI does.
    """
    caught = {cls.__name__ for cls in vars(cs.errors).values()
              if isinstance(cls, type) and issubclass(cls, cs.errors.CharsentError)}
    assert {"CharsentError", "ConfigError", "DataError", "NumericalError"} <= caught
    caught.add("BrokenPipeError")
    scripts = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))
    assert scripts
    found = []
    for source in scripts:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                for name in ast.walk(node.type):
                    ident = name.attr if isinstance(name, ast.Attribute) else getattr(name, "id", None)
                    if ident in caught:
                        found.append(f"scripts/{source.name}:{node.lineno}: except {ident}")
    assert found == []


# the entry points the acceptance criteria call, which no stage needs
ACCEPTANCE_ENTRY_POINTS = {"lstm_cell_forward", "backward", "skipgram_gradients", "skipgram_step"}


def test_every_public_name_is_used_by_the_program():
    """No public helper is read only by tests: every public module-level
    function and class of charsent is named by another module, by a
    script, or elsewhere in its own module. The re-exports of
    charsent/__init__.py do not count.
    """
    package = Path(cs.__file__).parent
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    sources = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted(scripts.glob("*.py"))
    assert any(p.parent == scripts for p in sources)
    defined, named = set(), set()
    for source in sources:
        tree = ast.parse(source.read_text(encoding="utf-8"))
        if source.parent == package:
            defined.update(
                node.name
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
            )
        for node in ast.walk(tree):  # a def's own name is no Name node
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    assert {"train", "save_embeddings", "prelabel", "TrainHistory"} <= defined
    assert defined - named == ACCEPTANCE_ENTRY_POINTS


def _where_compared(*names: str) -> list[str]:
    """`module.function` of each comparison in charsent or a script that
    reads every one of `names`, as a name or an attribute.
    """
    root = Path(__file__).resolve().parents[1]
    sources = sorted(Path(cs.__file__).parent.glob("*.py")) + sorted((root / "scripts").glob("*.py"))
    found = []
    for source in sources:
        tree = ast.parse(source.read_text(encoding="utf-8"))
        home = {}  # ast.walk reaches an outer def first, so a nested one wins
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                home.update((id(node), func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                read = {n.attr if isinstance(n, ast.Attribute) else getattr(n, "id", None) for n in ast.walk(node)}
                if set(names) <= read:
                    found.append(f"{source.stem}.{home.get(id(node), '<module>')}")
    return found


def test_the_size_bound_is_compared_only_in_its_two_homes():
    """One home for the bound on every embedding and LSTM size a config
    or caller sets, files.check_size, and one for the SSM1 header's
    fields, training._check_header, which refuses a file with its own
    message: no other code compares a value with SIZE_LIMIT.
    """
    assert _where_compared("SIZE_LIMIT") == ["files.check_size", "training._check_header"]


def test_an_embedding_matrix_is_matched_to_its_vocabulary_in_two_places():
    """embedding.check_vocabulary is the one rule for a matrix and the
    vocabulary it is used with; cli.cmd_train keeps its check of two
    files, which also compares the W2V1 rows' tokens and names both.
    """
    assert _where_compared("vocab_hash", "content_hash") == ["cli.cmd_train", "embedding.check_vocabulary"]


def test_every_source_parses_as_the_oldest_python_the_package_supports():
    """pyproject.toml declares Python 3.10, so no module or script may use
    syntax a later version added, such as except*, as far as ast.parse's
    feature_version check finds it on the Python that runs the tests.
    """
    root = Path(__file__).resolve().parents[1]
    assert 'requires-python = ">=3.10"' in (root / "pyproject.toml").read_text(encoding="utf-8")
    sources = sorted((root / "src").rglob("*.py")) + sorted((root / "scripts").rglob("*.py"))
    assert {"network.py", "seed_sweep.py"} <= {p.name for p in sources}
    for source in sources:
        ast.parse(source.read_text(encoding="utf-8"), str(source), feature_version=(3, 10))


def test_the_declared_numpy_floor_is_the_first_numpy_with_every_function_called():
    """Word2Vec scores its k+1 output rows with np.vecdot, which numpy 2.0
    added, so pyproject.toml must not declare an older numpy.
    """
    root = Path(__file__).resolve().parents[1]
    assert 'dependencies = ["numpy>=2.0"]' in (root / "pyproject.toml").read_text(encoding="utf-8")
    assert "np.vecdot(" in (Path(cs.__file__).parent / "embedding.py").read_text(encoding="utf-8")
