"""The exit-code contract under mutated input files.

Each file the pipeline reads (the config, a JSONL and a CSV corpus, the
lexicon, `vocab.json`, the W2V1 embeddings and the SSM1 model) is
damaged in one way: truncated, a byte flipped, a value nested deep, a
value replaced by an integer too long to read or by a value of another
JSON type, a byte made invalid UTF-8, or a byte order mark put in
front. A value is a JSON scalar, a CSV cell, or a field of the W2V1
header line. A W2V1 field that is not JSON counts as a string, and a
CSV corpus gets a label that is not a number. Every stage that reads
the file then runs in-process and must exit 0, 2 or 3; on a non-zero
exit its one `error:` line starts with the damaged file and the stage
leaves its output directory as it was. Hypothesis draws the damage,
derandomized, so every run tries the same cases.
"""

import contextlib
import csv
import hashlib
import io
import json
import shutil
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import charsent as cs
from charsent import cli
from charsent.corpus import sample_lexicon_path
from charsent.synthetic import generate_corpus

# tiny sizes: a stage takes milliseconds
CONFIG = {
    "seed": 7,
    "tokenizer": {"max_len": 20},
    "word2vec": {"dim": 2, "epochs": 1},
    "network": {"hidden_size": 2},
    "training": {"epochs": 1},
}

# the file each kind damages, and the stages that read it
KINDS = {
    "config": ("cfg.json", ["prelabel", "embed", "train", "evaluate", "predict"]),
    "corpus": ("labeled.jsonl", ["prelabel", "embed", "train", "evaluate"]),
    "csv-corpus": ("labeled.csv", ["prelabel", "embed", "train", "evaluate"]),
    "lexicon": ("lex.jsonl", ["prelabel"]),
    "vocab": ("vocab.json", ["train"]),
    "embeddings": ("emb.bin", ["train"]),
    "model": ("model.ssm", ["evaluate", "predict"]),
}
# a CSV corpus is read where the JSONL one is
STANDS_FOR = {"labeled.csv": "labeled.jsonl"}
# the file each stage reads, and writes, under each path key
READS = {
    "prelabel": {"corpus": "labeled.jsonl", "lexicon": "lex.jsonl"},
    "embed": {"labeled": "labeled.jsonl"},
    "train": {"labeled": "labeled.jsonl", "vocab": "vocab.json", "embeddings": "emb.bin"},
    "evaluate": {"labeled": "labeled.jsonl", "model": "model.ssm"},
    "predict": {"model": "model.ssm"},
}
WRITES = {
    "prelabel": {"labeled": "labeled.jsonl"},
    "embed": {"vocab": "vocab.json", "embeddings": "emb.bin"},
    "train": {"model": "model.ssm", "history": "history.json"},
}
PLACEHOLDER = "\x00mutated\x00"


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _argv(command: str, files: dict[str, Path], out: Path) -> list[str]:
    """CLI `command` reading `files` (file name -> path) and writing into `out`."""
    paths = {key: files[name] for key, name in READS[command].items()}
    paths |= {key: out / name for key, name in WRITES.get(command, {}).items()}
    argv = [command, "--config", str(files["cfg.json"])]
    for key, path in paths.items():
        argv += ["--set", f"paths.{key}={path}"]
    return argv + (["--text", "好"] if command == "predict" else [])


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A directory holding every input file, each written by the stage
    that makes it from a 24-review synthetic corpus.
    """
    root = tmp_path_factory.mktemp("inputs")
    corpus = generate_corpus(24, seed=7)
    cs.save_corpus(corpus, root / "labeled.jsonl")
    with open(root / "labeled.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["text", "label", "source_id"])
        writer.writerows((r.text, r.label, f"s{i}") for i, r in enumerate(corpus.reviews))
    shutil.copy(sample_lexicon_path(), root / "lex.jsonl")
    (root / "cfg.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    files = {path.name: path for path in root.iterdir()}
    assert _run(_argv("embed", files, root))[0] == 0
    files |= {"vocab.json": root / "vocab.json", "emb.bin": root / "emb.bin"}
    assert _run(_argv("train", files, root))[0] == 0
    blob = (root / "model.ssm").read_bytes()
    (header_len,) = struct.unpack("<I", blob[4:8])
    assert json.loads(blob[8 : 8 + header_len])["version"] == 2  # the SSM1 cases damage a version-2 file
    return root


def _leaves(value, path=()):
    """The key paths of every scalar in a parsed JSON value."""
    if isinstance(value, dict):
        return [leaf for key, item in value.items() for leaf in _leaves(item, (*path, key))]
    if isinstance(value, list):
        return [leaf for i, item in enumerate(value) for leaf in _leaves(item, (*path, i))]
    return [path]


def _replace_leaf(text: str, pick: int, make) -> str:
    """`text`, a JSON document, with its `pick`-th scalar (modulo their
    count) written as `make(that scalar's JSON)`.
    """
    value = json.loads(text)
    leaves = _leaves(value)
    path = leaves[pick % len(leaves)]
    holder = value
    for key in path[:-1]:
        holder = holder[key]
    old = json.dumps(holder[path[-1]], ensure_ascii=False)
    holder[path[-1]] = PLACEHOLDER
    return json.dumps(value, ensure_ascii=False).replace(json.dumps(PLACEHOLDER), make(old))


def _replace_value(blob: bytes, kind: str, pick: int, make, csv_label: bool = False) -> bytes:
    """`blob` with one value rewritten: a JSON scalar in the document, in
    one line of a JSONL file or in an SSM1 model's header, a cell of a
    CSV file (with `csv_label`, a review's label), or a field of a W2V1
    header line.
    """
    if kind == "csv-corpus":
        rows = list(csv.reader(io.StringIO(blob.decode("utf-8"), newline="")))
        if csv_label:
            row, column = rows[1 + pick % (len(rows) - 1)], rows[0].index("label")
        else:
            row = rows[pick % len(rows)]
            column = pick // len(rows) % len(row)
        row[column] = make(row[column])
        text = io.StringIO(newline="")
        csv.writer(text).writerows(rows)
        return text.getvalue().encode("utf-8")
    if kind == "embeddings":
        header, newline, rest = blob.partition(b"\n")
        fields = header.decode("utf-8").split(" ")
        fields[pick % len(fields)] = make(fields[pick % len(fields)])
        return " ".join(fields).encode("utf-8") + newline + rest
    if kind == "model":
        (header_len,) = struct.unpack("<I", blob[4:8])
        header = _replace_leaf(blob[8 : 8 + header_len].decode("utf-8"), pick, make).encode("utf-8")
        return blob[:4] + struct.pack("<I", len(header)) + header + blob[8 + header_len :]
    text = blob.decode("utf-8")
    if kind in ("corpus", "lexicon"):
        lines = text.splitlines()
        i = pick % len(lines)
        lines[i] = _replace_leaf(lines[i], pick // len(lines), make)
        return ("\n".join(lines) + "\n").encode("utf-8")
    return _replace_leaf(text, pick, make).encode("utf-8")


# each mutation's parameters: byte positions, JSON scalars and the
# replacing type are picked modulo their count. A huge integer has more
# digits than int() reads; a readable one as large, put in the config,
# can be a count no config check bounds (word2vec.negatives) and that a
# stage would try to allocate.
MUTATIONS = {
    "truncated": st.tuples(st.integers(0, 2**16)),
    "flipped-byte": st.tuples(st.integers(0, 2**16), st.integers(1, 255)),
    "deep-nesting": st.tuples(st.integers(0, 2**10), st.integers(900, 1100) | st.just(100_000)),
    "huge-integer": st.tuples(st.integers(0, 2**10), st.integers(4301, 6000)),
    "wrong-type": st.tuples(st.integers(0, 2**10), st.integers(0, 4)),
    "invalid-utf8": st.tuples(st.integers(0, 2**16)),
    "leading-bom": st.tuples(),
}


def _mutate(blob: bytes, kind: str, mutation: str, args: tuple) -> bytes:
    if mutation == "truncated":
        return blob[: args[0] % len(blob)]
    if mutation == "flipped-byte":
        at = args[0] % len(blob)
        return _set_byte(blob, at, blob[at] ^ args[1])
    if mutation == "deep-nesting":
        pick, depth = args
        return _replace_value(blob, kind, pick, lambda old: "[" * depth + old + "]" * depth)
    if mutation == "huge-integer":
        pick, digits = args
        return _replace_value(blob, kind, pick, lambda old: "9" * digits)
    if mutation == "wrong-type":
        pick, choice = args
        # a CSV cell has a type only as a label, which must be a number
        return _replace_value(blob, kind, pick, lambda old: _other_type(old, choice), csv_label=True)
    if mutation == "invalid-utf8":  # 0xFF is never part of UTF-8; a model's text is its header
        text = range(8, 8 + struct.unpack("<I", blob[4:8])[0]) if kind == "model" else range(len(blob))
        return _set_byte(blob, text[args[0] % len(text)], 0xFF)
    return b"\xef\xbb\xbf" + blob


# one JSON value of each type
TYPED_VALUES = ['"x"', "7", "true", "null", "[]", "{}"]


def _json_type(text: str) -> type:
    try:
        value = json.loads(text)
    except ValueError:
        return str
    return float if type(value) is int else type(value)  # one JSON number type


def _other_type(old: str, choice: int) -> str:
    """A JSON value whose type is not that of `old`, the `choice`-th
    (modulo their count) of TYPED_VALUES of another type.
    """
    others = [v for v in TYPED_VALUES if _json_type(v) is not _json_type(old)]
    return others[choice % len(others)]


def _set_byte(blob: bytes, at: int, value: int) -> bytes:
    return blob[:at] + bytes([value]) + blob[at + 1 :]


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\x00" + path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("mutation", list(MUTATIONS))
@pytest.mark.parametrize("kind", list(KINDS))
def test_a_mutated_input_exits_0_2_or_3_naming_the_file(built, tmp_path_factory, kind, mutation):
    name, stages = KINDS[kind]
    original = (built / name).read_bytes()
    base = tmp_path_factory.mktemp(f"{kind}-{mutation}")

    @settings(
        max_examples=6,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(MUTATIONS[mutation])
    def check(args):
        out = Path(tempfile.mkdtemp(dir=base))
        mutated = out / f"mutated.{name}"
        mutated.write_bytes(_mutate(original, kind, mutation, args))
        files = {path.name: path for path in built.iterdir()} | {STANDS_FOR.get(name, name): mutated}
        for command in stages:
            before = _digest(out)
            code, err = _run(_argv(command, files, out))
            assert code in (0, 2, 3), (command, code, err)
            if code == 0:
                continue
            errors = [line for line in err.splitlines() if line.startswith("error: ")]
            assert len(errors) == 1 and err.endswith(errors[0] + "\n"), (command, err)
            assert errors[0].startswith(f"error: {mutated}:") or (
                # a vocabulary that no longer matches its embeddings is
                # reported on the pair, the embedding file first
                kind == "vocab" and errors[0].endswith(f"do not match the vocabulary {mutated}")
            ), (command, errors[0][:300])
            assert _digest(out) == before, command

    check()
