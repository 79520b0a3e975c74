import contextlib
import dataclasses
import io
import json
from pathlib import Path

import pytest

import charsent as cs
from charsent import cli
from charsent.corpus import Corpus, Review, save_corpus
from charsent.errors import ConfigError
from charsent.synthetic import generate_corpus

from conftest import make_model


def test_build_config_defaults():
    cfg = cli.build_config(None, [], None)
    assert cfg.seed == 0
    assert cfg.threshold is None  # the model's stored threshold
    assert cfg.tokenizer.max_len == 120
    assert cfg.word2vec.dim == 300
    assert cfg.network.hidden_size == 128
    assert cfg.training.batch_size == 32
    assert cfg == cli.PipelineConfig()


def test_build_config_file_and_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps({"seed": 5, "word2vec": {"dim": 32}, "paths": {"model": "m.ssm"}}),
        encoding="utf-8",
    )
    cfg = cli.build_config(str(path), ["training.epochs=4", "threshold=0.6"], None)
    assert cfg.seed == 5
    assert cfg.word2vec.dim == 32
    assert cfg.word2vec.window == 4  # untouched defaults survive
    assert cfg.paths.model == "m.ssm"
    assert cfg.training.epochs == 4
    assert cfg.threshold == 0.6
    assert cfg.word2vec.seed == cfg.training.seed == 5  # the pipeline seed reaches both


def test_build_config_set_value_types():
    cfg = cli.build_config(
        None,
        [
            "training.freeze_embeddings=true",
            "word2vec.subsample_threshold=null",
            "word2vec.mode=skipgram",
            "paths.model=out dir/model.ssm",
            "training.learning_rate=0.005",
            "split.train_frac=1",
        ],
        None,
    )
    assert cfg.training.freeze_embeddings is True
    assert cfg.word2vec.subsample_threshold is None
    assert cfg.word2vec.mode == "skipgram"
    assert cfg.paths.model == "out dir/model.ssm"
    assert cfg.training.learning_rate == 0.005
    assert cfg.split.train_frac == 1.0 and type(cfg.split.train_frac) is float


def test_build_config_seed_flag_wins(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 5}), encoding="utf-8")
    cfg = cli.build_config(str(path), ["seed=6"], 7)
    assert cfg.seed == cfg.word2vec.seed == cfg.training.seed == 7


def test_build_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError) as err:
        cli.build_config(None, ["word2vec.windw=3"], None)
    assert "word2vec.windw" in str(err.value)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"wordvec": {}}), encoding="utf-8")
    with pytest.raises(ConfigError):
        cli.build_config(str(path), [], None)
    for key in ("word2vec.seed", "training.seed"):  # only the pipeline seed is a key
        with pytest.raises(ConfigError, match=f"unknown config key: {key}"):
            cli.build_config(None, [f"{key}=3"], None)


def test_build_config_rejects_malformed_inputs(tmp_path):
    with pytest.raises(ConfigError):
        cli.build_config(None, ["no_equals_sign"], None)
    with pytest.raises(ConfigError):
        cli.build_config(str(tmp_path / "missing.json"), [], None)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        cli.build_config(str(bad), [], None)
    arr = tmp_path / "arr.json"
    arr.write_text("[1,2]", encoding="utf-8")
    with pytest.raises(ConfigError):
        cli.build_config(str(arr), [], None)
    with pytest.raises(ConfigError):
        cli.build_config(None, ["seed=1.5"], None)
    with pytest.raises(ConfigError, match="beta1"):  # section range checks still run
        cli.build_config(None, ["training.beta1=1"], None)
    with pytest.raises(ConfigError, match="split.train_frac"):  # an int beyond float range
        cli.build_config(None, ["split.train_frac=1" + "0" * 400], None)


MISTYPED_VALUES = [
    "word2vec.window=abc",
    "word2vec.window=1.5",
    "word2vec.dim=true",
    "word2vec.negatives=null",
    "word2vec.epochs=1.5",
    'word2vec.learning_rate="x"',
    'word2vec.subsample_threshold="x"',
    "word2vec.learning_rate=Infinity",
    'network.hidden_size="x"',
    "network.hidden_size=2.5",
    "training.epochs=1.5",
    "training.patience=1.5",
    'training.freeze_embeddings="no"',
    "tokenizer.max_len=2.5",
    'split.train_frac="x"',
    "threshold=NaN",
    "paths.model=5",
]


@pytest.mark.parametrize("key", ["training.learning_rate", "word2vec.learning_rate"])
def test_main_range_error_names_its_section(key, capsys):
    assert cli.main(["train", "--set", f"{key}=0"]) == 2
    assert capsys.readouterr().err == f"error: {key} must be > 0\n"


@pytest.mark.parametrize("override", MISTYPED_VALUES)
def test_main_mistyped_config_value_exits_2(override, capsys):
    assert cli.main(["train", "--set", override]) == 2
    err = capsys.readouterr().err
    key = override.partition("=")[0]
    assert err.startswith(f"error: config key {key} expects ")
    assert "Traceback" not in err


def _readme_config_table() -> set[tuple[str, str, str]]:
    """(section, key, JSON default) triples of README's "Configuration
    keys" table; a row lists several keys with one default or one each.
    JSON text keeps 0, 0.0 and false apart.
    """
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section_text = readme.split("### Configuration keys", 1)[1].split("\n#", 1)[0]
    rows = [line for line in section_text.splitlines() if line.startswith("|")]
    triples = set()
    for row in rows[2:]:  # after the heading and rule rows
        section, keys, defaults = (c.strip().strip("`") for c in row.split("|")[1:4])
        keys = [k.strip("` ") for k in keys.split(",")]
        defaults = [json.loads(d.strip("` ")) for d in defaults.split(",")]
        if len(defaults) == 1:
            defaults *= len(keys)
        assert len(defaults) == len(keys), row
        triples |= {(section, k, json.dumps(d)) for k, d in zip(keys, defaults)}
    return triples


def test_readme_config_table_matches_pipeline_config():
    defaults = cli.PipelineConfig()
    expected = set()
    for f in dataclasses.fields(defaults):
        value = getattr(defaults, f.name)
        if not dataclasses.is_dataclass(value):
            expected.add(("(top)", f.name, json.dumps(value)))
            continue
        for leaf in dataclasses.fields(value):
            if leaf.name != "seed":  # the pipeline seed is the only seed key
                expected.add((f.name, leaf.name, json.dumps(getattr(value, leaf.name))))
    assert _readme_config_table() == expected


def test_main_usage_errors_exit_2(capsys):
    assert cli.main([]) == 2
    assert cli.main(["no-such-command"]) == 2
    assert cli.main(["predict"]) == 2  # paths.model missing
    err = capsys.readouterr().err
    assert "paths.model" in err


def test_main_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    assert cli.main(["train", "--help"]) == 0


def test_main_missing_data_exits_3(tmp_path, capsys):
    code = cli.main(
        [
            "evaluate",
            "--set", f"paths.model={tmp_path / 'none.ssm'}",
            "--set", f"paths.labeled={tmp_path / 'none.jsonl'}",
        ]
    )
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_main_bad_model_magic_exits_3(tmp_path, capsys):
    model = tmp_path / "junk.ssm"
    model.write_bytes(b"JUNK" + b"\x00" * 32)
    labeled = tmp_path / "l.jsonl"
    labeled.write_text('{"text": "好", "label": 1}\n', encoding="utf-8")
    code = cli.main(
        ["evaluate", "--set", f"paths.model={model}", "--set", f"paths.labeled={labeled}"]
    )
    assert code == 3


def test_main_truncated_or_padded_model_exits_3(tmp_path, capsys):
    vocab = cs.build_vocab(["好坏"], min_count=1)
    model = tmp_path / "tiny.ssm"
    cs.save_model(make_model(vocab, hidden_size=2, dim=2, max_len=4), model)
    blob = model.read_bytes()
    labeled = tmp_path / "l.jsonl"
    labeled.write_text('{"text": "好", "label": 1}\n', encoding="utf-8")
    argv = ["evaluate", "--set", f"paths.model={model}", "--set", f"paths.labeled={labeled}"]
    assert cli.main(argv) == 0
    for broken in (blob[:6], blob[:40], blob[:-1], blob + b"\x00"):
        model.write_bytes(broken)
        assert cli.main(argv) == 3
        assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A shared temporary directory with a raw corpus and a config, over
    which prelabel, embed and train have run once, so labeled.jsonl,
    vocab.json, emb.bin and model.ssm exist whichever test runs first.
    Each command's exit code and JSON summary are in summaries.json.
    """
    root = tmp_path_factory.mktemp("pipeline")
    corpus = generate_corpus(160, seed=31)
    raw = Corpus(
        reviews=[
            *corpus.reviews,
            Review(text="转发 http://t.example/x 好棒好棒", label=None),
            Review(text="@某人 太差了 恶心 #吐槽#", label=None),
            Review(text="http://only.example/url", label=None),
        ],
        name="raw",
    )
    save_corpus(raw, root / "raw.jsonl")
    config = {
        "seed": 31,
        "paths": {
            "corpus": str(root / "raw.jsonl"),
            "labeled": str(root / "labeled.jsonl"),
            "vocab": str(root / "vocab.json"),
            "embeddings": str(root / "emb.bin"),
            "model": str(root / "model.ssm"),
            "history": str(root / "history.json"),
        },
        "tokenizer": {"max_len": 60},
        "word2vec": {"dim": 12, "epochs": 2, "window": 3, "negatives": 4},
        "network": {"hidden_size": 12},
        "training": {"epochs": 4, "batch_size": 32, "dropout_rate": 0.2},
    }
    (root / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
    summaries = {}
    for command in ("prelabel", "embed", "train"):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command, "--config", str(root / "cfg.json")])
        summaries[command] = [code, _last_json_line(stdout.getvalue())]
    (root / "summaries.json").write_text(json.dumps(summaries), encoding="utf-8")
    return root


def _last_json_line(out: str):
    out = out.strip()
    return json.loads(out.splitlines()[-1]) if out else None


def _run(capsys, argv):
    code = cli.main(argv)
    return code, _last_json_line(capsys.readouterr().out)


def _summary(pipeline, command):
    """The exit code and JSON summary of the fixture's run of `command`."""
    return json.loads((pipeline / "summaries.json").read_text(encoding="utf-8"))[command]


def test_pipeline_prelabel(pipeline):
    code, out = _summary(pipeline, "prelabel")
    assert code == 0
    assert out["dropped"] == 1  # the url-only review
    assert out["newly_labeled"] == 2
    assert out["reviews"] == 162
    assert out["positive"] + out["negative"] == out["reviews"]
    lines = (pipeline / "labeled.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 162
    rows = [json.loads(l) for l in lines]
    assert all(r["label"] in (0, 1) for r in rows)
    assert not any("http" in r["text"] or "@" in r["text"] or "#" in r["text"] for r in rows)


def test_pipeline_embed(pipeline):
    code, out = _summary(pipeline, "embed")
    assert code == 0
    assert out["dim"] == 12
    assert out["mode"] == "cbow"
    assert len(out["epoch_losses"]) == 2
    assert out["epoch_losses"][1] < out["epoch_losses"][0]
    assert (pipeline / "vocab.json").exists()
    assert (pipeline / "emb.bin").read_bytes()[:5] == b"W2V1 "


def test_pipeline_train(pipeline):
    code, out = _summary(pipeline, "train")
    assert code == 0
    assert out["epochs_run"] <= 4
    assert 1 <= out["best_epoch"] <= out["epochs_run"]
    assert set(out["val"]) >= {"loss", "mae", "accuracy", "precision", "recall"}
    assert "test" in out
    assert (pipeline / "model.ssm").read_bytes()[:4] == b"SSM1"
    history = json.loads((pipeline / "history.json").read_text(encoding="utf-8"))
    assert isinstance(history, list) and len(history) == out["epochs_run"]


def test_pipeline_evaluate(pipeline, capsys):
    code, out = _run(capsys, ["evaluate", "--config", str(pipeline / "cfg.json")])
    assert code == 0
    for key in ("loss", "mae", "accuracy", "precision", "recall"):
        assert 0.0 <= out[key] or key == "loss"
    assert out["tp"] + out["fp"] + out["fn"] + out["tn"] == 162


def test_pipeline_predict_text_flag(pipeline, capsys):
    code, out = _run(
        capsys,
        ["predict", "--config", str(pipeline / "cfg.json"), "--text", "好棒好棒好棒"],
    )
    assert code == 0
    assert out["label"] in (0, 1)
    assert 0.0 < out["p"] < 1.0


def test_pipeline_predict_stdin(pipeline, capsys, monkeypatch):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO("好棒极了妙\n\nhttp://x.example/y\n太差太烂了\n")
    )
    code = cli.main(["predict", "--config", str(pipeline / "cfg.json")])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    rows = [json.loads(l) for l in lines]
    assert "label" in rows[0]
    assert rows[1] == {"error": "empty input"}
    assert rows[2] == {"error": "empty input"}
    assert "label" in rows[3]


def test_prelabel_empty_corpus_succeeds(tmp_path, capsys):
    (tmp_path / "empty.jsonl").write_text("", encoding="utf-8")
    code, out = _run(
        capsys,
        [
            "prelabel",
            "--set", f"paths.corpus={tmp_path / 'empty.jsonl'}",
            "--set", f"paths.labeled={tmp_path / 'labeled.jsonl'}",
        ],
    )
    assert code == 0
    assert out["positive"] == 0 and out["negative"] == 0 and out["reviews"] == 0


def test_train_with_corrupt_embeddings_exits_3(pipeline, tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"GARBAGE\x00\x01")
    code = cli.main(
        [
            "train",
            "--config", str(pipeline / "cfg.json"),
            "--set", f"paths.embeddings={bad}",
        ]
    )
    assert code == 3
    assert "W2V1" in capsys.readouterr().err
    cut = tmp_path / "cut.bin"
    cut.write_bytes((pipeline / "emb.bin").read_bytes()[:-3])
    code = cli.main(
        ["train", "--config", str(pipeline / "cfg.json"), "--set", f"paths.embeddings={cut}"]
    )
    assert code == 3
    assert f"error: {cut}: " in capsys.readouterr().err


def test_evaluate_output_is_reproducible(pipeline, capsys):
    argv = ["evaluate", "--config", str(pipeline / "cfg.json")]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_evaluate_unlabeled_corpus_names_the_problem(pipeline, tmp_path, capsys):
    unlabeled = tmp_path / "unlabeled.jsonl"
    unlabeled.write_text('{"text": "好棒"}\n', encoding="utf-8")
    code = cli.main(
        [
            "evaluate",
            "--config", str(pipeline / "cfg.json"),
            "--set", f"paths.labeled={unlabeled}",
        ]
    )
    assert code == 3
    assert "labels required" in capsys.readouterr().err


def test_removed_stop_chars_key_is_unknown(pipeline, capsys):
    code = cli.main(
        ["predict", "--config", str(pipeline / "cfg.json"), "--set", "tokenizer.stop_chars=,",
         "--text", "好棒"]
    )
    assert code == 2
    assert "unknown config key: tokenizer.stop_chars" in capsys.readouterr().err


def test_pipeline_predict_threshold_override(pipeline, capsys):
    code, low = _run(
        capsys,
        ["predict", "--config", str(pipeline / "cfg.json"), "--set", "threshold=0.0",
         "--text", "太差太烂"],
    )
    assert code == 0 and low["label"] == 1  # threshold 0 forces positive
    code, high = _run(
        capsys,
        ["predict", "--config", str(pipeline / "cfg.json"), "--set", "threshold=1.0",
         "--text", "好棒妙"],
    )
    assert code == 0 and high["label"] == 0
