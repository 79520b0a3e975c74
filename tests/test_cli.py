import argparse
import contextlib
import dataclasses
import io
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import charsent as cs
from charsent import cli
from charsent.corpus import Corpus, Review, save_corpus
from charsent.errors import CharsentError, ConfigError, DataError, NumericalError
from charsent.synthetic import generate_corpus

from helpers import make_model


def test_build_config_defaults():
    cfg = cli.build_config(None, [])
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
    cfg = cli.build_config(str(path), ["training.epochs=4", "threshold=0.6"])
    assert cfg.seed == 5
    assert cfg.word2vec.dim == 32
    assert cfg.word2vec.window == 4  # untouched defaults survive
    assert cfg.paths.model == "m.ssm"
    assert cfg.training.epochs == 4
    assert cfg.threshold == 0.6
    assert cfg.word2vec.seed == cfg.training.seed == 5  # the pipeline seed reaches both


def test_build_config_file_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 5, "word2vec": {"dim": 32}}), encoding="utf-8-sig")
    cfg = cli.build_config(str(path), [])
    assert (cfg.seed, cfg.word2vec.dim) == (5, 32)


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
            "split.val_frac=0",
        ],
    )
    assert cfg.training.freeze_embeddings is True
    assert cfg.word2vec.subsample_threshold is None
    assert cfg.word2vec.mode == "skipgram"
    assert cfg.paths.model == "out dir/model.ssm"
    assert cfg.training.learning_rate == 0.005
    assert cfg.split.train_frac == 1.0 and type(cfg.split.train_frac) is float
    assert cfg.split.val_frac == 0.0 and type(cfg.split.val_frac) is float


def test_build_config_checks_the_set_values_together():
    cfg = cli.build_config(None, ["split.train_frac=0.9", "split.val_frac=0.05"])
    assert (cfg.split.train_frac, cfg.split.val_frac) == (0.9, 0.05)
    with pytest.raises(ConfigError, match=r"^split\.train_frac must be > 0 .* got train_frac=0.9, val_frac=0.15$"):
        cli.build_config(None, ["split.train_frac=0.9"])


def test_split_fractions_are_checked_when_the_config_is_read(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    missing = tmp_path / "missing.jsonl"
    config.write_text(json.dumps({"split": {"train_frac": 0.9}, "paths": {"labeled": str(missing)}}))
    assert cli.main(["train", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: {config}: split.train_frac must be > 0 and val_frac >= 0, summing to at most 1, "
        "got train_frac=0.9, val_frac=0.15\n"
    )


def test_build_config_set_seed_beats_the_files(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 5}), encoding="utf-8")
    assert cli.build_config(str(path), []).training.seed == 5
    cfg = cli.build_config(str(path), ["seed=6"])
    assert cfg.seed == cfg.word2vec.seed == cfg.training.seed == 6


def test_build_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError) as err:
        cli.build_config(None, ["word2vec.windw=3"])
    assert "word2vec.windw" in str(err.value)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"wordvec": {}}), encoding="utf-8")
    with pytest.raises(ConfigError):
        cli.build_config(str(path), [])
    for key in ("word2vec.seed", "training.seed"):  # only the pipeline seed is a key
        with pytest.raises(ConfigError, match=f"unknown config key: {key}"):
            cli.build_config(None, [f"{key}=3"])


def test_build_config_rejects_malformed_inputs(tmp_path):
    with pytest.raises(ConfigError):
        cli.build_config(None, ["no_equals_sign"])
    with pytest.raises(ConfigError):
        cli.build_config(str(tmp_path / "missing.json"), [])
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        cli.build_config(str(bad), [])
    arr = tmp_path / "arr.json"
    arr.write_text("[1,2]", encoding="utf-8")
    with pytest.raises(ConfigError):
        cli.build_config(str(arr), [])
    with pytest.raises(ConfigError):
        cli.build_config(None, ["seed=1.5"])
    with pytest.raises(ConfigError, match="beta1"):  # section range checks still run
        cli.build_config(None, ["training.beta1=1"])
    with pytest.raises(ConfigError, match="split.train_frac"):  # an int beyond float range
        cli.build_config(None, ["split.train_frac=1" + "0" * 400])


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


RANGE_ERRORS = [
    pytest.param("training.learning_rate=0", "must be > 0", id="training.learning_rate"),
    pytest.param("word2vec.learning_rate=0", "must be > 0", id="word2vec.learning_rate"),
    pytest.param("threshold=1.5", "must lie in [0, 1]", id="threshold=1.5"),
    pytest.param("threshold=-0.2", "must lie in [0, 1]", id="threshold=-0.2"),
    # rules a stage or a library entry point checks too; a size stays
    # below the model header's bound, 2**31
    pytest.param("seed=-1", "must be a non-negative integer, got -1", id="seed"),
    pytest.param("tokenizer.max_len=0", "must be >= 1, got 0", id="tokenizer.max_len"),
    pytest.param("tokenizer.min_count=0", "must be >= 1, got 0", id="tokenizer.min_count"),
    *(
        pytest.param(f"{key}={size}", f"must lie in [1, 2147483648), got {size}", id=f"{key}={size}")
        for key in ("network.hidden_size", "word2vec.dim", "word2vec.negatives", "word2vec.window")
        for size in (0, 2**31, 10**12)
    ),
]


@pytest.mark.parametrize("override, message", RANGE_ERRORS)
def test_main_range_error_names_its_section(override, message, capsys):
    assert cli.main(["train", "--set", override]) == 2
    key = override.partition("=")[0]
    assert capsys.readouterr().err == f"error: {key} {message}\n"


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


def test_readme_cli_section_names_the_parser_options():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        option
        for command in (parser, *commands.choices.values())
        for action in command._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert named == options == {"--config", "--set", "--text"}


@pytest.mark.parametrize("error", CharsentError.__subclasses__(), ids=lambda e: e.__name__)
def test_main_exit_code_of_each_error_class(monkeypatch, capsys, error):
    def build_config(config_path, overrides):
        raise error("no good")

    monkeypatch.setattr(cli, "build_config", build_config)
    assert cli.main(["train"]) == {ConfigError: 2, DataError: 3, NumericalError: 4}[error]
    assert capsys.readouterr().err == "error: no good\n"


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
    assert out["positive"] == sum(r["label"] == 1 for r in rows)
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


def test_pipeline_train_history_agrees_with_its_summary(pipeline):
    """history.json holds one record per epoch run, the record at the
    best epoch holds the validation figures the summary reports, and the
    run stopped early exactly when it ran fewer epochs than its budget.
    """
    code, out = _summary(pipeline, "train")
    assert code == 0
    records = json.loads((pipeline / "history.json").read_text(encoding="utf-8"))
    keys = {"epoch", "train_loss", "train_acc", "val_loss", "val_acc"}
    assert all(set(r) == keys for r in records)
    assert [r["epoch"] for r in records] == list(range(1, out["epochs_run"] + 1))
    best = records[out["best_epoch"] - 1]
    assert (best["val_loss"], best["val_acc"]) == (out["val"]["loss"], out["val"]["accuracy"])
    budget = json.loads((pipeline / "cfg.json").read_text(encoding="utf-8"))["training"]["epochs"]
    assert out["stopped_early"] == (len(records) < budget)


def test_train_whose_patience_runs_out_on_its_last_epoch_did_not_stop_early(pipeline, tmp_path, capsys):
    """Early stopping means fewer epochs than the budget: a run stopped by
    patience prints stopped_early true, and the same run given exactly the
    epochs it used runs them all and prints false.
    """

    def run(epochs):
        code, out = _run(
            capsys,
            [
                "train",
                "--config",
                str(pipeline / "cfg.json"),
                "--set",
                f"paths.model={tmp_path / 'model.ssm'}",
                "--set",
                f"paths.history={tmp_path / 'history.json'}",
                "--set",
                "training.patience=1",
                "--set",
                f"training.epochs={epochs}",
            ],
        )
        assert code == 0
        return out

    stopped = run(30)
    assert stopped["stopped_early"] is True
    assert stopped["epochs_run"] == stopped["best_epoch"] + 1 < 30
    spent = run(stopped["epochs_run"])
    assert spent["stopped_early"] is False
    assert spent["epochs_run"] == stopped["epochs_run"]
    assert {k: spent[k] for k in ("best_epoch", "val", "test")} == {
        k: stopped[k] for k in ("best_epoch", "val", "test")
    }


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


def test_pipeline_predict_invalid_utf8_text_flag(pipeline, capsys):
    """Undecodable argv bytes arrive as lone surrogates; that text gets
    an error line and the next one is still scored.
    """
    code = cli.main(
        ["predict", "--config", str(pipeline / "cfg.json"), "--text", "好\udcff棒", "--text", "好棒"]
    )
    assert code == 0
    rows = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert rows[0] == {"error": "invalid UTF-8"}
    assert set(rows[1]) == {"label", "p"}


@pytest.mark.parametrize("io_encoding", [None, "utf-8:strict"])
def test_pipeline_predict_invalid_utf8_stdin(pipeline, io_encoding):
    """Each stdin line that is not UTF-8 gets an error line, whether the
    interpreter decodes stdin strictly or with surrogateescape.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    env.pop("PYTHONIOENCODING", None)
    if io_encoding is not None:
        env["PYTHONIOENCODING"] = io_encoding
    done = subprocess.run(
        [sys.executable, "-m", "charsent.cli", "predict", "--config", str(pipeline / "cfg.json")],
        # a good line, two undecodable ones (the second a cut-off 好), an empty one, a good one
        input=b"\n".join(["好棒".encode(), b"\xff\xfe", "好".encode()[:2], b"", "太差".encode()]) + b"\n",
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    rows = [json.loads(l) for l in done.stdout.decode().splitlines()]
    assert [sorted(r) for r in rows] == [
        ["label", "p"], ["error"], ["error"], ["error"], ["label", "p"]
    ]
    assert rows[1] == rows[2] == {"error": "invalid UTF-8"}
    assert rows[3] == {"error": "empty input"}


@pytest.mark.parametrize("lines, read", [(5000, 1), (1, 0)], ids=["head-1", "true"])
def test_pipeline_predict_into_a_closed_stdout_exits_0_quietly(pipeline, tmp_path, lines, read):
    """As `charsent predict ... | head -1` does, the reader takes a line
    and goes; as `| true` does, it goes at once, so the one result is
    still in stdout's buffer when the run ends.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    texts, errors = tmp_path / "texts.txt", tmp_path / "stderr.txt"
    texts.write_text("好棒\n" * lines, encoding="utf-8")
    with texts.open("rb") as stdin, errors.open("wb") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "charsent.cli", "predict", "--config", str(pipeline / "cfg.json")],
            stdin=stdin,
            stdout=subprocess.PIPE,
            stderr=stderr,
            env=env,
        )
        for _ in range(read):
            assert set(json.loads(proc.stdout.readline())) == {"label", "p"}
        proc.stdout.close()
        code = proc.wait(timeout=60)
    assert (code, errors.read_text(encoding="utf-8")) == (0, "")


def _run_with_a_standard_stream(pipeline, argv, closed=None, **streams):
    """Run the CLI in a fresh interpreter with the standard stream
    `closed` (0, 1 or 2) closed, as `<&-`, `>&-` or `2>&-` leave it, or
    with `streams` in place of the captured ones; returns (exit code,
    stdout, stderr), "" for a stream not captured.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "charsent.cli", *argv, "--config", str(pipeline / "cfg.json")],
        **{"stdin": subprocess.DEVNULL, "stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams},
        preexec_fn=None if closed is None else lambda: os.close(closed),
        env=env,
        timeout=120,
    )
    return done.returncode, (done.stdout or b"").decode(), (done.stderr or b"").decode()


def test_predict_without_text_or_stdin_is_a_usage_error(pipeline):
    code, out, err = _run_with_a_standard_stream(pipeline, ["predict"], closed=0)
    assert (code, out) == (2, "")
    assert err == "error: predict needs --text or a standard input to read\n"


def test_evaluate_into_a_closed_stdout_exits_0_quietly(pipeline):
    assert _run_with_a_standard_stream(pipeline, ["evaluate"], closed=1) == (0, "", "")


def test_train_with_stderr_closed_writes_only_its_summary_to_stdout(pipeline, tmp_path):
    paths = ["--set", f"paths.model={tmp_path / 'model.ssm'}",
             "--set", f"paths.history={tmp_path / 'history.json'}"]
    code, out, _ = _run_with_a_standard_stream(pipeline, ["train", *paths], closed=2)
    assert code == 0
    assert len(out.splitlines()) == 1 and "best_epoch" in json.loads(out)


def test_an_error_line_stderr_cannot_take_is_lost_and_keeps_exit_3(pipeline, tmp_path):
    argv = ["evaluate", "--set", f"paths.model={tmp_path / 'missing.ssm'}"]
    assert _run_with_a_standard_stream(pipeline, argv, closed=2) == (3, "", "")
    # a stderr that is open but not writable, as the read-only fd 2 that
    # some launcher scripts leave behind: each write fails with EBADF
    with open(os.devnull, "rb") as unwritable:
        assert _run_with_a_standard_stream(pipeline, argv, stderr=unwritable) == (3, "", "")


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


def test_prelabel_to_a_csv_path_exits_2_and_writes_nothing(tmp_path, capsys):
    (tmp_path / "corpus.jsonl").write_text('{"text": "好棒"}\n', encoding="utf-8")
    argv = ["prelabel", "--set", f"paths.corpus={tmp_path / 'corpus.jsonl'}"]
    assert cli.main(argv + ["--set", f"paths.labeled={tmp_path / 'lab.csv'}"]) == 2
    assert not (tmp_path / "lab.csv").exists()


def test_prelabel_keeps_source_ids(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        '{"text": "好好 http://x.y/z", "source_id": "a1"}\n'
        '{"text": "太差", "label": 0, "source_id": "b2"}\n',
        encoding="utf-8",
    )
    out = tmp_path / "labeled.jsonl"
    code, summary = _run(
        capsys, ["prelabel", "--set", f"paths.corpus={corpus}", "--set", f"paths.labeled={out}"]
    )
    assert code == 0 and summary["newly_labeled"] == 1
    rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert [(r["text"], r["source_id"]) for r in rows] == [("好好", "a1"), ("太差", "b2")]


@pytest.mark.parametrize("command", ["prelabel", "embed"])
def test_a_corpus_text_that_is_not_valid_unicode_exits_3(tmp_path, capsys, command):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"text": "好棒", "label": 1}\n{"text": "\\ud800好坏", "label": 1}\n', encoding="utf-8")
    argv = [command, "--set", f"paths.corpus={corpus}", "--set", f"paths.labeled={corpus}",
            "--set", f"paths.vocab={tmp_path / 'vocab.json'}", "--set", f"paths.embeddings={tmp_path / 'emb.bin'}"]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.endswith(f"error: {corpus}:2: text is not valid Unicode (a lone surrogate at index 0)\n")
    assert os.listdir(tmp_path) == ["corpus.jsonl"]


def test_embed_one_character_corpus_exits_3(tmp_path):
    """Every negative draw would be the excluded center; the run must
    stop with a data error instead of redrawing forever.
    """
    labeled = tmp_path / "labeled.jsonl"
    labeled.write_text(
        '{"text": "好好好好", "label": 1}\n{"text": "好好", "label": 0}\n', encoding="utf-8"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "charsent.cli", "embed",
         "--set", f"paths.labeled={labeled}",
         "--set", f"paths.vocab={tmp_path / 'vocab.json'}",
         "--set", f"paths.embeddings={tmp_path / 'emb.bin'}",
         "--set", "word2vec.dim=4", "--set", "word2vec.epochs=1"],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 3, done.stderr
    assert done.stderr.decode().startswith(f"error: {labeled}: cannot draw negatives")
    assert not (tmp_path / "emb.bin").exists()


def test_embed_corpus_without_a_window_exits_3(tmp_path):
    """One-character reviews give no (center, context) pair; the run
    must stop with a data error instead of reporting a loss of 0.
    """
    labeled = tmp_path / "labeled.jsonl"
    labeled.write_text('{"text": "好", "label": 1}\n{"text": "坏", "label": 0}\n', encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "charsent.cli", "embed",
         "--set", f"paths.labeled={labeled}",
         "--set", f"paths.vocab={tmp_path / 'vocab.json'}",
         "--set", f"paths.embeddings={tmp_path / 'emb.bin'}",
         "--set", "word2vec.dim=4", "--set", "word2vec.epochs=1"],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 3, done.stderr
    assert done.stderr.decode().startswith(f"error: {labeled}: cannot train embeddings: no token has a neighbor")
    assert not (tmp_path / "emb.bin").exists()


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


def test_train_with_embeddings_for_other_tokens_exits_3(pipeline, tmp_path, capsys):
    # ids 2 and 3 swap tokens; the header keeps the vocabulary hash, so
    # only the token list shows that every row of both is misaligned
    header, _, body = (pipeline / "emb.bin").read_bytes().partition(b"\n")
    tail = 4 * int(header.split(b" ")[2]) + 2  # the space, the floats and the newline
    rows, start = [], 0
    while start < len(body):
        space = body.index(b" ", start)  # a token holds no whitespace
        rows.append([body[start:space], body[space : space + tail]])
        start = space + tail
    rows[2][0], rows[3][0] = rows[3][0], rows[2][0]
    swapped = tmp_path / "swapped.bin"
    swapped.write_bytes(header + b"\n" + b"".join(token + rest for token, rest in rows))
    assert swapped.read_bytes().split(b"\n", 1)[0] == (pipeline / "emb.bin").read_bytes().split(b"\n", 1)[0]
    code = cli.main(
        ["train", "--config", str(pipeline / "cfg.json"), "--set", f"paths.embeddings={swapped}"]
    )
    assert code == 3
    assert f"error: {swapped}: embedding tokens do not match the vocabulary" in capsys.readouterr().err


def test_train_with_embeddings_without_pad_and_unk_rows_exits_3(pipeline, tmp_path, capsys):
    # the real tokens, with the header's size, but no <pad> and <unk> rows
    blob = (pipeline / "emb.bin").read_bytes()
    header, _, rows = blob.partition(b"\n")
    magic, size, dim, vocab_hash = header.split(b" ")
    row_bytes = 4 * int(dim) + 2
    rows = rows[rows.index(b" ") + row_bytes :]  # drop <pad>
    rows = rows[rows.index(b" ") + row_bytes :]  # and <unk>
    edited = tmp_path / "edited.bin"
    edited.write_bytes(b" ".join([magic, b"%d" % (int(size) - 2), dim, vocab_hash]) + b"\n" + rows)
    code = cli.main(
        ["train", "--config", str(pipeline / "cfg.json"), "--set", f"paths.embeddings={edited}"]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {edited}: embedding rows 0 and 1 must be <pad> and <unk>, got ")


def test_evaluate_output_is_reproducible(pipeline, capsys):
    argv = ["evaluate", "--config", str(pipeline / "cfg.json")]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_evaluate_on_the_saved_model_reprints_trains_blocks(pipeline, tmp_path, capsys):
    _, summary = _summary(pipeline, "train")
    labeled = cs.load_corpus(pipeline / "labeled.jsonl")
    defaults = cli.PipelineConfig().split
    _, val, test = cs.split(labeled, defaults.train_frac, defaults.val_frac, seed=31)
    for name, part in (("val", val), ("test", test)):
        save_corpus(part, tmp_path / f"{name}.jsonl")
        code, out = _run(capsys, ["evaluate", "--config", str(pipeline / "cfg.json"),
                                  "--set", f"paths.labeled={tmp_path / f'{name}.jsonl'}"])
        assert code == 0
        assert out == summary[name], name


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
    err = capsys.readouterr().err
    assert err.startswith(f"error: {unlabeled}: review '好棒': ") and "labels required" in err
    # a review with no token after cleaning, and a file with no review at all
    for content, message in [
        ('{"text": "http://x.y/z", "label": 1}\n',
         "review 'http://x.y/z': a token sequence needs at least one token"),
        ("", "cannot compute metrics on an empty dataset"),
    ]:
        unlabeled.write_text(content, encoding="utf-8")
        argv = ["evaluate", "--config", str(pipeline / "cfg.json"), "--set", f"paths.labeled={unlabeled}"]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == f"error: {unlabeled}: {message}\n"


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"label": None}, "labels required, but the review has none"),
        ({"text": "http://x.y/z " * 3}, "a token sequence needs at least one token"),
    ],
    ids=["unlabeled", "no-token-after-cleaning"],
)
def test_train_finds_a_bad_test_split_review_before_training(pipeline, tmp_path, capsys, bad, message):
    cfg = cli.build_config(str(pipeline / "cfg.json"), [])
    reviews = cs.load_corpus(pipeline / "labeled.jsonl").reviews
    *_, test_c = cs.split(Corpus(reviews), cfg.split.train_frac, cfg.split.val_frac, cfg.seed)
    target = test_c.reviews[0]
    labeled = tmp_path / "labeled.jsonl"
    save_corpus(Corpus([dataclasses.replace(r, **bad) if r is target else r for r in reviews]), labeled)
    model, history = tmp_path / "model.ssm", tmp_path / "history.json"
    argv = ["train", "--config", str(pipeline / "cfg.json"), "--set", f"paths.labeled={labeled}",
            "--set", f"paths.model={model}", "--set", f"paths.history={history}"]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "training on" not in err
    text = dataclasses.replace(target, **bad).text
    assert err.startswith(f"error: {labeled}: review '{text[:20]}") and err.endswith(f": {message}\n")
    assert not model.exists() and not history.exists()


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


def test_train_with_json_embeddings_exits_3(pipeline, tmp_path, capsys):
    # the JSON debug form that save_embeddings(format="json") used to write
    matrix, tokens = cs.load_embeddings(pipeline / "emb.bin")
    payload = {
        "format": "W2V1",
        "vocab_size": matrix.vocab_size,
        "dim": matrix.dim,
        "vocab_hash": matrix.vocab_hash,
        "rows": [
            {"token": t, "vector": [float(v) for v in row]}
            for t, row in zip(tokens, matrix.vectors, strict=True)
        ],
    }
    path = tmp_path / "emb.json"
    path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
    code = cli.main(
        ["train", "--config", str(pipeline / "cfg.json"), "--set", f"paths.embeddings={path}"]
    )
    assert code == 3
    assert capsys.readouterr().err == f"error: {path}: not a W2V1 embedding file (bad magic)\n"


NOT_UTF8 = b'{"text": "\xe5\xa5\xbd\xff", "label": 1}\n'
# JSON that json.loads cannot read: nested past the recursion limit, or
# holding an integer past int()'s 4300-digit limit
TOO_DEEP = "[" * 100_000 + "]" * 100_000
TOO_LONG = "1" * 5000

# (command, the key that names the file, file name, its bytes or None
# for a directory, exit code)
UNREADABLE_INPUTS = [
    pytest.param("evaluate", "paths.model", "model.ssm", None, 3, id="model-is-a-directory"),
    pytest.param("train", "paths.labeled", "labeled.jsonl", None, 3, id="labeled-is-a-directory"),
    pytest.param("train", "paths.embeddings", "emb.bin", None, 3, id="embeddings-is-a-directory"),
    pytest.param("train", "--config", "cfg.json", None, 2, id="config-is-a-directory"),
    pytest.param("train", "paths.labeled", "labeled.jsonl", NOT_UTF8, 3, id="jsonl-not-utf8"),
    pytest.param("train", "paths.labeled", "labeled.csv", b"text,label\n\xff,1\n", 3, id="csv-not-utf8"),
    pytest.param("prelabel", "paths.lexicon", "lex.jsonl", b'{"token": "\xff", "weight": 1}\n', 3,
                 id="lexicon-not-utf8"),
    pytest.param("train", "paths.vocab", "vocab.json", b'{"min_count": 1, "tokens": ["\xff"]}', 3,
                 id="vocab-not-utf8"),
    pytest.param("train", "--config", "cfg.json", b'{"seed": "\xff"}', 2, id="config-not-utf8"),
    pytest.param("train", "paths.vocab", "vocab.json", b'{"min_count": "x", "tokens": []}', 3,
                 id="vocab-min-count-string"),
    pytest.param("train", "paths.vocab", "vocab.json", b'{"min_count": 1, "tokens": 5}', 3,
                 id="vocab-tokens-number"),
    pytest.param("train", "--config", "cfg.json", TOO_DEEP.encode(), 2, id="config-too-deep"),
    pytest.param("train", "--config", "cfg.json", f'{{"seed": {TOO_LONG}}}'.encode(), 2,
                 id="config-integer-too-long"),
    pytest.param("train", "paths.labeled", "labeled.jsonl", TOO_DEEP.encode(), 3, id="jsonl-too-deep"),
    pytest.param("train", "paths.labeled", "labeled.jsonl", f'{{"text": "好", "label": {TOO_LONG}}}'.encode(), 3,
                 id="jsonl-integer-too-long"),
    pytest.param("prelabel", "paths.lexicon", "lex.jsonl", f'{{"token": "好", "weight": {TOO_LONG}}}'.encode(), 3,
                 id="lexicon-integer-too-long"),
    pytest.param("train", "paths.vocab", "vocab.json", TOO_DEEP.encode(), 3, id="vocab-too-deep"),
    pytest.param("evaluate", "paths.model", "model.ssm",
                 b"SSM1" + struct.pack("<I", len(TOO_DEEP)) + TOO_DEEP.encode(), 3, id="model-header-too-deep"),
]


@pytest.mark.parametrize("command, key, name, content, code", UNREADABLE_INPUTS)
def test_main_unreadable_input_exits_with_error_line(
    pipeline, tmp_path, capsys, command, key, name, content, code
):
    path = tmp_path / name
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    if key == "--config":
        argv = [command, "--config", str(path)]
    else:
        # a train that got past its inputs would write here, not to the fixture
        argv = [command, "--config", str(pipeline / "cfg.json"),
                "--set", f"paths.model={tmp_path / 'out.ssm'}", "--set", f"{key}={path}"]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {path}"), err[:300]
    assert os.listdir(tmp_path) == [name]


@pytest.mark.parametrize("value", [TOO_DEEP, TOO_LONG], ids=["too-deep", "integer-too-long"])
def test_set_value_past_the_parser_limits_exits_2(capsys, value):
    # JSON all the same, so not taken as a bare string
    assert cli.main(["train", "--set", f"seed={value}"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: invalid JSON in --set seed (")


def test_nesting_around_the_recursion_limit_names_the_file(tmp_path, capsys):
    """From 900 to 1100 deep json.loads goes from reading the nesting to
    refusing it; at every depth, a whole document or a field nested
    that deep ends in one error line that names the file.
    """
    config, corpus = tmp_path / "cfg.json", tmp_path / "labeled.jsonl"
    embed = ["embed", "--set", f"paths.labeled={corpus}",
             "--set", f"paths.vocab={tmp_path / 'vocab.json'}",
             "--set", f"paths.embeddings={tmp_path / 'emb.bin'}"]
    for depth in range(900, 1101, 10):
        nested = "[" * depth + "]" * depth
        for text in (nested, f'{{"seed": {nested}}}'):
            config.write_text(text, encoding="utf-8")
            assert cli.main(["train", "--config", str(config)]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith(f"error: {config}: "), (depth, err[:200])
        for text in (nested, f'{{"text": "好", "label": {nested}}}'):
            corpus.write_text(text + "\n", encoding="utf-8")
            assert cli.main(embed) == 3
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith(f"error: {corpus}:1: "), (depth, err[:200])
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "labeled.jsonl"]


def test_train_on_a_corpus_too_small_to_split_names_the_file(pipeline, tmp_path, capsys):
    labeled = tmp_path / "labeled.jsonl"
    save_corpus(Corpus([Review(text="好棒", label=1), Review(text="太差", label=0)]), labeled)
    argv = ["train", "--config", str(pipeline / "cfg.json"), "--set", f"paths.labeled={labeled}",
            "--set", f"paths.model={tmp_path / 'model.ssm'}", "--set", f"paths.history={tmp_path / 'history.json'}"]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: {labeled}: train and validation sets must be non-empty, "
        "got 1 training and 0 validation examples"
    )
    assert os.listdir(tmp_path) == ["labeled.jsonl"]


def test_embed_on_an_empty_corpus_names_the_file(tmp_path, capsys):
    labeled = tmp_path / "labeled.jsonl"
    labeled.write_bytes(b"")
    argv = ["embed", "--set", f"paths.labeled={labeled}",
            "--set", f"paths.vocab={tmp_path / 'vocab.json'}", "--set", f"paths.embeddings={tmp_path / 'emb.bin'}"]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == f"error: {labeled}: cannot build a vocabulary from an empty corpus\n"
    assert os.listdir(tmp_path) == ["labeled.jsonl"]


def test_embed_when_subsampling_empties_an_epoch_exits_3(tmp_path, capsys):
    """An epoch with no window has no mean loss; the run must stop with
    a data error instead of reporting 0.0.
    """
    labeled = tmp_path / "labeled.jsonl"
    save_corpus(generate_corpus(40, seed=5), labeled)
    argv = ["embed", "--set", f"paths.labeled={labeled}",
            "--set", f"paths.vocab={tmp_path / 'vocab.json'}", "--set", f"paths.embeddings={tmp_path / 'emb.bin'}",
            "--set", "word2vec.dim=4", "--set", "word2vec.subsample_threshold=1e-9"]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == (
        f"error: {labeled}: cannot train embeddings: subsampling at threshold 1e-09 "
        "kept no window in epoch 1\n"
    )
    assert os.listdir(tmp_path) == ["labeled.jsonl"]


def test_embed_with_a_window_past_a_c_size_exits_2(tmp_path, capsys):
    """A window too large for a C size is refused when the config is
    read, before any window is built.
    """
    labeled = tmp_path / "labeled.jsonl"
    save_corpus(generate_corpus(40, seed=5), labeled)
    argv = ["embed", "--set", f"paths.labeled={labeled}",
            "--set", f"paths.vocab={tmp_path / 'vocab.json'}", "--set", f"paths.embeddings={tmp_path / 'emb.bin'}",
            "--set", f"word2vec.window={2**63}"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: word2vec.window must lie in [1, 2147483648), got {2**63}\n"
    assert os.listdir(tmp_path) == ["labeled.jsonl"]


def test_train_with_a_vocabulary_of_another_min_count_names_both_files(pipeline, tmp_path, capsys):
    # the same tokens, so only the vocabulary hash, which covers min_count, differs
    vocab = cs.Vocabulary.load(pipeline / "vocab.json")
    other = tmp_path / "vocab.json"
    cs.Vocabulary(vocab.tokens, min_count=vocab.min_count + 1).save(other)
    argv = ["train", "--config", str(pipeline / "cfg.json"), "--set", f"paths.vocab={other}",
            "--set", f"paths.model={tmp_path / 'model.ssm'}"]
    assert cli.main(argv) == 3
    emb = pipeline / "emb.bin"
    assert capsys.readouterr().err == f"error: {emb}: embedding tokens do not match the vocabulary {other}\n"
    assert os.listdir(tmp_path) == ["vocab.json"]


def _write_edited_model(path: Path, changes: dict) -> None:
    """A tiny model saved to `path` with `changes` written over its SSM1
    header; the tensor blocks keep their size.
    """
    cs.save_model(make_model(cs.build_vocab(["好坏"], min_count=1), hidden_size=2, dim=2, max_len=4), path)
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<I", blob[4:8])
    header = json.loads(blob[8 : 8 + header_len].decode("utf-8")) | changes
    raw = json.dumps(header, ensure_ascii=False).encode("utf-8")
    path.write_bytes(b"SSM1" + struct.pack("<I", len(raw)) + raw + blob[8 + header_len :])


# (command, the key that names the file, file name, its bytes or the
# changes to a model header, what the error says); each rule is the
# type's own (Vocabulary, Model or PolarityLexicon), and the loader
# names the file
RULES_IN_FILES = [
    pytest.param("prelabel", "paths.lexicon", "lex.jsonl", f'{{"token": "好", "weight": {10**400}}}'.encode(),
                 "lexicon weight for '好' is not a finite number", id="lexicon-weight-too-large-for-a-float"),
    pytest.param("train", "paths.vocab", "vocab.json", '{"min_count": 1, "tokens": ["好", "好"]}'.encode(),
                 "duplicate token in vocabulary", id="vocab-duplicate-token"),
    pytest.param("evaluate", "paths.model", "model.ssm", {"h": 10**2200},
                 "model header field 'h' is missing or invalid", id="model-h-of-2201-digits"),
    pytest.param("evaluate", "paths.model", "model.ssm", {"tokens": ["好", "好"]},
                 "duplicate token in vocabulary", id="model-duplicate-token"),
    pytest.param("evaluate", "paths.model", "model.ssm", {"vocab_hash": "0" * 16},
                 "embedding matrix does not match the vocabulary: 4 rows, hash 0000000000000000; 4 tokens, "
                 f"hash {cs.build_vocab(['好坏'], min_count=1).content_hash()}", id="model-wrong-vocab-hash"),
    pytest.param("evaluate", "paths.model", "model.ssm", {"threshold": 2},
                 "threshold must be a number in [0, 1], got 2", id="model-threshold-2"),
    pytest.param("evaluate", "paths.model", "model.ssm", {"max_len": 0},
                 "max_len must be an integer >= 1, got 0", id="model-max-len-0"),
    pytest.param("evaluate", "paths.model", "model.ssm", {"metrics": 5},
                 "metrics_snapshot must be a dict or None, got 5", id="model-metrics-5"),
]


@pytest.mark.parametrize("command, key, name, content, message", RULES_IN_FILES)
def test_a_broken_rule_in_a_file_names_the_file_and_exits_3(
    pipeline, tmp_path, capsys, command, key, name, content, message
):
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        _write_edited_model(path, content)
    load = {"vocab.json": cs.Vocabulary.load, "lex.jsonl": cs.load_lexicon}.get(name, cs.load_model)
    with pytest.raises(DataError) as err:
        load(path)
    assert str(err.value) == f"{path}: {message}"
    argv = [command, "--config", str(pipeline / "cfg.json"),
            "--set", f"paths.model={tmp_path / 'out.ssm'}", "--set", f"{key}={path}"]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not (tmp_path / "out.ssm").exists()


def test_embed_into_missing_directory_exits_3(pipeline, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "train_embeddings", lambda *a: pytest.fail("word2vec ran"))
    missing = tmp_path / "no-such-dir" / "emb.bin"
    code = cli.main(
        ["embed", "--config", str(pipeline / "cfg.json"),
         "--set", f"paths.vocab={tmp_path / 'vocab.json'}", "--set", f"paths.embeddings={missing}"]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err == f"error: paths.embeddings: cannot write {missing}: {missing.parent} is not a directory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, key, value, problem",
    [
        ("prelabel", "labeled", "nodir/l.jsonl", "nodir is not a directory"),
        ("embed", "vocab", "nodir/v.json", "nodir is not a directory"),
        ("embed", "embeddings", "afile/e.bin", "afile is not a directory"),
        ("train", "model", "nodir/m.ssm", "nodir is not a directory"),
        ("train", "model", "adir", "it is a directory"),
        ("train", "history", "nodir/h.json", "nodir is not a directory"),
        ("train", "history", "adir", "it is a directory"),
    ],
)
def test_an_output_path_that_cannot_be_written_exits_3_before_any_read(
    pipeline, tmp_path, capsys, monkeypatch, command, key, value, problem
):
    """Each stage checks every file it will write before it reads its
    inputs: a missing parent directory, a parent that is a file or a path
    that names a directory exits 3 without work and writes nothing.
    """
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_bytes(b"")
    for name in ("load_corpus", "load_lexicon", "train_embeddings", "train"):
        monkeypatch.setattr(cli, name, lambda *a, name=name: pytest.fail(f"{name} ran"))
    assert cli.main([command, "--config", str(pipeline / "cfg.json"), "--set", f"paths.{key}={value}"]) == 3
    assert capsys.readouterr().err == f"error: paths.{key}: cannot write {value}: {problem}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile"]
    assert list((tmp_path / "adir").iterdir()) == []


def _diverging_run(argv):
    """Run the CLI in a fresh interpreter, so numpy's warnings reach
    stderr as a user would see them; returns (exit code, stdout, stderr).
    """
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "charsent.cli", *argv], capture_output=True, env=env, timeout=120
    )
    return done.returncode, done.stdout.decode(), done.stderr.decode()


def test_diverging_word2vec_exits_4_and_writes_nothing(tmp_path):
    save_corpus(generate_corpus(200, seed=5), tmp_path / "labeled.jsonl")
    code, out, err = _diverging_run(
        ["embed", "--set", f"paths.labeled={tmp_path / 'labeled.jsonl'}",
         "--set", f"paths.vocab={tmp_path / 'vocab.json'}",
         "--set", f"paths.embeddings={tmp_path / 'emb.bin'}",
         "--set", "word2vec.dim=8", "--set", "word2vec.epochs=1",
         "--set", "word2vec.learning_rate=1e6"]
    )
    assert code == 4, err
    assert err.startswith("error: word2vec diverged at epoch 1: ")
    assert "Warning" not in err and "NaN" not in out and "Infinity" not in out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["labeled.jsonl"]


def test_diverging_training_exits_4_and_writes_nothing(pipeline, tmp_path):
    code, out, err = _diverging_run(
        ["train", "--config", str(pipeline / "cfg.json"),
         "--set", f"paths.model={tmp_path / 'model.ssm'}",
         "--set", f"paths.history={tmp_path / 'history.json'}",
         "--set", "training.learning_rate=1e300"]
    )
    assert code == 4, err
    assert "error: training diverged at epoch 1: " in err
    assert "Warning" not in err and "NaN" not in out and "Infinity" not in out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("embed", "vocab", "\\ud800.json"),
        ("evaluate", "model", "\\ud800.ssm"),
        ("evaluate", "model", "a\\u0000b.ssm"),
        ("predict", "model", "\\udfff.ssm"),
        ("prelabel", "lexicon", "\\ud800.json"),
        ("prelabel", "labeled", "a\\u0000b.jsonl"),
        ("train", "model", ""),
        ("train", "history", "."),
        ("embed", "vocab", "./"),
        ("embed", "embeddings", "/"),
        ("evaluate", "labeled", ""),
    ],
)
def test_a_config_path_the_system_cannot_take_exits_2(
    pipeline, tmp_path, capsys, monkeypatch, command, key, value
):
    """A path os.fsencode cannot encode (a lone surrogate from a JSON
    escape), holding a NUL or naming no file (its last part empty) is
    refused when the config is read, before any stage runs or writes.
    """
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "train_embeddings", lambda *a: pytest.fail("word2vec ran"))
    argv = [command, "--config", str(pipeline / "cfg.json"),
            "--set", f"paths.embeddings={tmp_path / 'emb.bin'}",
            "--set", f'paths.{key}="{value}"',
            *(["--text", "好"] if command == "predict" else [])]
    assert cli.main(argv) == 2
    refused = json.loads(f'"{value}"')
    assert capsys.readouterr().err == f"error: paths.{key} is not a path the system can take: {refused!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_a_config_file_path_holding_a_nul_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"paths": {"model": "a\0b.ssm"}}), encoding="utf-8")
    assert cli.main(["evaluate", "--config", str(path), "--set", "paths.labeled=x.jsonl"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: paths.model is not a path the system can take: 'a\\x00b.ssm'\n"


def test_an_undecodable_argv_byte_in_a_path_is_still_a_path(tmp_path):
    """Such a byte arrives as a surrogate escape, which os.fsencode turns
    back into the byte: the path is taken, and a missing file exits 3.
    """
    code, out, err = _diverging_run(
        ["predict", "--set", b"paths.model=" + bytes(tmp_path) + b"/x\xff.ssm", "--text", "好"]
    )
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.endswith("x\\udcff.ssm: model file not found\n")
