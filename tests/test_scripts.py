import importlib
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from charsent import cli
from charsent.corpus import save_corpus
from charsent.synthetic import generate_corpus
from charsent.training import Metrics

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _embed(tmp_path) -> Path:
    """Run CLI `embed` on a small seeded corpus in `tmp_path`; the embeddings file."""
    save_corpus(generate_corpus(60, seed=5), tmp_path / "labeled.jsonl")
    names = {"labeled": "labeled.jsonl", "vocab": "vocab.json", "embeddings": "emb.bin"}
    config = {
        "seed": 5,
        "paths": {key: str(tmp_path / name) for key, name in names.items()},
        "word2vec": {"dim": 8, "epochs": 3},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["embed", "--config", str(tmp_path / "cfg.json")]) == 0
    return tmp_path / "emb.bin"


def test_scripts_run_end_to_end(tmp_path, capsys):
    _embed(tmp_path)
    capsys.readouterr()

    neighbors = _load_script("inspect_neighbors")
    assert neighbors.main(["--embeddings", str(tmp_path / "emb.bin"), "--queries", "好坏"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("好: ") and "not in vocabulary" not in out
    with pytest.raises(SystemExit) as exit_info:
        neighbors.main(["--queries", "好坏"])
    assert exit_info.value.code == 2
    assert "--embeddings" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exit_info:
        neighbors.main(["--embeddings", str(tmp_path / "emb.bin"), "--top", "0"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "--top must be at least 1, got 0" in err


def _w2v1(tokens: list[str]) -> bytes:
    rows = (t.encode("utf-8") + b" " + bytes(8) + b"\n" for t in tokens)
    return f"W2V1 {len(tokens)} 2 abc\n".encode("utf-8") + b"".join(rows)


@pytest.mark.parametrize(
    "blob",
    [None, b"W2V1 3 2 abc\n<pad> ", _w2v1(["<pad>", "<unk>", "好", "好"]), _w2v1(list("甲乙丙丁"))],
    ids=["missing", "truncated", "duplicate-token", "no-reserved-rows"],
)
def test_inspect_neighbors_reports_a_bad_embeddings_file_as_a_data_error(tmp_path, capsys, blob):
    path = tmp_path / "emb.bin"
    if blob is not None:
        path.write_bytes(blob)
    neighbors = _load_script("inspect_neighbors")
    assert neighbors.main(["--embeddings", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("stderr", ["closed", "read-only"])
def test_inspect_neighbors_error_line_never_reaches_stdout(tmp_path, stderr):
    """With stderr closed (`2>&-`) or open read-only, as some launcher
    scripts leave fd 2, the error line is lost and the exit code stays 3.
    """
    missing = tmp_path / "missing.bin"
    argv = [sys.executable, str(SCRIPTS / "inspect_neighbors.py"), "--embeddings", str(missing)]
    with open(os.devnull, "rb") as unwritable:
        done = subprocess.run(
            argv,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=unwritable if stderr == "read-only" else None,
            preexec_fn=(lambda: os.close(2)) if stderr == "closed" else None,
            timeout=60,
        )
    assert (done.returncode, done.stdout) == (3, b"")


@pytest.mark.parametrize("queries, read", [("好" * 3000, 1), ("好", 0)], ids=["head-1", "true"])
def test_inspect_neighbors_into_a_closed_stdout_exits_0_quietly(tmp_path, queries, read):
    """As `inspect_neighbors.py ... | head -1` does, the reader takes a
    line and goes; as `| true` does, it goes at once, so the one line is
    still in stdout's buffer when the script ends.
    """
    embeddings = _embed(tmp_path)
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    argv = [sys.executable, str(SCRIPTS / "inspect_neighbors.py"), "--embeddings", str(embeddings)]
    errors = tmp_path / "stderr.txt"
    with errors.open("wb") as stderr:
        proc = subprocess.Popen(
            argv + ["--queries", queries],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=stderr,
            env=env,
        )
        for _ in range(read):
            assert proc.stdout.readline().decode("utf-8").startswith("好: ")
        proc.stdout.close()
        code = proc.wait(timeout=60)
    assert (code, errors.read_text(encoding="utf-8")) == (0, "")


def test_seed_sweep_names_the_reason_a_stage_failed(tmp_path):
    sweep = _load_script("seed_sweep")
    missing = tmp_path / "missing.jsonl"
    paths = {"labeled": missing, "vocab": tmp_path / "vocab.json", "embeddings": tmp_path / "emb.bin"}
    with pytest.raises(RuntimeError) as err:
        sweep._cli(3, ["embed", *(f"--set=paths.{key}={path}" for key, path in paths.items())])
    assert str(err.value).startswith("seed 3: CLI embed exited 3: error: ")
    assert str(missing) in str(err.value)


@pytest.mark.parametrize("seeds", ["5-1", "1,4-3"])
def test_seed_sweep_rejects_an_empty_seed_range_as_a_usage_error(capsys, seeds):
    sweep = _load_script("seed_sweep")
    with pytest.raises(SystemExit) as exit_info:
        sweep.main(["--seeds", seeds])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "is empty" in err and "Traceback" not in err


@pytest.mark.parametrize("seeds, repeated", [("1,1", 1), ("1-3,2", 2), ("4,2-5", 4)])
def test_seed_sweep_rejects_a_repeated_seed_as_a_usage_error(capsys, seeds, repeated):
    # two workers would share the seed's directory
    sweep = _load_script("seed_sweep")
    with pytest.raises(SystemExit) as exit_info:
        sweep.main(["--seeds", seeds])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and f"seed {repeated} is given twice" in err


@pytest.mark.parametrize("reviews", ["0", "-3"])
def test_seed_sweep_rejects_fewer_than_one_review_as_a_usage_error(capsys, reviews):
    sweep = _load_script("seed_sweep")
    with pytest.raises(SystemExit) as exit_info:
        sweep.main(["--reviews", reviews, "--seeds", "1"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and f"--reviews must be at least 1, got {reviews}" in err


def test_seed_sweep_smoke(capsys, monkeypatch):
    # imported by name, so that the worker processes can import it too
    monkeypatch.syspath_prepend(str(SCRIPTS))
    sweep = importlib.import_module("seed_sweep")
    assert sweep.main(["--reviews", "60", "--seeds", "3-4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [run["seed"] for run in report["runs"]] == [3, 4]
    metric_keys = set(asdict(Metrics(0.0, 0.0, 0.0, 0.0, 0.0, 0, 0, 0, 0)))
    for run in report["runs"]:
        assert 1 <= run["best_epoch"] <= run["epochs_run"] <= 30
        assert run["val_reviews"] == 9
        errors = run["val_errors_by_margin"]
        assert set(errors) == {"tie", "pm1", "rest"}
        # the saved model is the best epoch's, so it misses the reviews that epoch missed
        assert sum(errors.values()) == round(9 * (1 - run["best_val_acc"]))
        test = run["test"]
        assert set(test) == metric_keys
        assert test["tp"] + test["fp"] + test["fn"] + test["tn"] == 9
        # the frozen-embedding run scores the same 9 validation and 9 test reviews
        for key in ("frozen_val_acc", "frozen_test_acc"):
            assert 9 * run[key] == pytest.approx(round(9 * run[key]), abs=1e-9)
        assert 0.0 <= run["pool_purity"] <= 1.0
    summary = {}
    for name, key in (
        ("val_acc", "best_val_acc"),
        ("frozen_val_acc", "frozen_val_acc"),
        ("frozen_test_acc", "frozen_test_acc"),
        ("pool_purity", "pool_purity"),
        ("epochs_run", "epochs_run"),
    ):
        values = sorted(run[key] for run in report["runs"])
        summary.update({f"min_{name}": values[0], f"median_{name}": sum(values) / 2})
    assert report["summary"] == summary


def test_seed_sweep_scores_the_split_its_config_sets(tmp_path, monkeypatch):
    sweep = _load_script("seed_sweep")
    monkeypatch.setitem(sweep.CONFIG, "split", {"train_frac": 0.5, "val_frac": 0.3})
    run = sweep.run_seed(3, 60, tmp_path)
    assert run["val_reviews"] == 18
    assert sum(run["val_errors_by_margin"].values()) == round(18 * (1 - run["best_val_acc"]))
