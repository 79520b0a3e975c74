import importlib
import importlib.util
import json
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


def test_scripts_run_end_to_end(tmp_path, capsys, monkeypatch):
    save_corpus(generate_corpus(60, seed=5), tmp_path / "labeled.jsonl")
    names = {"labeled": "labeled.jsonl", "vocab": "vocab.json", "embeddings": "emb.bin"}
    config = {
        "seed": 5,
        "paths": {key: str(tmp_path / name) for key, name in names.items()},
        "word2vec": {"dim": 8, "epochs": 3},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["embed", "--config", str(tmp_path / "cfg.json")]) == 0
    capsys.readouterr()

    neighbors = _load_script("inspect_neighbors")
    assert neighbors.main(["--embeddings", str(tmp_path / "emb.bin"), "--queries", "好坏"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("好: ") and "not in vocabulary" not in out
    # --synthetic trains the space CLI embed trains on the same corpus and settings
    monkeypatch.setattr(neighbors, "SYNTHETIC_REVIEWS", 60)
    assert neighbors.main(["--synthetic", "--seed", "5", "--dim", "8", "--queries", "好坏"]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("seeds", ["5-1", "1,4-3"])
def test_seed_sweep_rejects_an_empty_seed_range_as_a_usage_error(capsys, seeds):
    sweep = _load_script("seed_sweep")
    with pytest.raises(SystemExit) as exit_info:
        sweep.main(["--seeds", seeds])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "is empty" in err and "Traceback" not in err


def test_seed_sweep_smoke(capsys, monkeypatch):
    # imported by name, so that the worker processes can import it too
    monkeypatch.syspath_prepend(str(SCRIPTS))
    sweep = importlib.import_module("seed_sweep")
    assert sweep.main(["--reviews", "60", "--seeds", "3-4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [run["seed"] for run in report["runs"]] == [3, 4]
    metric_keys = set(Metrics(0.0, 0.0, 0.0, 0.0, 0.0, 0, 0, 0, 0).to_dict())
    for run in report["runs"]:
        assert 1 <= run["best_epoch"] <= run["epochs_run"] <= 30
        assert run["val_reviews"] == 9
        errors = run["val_errors_by_margin"]
        assert set(errors) == {"tie", "pm1", "rest"}
        # the saved float32 model may miss a review more or less than the epoch's record
        assert abs(sum(errors.values()) - round(9 * (1 - run["best_val_acc"]))) <= 1
        test = run["test"]
        assert set(test) == metric_keys
        assert test["tp"] + test["fp"] + test["fn"] + test["tn"] == 9
    accs = sorted(run["best_val_acc"] for run in report["runs"])
    assert report["summary"] == {"min_val_acc": accs[0], "median_val_acc": sum(accs) / 2}
