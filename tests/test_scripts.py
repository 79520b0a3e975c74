import importlib
import importlib.util
import json
from pathlib import Path

import charsent as cs

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scripts_run_end_to_end(tmp_path, capsys):
    experiment = _load_script("run_synthetic_experiment")
    argv = ["--reviews", "200", "--epochs", "2", "--w2v-epochs", "1", "--dim", "8",
            "--hidden-size", "8", "--out-dir", str(tmp_path)]
    assert experiment.main(argv) == 0
    model = cs.load_model(tmp_path / "model.bin")
    assert model.params.hidden_size == 8 and model.embeddings.dim == 8
    assert "test: loss" in capsys.readouterr().out

    neighbors = _load_script("inspect_neighbors")
    assert neighbors.main(["--embeddings", str(tmp_path / "embeddings.w2v"), "--queries", "好"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("好: ") and "not in vocabulary" not in out


def test_seed_sweep_smoke(capsys, monkeypatch):
    # imported by name, so that the worker processes can import it too
    monkeypatch.syspath_prepend(str(SCRIPTS))
    sweep = importlib.import_module("seed_sweep")
    assert sweep.main(["--reviews", "60", "--seeds", "3-4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [run["seed"] for run in report["runs"]] == [3, 4]
    for run in report["runs"]:
        assert 1 <= run["best_epoch"] <= run["epochs_run"] <= 30
        assert run["val_reviews"] == 9
        errors = run["val_errors_by_margin"]
        assert set(errors) == {"tie", "pm1", "rest"}
        # the saved float32 model may miss a review more or less than the epoch's record
        assert abs(sum(errors.values()) - round(9 * (1 - run["best_val_acc"]))) <= 1
    accs = sorted(run["best_val_acc"] for run in report["runs"])
    assert report["summary"] == {"min_val_acc": accs[0], "median_val_acc": sum(accs) / 2}
