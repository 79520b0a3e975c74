"""Golden run: `charsent embed` then `charsent train` on a small seeded
corpus, compared with the numbers recorded in golden.json.

The history floats and a few parameter sums are always checked, to
TOLERANCE. The SHA-256 of each artifact is checked only when this
numpy build and CPU match the recorded fingerprint, since another BLAS
may sum the same products in another order; otherwise the test warns,
naming the artifacts whose bytes went unchecked.

A second test runs the golden run in child interpreters under each
OpenBLAS kernel this CPU supports, at one and at two threads, and
requires the same artifact bytes at both thread counts of a kernel and
the same emb.bin under every kernel.

After a change that moves these numbers on purpose, rewrite the file
with `PYTHONPATH=src python3 tests/test_golden.py` and say why in the
change log.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from charsent import cli
from charsent.corpus import save_corpus
from charsent.synthetic import generate_corpus
from charsent.training import load_model

GOLDEN = Path(__file__).with_name("golden.json")
ARTIFACTS = ("emb.bin", "model.ssm", "history.json")
TOLERANCE = 1e-6  # absolute and relative, on every checked float


def blas_fingerprint() -> dict:
    """What decides the float results besides the code: the numpy
    version, its BLAS build, and the SIMD extensions found on this CPU.
    """
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": [blas.get("name"), blas.get("version"), blas.get("openblas configuration")],
        "simd": config["SIMD Extensions"].get("found"),
    }


def golden_run(root: Path) -> dict:
    """Run the two stages in `root` and return what golden.json records."""
    save_corpus(generate_corpus(200, seed=7), root / "labeled.jsonl")
    config = {
        "seed": 7,
        "paths": {
            "labeled": str(root / "labeled.jsonl"),
            "vocab": str(root / "vocab.json"),
            "embeddings": str(root / "emb.bin"),
            "model": str(root / "model.ssm"),
            "history": str(root / "history.json"),
        },
        "tokenizer": {"max_len": 60},
        "word2vec": {"dim": 8, "epochs": 1},
        "network": {"hidden_size": 8},
        "training": {"epochs": 3},
    }
    (root / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
    for command in ("embed", "train"):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main([command, "--config", str(root / "cfg.json")]) == 0

    model = load_model(root / "model.ssm")
    tensors = model.params.tensors()
    # the cell's tensors in file order, so the sums do not depend on how they are split
    cell = np.concatenate([t.ravel() for name, t in tensors.items() if name not in ("w_out", "b_out")])
    return {
        "history": json.loads((root / "history.json").read_text(encoding="utf-8")),
        "sums": {
            "cell": float(cell.sum()),
            "cell_abs": float(np.abs(cell).sum()),
            "w_out": float(tensors["w_out"].sum()),
            "b_out": float(tensors["b_out"].sum()),
            "embeddings": float(model.embeddings.vectors.sum()),
        },
        "sha256": {
            name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in ARTIFACTS
        },
    }


def test_golden_run(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    run = golden_run(tmp_path)

    assert len(run["history"]) == len(golden["history"])
    for got, want in zip(run["history"], golden["history"]):
        assert got["epoch"] == want["epoch"]
        for key in ("train_loss", "train_acc", "val_loss", "val_acc"):
            assert got[key] == pytest.approx(want[key], rel=TOLERANCE, abs=TOLERANCE), (
                f"epoch {want['epoch']} {key}"
            )
    for key, want in golden["sums"].items():
        assert run["sums"][key] == pytest.approx(want, rel=TOLERANCE, abs=TOLERANCE), key

    if blas_fingerprint() == golden["fingerprint"]:
        assert run["sha256"] == golden["sha256"]
    else:
        warnings.warn(
            "numpy/BLAS/SIMD fingerprint differs from golden.json; SHA-256 not checked for "
            + ", ".join(f"{name} ({digest[:12]}...)" for name, digest in golden["sha256"].items()),
            stacklevel=1,
        )


# OpenBLAS kernels this host may run, as OPENBLAS_CORETYPE names them,
# each with the CPU flags it needs; Katmai is what 0.3.31 runs when asked
# for Prescott
KERNELS = {
    "SkylakeX": {"avx512f", "avx512cd", "avx512bw", "avx512dq", "avx512vl"},
    "Haswell": {"avx2", "fma"},
    "Sandybridge": {"avx"},
    "Katmai": {"sse2"},
}

_KERNEL_RUN = """
import json, sys, tempfile
from pathlib import Path
import test_golden
kernel = test_golden.runtime_kernel()
assert kernel == sys.argv[1], f"asked for {sys.argv[1]}, runs {kernel}"
with tempfile.TemporaryDirectory() as tmp:
    print(json.dumps(test_golden.golden_run(Path(tmp))["sha256"]))
"""


def runtime_kernel() -> str | None:
    """The kernel name the loaded OpenBLAS reports, or None when numpy's
    bundled OpenBLAS cannot be asked.
    """
    for path in (Path(np.__file__).parents[1] / "numpy.libs").glob("*openblas*"):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_get_corename64_"):
            fn = lib.scipy_openblas_get_corename64_
            fn.restype = ctypes.c_char_p
            return fn().decode()
    return None


def _cpu_flags() -> set[str]:
    """The CPU's feature flags as Linux lists them; none elsewhere."""
    try:
        lines = Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines()
    except OSError:
        return set()
    return {flag for line in lines if line.startswith("flags") for flag in line.split(":")[1].split()}


def test_each_blas_kernel_gives_one_set_of_bits_at_one_and_two_threads():
    """The golden run writes the same artifacts at one and at two
    OpenBLAS threads under every kernel this CPU runs. Each run is a
    child interpreter, since OpenBLAS reads OPENBLAS_CORETYPE and
    OPENBLAS_NUM_THREADS when numpy loads. Word2Vec's emb.bin is one set
    of bits under every kernel too; the LSTM's model.ssm and
    history.json are compared only within a kernel, since the kernels
    round its matrix products differently.
    """
    if runtime_kernel() is None:
        pytest.skip("numpy's OpenBLAS does not report its kernel")
    flags = _cpu_flags()
    kernels = [name for name, needs in KERNELS.items() if needs <= flags]
    if not kernels:
        pytest.skip("no listed OpenBLAS kernel runs on this CPU")
    pythonpath = os.pathsep.join([str(Path(cli.__file__).parents[1]), str(Path(__file__).parent)])
    embeddings = set()
    for kernel in kernels:
        env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": pythonpath}
        runs = [
            subprocess.Popen(
                [sys.executable, "-c", _KERNEL_RUN, kernel],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env={**env, "OPENBLAS_NUM_THREADS": threads},
            )
            for threads in ("1", "2")
        ]
        outputs = [run.communicate(timeout=120) for run in runs]
        for run, (out, err) in zip(runs, outputs):
            assert run.returncode == 0, (kernel, err)
        assert outputs[0][0] == outputs[1][0], kernel
        embeddings.add(json.loads(outputs[0][0])["emb.bin"])
    assert len(embeddings) == 1, embeddings


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {"fingerprint": blas_fingerprint(), **golden_run(Path(tmp))}
    GOLDEN.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
