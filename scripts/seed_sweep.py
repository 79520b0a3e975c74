#!/usr/bin/env python3
"""Acceptance 06's pipeline over several training seeds.

Runs CLI `embed` then `train` with the acceptance-06 config (d=16,
h=32, max_len 60, 30 epochs) on `generate_corpus(N, 42)`, once per
pipeline seed, and prints one JSON object. For each seed it gives the
best-epoch `val_acc` (the epoch of lowest validation loss, as the test
reads it), that epoch and the epochs run. It also scores the validation
split with the saved model and splits its errors by evidence margin,
the count of positive- minus negative-pool characters in the text:
ties (0), +-1 and the rest. The saved model holds float32 weights, so
its error count can differ by a review from the epoch's `val_acc`.
The summary gives the minimum and the median `val_acc`.

Each seed's record also carries the `test` metrics that CLI `train`
prints for the held-out split.

The seeds run in 2 spawned worker processes (fewer if there are fewer
seeds), each with one BLAS thread, so a seed's numbers do not depend on
how many seeds run beside it.

Usage:
    python3 scripts/seed_sweep.py                  # seeds 1-10
    python3 scripts/seed_sweep.py --seeds 42
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import statistics
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

import charsent as cs
from charsent import cli
from charsent.corpus import save_corpus, split
from charsent.synthetic import NEGATIVE_POOL, POSITIVE_POOL, generate_corpus
from charsent.training import load_history, predict_proba

CORPUS_SEED = 42
CONFIG = {
    "tokenizer": {"max_len": 60},
    "word2vec": {"dim": 16},
    "network": {"hidden_size": 32},
    "training": {"epochs": 30},
}
MARGINS = ("tie", "pm1", "rest")
WORKERS = 2


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        span = range(int(lo), int(hi or lo) + 1)
        if not span:
            raise argparse.ArgumentTypeError(f"seed range {part!r} is empty")
        seeds.extend(span)
    return seeds


def _margin(text: str) -> str:
    pos = sum(ch in POSITIVE_POOL for ch in text)
    neg = sum(ch in NEGATIVE_POOL for ch in text)
    gap = abs(pos - neg)
    return "tie" if gap == 0 else "pm1" if gap == 1 else "rest"


def run_seed(seed: int, reviews: int, workdir: str) -> dict:
    """Embed and train one pipeline seed in `workdir`; the sweep's record."""
    work = Path(workdir) / f"seed{seed}"
    work.mkdir()
    corpus = generate_corpus(reviews, seed=CORPUS_SEED)
    save_corpus(corpus, work / "labeled.jsonl")
    names = {"labeled": "labeled.jsonl", "vocab": "vocab.json", "embeddings": "emb.bin",
             "model": "model.ssm", "history": "history.json"}
    config = dict(CONFIG, seed=seed, paths={k: str(work / v) for k, v in names.items()})
    (work / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
    for stage in ("embed", "train"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([stage, "--config", str(work / "cfg.json")])
        if code != 0:
            raise RuntimeError(f"seed {seed}: CLI {stage} exited {code}")
    # the last stage, CLI train, printed one JSON summary line
    test = json.loads(out.getvalue())["test"]

    records = load_history(work / "history.json")
    best = min(records, key=lambda r: r.val_loss)
    model = cs.load_model(work / "model.ssm")
    defaults = cli.PipelineConfig().split
    val = split(corpus, defaults.train_frac, defaults.val_frac, seed)[1]
    dataset = cs.encode_labeled(val, model.vocab, model.max_len)
    ps = predict_proba(model, [s for s, _ in dataset])
    wrong = (ps >= model.threshold) != np.array([y == 1 for _, y in dataset])
    errors = dict.fromkeys(MARGINS, 0)
    for review, miss in zip(val.reviews, wrong, strict=True):
        errors[_margin(review.text)] += int(miss)
    return {
        "seed": seed,
        "best_val_acc": best.val_acc,
        "best_epoch": best.epoch,
        "epochs_run": len(records),
        "val_reviews": len(dataset),
        "val_errors_by_margin": errors,
        "test": test,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10 or 1,4,42")
    ap.add_argument("--reviews", type=int, default=2000, help="corpus size")
    args = ap.parse_args(argv)
    # one BLAS thread per worker, set before the workers load numpy
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spawn = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory() as workdir:
        n = len(args.seeds)
        with ProcessPoolExecutor(min(WORKERS, n), mp_context=spawn) as pool:
            runs = list(pool.map(run_seed, args.seeds, [args.reviews] * n, [workdir] * n))
    accs = [r["best_val_acc"] for r in runs]
    summary = {"min_val_acc": min(accs), "median_val_acc": statistics.median(accs)}
    print(json.dumps({"corpus": [args.reviews, CORPUS_SEED], "runs": runs, "summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
