#!/usr/bin/env python3
"""Acceptance 06's pipeline over several training seeds.

Runs CLI `embed` then `train` with the acceptance-06 config (d=16,
h=32, max_len 60, 30 epochs) on `generate_corpus(N, 42)`, once per
pipeline seed, and prints one JSON object. For each seed it gives,
from CLI `train`'s summary, the best-epoch `val_acc` (the epoch of
lowest validation loss, as the test reads it), that epoch and the
epochs run; the summary gives the minimum and the median epochs run,
since a change that makes an epoch cheaper can make more of them run
before early stopping. It also scores the validation
split with the saved model and splits its errors by evidence margin,
the count of positive- minus negative-pool characters in the text:
ties (0), +-1 and the rest. The saved model is the best epoch's, so
its error count matches that epoch's `val_acc`. The summary gives the minimum and the median `val_acc`.

Each seed's record also carries the `test` metrics that CLI `train`
prints for the held-out split.

Fine-tuned random embeddings reach CBOW's `val_acc` here, so two more
figures per seed judge the embeddings themselves: the best-epoch `val`
and `test` accuracy of a second CLI `train` on the same `emb.bin` with
the embeddings frozen (`training.freeze_embeddings`, saved beside the
fine-tuned model, which it leaves alone), and the pool purity of
`emb.bin`: for each positive- and negative-pool character in the
vocabulary, the share of its 5 nearest neighbours from its own pool,
averaged over those characters. The summary gives the minimum and the
median of each.

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
from charsent.training import predict_proba

CORPUS_SEED = 42
CONFIG = {
    "tokenizer": {"max_len": 60},
    "word2vec": {"dim": 16},
    "network": {"hidden_size": 32},
    "training": {"epochs": 30},
}
MARGINS = ("tie", "pm1", "rest")
NEIGHBORS = 5
# the summary's figures, by name: each gets its minimum and median over the seeds
FIGURES = {
    "val_acc": "best_val_acc",
    "frozen_val_acc": "frozen_val_acc",
    "frozen_test_acc": "frozen_test_acc",
    "pool_purity": "pool_purity",
    "epochs_run": "epochs_run",
}
WORKERS = 2


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        span = range(int(lo), int(hi or lo) + 1)
        if not span:
            raise argparse.ArgumentTypeError(f"seed range {part!r} is empty")
        if repeated := [s for s in seeds if s in span]:
            raise argparse.ArgumentTypeError(f"seed {repeated[0]} is given twice")
        seeds.extend(span)
    return seeds


def _margin(text: str) -> str:
    pos = sum(ch in POSITIVE_POOL for ch in text)
    neg = sum(ch in NEGATIVE_POOL for ch in text)
    gap = abs(pos - neg)
    return "tie" if gap == 0 else "pm1" if gap == 1 else "rest"


def _pool_purity(matrix: cs.EmbeddingMatrix, vocab: cs.Vocabulary) -> float:
    """The mean, over the pool characters in `vocab`, of the share of
    each one's NEIGHBORS nearest neighbours that come from its own pool.
    """
    shares = []
    for pool in (POSITIVE_POOL, NEGATIVE_POOL):
        for ch in filter(vocab.__contains__, pool):
            near = [token for token, _ in cs.nearest_neighbors(ch, NEIGHBORS, matrix, vocab)]
            shares.append(sum(token in pool for token in near) / len(near))
    return statistics.fmean(shares)


def _cli(seed: int, args: list[str]) -> dict:
    """Run one CLI stage in this process; the JSON summary it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    if code != 0:  # a failing stage's last stderr line is its `error:` line
        raise RuntimeError(f"seed {seed}: CLI {args[0]} exited {code}: {err.getvalue().splitlines()[-1]}")
    return json.loads(out.getvalue())


def run_seed(seed: int, reviews: int, workdir: str) -> dict:
    """Embed and train one pipeline seed in `workdir`; the sweep's record."""
    work = Path(workdir) / f"seed{seed}"
    work.mkdir()
    corpus = generate_corpus(reviews, seed=CORPUS_SEED)
    save_corpus(corpus, work / "labeled.jsonl")
    names = {"labeled": "labeled.jsonl", "vocab": "vocab.json", "embeddings": "emb.bin",
             "model": "model.ssm"}
    config = dict(CONFIG, seed=seed, paths={k: str(work / v) for k, v in names.items()})
    (work / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
    config_arg = ["--config", str(work / "cfg.json")]
    _cli(seed, ["embed", *config_arg])
    summary = _cli(seed, ["train", *config_arg])
    freeze = ["--set", "training.freeze_embeddings=true", "--set", f"paths.model={work / 'frozen.ssm'}"]
    frozen = _cli(seed, ["train", *config_arg, *freeze])
    model = cs.load_model(work / "model.ssm")
    # the validation split CLI train made, from the config file it read
    cfg = cli.build_config(str(work / "cfg.json"), [])
    val = split(corpus, cfg.split.train_frac, cfg.split.val_frac, cfg.seed)[1]
    dataset = cs.encode_labeled(val, model.vocab, model.max_len)
    ps = predict_proba(model, [s for s, _ in dataset])
    wrong = (ps >= model.threshold) != np.array([y == 1 for _, y in dataset])
    errors = dict.fromkeys(MARGINS, 0)
    for review, miss in zip(val.reviews, wrong, strict=True):
        errors[_margin(review.text)] += int(miss)
    return {
        "seed": seed,
        "best_val_acc": summary["val"]["accuracy"],
        "best_epoch": summary["best_epoch"],
        "epochs_run": summary["epochs_run"],
        "val_reviews": len(dataset),
        "val_errors_by_margin": errors,
        "test": summary["test"],
        "frozen_val_acc": frozen["val"]["accuracy"],
        "frozen_test_acc": frozen["test"]["accuracy"],
        "pool_purity": _pool_purity(cs.load_embeddings(work / "emb.bin")[0], model.vocab),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10 or 1,4,42")
    ap.add_argument("--reviews", type=int, default=2000, help="corpus size, at least 1")
    args = ap.parse_args(argv)
    if args.reviews < 1:
        ap.error(f"--reviews must be at least 1, got {args.reviews}")
    # one BLAS thread per worker, set before the workers load numpy
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spawn = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory() as workdir:
        n = len(args.seeds)
        with ProcessPoolExecutor(min(WORKERS, n), mp_context=spawn) as pool:
            runs = list(pool.map(run_seed, args.seeds, [args.reviews] * n, [workdir] * n))
    summary = {}
    for name, key in FIGURES.items():
        values = [r[key] for r in runs]
        summary.update({f"min_{name}": min(values), f"median_{name}": statistics.median(values)})
    print(json.dumps({"corpus": [args.reviews, CORPUS_SEED], "runs": runs, "summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
