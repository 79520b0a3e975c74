"""The benchmark's workloads, driven through charsent's public API.

Each workload builds its inputs with `generate_corpus` from the benchmark
seed (set-up), runs a fixed amount of work (timed as `work_s`), then
answers queries against what it built in a closed loop with one client
for the given number of seconds, and finally checks its outputs. Every
name of the package is looked up on its module at call time, so a traced
run sees the calls through the wrappers that `tracer.Tracer` installs.

Why these two:

- pipeline-cbow: the user's pipeline through `charsent.cli.main`, embed
  then train, at the acceptance-06 network sizes. The CBOW loop and the
  LSTM each take about half of its time.
- lstm-h128: classifier alone at h=128 with no Word2Vec epochs, so a
  Word2Vec change must not move it and LSTM changes show at full size.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import json
import math
import statistics
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import charsent
import stats
from charsent import cli, corpus, embedding, network, synthetic, tokenizer, training

# Config seed of every model the workloads train, as in acceptance 06.
# The benchmark's --seed only changes the generated inputs.
MODEL_SEED = 42
MAX_LEN = 60
# One segment follows each repeat of the work, so this is at least
# run.WORK_REPEATS and the query phase stays within --seconds.
QUERY_SEGMENTS = 5
QUERY_MIN_CALLS = 1000  # in all segments: p99 then has ten samples beyond it
QUERY_ITEMS = 500
# Probabilities of a model and of its SSM1 reload differ only by the
# float32 rounding of the stored tensors; measured differences are
# below 1e-6, so 1e-5 flags a real mismatch and nothing else.
FLOAT32_ROUND_TRIP = 1e-5
# predict() and predict_proba() share arithmetic up to summation order;
# tests/test_network.py pins them to 1e-12.
PREDICT_TOLERANCE = 1e-12


class Ledger:
    """Operations attempted and failed. Operations are CLI stages,
    query calls, evaluate calls and output checks.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.ops(1, 0 if ok else 1)
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class StageFailed(Exception):
    """A stage failed so that the workload cannot go on."""


@dataclass
class Context:
    seed: int
    seconds: float
    workdir: Path
    ledger: Ledger
    repeats: int = 1  # of the work, where a workload repeats it
    setup_repeats: int = 1
    tracer: object | None = None
    # pipeline-cbow's untimed acceptance-06 run, made by the untraced pass
    # of a traced run only: it would nearly double every untraced run
    acceptance_gate: bool = False
    # Runs untimed after each repeat and each query segment. An untraced
    # run times one import of charsent there, so that the import samples
    # spread over the run instead of sharing one moment of machine load.
    between: Callable[[], None] | None = None

    def pause(self) -> None:
        if self.between is not None:
            self.between()

    def phase(self, name: str):
        return self.tracer.span(f"bench.{name}", "bench") if self.tracer else contextlib.nullcontext()

    def untraced(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()


@dataclass
class Outcome:
    """What one workload pass measured. `report` holds the named
    end-to-end metrics that apply to the workload as (value, unit);
    `exact` holds the values a traced pass must reproduce bit for bit.
    """

    setup_s: float
    work_s: float
    query: dict
    report: dict
    counts: dict
    exact: dict
    epochs_run: int = 0


def repeated(ctx: Context, what: str, fn, repeats: int, after=None):
    """Run `fn` `repeats` times; returns the median time and the last
    result, after checking that every repeat gave the same result.
    `after(result)`, when given, runs untimed after each repeat.
    """
    times, results = [], []
    for _ in range(repeats):
        gc.collect()  # every repeat starts from the same collector state
        with ctx.phase(what):
            t0 = perf_counter()
            results.append(fn())
            times.append(perf_counter() - t0)
        ctx.pause()
        if after is not None:
            after(results[-1])
    if len(results) > 1:
        ctx.ledger.check(
            f"{what} repeats give identical results",
            all(_same(r, results[0]) for r in results[1:]),
        )
    return statistics.median(times), results[-1]


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    return a == b


def closed_loop(ctx: Context, call, items, seconds: float, answers: list | None):
    """One client calls `call(item)` over `items` in turn, each call
    starting when the previous one returns, for `seconds` and for at
    least this segment's share of QUERY_MIN_CALLS. The first answer for
    each item goes into `answers`; every later one is compared with it.
    Returns the latencies, the answers and how many answers differed.
    """
    latencies = []
    answers = [] if answers is None else answers
    failed = changed = 0
    gc.collect()
    deadline = perf_counter() + seconds
    with ctx.phase("query"):
        while len(latencies) < -(-QUERY_MIN_CALLS // QUERY_SEGMENTS) or perf_counter() < deadline:
            i = len(latencies)
            t0 = perf_counter()
            try:
                out = call(items[i % len(items)])
            except charsent.CharsentError:
                out = None
                failed += 1
            latencies.append(perf_counter() - t0)
            if i % len(items) == len(answers):
                answers.append(out)
            elif out != answers[i % len(items)]:
                changed += 1
    ctx.ledger.ops(len(latencies), failed)
    return latencies, answers, changed


class QueryPhase:
    """QUERY_SEGMENTS closed-loop segments sharing ctx.seconds, with
    percentiles over all their calls. Workloads that repeat their work
    run one segment after each repeat, which spreads the calls over the
    run instead of putting them all in one stretch of machine load.
    """

    def __init__(self, ctx: Context, items):
        self.ctx, self.items = ctx, items
        self.segments: list[list[float]] = []
        self.answers: list | None = None
        self.changed = 0

    def segment(self, call) -> None:
        latencies, self.answers, changed = closed_loop(
            self.ctx, call, self.items, self.ctx.seconds / QUERY_SEGMENTS, self.answers
        )
        self.segments.append(latencies)
        self.ctx.pause()
        self.changed += changed

    def finish(self, call) -> tuple[dict, list]:
        """Run the segments still missing; returns the latency summary
        and the answers of the first pass over the items.
        """
        while len(self.segments) < QUERY_SEGMENTS:
            self.segment(call)
        self.ctx.ledger.check(
            "repeated queries answer the same", self.changed == 0, f"{self.changed} changed"
        )
        summary = stats.latency_summary([t for seg in self.segments for t in seg])
        summary["segment_samples"] = [len(seg) for seg in self.segments]
        return summary, self.answers


def check_epoch_losses(ctx: Context, losses: list[float], negatives: int, epochs: int) -> None:
    """Every Word2Vec epoch loss is finite and below the loss of the
    untrained model, (k+1) ln 2: context rows start at zero, so every
    score starts at 0 and each of the k+1 terms at ln 2.
    """
    start = (negatives + 1) * math.log(2.0)
    ctx.ledger.check("word2vec ran every epoch", len(losses) == epochs, f"{len(losses)} losses")
    for i, loss in enumerate(losses, 1):
        ctx.ledger.check(
            f"word2vec epoch {i} loss finite and below (k+1) ln 2",
            math.isfinite(loss) and loss < start,
            f"{loss!r} vs {start!r}",
        )


def check_predictions(ctx: Context, model, texts, results) -> None:
    """Every predict() probability equals predict_proba() on the same
    encoded text."""
    with ctx.untraced():
        seqs = [
            tokenizer.encode(
                tokenizer.segment_chars(corpus.clean_text(text)), model.vocab, model.max_len
            )
            for text in texts
        ]
        reference = training.predict_proba(model, seqs)
    worst = max(
        (abs(out[1] - reference[i]) for i, out in enumerate(results) if out is not None),
        default=0.0,
    )
    ctx.ledger.check(
        "predict() equals predict_proba() within 1e-12",
        worst <= PREDICT_TOLERANCE,
        f"max difference {worst:.3g} over {len(results)} texts",
    )


def predictor(model):
    return lambda text: charsent.predict(text, model)


def _run_cli(ctx: Context, argv: list[str]) -> tuple[dict, float]:
    """One CLI stage; returns its JSON summary and its wall time."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    elapsed = perf_counter() - t0
    if not ctx.ledger.check(f"cli {argv[0]} exits 0", code == 0, f"exit {code}: {err.getvalue()[-300:]}"):
        raise StageFailed(f"cli {argv[0]} exited {code}")
    return json.loads(out.getvalue().splitlines()[-1]), elapsed


# --- pipeline-cbow ---------------------------------------------------------

PIPE_REVIEWS = 1000
PIPE_SCORE = 2000
PIPE_W2V_EPOCHS = 2
PIPE_TRAIN_EPOCHS = 15
PIPE_NEGATIVES = 5
# at most this many repeats of the work: each takes ~15 s
PIPE_REPEATS = 3
# The val_acc >= 0.95 gate is calibrated on acceptance 06's own corpus,
# generate_corpus(2000, 42). Corpora from other seeds reached 0.950-0.987
# (seeds 11-20), so the gate runs there, untimed, and not on the timed
# corpus, whose val_acc is reported only.
GATE_REVIEWS = 2000
GATE_CORPUS_SEED = 42
VAL_ACC_GATE = 0.95


def _pipeline_config(workdir: Path) -> tuple[Path, dict]:
    """Writes the CLI config of the pipeline into `workdir`; returns its
    path and the file paths it names.
    """
    paths = {
        key: str(workdir / name)
        for key, name in (
            ("labeled", "labeled.jsonl"),
            ("vocab", "vocab.json"),
            ("embeddings", "embeddings.w2v"),
            ("model", "model.ssm"),
            ("history", "history.json"),
        )
    }
    config = {
        "seed": MODEL_SEED,
        "paths": paths,
        "tokenizer": {"max_len": MAX_LEN},
        "word2vec": {"mode": "cbow", "dim": 16, "epochs": PIPE_W2V_EPOCHS, "negatives": PIPE_NEGATIVES},
        "network": {"hidden_size": 32},
        # fixed epoch count: early stopping would make the work, and so
        # the time, depend on the seed
        "training": {"epochs": PIPE_TRAIN_EPOCHS, "patience": PIPE_TRAIN_EPOCHS},
    }
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return config_path, paths


def acceptance_gate(ctx: Context) -> None:
    """The pipeline once more, untimed, on acceptance 06's corpus, where
    val_acc must reach 0.95.
    """
    workdir = ctx.workdir / "acceptance"
    workdir.mkdir()
    config_path, paths = _pipeline_config(workdir)
    corpus.save_corpus(synthetic.generate_corpus(GATE_REVIEWS, GATE_CORPUS_SEED, name="labeled"), paths["labeled"])
    embed_out, _ = _run_cli(ctx, ["embed", "--config", str(config_path)])
    check_epoch_losses(ctx, embed_out["epoch_losses"], PIPE_NEGATIVES, PIPE_W2V_EPOCHS)
    train_out, _ = _run_cli(ctx, ["train", "--config", str(config_path)])
    val_acc = train_out["val"]["accuracy"]
    ctx.ledger.check("acceptance-06 corpus val_acc >= 0.95", val_acc >= VAL_ACC_GATE, repr(val_acc))


def pipeline_cbow(ctx: Context) -> Outcome:
    config_path, paths = _pipeline_config(ctx.workdir)

    def build():
        reviews = synthetic.generate_corpus(PIPE_REVIEWS + PIPE_SCORE + QUERY_ITEMS, ctx.seed).reviews
        labeled = corpus.Corpus(reviews=reviews[:PIPE_REVIEWS], name="labeled")
        corpus.save_corpus(labeled, paths["labeled"])
        score = corpus.Corpus(reviews=reviews[PIPE_REVIEWS : PIPE_REVIEWS + PIPE_SCORE])
        return labeled, score, [r.text for r in reviews[PIPE_REVIEWS + PIPE_SCORE :]]

    setup_s, (labeled, score_corpus, query_texts) = repeated(ctx, "setup", build, ctx.setup_repeats)

    stage_times = []

    def work():
        embed_out, embed_s = _run_cli(ctx, ["embed", "--config", str(config_path)])
        train_out, train_s = _run_cli(ctx, ["train", "--config", str(config_path)])
        stage_times.append((embed_s, train_s))
        return embed_out, train_out

    work_s, (embed_out, train_out) = repeated(ctx, "work", work, min(ctx.repeats, PIPE_REPEATS))
    embed_s = statistics.median(e for e, _ in stage_times)
    train_s = statistics.median(t for _, t in stage_times)

    losses = embed_out["epoch_losses"]
    check_epoch_losses(ctx, losses, PIPE_NEGATIVES, PIPE_W2V_EPOCHS)
    val_acc = train_out["val"]["accuracy"]

    with ctx.phase("load"):
        model = training.load_model(paths["model"])
    score_set = training.encode_labeled(score_corpus, model.vocab, model.max_len)
    with ctx.phase("score"):
        t0 = perf_counter()
        training.evaluate(model, score_set)
        score_s = perf_counter() - t0
    ctx.ledger.ops(1)

    # the CLI scored its test split with the in-memory model; the
    # reloaded model must score it the same
    with ctx.untraced():
        train_c, _, test_c = corpus.split(labeled, 0.7, 0.15, MODEL_SEED)
        reloaded = training.evaluate(model, training.encode_labeled(test_c, model.vocab, model.max_len))
    in_memory = train_out["test"]
    diff = max(abs(reloaded.loss - in_memory["loss"]), abs(reloaded.mae - in_memory["mae"]))
    ctx.ledger.check(
        "reloaded model scores as the in-memory one", diff <= FLOAT32_ROUND_TRIP, f"{diff:.3g}"
    )

    query, answers = QueryPhase(ctx, query_texts).finish(predictor(model))
    check_predictions(ctx, model, query_texts, answers)
    lengths = [len(tokenizer.segment_chars(t)) for t in labeled.texts()]
    tokens = sum(lengths)
    epochs_run = train_out["epochs_run"]
    if ctx.acceptance_gate:
        acceptance_gate(ctx)
    return Outcome(
        setup_s=setup_s,
        work_s=work_s,
        query=query,
        report={
            "pipeline_s": (work_s, "s"),
            "embed_tokens_per_s": (tokens * PIPE_W2V_EPOCHS / embed_s, "tokens/s"),
            "embed_loss": (losses[-1], "nats"),
            "train_seqs_per_s": (len(train_c) * epochs_run / train_s, "seqs/s"),
            "val_acc": (val_acc, "fraction"),
            "score_seqs_per_s": (len(score_set) / score_s, "seqs/s"),
            "predict_p50_ms": (query["p50_ms"], "ms"),
            "predict_p99_ms": (query["p99_ms"], "ms"),
        },
        counts={
            "tokens": tokens,
            "embedding_steps": stats.cbow_windows(lengths) * PIPE_W2V_EPOCHS,
        },
        exact={"val_acc": val_acc, "embed_loss": losses[-1]},
        epochs_run=epochs_run,
    )


# --- lstm-h128 -------------------------------------------------------------

LSTM_TRAIN = 800
LSTM_VAL = 300
LSTM_SCORE = 2400
LSTM_EPOCHS = 1
LSTM_DIM = 64
LSTM_HIDDEN = 128


def lstm_h128(ctx: Context) -> Outcome:
    def build():
        reviews = synthetic.generate_corpus(
            LSTM_TRAIN + LSTM_VAL + LSTM_SCORE + QUERY_ITEMS, ctx.seed
        ).reviews
        cut = (LSTM_TRAIN, LSTM_TRAIN + LSTM_VAL, LSTM_TRAIN + LSTM_VAL + LSTM_SCORE)
        train_c = corpus.Corpus(reviews=reviews[: cut[0]])
        val_c = corpus.Corpus(reviews=reviews[cut[0] : cut[1]])
        score_c = corpus.Corpus(reviews=reviews[cut[1] : cut[2]])
        vocab = tokenizer.build_vocab(train_c.texts() + val_c.texts())
        train_set = training.encode_labeled(train_c, vocab, MAX_LEN)
        val_set = training.encode_labeled(val_c, vocab, MAX_LEN)
        score_set = training.encode_labeled(score_c, vocab, MAX_LEN)
        # the seeded start state of train_embeddings, without its
        # Word2Vec set-up: the embedding layer does no work here
        emb = embedding.init_embedding_matrix(vocab, LSTM_DIM, MODEL_SEED)
        params = network.init_lstm_params(LSTM_HIDDEN, LSTM_DIM, MODEL_SEED)
        model = network.Model(vocab=vocab, embeddings=emb, params=params, max_len=MAX_LEN)
        texts = [r.text for r in reviews[cut[2] :]]
        return train_set, val_set, score_set, model, texts

    setup_s, (train_set, val_set, score_set, model, query_texts) = repeated(ctx, "setup", build, ctx.setup_repeats)
    config = training.TrainConfig(epochs=LSTM_EPOCHS, patience=LSTM_EPOCHS, seed=MODEL_SEED)
    train_times, score_times = [], []

    def work():
        t0 = perf_counter()
        best, history = training.train(train_set, val_set, model, config)
        train_times.append(perf_counter() - t0)
        with ctx.phase("score"):
            t0 = perf_counter()
            scored = training.evaluate(best, score_set)
            score_times.append(perf_counter() - t0)
        ctx.ledger.ops(1)
        return best, history, scored

    phase = QueryPhase(ctx, query_texts)
    work_s, (best, history, _) = repeated(ctx, "work", work, ctx.repeats, lambda out: phase.segment(predictor(out[0])))

    path = ctx.workdir / "model.ssm"
    with ctx.phase("load"):
        training.save_model(best, path)
        loaded = training.load_model(path)
    with ctx.untraced():
        seqs = [s for s, _ in val_set]
        diff = float(np.max(np.abs(training.predict_proba(best, seqs) - training.predict_proba(loaded, seqs))))
    ctx.ledger.check(
        "reloaded model scores as the in-memory one", diff <= FLOAT32_ROUND_TRIP, f"{diff:.3g}"
    )

    query, answers = phase.finish(predictor(best))
    check_predictions(ctx, best, query_texts, answers)
    val_acc = best.metrics_snapshot["accuracy"]
    epochs_run = len(history.records)
    tokens = sum(s.true_length for data in (train_set, val_set, score_set) for s, _ in data)
    return Outcome(
        setup_s=setup_s,
        work_s=work_s,
        query=query,
        report={
            "train_seqs_per_s": (len(train_set) * epochs_run / statistics.median(train_times), "seqs/s"),
            "val_acc": (val_acc, "fraction"),
            "score_seqs_per_s": (len(score_set) / statistics.median(score_times), "seqs/s"),
            "predict_p50_ms": (query["p50_ms"], "ms"),
            "predict_p99_ms": (query["p99_ms"], "ms"),
        },
        counts={"tokens": tokens, "embedding_steps": 0},
        exact={"val_acc": val_acc},
        epochs_run=epochs_run,
    )


WORKLOADS = {
    "pipeline-cbow": pipeline_cbow,
    "lstm-h128": lstm_h128,
}
