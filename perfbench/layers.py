"""Where a traced run wraps charsent, and the per-layer metrics it reports.

The layers are the package's modules: synthetic, corpus, tokenizer,
embedding, numerics, network, training and cli. Each site wraps a name
where its caller looks it up; `training.encode_labeled` counts as
tokenizer work and `charsent.predict` as network work, by what they do.
"""

from __future__ import annotations

import charsent
import stats
from charsent import cli, corpus, embedding, network, synthetic, tokenizer, training
from tracer import Site, Spans

LAYERS = ("synthetic", "corpus", "tokenizer", "embedding", "numerics", "network", "training", "cli")

TOKENIZER = (
    "cli.build_vocab",
    "tokenizer.build_vocab",
    "tokenizer.encode",
    "training.encode",
    "network.encode",
    "cli.encode_labeled",
    "training.encode_labeled",
)
TRAIN = ("cli.train", "training.train")
STEPS = ("embedding.cbow_step", "embedding.skipgram_step")
SAMPLE = ("embedding.NegativeSampler.sample",)
SIGMOID = ("embedding.sigmoid", "network.sigmoid")
MODEL_IO = ("cli.save_model", "training.save_model", "training.load_model")


def sites(batches: list) -> dict[str, Site]:
    """Every wrappable site by span name. `batches` receives
    (B, T_max, sum of lengths, hidden, dim) for each forward_batch call.
    """

    def observe_batch(sequences, model, *args, **kwargs):
        computed, useful = stats.cell_steps([s.true_length for s in sequences])
        batches.append(
            (len(sequences), computed // len(sequences), useful, model.params.hidden_size, model.embeddings.dim)
        )

    table = [
        ("synthetic", synthetic, "generate_corpus"),
        ("corpus", cli, "load_corpus"),
        ("corpus", corpus, "save_corpus"),
        ("tokenizer", cli, "build_vocab"),
        ("tokenizer", tokenizer, "build_vocab"),
        ("tokenizer", tokenizer, "encode"),
        ("tokenizer", training, "encode"),
        ("tokenizer", network, "encode"),
        ("tokenizer", cli, "encode_labeled"),
        ("tokenizer", training, "encode_labeled"),
        ("embedding", cli, "train_embeddings"),
        ("embedding", embedding, "train_embeddings"),
        ("embedding", embedding, "cbow_step"),
        ("embedding", embedding, "skipgram_step"),
        ("embedding", embedding.NegativeSampler, "sample"),
        ("embedding", cli, "save_embeddings"),
        ("embedding", cli, "load_embeddings"),
        ("numerics", embedding, "sigmoid"),
        ("numerics", network, "sigmoid"),
        ("network", training, "forward_batch"),
        ("network", network, "sequence_forward"),
        ("network", charsent, "predict"),
        ("training", cli, "train"),
        ("training", training, "train"),
        ("training", training, "backward_batch"),
        ("training", training, "adam_step"),
        ("training", training, "evaluate"),
        ("training", cli, "evaluate"),
        ("training", training, "predict_proba"),
        ("training", cli, "save_model"),
        ("training", training, "save_model"),
        ("training", training, "load_model"),
        ("cli", cli, "main"),
    ]
    out = {}
    for layer, owner, attr in table:
        prefix = "embedding.NegativeSampler" if owner is embedding.NegativeSampler else owner.__name__
        name = f"{prefix.removeprefix('charsent.')}.{attr}"
        observe = observe_batch if name == "training.forward_batch" else None
        out[name] = Site(name, layer, owner, attr, observe)
    return out


# Per workload: the names it must call, and the names it must wrap and
# never call (the layers it bypasses). A traced run fails on either.
CALLED = {
    "pipeline-cbow": (
        "synthetic.generate_corpus",
        "corpus.save_corpus",
        "cli.main",
        "cli.load_corpus",
        "cli.build_vocab",
        "cli.train_embeddings",
        "embedding.cbow_step",
        "embedding.NegativeSampler.sample",
        "embedding.sigmoid",
        "cli.save_embeddings",
        "cli.load_embeddings",
        "cli.encode_labeled",
        "training.encode_labeled",
        "training.encode",
        "cli.train",
        "training.forward_batch",
        "training.backward_batch",
        "training.adam_step",
        "training.evaluate",
        "cli.evaluate",
        "training.predict_proba",
        "cli.save_model",
        "training.load_model",
        "network.sigmoid",
        "network.sequence_forward",
        "network.encode",
        "charsent.predict",
    ),
    "lstm-h128": (
        "synthetic.generate_corpus",
        "tokenizer.build_vocab",
        "training.encode_labeled",
        "training.encode",
        "training.train",
        "training.forward_batch",
        "training.backward_batch",
        "training.adam_step",
        "training.evaluate",
        "training.predict_proba",
        "training.save_model",
        "training.load_model",
        "network.sigmoid",
        "network.sequence_forward",
        "network.encode",
        "charsent.predict",
    ),
}
IDLE = {
    "pipeline-cbow": ("embedding.skipgram_step",),
    "lstm-h128": STEPS + SAMPLE + ("embedding.sigmoid", "embedding.train_embeddings"),
}

# The benchmark's phases of fixed size. Their summed time is compared
# between the untraced and the traced pass; the query phase runs for a
# set time instead, so it is compared per call.
FIXED_PHASES = ("bench.setup", "bench.work", "bench.score", "bench.load")


def tracing_overhead(plain: Spans, traced: Spans, plain_calls: int, traced_calls: int) -> float:
    """Time the traced pass spent on tracing: the extra time of its
    fixed-size phases, plus the extra time per query call times its
    query calls. Phases nested in other fixed phases count once.
    """

    def fixed(spans: Spans) -> float:
        top = spans.mask(*FIXED_PHASES) & ~spans.has_ancestor(*FIXED_PHASES)
        return float(spans.duration[top].sum())

    per_call = traced.total("bench.query") / traced_calls - plain.total("bench.query") / plain_calls
    return fixed(traced) - fixed(plain) + per_call * traced_calls


# Per-call metrics: the spans they average over, and the scale to the unit.
PER_CALL = {
    "embedding.sample_us": (SAMPLE, 1e6, "us"),
    "network.sequence_forward_ms": (("network.sequence_forward",), 1e3, "ms"),
    "training.backward_batch_ms": (("training.backward_batch",), 1e3, "ms"),
    "training.adam_step_ms": (("training.adam_step",), 1e3, "ms"),
}
# Counts computed from the inputs rather than timed; they repeat exactly.
COMPUTED = (
    "tokenizer.tokens",
    "embedding.steps_computed",
    "network.cell_steps",
    "network.cell_steps_useful",
    "network.gemm_flops",
)


def _mean(values, mask, scale: float) -> float:
    n = int(mask.sum())
    return float(values[mask].sum()) / n * scale if n else 0.0


def per_layer(spans: Spans, batches: list, counts: dict, epochs_run: int, overhead_s: float):
    """Every per-layer metric as name -> (value, unit), and the base of
    each ratio as name -> text.
    """
    own = spans.self_time()
    tokenizer_top = spans.mask(*TOKENIZER) & ~spans.has_ancestor(*TOKENIZER)
    train_s = spans.total("cli.train_embeddings", "embedding.train_embeddings")
    computed = sum(b * t for b, t, _, _, _ in batches)
    useful = sum(u for _, _, u, _, _ in batches)
    in_train = spans.with_parent(("training.forward_batch",), TRAIN)
    steps = spans.mask(*STEPS)
    m = {
        "synthetic.generate_s": (spans.total("synthetic.generate_corpus"), "s"),
        "corpus.io_s": (spans.total("cli.load_corpus", "corpus.save_corpus"), "s"),
        "tokenizer.encode_s": (float(spans.duration[tokenizer_top].sum()), "s"),
        "tokenizer.tokens": (counts["tokens"], "count"),
        "embedding.train_s": (train_s, "s"),
        "embedding.steps": (int(steps.sum()), "count"),
        "embedding.steps_computed": (counts["embedding_steps"], "count"),
        "embedding.step_us": (_mean(own, steps, 1e6), "us"),
        "embedding.loop_s": (train_s - spans.total(*STEPS, *SAMPLE), "s"),
        "embedding.io_s": (spans.total("cli.save_embeddings", "cli.load_embeddings"), "s"),
        "numerics.sigmoid_calls": (spans.count(*SIGMOID), "count"),
        "numerics.sigmoid_s": (spans.total(*SIGMOID), "s"),
        "network.forward_batch_ms": (_mean(spans.duration, in_train, 1e3), "ms"),
        "network.cell_steps": (computed, "count"),
        "network.cell_steps_useful": (useful, "count"),
        "network.pad_waste": (stats.pad_waste(computed, useful), "fraction"),
        "network.gemm_flops": (
            sum(stats.forward_gemm_flops(b, t, h, d) for b, t, _, h, d in batches),
            "flop",
        ),
        "training.epoch_eval_s": (
            float(spans.duration[spans.with_parent(("training.evaluate",), TRAIN)].sum()),
            "s",
        ),
        "training.epochs_run": (epochs_run, "count"),
        "training.predict_proba_s": (spans.total("training.predict_proba", within=("bench.score",)), "s"),
        "training.model_io_ms": (spans.total(*MODEL_IO) * 1e3, "ms"),
        "tracing.overhead_s": (overhead_s, "s"),
    }
    bases = {
        "embedding.step_us": f"self time over {int(steps.sum())} calls",
        "network.forward_batch_ms": f"{int(in_train.sum())} calls inside train",
        "network.pad_waste": f"{computed} computed cell-steps",
    }
    for name, (names, scale, unit) in PER_CALL.items():
        mask = spans.mask(*names)
        m[name] = (_mean(spans.duration, mask, scale), unit)
        bases[name] = f"{int(mask.sum())} calls"
    layer_self = spans.layer_self_time()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")
    return m, bases
