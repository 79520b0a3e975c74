"""Command-line pipeline: prelabel, embed, train, evaluate, predict.

One JSON config file drives every stage; --set key=value overrides
individual entries with dotted paths. Results go to stdout as JSON,
diagnostics to stderr. Exit codes: 0 success, 2 configuration or usage
error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import typing
from dataclasses import dataclass, is_dataclass, replace
from pathlib import Path

from .corpus import (
    CleaningConfig,
    clean_corpus,
    load_corpus,
    load_lexicon,
    prelabel,
    sample_lexicon_path,
    save_corpus,
    split,
)
from .embedding import (
    W2vConfig,
    load_embeddings,
    save_embeddings,
    train_embeddings,
)
from .errors import ConfigError, DataError, NumericalError
from .network import Model, init_lstm_params, predict
from .tokenizer import Vocabulary, build_vocab, segment_chars
from .training import (
    TrainConfig,
    encode_labeled,
    evaluate,
    load_model,
    save_history,
    save_model,
    train,
)


@dataclass(frozen=True)
class PathsConfig:
    corpus: str | None = None
    lexicon: str | None = None
    labeled: str | None = None
    vocab: str | None = None
    embeddings: str | None = None
    model: str | None = None
    history: str | None = None


@dataclass(frozen=True)
class TokenizerConfig:
    max_len: int = 120
    min_count: int = 1


@dataclass(frozen=True)
class SplitConfig:
    train_frac: float = 0.7
    val_frac: float = 0.15


@dataclass(frozen=True)
class NetworkConfig:
    hidden_size: int = 128


@dataclass(frozen=True)
class PipelineConfig:
    """Every config key, its default and its type. The top-level seed is
    the only seed key; `build_config` copies it into both sections.
    A null threshold means the model's stored one (train stores 0.5).
    """

    seed: int = 0
    threshold: float | None = None
    paths: PathsConfig = PathsConfig()
    tokenizer: TokenizerConfig = TokenizerConfig()
    split: SplitConfig = SplitConfig()
    network: NetworkConfig = NetworkConfig()
    word2vec: W2vConfig = W2vConfig()
    training: TrainConfig = TrainConfig()

    def require_path(self, key: str, command: str) -> Path:
        value = getattr(self.paths, key)
        if value is None:
            raise ConfigError(f"paths.{key} is required for '{command}'")
        return Path(value)


_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string", bool: "true or false"}


def _check_value(value, annotation, dotted: str):
    """`value` if JSON gave the annotated type: bool is not an int, an
    int is a float, floats are finite, `| None` admits null.
    """
    kinds = typing.get_args(annotation) or (annotation,)
    if float in kinds and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if type(value) in kinds and (type(value) is not float or math.isfinite(value)):
        return value
    expected = " or ".join(_TYPE_NAMES.get(k, "null") for k in kinds)
    raise ConfigError(f"config key {dotted} expects {expected}, got {json.dumps(value)}")


def _merge(section, override: dict, prefix: str = ""):
    """A copy of the config dataclass `section` with `override`'s values,
    each checked against its field's annotation; `replace` reruns the
    section's own range checks, whose errors gain the section's prefix.
    """
    hints = typing.get_type_hints(type(section))
    changes = {}
    for key, value in override.items():
        dotted = f"{prefix}{key}"
        if key not in hints or (prefix and key == "seed"):
            raise ConfigError(f"unknown config key: {dotted}")
        if is_dataclass(hints[key]):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {dotted} expects an object")
            changes[key] = _merge(getattr(section, key), value, dotted + ".")
        else:
            changes[key] = _check_value(value, hints[key], dotted)
    try:
        return replace(section, **changes)
    except ConfigError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _parse_set_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw  # bare strings (paths, mode names) need no quoting


def _nest(dotted: str, value) -> dict:
    out = value
    for part in reversed(dotted.split(".")):
        if not part:
            raise ConfigError(f"malformed --set key: {dotted!r}")
        out = {part: out}
    return out


def build_config(
    config_path: str | None, overrides: list[str], seed_flag: int | None
) -> PipelineConfig:
    cfg = PipelineConfig()
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON in config file: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: config root must be a JSON object")
        cfg = _merge(cfg, loaded)
    for item in overrides or []:
        key, eq, raw = item.partition("=")
        if not eq:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        cfg = _merge(cfg, _nest(key, _parse_set_value(raw)))
    seed = cfg.seed if seed_flag is None else seed_flag
    w2v, training = replace(cfg.word2vec, seed=seed), replace(cfg.training, seed=seed)
    return replace(cfg, seed=seed, word2vec=w2v, training=training)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, ensure_ascii=False))


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def cmd_prelabel(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    corpus_path = cfg.require_path("corpus", "prelabel")
    out_path = cfg.require_path("labeled", "prelabel")
    lexicon_path = cfg.paths.lexicon
    if lexicon_path is None:
        lexicon_path = sample_lexicon_path()
        _note(f"no lexicon configured, using bundled sample: {lexicon_path}")
    lexicon = load_lexicon(lexicon_path)
    corpus = load_corpus(corpus_path)
    cleaned, dropped = clean_corpus(corpus, CleaningConfig())
    labeled = []
    newly = 0
    for review in cleaned.reviews:
        if review.label is None:
            label, _score = prelabel(review.text, lexicon)
            labeled.append(type(review)(text=review.text, label=label))
            newly += 1
        else:
            labeled.append(review)
    out = type(cleaned)(reviews=labeled, name=cleaned.name)
    save_corpus(out, out_path)
    positive = sum(1 for r in labeled if r.label == 1)
    _emit(
        {
            "reviews": len(labeled),
            "dropped": dropped,
            "newly_labeled": newly,
            "positive": positive,
            "negative": len(labeled) - positive,
            "labeled_path": str(out_path),
        }
    )
    return 0


def cmd_embed(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    corpus_path = cfg.require_path("labeled", "embed")
    vocab_path = cfg.require_path("vocab", "embed")
    emb_path = cfg.require_path("embeddings", "embed")
    corpus = load_corpus(corpus_path)
    vocab = build_vocab(corpus, min_count=cfg.tokenizer.min_count)
    # full untruncated id streams: clipping to max_len is a classifier
    # concern, not an embedding one
    sequences = [
        [vocab.id_for(t) for t in segment_chars(text)] for text in corpus.texts()
    ]
    epoch_losses: list[float] = []
    matrix = train_embeddings(sequences, vocab, cfg.word2vec, epoch_losses=epoch_losses)
    vocab.save(vocab_path)
    save_embeddings(matrix, vocab, emb_path)
    _emit(
        {
            "vocab_size": len(vocab),
            "dim": matrix.dim,
            "mode": cfg.word2vec.mode,
            "epoch_losses": epoch_losses,
            "final_loss": epoch_losses[-1] if epoch_losses else None,
            "vocab_path": str(vocab_path),
            "embeddings_path": str(emb_path),
        }
    )
    return 0


def cmd_train(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    corpus_path = cfg.require_path("labeled", "train")
    vocab_path = cfg.require_path("vocab", "train")
    emb_path = cfg.require_path("embeddings", "train")
    model_path = cfg.require_path("model", "train")

    corpus = load_corpus(corpus_path)
    vocab = Vocabulary.load(vocab_path)
    embeddings, _tokens = load_embeddings(emb_path)
    train_c, val_c, test_c = split(
        corpus, cfg.split.train_frac, cfg.split.val_frac, cfg.seed
    )
    if not train_c.reviews or not val_c.reviews:
        raise DataError(
            f"split produced empty train or validation set from {len(corpus.reviews)} reviews"
        )
    max_len = cfg.tokenizer.max_len
    train_set = encode_labeled(train_c, vocab, max_len)
    val_set = encode_labeled(val_c, vocab, max_len)

    params = init_lstm_params(cfg.network.hidden_size, embeddings.dim, cfg.seed)
    model = Model(
        vocab=vocab,
        embeddings=embeddings,
        params=params,
        max_len=max_len,
    )
    if cfg.threshold is not None:
        model.threshold = cfg.threshold
    _note(
        f"training on {len(train_set)} reviews, validating on {len(val_set)}, "
        f"h={cfg.network.hidden_size}, d={embeddings.dim}"
    )
    best, history = train(train_set, val_set, model, cfg.training)

    summary: dict = {
        "best_epoch": history.best_epoch,
        "epochs_run": len(history.records),
        "stopped_early": history.stopped_early,
        "val": best.metrics_snapshot,
        "model_path": str(model_path),
    }
    if test_c.reviews:
        test_set = encode_labeled(test_c, vocab, max_len)
        summary["test"] = evaluate(best, test_set).to_dict()
    save_model(best, model_path)
    history_path = cfg.paths.history
    if history_path is not None:
        save_history(history, history_path)
        summary["history_path"] = str(history_path)
    _emit(summary)
    return 0


def cmd_evaluate(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    model_path = cfg.require_path("model", "evaluate")
    corpus_path = cfg.require_path("labeled", "evaluate")
    model = load_model(model_path)
    corpus = load_corpus(corpus_path)
    dataset = encode_labeled(corpus, model.vocab, model.max_len)
    metrics = evaluate(model, dataset, cfg.threshold)
    _emit(metrics.to_dict())
    return 0


def cmd_predict(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    model_path = cfg.require_path("model", "predict")
    model = load_model(model_path)
    texts = args.text if args.text else (line.rstrip("\n") for line in sys.stdin)
    for text in texts:
        try:
            label, p = predict(text, model, cfg.threshold)
        except DataError:
            _emit({"error": "empty input"})
            continue
        _emit({"label": label, "p": p})
    return 0


_COMMANDS = {
    "prelabel": cmd_prelabel,
    "embed": cmd_embed,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "predict": cmd_predict,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument(
        "--seed", type=int, metavar="N", help="override the pipeline seed"
    )
    common.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        dest="overrides",
        help="override one config entry (dotted key); repeatable",
    )
    parser = argparse.ArgumentParser(
        prog="charsent",
        description="character-level sentiment classification pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("prelabel", parents=[common], help="clean a corpus and label it from a polarity lexicon")
    sub.add_parser("embed", parents=[common], help="build the vocabulary and train embeddings")
    sub.add_parser("train", parents=[common], help="train the classifier with early stopping")
    sub.add_parser("evaluate", parents=[common], help="score a labeled corpus with a saved model")
    predict_p = sub.add_parser("predict", parents=[common], help="classify text from --text or stdin")
    predict_p.add_argument(
        "--text", action="append", metavar="TEXT", help="classify this text; repeatable"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        cfg = build_config(args.config, args.overrides, args.seed)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
