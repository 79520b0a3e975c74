"""Command-line pipeline: prelabel, embed, train, evaluate, predict.

One JSON config file drives every stage; --set key=value overrides
individual entries with dotted paths. Results go to stdout as JSON,
diagnostics to stderr. Exit codes: 0 success, 2 configuration or usage
error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import typing
from dataclasses import asdict, dataclass, is_dataclass, replace
from pathlib import Path

from .corpus import (
    check_split_fractions,
    clean_corpus,
    clean_text,
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
from .errors import CharsentError, ConfigError, DataError, NumericalError
from .files import check_output, check_size, located, parse_json, read_text
from .network import Model, init_lstm_params, predict, threshold_ok
from .rng import check_seed
from .tokenizer import Vocabulary, build_vocab, check_max_len, check_min_count, segment_chars
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
    """Each path is null or one the system can take: os.fsencode encodes
    it (an undecodable argv byte, a surrogate escape, stays that byte),
    it holds no NUL, and it names a file: its last part is not empty, as
    that of "", ".", "./" or "/" is.
    """

    corpus: str | None = None
    lexicon: str | None = None
    labeled: str | None = None
    vocab: str | None = None
    embeddings: str | None = None
    model: str | None = None
    history: str | None = None

    def __post_init__(self):
        for key, value in vars(self).items():
            try:
                refused = value is not None and (b"\0" in os.fsencode(value) or not Path(value).name)
            except UnicodeEncodeError:  # a lone surrogate outside the escapes
                refused = True
            if refused:
                raise ConfigError(f"{key} is not a path the system can take: {value!r}")


@dataclass(frozen=True)
class TokenizerConfig:
    max_len: int = 120
    min_count: int = 1

    def __post_init__(self):
        check_max_len(self.max_len)
        check_min_count(self.min_count)


@dataclass(frozen=True)
class SplitConfig:
    train_frac: float = 0.7
    val_frac: float = 0.15

    def __post_init__(self):
        check_split_fractions(self.train_frac, self.val_frac)


@dataclass(frozen=True)
class NetworkConfig:
    hidden_size: int = 128

    def __post_init__(self):
        check_size("hidden_size", self.hidden_size)


@dataclass(frozen=True)
class PipelineConfig:
    """Every config key, its default and its type. The top-level seed is
    the only seed key; `build_config` copies it into both sections.
    A set threshold replaces the one on the model a stage scores with;
    null keeps the model's (a new model's is 0.5).
    """

    seed: int = 0
    threshold: float | None = None
    paths: PathsConfig = PathsConfig()
    tokenizer: TokenizerConfig = TokenizerConfig()
    split: SplitConfig = SplitConfig()
    network: NetworkConfig = NetworkConfig()
    word2vec: W2vConfig = W2vConfig()
    training: TrainConfig = TrainConfig()

    def __post_init__(self):
        check_seed(self.seed)
        if self.threshold is not None and not threshold_ok(self.threshold):
            raise ConfigError("threshold must lie in [0, 1]")

    def scoring(self, model: Model) -> Model:
        """`model` with the configured threshold, when one is set."""
        return model if self.threshold is None else replace(model, threshold=self.threshold)

    def require_path(self, key: str, command: str) -> Path:
        value = getattr(self.paths, key)
        if value is None:
            raise ConfigError(f"paths.{key} is required for '{command}'")
        return Path(value)

    def output_path(self, key: str, command: str) -> Path:
        """require_path for a file `command` writes, checked by files.check_output."""
        path = self.require_path(key, command)
        check_output(f"paths.{key}", path)
        return path


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


def _set_dotted(tree: dict, dotted: str, value) -> None:
    """Put `value` at the dotted key's place in the nested dict `tree`;
    it replaces what an earlier key put there or at a key enclosing it.
    """
    *parents, last = parts = dotted.split(".")
    if not all(parts):
        raise ConfigError(f"malformed --set key: {dotted!r}")
    for part in parents:
        if not isinstance(tree.get(part), dict):
            tree[part] = {}
        tree = tree[part]
    tree[last] = value


def build_config(config_path: str | None, overrides: list[str]) -> PipelineConfig:
    cfg = PipelineConfig()
    if config_path is not None:
        path = Path(config_path)
        text = read_text(path, "config file", ConfigError)
        with located(path, ConfigError):
            loaded = parse_json(text, "config file", ConfigError)
            if not isinstance(loaded, dict):
                raise ConfigError("config root must be a JSON object")
            cfg = _merge(cfg, loaded)
    # every --set value is merged at once, so that a section's rules see
    # all of them: split.train_frac=0.9 and split.val_frac=0.05 are valid together
    tree: dict = {}
    for item in overrides or []:
        key, eq, raw = item.partition("=")
        if not eq:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        try:
            value = parse_json(raw, f"--set {key}", ConfigError)
        except ConfigError as exc:
            if not isinstance(exc.__cause__, json.JSONDecodeError):
                raise  # JSON too deep or too long to read is still JSON
            value = raw  # bare strings (paths, mode names) need no quoting
        _set_dotted(tree, key, value)
    cfg = _merge(cfg, tree)
    w2v, training = replace(cfg.word2vec, seed=cfg.seed), replace(cfg.training, seed=cfg.seed)
    return replace(cfg, word2vec=w2v, training=training)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, ensure_ascii=False))


def note(message: str) -> None:
    """One line on stderr, never stdout; a missing or unwritable stderr
    loses it. The one diagnostic writer of the CLI and the scripts.
    """
    try:
        sys.stderr.write(message + "\n")
    except (AttributeError, OSError):  # None after 2>&-; EBADF on a read-only fd 2
        pass


def cmd_prelabel(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    corpus_path = cfg.require_path("corpus", "prelabel")
    out_path = cfg.output_path("labeled", "prelabel")
    lexicon_path = cfg.paths.lexicon
    if lexicon_path is None:
        lexicon_path = sample_lexicon_path()
        note(f"no lexicon configured, using bundled sample: {lexicon_path}")
    lexicon = load_lexicon(lexicon_path)
    corpus = load_corpus(corpus_path)
    cleaned, dropped = clean_corpus(corpus)
    labeled = [
        replace(r, label=prelabel(r.text, lexicon)[0]) if r.label is None else r
        for r in cleaned.reviews
    ]
    save_corpus(replace(cleaned, reviews=labeled), out_path)
    positive = sum(1 for r in labeled if r.label == 1)
    _emit(
        {
            "reviews": len(labeled),
            "dropped": dropped,
            "newly_labeled": sum(1 for r in cleaned.reviews if r.label is None),
            "positive": positive,
            "negative": len(labeled) - positive,
            "labeled_path": str(out_path),
        }
    )
    return 0


def cmd_embed(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    corpus_path = cfg.require_path("labeled", "embed")
    vocab_path = cfg.output_path("vocab", "embed")
    emb_path = cfg.output_path("embeddings", "embed")
    texts = [clean_text(text) for text in load_corpus(corpus_path).texts()]
    with located(corpus_path):  # a corpus too small to embed
        vocab = build_vocab(texts, min_count=cfg.tokenizer.min_count)
        # full untruncated id streams: clipping to max_len is a classifier
        # concern, not an embedding one
        sequences = [[vocab.id_for(t) for t in segment_chars(text)] for text in texts]
        matrix, epoch_losses = train_embeddings(sequences, vocab, cfg.word2vec)
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
    model_path = cfg.output_path("model", "train")
    history_path = cfg.paths.history and cfg.output_path("history", "train")

    corpus = load_corpus(corpus_path)
    vocab = Vocabulary.load(vocab_path)
    embeddings, tokens = load_embeddings(emb_path)
    if tuple(tokens) != vocab.id_to_token or embeddings.vocab_hash != vocab.content_hash():
        raise DataError(f"{emb_path}: embedding tokens do not match the vocabulary {vocab_path}")
    parts = split(corpus, cfg.split.train_frac, cfg.split.val_frac, cfg.seed)
    max_len = cfg.tokenizer.max_len
    with located(corpus_path):
        train_set, val_set, test_set = (encode_labeled(part, vocab, max_len) for part in parts)

    params = init_lstm_params(cfg.network.hidden_size, embeddings.dim, cfg.seed)
    model = cfg.scoring(Model(vocab=vocab, embeddings=embeddings, params=params, max_len=max_len))
    note(
        f"training on {len(train_set)} reviews, validating on {len(val_set)}, "
        f"h={cfg.network.hidden_size}, d={embeddings.dim}"
    )
    with located(corpus_path):  # a split too small to train on
        best, history = train(train_set, val_set, model, cfg.training)

    summary: dict = {
        "best_epoch": history.best_epoch,
        "epochs_run": len(history.records),
        "stopped_early": len(history.records) < cfg.training.epochs,
        "val": best.metrics_snapshot,
        "model_path": str(model_path),
    }
    if test_set:
        summary["test"] = asdict(evaluate(best, test_set))
    save_model(best, model_path)
    if history_path is not None:
        save_history(history, history_path)
        summary["history_path"] = str(history_path)
    _emit(summary)
    return 0


def cmd_evaluate(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    model_path = cfg.require_path("model", "evaluate")
    corpus_path = cfg.require_path("labeled", "evaluate")
    model = cfg.scoring(load_model(model_path))
    corpus = load_corpus(corpus_path)
    with located(corpus_path):
        metrics = evaluate(model, encode_labeled(corpus, model.vocab, model.max_len))
    _emit(asdict(metrics))
    return 0


def cmd_predict(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    model_path = cfg.require_path("model", "predict")
    if not args.text and sys.stdin is None:  # as with <&-
        raise ConfigError("predict needs --text or a standard input to read")
    model = cfg.scoring(load_model(model_path))
    if isinstance(sys.stdin, io.TextIOWrapper):
        sys.stdin.reconfigure(errors="surrogateescape")  # as argv: bad bytes become surrogates
    texts = args.text if args.text else (line.rstrip("\n") for line in sys.stdin)
    for text in texts:
        try:
            text.encode("utf-8")  # fails on the surrogates of undecodable bytes
            label, p = predict(text, model)
        except UnicodeEncodeError:
            _emit({"error": "invalid UTF-8"})
            continue
        except DataError:
            _emit({"error": "empty input"})
            continue
        _emit({"label": label, "p": p})
    return 0


_EXIT_CODES = {ConfigError: 2, DataError: 3, NumericalError: 4}

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


def run(stage, *args) -> int:
    """The one exit path of the CLI and the scripts: call `stage(*args)`,
    flush stdout, end a CharsentError as one `error:` line and its exit
    code, and end with 0 when the reader of stdout went away.
    """
    try:
        code = stage(*args)
        if sys.stdout is not None:  # None when started with stdout closed (>&-)
            sys.stdout.flush()  # here, not at exit, so that a closed pipe is caught below
        return code
    except CharsentError as exc:
        note(f"error: {exc}")
        return _EXIT_CODES[type(exc)]
    except BrokenPipeError:
        # the reader of stdout is gone: devnull takes the rest, so the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    return run(lambda: _COMMANDS[args.command](build_config(args.config, args.overrides), args))


if __name__ == "__main__":
    sys.exit(main())
