#!/usr/bin/env python3
"""Print nearest neighbors of probe characters in an embedding space.

Either loads a saved embedding file (as written by CLI `embed`) or,
with --synthetic, trains a fresh space on the bundled generator the way
CLI `embed` does, so the script works standalone.

Usage:
    python3 scripts/inspect_neighbors.py --embeddings runs/emb.bin --queries 好坏
    python3 scripts/inspect_neighbors.py --synthetic --queries 好坏优
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import charsent as cs
from charsent.synthetic import generate_corpus

SYNTHETIC_REVIEWS = 1500


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--embeddings", type=Path, default=None, help="W2V1 embedding file")
    ap.add_argument(
        "--synthetic", action="store_true", help="train on a generated corpus instead"
    )
    ap.add_argument("--queries", default="好坏", help="characters to look up")
    ap.add_argument("--top", type=int, default=5)
    ap.add_argument("--seed", type=int, default=42, help="synthetic mode only")
    ap.add_argument("--dim", type=int, default=32, help="synthetic mode only")
    return ap.parse_args(argv)


def synthetic_space(seed: int, dim: int):
    corpus = generate_corpus(SYNTHETIC_REVIEWS, seed=seed)
    texts = [cs.clean_text(text) for text in corpus.texts()]
    vocab = cs.build_vocab(texts, min_count=1)
    sequences = [[vocab.id_for(t) for t in cs.segment_chars(text)] for text in texts]
    cfg = cs.W2vConfig(mode="cbow", dim=dim, epochs=3, seed=seed)
    matrix = cs.train_embeddings(sequences, vocab, cfg)
    return matrix, vocab


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.synthetic:
        matrix, vocab = synthetic_space(args.seed, args.dim)
    elif args.embeddings is not None:
        matrix, tokens = cs.load_embeddings(args.embeddings)
        # rows 0 and 1 are the reserved padding/unknown ids
        vocab = cs.Vocabulary.from_tokens(tokens[2:], min_count=1)
    else:
        print("pass --embeddings PATH or --synthetic", file=sys.stderr)
        return 2

    for ch in args.queries:
        if ch not in vocab:
            print(f"{ch}: not in vocabulary")
            continue
        pairs = cs.nearest_neighbors(ch, args.top, matrix, vocab)
        listing = "  ".join(f"{tok} {sim:+.3f}" for tok, sim in pairs)
        print(f"{ch}: {listing}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
