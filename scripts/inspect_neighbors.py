#!/usr/bin/env python3
"""Print nearest neighbors of probe characters in an embedding space.

Loads an embedding file as written by CLI `embed` and ends as the CLI
does (`cli.run`): a missing or malformed file is one `error:` line on
stderr only and exit 3, and a reader of stdout that goes away ends it with 0.

Usage:
    python3 scripts/inspect_neighbors.py --embeddings runs/emb.bin --queries 好坏
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import charsent as cs
from charsent.cli import run
from charsent.files import located


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--embeddings", type=Path, required=True, help="W2V1 embedding file")
    ap.add_argument("--queries", default="好坏", help="characters to look up")
    ap.add_argument("--top", type=int, default=5, help="neighbors per query, at least 1")
    args = ap.parse_args(argv)
    if args.top < 1:
        ap.error(f"--top must be at least 1, got {args.top}")
    return args


def show_neighbors(args) -> int:
    matrix, tokens = cs.load_embeddings(args.embeddings)
    with located(args.embeddings):
        # load_embeddings checked that rows 0 and 1 are the reserved <pad> and <unk>
        vocab = cs.Vocabulary(tokens[2:], min_count=1)
    for ch in args.queries:
        if ch not in vocab:
            print(f"{ch}: not in vocabulary")
            continue
        pairs = cs.nearest_neighbors(ch, args.top, matrix, vocab)
        listing = "  ".join(f"{tok} {sim:+.3f}" for tok, sim in pairs)
        print(f"{ch}: {listing}")
    return 0


def main(argv=None) -> int:
    return run(show_neighbors, parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
