#!/usr/bin/env python3
"""Print nearest neighbors of probe characters in an embedding space.

Loads an embedding file as written by CLI `embed`. A missing or
malformed file writes one `error:` line with the CLI's diagnostic writer
(stderr only, lost if stderr is closed or unwritable) and exits 3, as
the CLI does.

Usage:
    python3 scripts/inspect_neighbors.py --embeddings runs/emb.bin --queries 好坏
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import charsent as cs
from charsent.cli import note
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


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        matrix, tokens = cs.load_embeddings(args.embeddings)
        with located(args.embeddings):
            # load_embeddings checked that rows 0 and 1 are the reserved <pad> and <unk>
            vocab = cs.Vocabulary(tokens[2:], min_count=1)
    except cs.DataError as exc:
        note(f"error: {exc}")
        return 3  # the CLI's data-error code

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
