"""Named random substreams derived from a single pipeline seed.

Every stochastic stage (corpus split, weight init, epoch shuffling,
dropout, negative sampling, ...) pulls its own generator keyed by a
stage name, so changing how one stage consumes randomness can never
reorder the draws of another.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ConfigError


def check_seed(seed) -> None:
    """Raise ConfigError unless `seed` is a non-negative integer; the
    rule of substream and of the config's seed.
    """
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")


def substream(seed: int, stage: str) -> np.random.Generator:
    """Return a Generator for `stage`, deterministic in (seed, stage)."""
    check_seed(seed)
    key = zlib.crc32(stage.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([seed, key]))
