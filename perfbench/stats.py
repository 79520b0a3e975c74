"""Arithmetic behind the reported numbers: percentiles, padding waste,
GEMM flops and the Word2Vec work counts, all computed from inputs alone
so that they repeat exactly for a given seed.
"""

from __future__ import annotations

import statistics
from fractions import Fraction

import numpy as np

# Percentiles offered for a latency tail, as the share of samples beyond.
_TAILS = (Fraction(1, 2), Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10000))
MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """The highest of p50, p90, p99, p99.9, p99.99 that has at least ten
    of `n` samples beyond it, or None when not even p50 has.
    """
    best = None
    for tail in _TAILS:
        if n * tail >= MIN_BEYOND:
            best = float(100 * (1 - tail))
    return best


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of
    all samples at or below it.
    """
    return float(np.quantile(np.asarray(samples, dtype=np.float64), p / 100.0, method="inverted_cdf"))


def latency_summary(seconds: list[float]) -> dict:
    """Median and p99 in ms, the highest supported tail, and the count."""
    n = len(seconds)
    tail = tail_percentile(n)
    if tail is None or tail < 99.0:
        raise ValueError(f"{n} samples cannot support p99 (need {MIN_BEYOND} beyond it)")
    ms = np.asarray(seconds) * 1e3
    return {
        "samples": n,
        "p50_ms": percentile(ms, 50.0),
        "p99_ms": percentile(ms, 99.0),
        "tail_percentile": tail,
        "tail_ms": percentile(ms, tail),
    }


def cell_steps(lengths) -> tuple[int, int]:
    """LSTM cell-steps a padded batch computes (B * T_max) and the useful
    ones (sum of true lengths).
    """
    lengths = [int(x) for x in lengths]
    return len(lengths) * max(lengths), sum(lengths)


def pad_waste(computed: int, useful: int) -> float:
    """Share of computed cell-steps spent on padding; for one batch,
    1 - sum(len) / (B * T_max). Zero when nothing was computed.
    """
    return 1.0 - useful / computed if computed else 0.0


def forward_gemm_flops(batch: int, t_max: int, hidden: int, dim: int) -> int:
    """Flops of the matrix products in one forward_batch call: four gate
    products (B x (h+d)) @ ((h+d) x h) per step, then the (B x h) head.
    """
    return t_max * 4 * 2 * batch * (hidden + dim) * hidden + 2 * batch * hidden


def cbow_windows(lengths) -> int:
    """CBOW examples per epoch: every position of a sequence with at
    least two tokens has a non-empty context.
    """
    return sum(n for n in lengths if n >= 2)


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the
    median, as statistics.quantiles(values, n=4) gives them.
    """
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
