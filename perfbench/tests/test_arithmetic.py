"""The benchmark's own arithmetic. Run: python3 -m pytest perfbench/tests"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stats
import workloads
from tracer import Site, Tracer

BENCH = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "n, expected",
    [(9, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9), (100000, 99.99)],
)
def test_tail_percentile_has_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_latency_summary_refuses_p99_without_ten_samples_beyond():
    with pytest.raises(ValueError):
        stats.latency_summary([0.001] * 999)
    summary = stats.latency_summary([i / 1000 for i in range(1, 1001)])
    assert summary["samples"] == 1000
    assert summary["p50_ms"] == 500.0
    assert summary["p99_ms"] == 990.0  # nearest rank: ten samples above it


def test_pad_waste_from_lengths():
    assert stats.pad_waste(*stats.cell_steps([5, 5, 5])) == 0.0
    assert stats.cell_steps([10, 30, 60, 20]) == (240, 120)
    assert stats.pad_waste(*stats.cell_steps([10, 30, 60, 20])) == 0.5
    assert stats.pad_waste(*stats.cell_steps([1, 4])) == pytest.approx(1 - 5 / 8)
    # over several batches the waste is that of the summed cell-steps
    assert stats.pad_waste(240 + 8, 120 + 5) == pytest.approx(1 - 125 / 248)
    assert stats.pad_waste(0, 0) == 0.0


def test_forward_gemm_flops_from_shapes():
    # one step, B=2, h=3, d=1: four (2x4)@(4x3) products plus the (2x3) head
    assert stats.forward_gemm_flops(2, 1, 3, 1) == 4 * 2 * 2 * 4 * 3 + 2 * 2 * 3


def test_cbow_windows_match_extract_windows():
    from charsent.embedding import extract_windows

    rng = np.random.default_rng(3)
    seqs = [list(rng.integers(2, 9, size=n)) for n in (1, 2, 3, 7, 12)]
    lengths = [len(s) for s in seqs]
    windows = [w for s in seqs for w in extract_windows(s, 4)]
    assert stats.cbow_windows(lengths) == len(windows)


class _Box:
    @staticmethod
    def outer(box):
        box.inner()
        box.inner()

    @staticmethod
    def inner():
        pass


def test_self_time_with_nested_spans():
    tracer = Tracer()
    box = _Box()
    sites = [Site("box.outer", "a", box, "outer"), Site("box.inner", "b", box, "inner")]
    with tracer.installed(sites):
        with tracer.span("bench.work", "bench"):
            box.outer(box)
    spans = tracer.spans()
    assert spans.count("box.outer") == 1 and spans.count("box.inner") == 2
    dur, own = spans.duration, spans.self_time()
    outer, inner = spans.mask("box.outer"), spans.mask("box.inner")
    assert own[outer].sum() == pytest.approx(dur[outer].sum() - dur[inner].sum(), abs=1e-12)
    assert np.array_equal(own[inner], dur[inner])
    assert spans.has_ancestor("bench.work")[outer | inner].all()
    layers = spans.layer_self_time()
    assert sum(layers.values()) == pytest.approx(dur[spans.mask("bench.work")].sum(), abs=1e-12)
    # the wrapper is gone once the block ends
    assert box.inner is _Box.inner


def test_self_time_from_constructed_spans():
    from tracer import Spans

    # 0: [0, 10] root; 1: [1, 4] and 2: [5, 9] children of 0; 3: [2, 3] child of 1
    spans = Spans(
        names=["root", "child", "leaf"],
        layers=["x", "y", "y"],
        start=np.array([0.0, 1.0, 5.0, 2.0]),
        end=np.array([10.0, 4.0, 9.0, 3.0]),
        parent=np.array([-1, 0, 0, 1]),
        name_id=np.array([0, 1, 1, 2]),
    )
    assert list(spans.self_time()) == [3.0, 2.0, 4.0, 1.0]
    assert spans.layer_self_time() == {"x": 3.0, "y": 7.0}
    assert list(spans.has_ancestor("child")) == [False, False, False, True]


def test_missing_traced_name_fails_loudly():
    with pytest.raises(LookupError):
        with Tracer().installed([Site("box.gone", "a", _Box, "gone")]):
            pass


def test_failed_check_raises_error_rate():
    ledger = workloads.Ledger()
    ledger.ops(98)
    ledger.check("holds", True)
    assert ledger.error_rate == 0.0
    ledger.check("breaks", False, "detail")
    assert (ledger.attempted, ledger.failed) == (100, 1)
    assert ledger.error_rate == 0.01
    assert [c["ok"] for c in ledger.checks] == [True, False]


def test_spread_is_quartile_distance_over_median():
    assert stats.spread([1.0] * 10) == 0.0
    assert stats.spread([float(v) for v in range(1, 11)]) == pytest.approx((8.25 - 2.75) / 5.5)


def test_run_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lstm-h128", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_tracing_overhead_from_fixed_phases_and_per_call_query():
    import layers
    from tracer import Spans

    def phases(rows):
        # rows: (name, start, end, parent); score nests inside work
        names = sorted({r[0] for r in rows})
        return Spans(
            names=names,
            layers=["bench"] * len(names),
            start=np.array([r[1] for r in rows]),
            end=np.array([r[2] for r in rows]),
            parent=np.array([r[3] for r in rows]),
            name_id=np.array([names.index(r[0]) for r in rows]),
        )

    plain = phases([("bench.setup", 0.0, 1.0, -1), ("bench.work", 1.0, 5.0, -1), ("bench.score", 4.0, 5.0, 1), ("bench.query", 5.0, 8.0, -1)])
    traced = phases([("bench.setup", 0.0, 1.5, -1), ("bench.work", 1.5, 7.5, -1), ("bench.score", 6.0, 7.5, 1), ("bench.query", 7.5, 10.5, -1)])
    # fixed phases: 7.5 - 5.0; query: 3 s over 100 calls against 3 s over 300
    expected = 2.5 + (3.0 / 100 - 3.0 / 300) * 100
    assert layers.tracing_overhead(plain, traced, 300, 100) == pytest.approx(expected)
