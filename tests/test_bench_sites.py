"""The traced benchmark (`perfbench/run.py --trace 1`) wraps each site's
`owner.attr` where its caller looks the name up, and fails unless each
workload calls every name `layers.CALLED` lists for it and none of
`layers.IDLE`. A name moved out of its module, or a stage that stops
calling one, passes every other test and fails only the traced run, so
both are checked here: the site table against the package, and each
workload, shrunk, under a tracer.
"""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Each workload's sizes, cut so that both run in a few seconds; the
# stages they call are the full-size ones.
SMALL_SIZES = {
    "PIPE_REVIEWS": 120,
    "PIPE_SCORE": 40,
    "PIPE_W2V_EPOCHS": 1,
    "PIPE_TRAIN_EPOCHS": 1,
    "QUERY_ITEMS": 20,
    "LSTM_TRAIN": 60,
    "LSTM_VAL": 30,
    "LSTM_SCORE": 40,
}


def test_every_traced_site_resolves_and_every_checked_name_is_a_site():
    sites = layers.sites([])
    assert [name for name, site in sites.items() if not hasattr(site.owner, site.attr)] == []
    for table in (layers.CALLED, layers.IDLE):
        for workload, names in table.items():
            assert set(names) <= set(sites), (workload, sorted(set(names) - set(sites)))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_each_workload_calls_exactly_the_names_the_traced_run_requires(workload, tmp_path, monkeypatch):
    for name, value in SMALL_SIZES.items():
        monkeypatch.setattr(workloads, name, value)
    sites = layers.sites([])
    tracer, ledger = Tracer(), workloads.Ledger()
    ctx = workloads.Context(seed=7, seconds=0.0, workdir=tmp_path, ledger=ledger, tracer=tracer)
    with tracer.installed([sites[n] for n in layers.CALLED[workload] + layers.IDLE[workload]]):
        workloads.WORKLOADS[workload](ctx)
    spans = tracer.spans()
    assert [name for name in layers.CALLED[workload] if spans.count(name) == 0] == []
    assert [name for name in layers.IDLE[workload] if spans.count(name) > 0] == []
    assert [check for check in ledger.checks if not check["ok"]] == []
