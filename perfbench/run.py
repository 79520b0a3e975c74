"""charsent benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
its `src/` directory. The seed only changes the generated inputs. With
--trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics of BENCHMARK.json; with --trace 1 the same workload
runs twice in this process, untraced and then traced, and the object
holds the per-layer metrics. The lines before it are a readable report
of every named metric. A results record with provenance goes to
perfbench/out/, and a traced run also writes its spans there. The exit
code is 0 only when every output check passed.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# An untraced run repeats these parts and reports the median time of
# each: the import of charsent (in fresh interpreters, at least this
# many times), the building of the inputs, and the work of the workloads
# that repeat it.
IMPORT_REPEATS = 11
SETUP_REPEATS = 5
WORK_REPEATS = 5

# Named end-to-end metrics of the report, in print order.
REPORT_ORDER = (
    ("setup_s", "s", "lower"),
    ("pipeline_s", "s", "lower"),
    ("embed_tokens_per_s", "tokens/s", "higher"),
    ("embed_loss", "nats", "lower"),
    ("train_seqs_per_s", "seqs/s", "higher"),
    ("val_acc", "fraction", "higher"),
    ("score_seqs_per_s", "seqs/s", "higher"),
    ("predict_p50_ms", "ms", "lower"),
    ("predict_p99_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("error_rate", "fraction", "lower"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description="charsent benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the query phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _limit_blas_threads() -> int:
    """At most one BLAS thread per usable core; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def _import_s() -> float:
    """Time to import charsent in a fresh interpreter, the import share of
    set-up. The child does the import alone and is waited for.
    """
    code = "from time import perf_counter as t; t0 = t(); import charsent; print(t() - t0, charsent.__file__)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=60
    )
    seconds, path = done.stdout.split(maxsplit=1)
    if Path(path.strip()).resolve().parent != ROOT / "src" / "charsent":
        raise RuntimeError(f"charsent imported from {path.strip()}")
    return float(seconds)


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "charsent" / "__init__.py").is_file():
        print(f"error: no charsent sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = _limit_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import charsent
    import layers
    import provenance
    import workloads
    from tracer import Tracer

    if Path(charsent.__file__).resolve().parent != ROOT / "src" / "charsent":
        print(f"error: charsent imported from {charsent.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run = workloads.WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    ledger = workloads.Ledger()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance.collect(ROOT, args.seed, nproc),
    }

    imports: list[float] = []

    def context(name, tracer=None, gate=False):
        (workdir / name).mkdir()
        return workloads.Context(
            seed=args.seed,
            seconds=args.seconds,
            workdir=workdir / name,
            ledger=ledger,
            repeats=1 if args.trace else WORK_REPEATS,
            setup_repeats=1 if args.trace else SETUP_REPEATS,
            tracer=tracer,
            acceptance_gate=gate,
            between=None if args.trace else lambda: imports.append(_import_s()),
        )

    try:
        if args.trace:
            # the untraced pass records the benchmark's own phases only,
            # and runs pipeline-cbow's acceptance gate after them
            phases = Tracer()
            plain = run(context("untraced", phases, gate=True))
            tracer, batches = Tracer(), []
            all_sites = layers.sites(batches)
            names = layers.CALLED[args.workload] + layers.IDLE[args.workload]
            with tracer.installed([all_sites[n] for n in names]):
                traced = run(context("traced", tracer))
            spans = tracer.spans()
            overhead_s = layers.tracing_overhead(
                phases.spans(), spans, plain.query["samples"], traced.query["samples"]
            )
            metrics, record["bases"] = layers.per_layer(
                spans, batches, traced.counts, traced.epochs_run, overhead_s
            )
            _check_trace(ledger, args.workload, spans, plain, traced, metrics)
            spans.save(OUT / f"{args.workload}.spans.npz")
            record["samples"] = {"query_calls": traced.query["samples"]}
        else:
            outcome = run(context("run"))
            while len(imports) < IMPORT_REPEATS:
                imports.append(_import_s())
            import_s = statistics.median(imports)
            setup_s = import_s + outcome.setup_s
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": (setup_s, "s"),
                "work_s": (outcome.work_s, "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            report = dict(outcome.report)
            report.update(
                setup_s=(setup_s, "s"),
                peak_rss_mb=(peak_rss_mb, "MB"),
                error_rate=(ledger.error_rate, "fraction"),
            )
            record["report"] = {k: {"value": v, "unit": u} for k, (v, u) in report.items()}
            record["samples"] = {"query_calls": outcome.query["samples"]}
            record["query"] = outcome.query
            record["computed_counts"] = outcome.counts
            record["setup"] = {
                "import_s_median": import_s,
                "import_repeats": len(imports),
                "data_s_median": outcome.setup_s,
                "data_repeats": SETUP_REPEATS,
            }
    except workloads.StageFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        for check in ledger.checks:
            if not check["ok"]:
                print(f"FAILED {check['name']}: {check['detail']}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["checks"] = ledger.checks
    record["attempted"], record["failed"] = ledger.attempted, ledger.failed
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    _print_report(args, record, metrics)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if ledger.failed == 0 else 1


def _check_trace(ledger, workload, spans, plain, traced, metrics) -> None:
    import layers

    for name in layers.CALLED[workload]:
        ledger.check(f"traced name {name} called", spans.count(name) > 0)
    for name in layers.IDLE[workload]:
        ledger.check(f"traced name {name} never called", spans.count(name) == 0, str(spans.count(name)))
    for key, value in plain.exact.items():
        ledger.check(
            f"traced {key} equals untraced bit for bit",
            traced.exact[key] == value,
            f"{traced.exact[key]!r} vs {value!r}",
        )
    ledger.check(
        "traced Word2Vec steps equal the computed count",
        metrics["embedding.steps"][0] == metrics["embedding.steps_computed"][0],
    )


def _print_report(args, record, metrics) -> None:
    prov = record["provenance"]
    print(
        f"charsent benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print(
        f"  revision {prov['git_revision']} dirty={prov['git_dirty']}  python {prov['python']}  "
        f"numpy {prov['numpy']}  {prov['blas']} threads={prov['blas_threads']}  nproc={prov['nproc']}"
    )
    if args.trace:
        import layers

        print("per-layer metrics (traced run):")
        for name, (value, unit) in metrics.items():
            note = "computed" if name in layers.COMPUTED else record["bases"].get(name, "")
            print(f"  {name:28s} {_fmt(value):>14s} {unit:8s} {note}")
    else:
        report = record["report"]
        samples = record["samples"]["query_calls"]
        print("end-to-end metrics (n/a: the workload does not do that work):")
        for name, unit, better in REPORT_ORDER:
            if name in report:
                value = _fmt(report[name]["value"])
                note = f"  (n={samples})" if name.endswith(("_p50_ms", "_p99_ms")) else ""
                print(f"  {name:20s} {value:>14s} {unit:9s} {better} is better{note}")
            else:
                print(f"  {name:20s} {'n/a':>14s} {unit:9s} {better} is better")
        q = record["query"]
        print(
            f"  gated: work_s {_fmt(metrics['work_s'][0])} s (median of the work's repeats). "
            f"Query percentiles pool {q['segment_samples']} calls, which "
            f"support up to p{q['tail_percentile']:g} = {_fmt(q['tail_ms'])} ms"
        )
        print("  computed counts: " + ", ".join(f"{k}={v}" for k, v in record["computed_counts"].items()))
    failed = [c for c in record["checks"] if not c["ok"]]
    print(f"checks: {len(record['checks']) - len(failed)} passed, {len(failed)} failed")
    for check in failed:
        print(f"  FAILED {check['name']}: {check['detail']}")


if __name__ == "__main__":
    sys.exit(main())
