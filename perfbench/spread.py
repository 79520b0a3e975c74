"""Run one workload over several seeds and report, per end-to-end metric,
the median and the quartile spread (Q3 - Q1) / median against the bound
in BENCHMARK.json.

    python3 perfbench/spread.py --workload NAME --seeds 1-10

Runs are made one after another from the repository root, each for
the run_seconds of BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import spread

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run([sys.executable, *cmd[1:]], cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
            return 1
        metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
        print(f"seed {seed}: " + ", ".join(f"{k}={m['value']:.4g}" for k, m in metrics.items()), flush=True)
        for name, m in metrics.items():
            values.setdefault(name, []).append(m["value"])

    ok = True
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        s = spread(vals)
        within = s <= metric["bound"]
        ok &= within
        print(
            f"{metric['name']:14s} median {statistics.median(vals):.5g} {metric['unit']:3s} "
            f"spread {s:.4f}  bound {metric['bound']}  {'ok' if within else 'TOO WIDE'}"
            f"{'' if s <= metric['bound'] / 3 else '  (above a third of the bound)'}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
