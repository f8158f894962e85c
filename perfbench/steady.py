"""Run two sets of benchmark runs of the same code and compare them.

    python3 perfbench/steady.py --runs 10

Every workload in BENCHMARK.json runs ``--runs`` times per set, for
``run_seconds`` each; the first set takes seeds 1..runs, the second the next
``runs`` seeds.  For every workload and metric the report gives each set's
median, first and third quartile (``statistics.quantiles`` with n=4), the
quartile spread as a share of the median, and how far the second median
moved from the first, against the metric's bound.  It also gives the share
of failed ops in every run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2


def _run(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for k in range(SETS):
            seeds = range(1 + k * args.runs, 1 + (k + 1) * args.runs)
            results = [_run(workload, seed, spec["run_seconds"])
                       for seed in seeds]
            sets.append({
                "failed_share": [r["failed"] / r["attempted"]
                                 for r in results],
                "correct": all(r["correct"] for r in results),
                "metrics": {name: _summary([r["metrics"][name]["value"]
                                            for r in results])
                            for name in metrics},
            })
        print(f"== {workload}: {args.runs} runs per set, failed share "
              f"{sorted({s for st in sets for s in st['failed_share']})}, "
              f"correct {all(st['correct'] for st in sets)}")
        for name, meta in metrics.items():
            cells = [f"{name:12s}"]
            for st in sets:
                m = st["metrics"][name]
                cells.append(f"median {m['median']:.4g} [q1 {m['q1']:.4g}, "
                             f"q3 {m['q3']:.4g}] spread {m['spread']:.1%}")
            first, second = (st["metrics"][name]["median"] for st in sets)
            worse = (second - first) / first
            if meta["better"] == "higher":
                worse = -worse
            cells.append(f"worse by {worse:+.1%} (bound {meta['bound']:.0%})")
            print("  " + " | ".join(cells))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
