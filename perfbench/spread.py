"""Run the benchmark over several seeds and report each metric's median,
quartiles and spread (interquartile range over median).

    python3 perfbench/spread.py --workloads pbw-check reduce-long --seeds 1-10 [--trace 1] [--out FILE]

Runs go one after another in child processes, each with the
``run_seconds`` of ``BENCHMARK.json``; ``--out`` writes every run's
metrics and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in result["metrics"].items() if k in bounds or args.trace),
                  flush=True)
        names = runs[0]["metrics"]
        stats = {name: summary([r["metrics"][name]["value"] for r in runs]) for name in names}
        for name, s in stats.items():
            if name in bounds:
                flag = "" if s["spread"] < bounds[name] / 3 else "  <- above a third of the bound"
                print(f"  {name}: median {s['median']:.4g}  spread {s['spread']:.3f}"
                      f" (bound {bounds[name]}){flag}")
        report[workload] = {"runs": runs, "summary": stats}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
