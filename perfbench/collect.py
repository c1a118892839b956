"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --seeds 1,2,3 [--trace 0|1] [--out FILE]

Every workload of BENCHMARK.json runs once per seed for its ``run_seconds``.
For every workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, next to the metric's bound in BENCHMARK.json. With
``--out`` the runs and the summary are written as JSON, with the
environment they ran in.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import environment  # noqa: E402


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="comma-separated seeds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    seconds = spec["run_seconds"]
    doc = {"environment": environment(), "seconds": seconds, "trace": args.trace,
           "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            t0 = time.perf_counter()
            result = one_run(workload, seed, seconds, args.trace)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"wall {time.perf_counter() - t0:.1f} s", flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) < 2:
                summary[name] = {"median": values[0]}
                continue
            s = summary[name] = summarise(values)
            if name in bounds:
                s["bound"] = bounds[name]
                print(f"  {name:14s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                      f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}  bound {bounds[name]}",
                      flush=True)
        doc["workloads"][workload] = {
            "runs": runs,
            "failure_ratio": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "summary": summary,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
