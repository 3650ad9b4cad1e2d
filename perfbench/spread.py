#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--workloads cycle_paper ...] [--traced 2]
                                [--out spread.json]

Run from the root of a checkout.  For each workload, runs the benchmark
untraced on RUNS consecutive seeds from FIRST_SEED (run_seconds from
BENCHMARK.json) and reports, per end-to-end metric, the median and the
spread: the
distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to
the metric's bound.  --traced N adds N traced runs per workload and
reports their median trace.overhead_frac and cycle.unattributed_frac.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
FIRST_SEED = 101


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError("%s seed %d: incorrect run" % (workload, seed))
    return {k: m["value"] for k, m in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads or [w["name"] for w in bench["workloads"]]

    report = {}
    for workload in names:
        seeds = range(FIRST_SEED, FIRST_SEED + RUNS)
        runs = [run(workload, s, seconds, 0) for s in seeds]
        entry = {"seeds": [seeds.start, seeds.stop - 1], "metrics": {}}
        print("%s (%d seeds)" % (workload, RUNS))
        for name, bound in bounds.items():
            med, s = spread([r[name] for r in runs])
            entry["metrics"][name] = {"median": med, "spread": round(s, 4),
                                      "bound": bound}
            flag = "ok" if s < bound / 3 else ("WIDE" if s > bound else "near")
            print("  %-22s median %-12.5g spread %.4f  bound %.2f  %s"
                  % (name, med, s, bound, flag))
        if args.traced:
            traced = [run(workload, s, seconds, 1)
                      for s in range(FIRST_SEED, FIRST_SEED + args.traced)]
            for name in ("trace.overhead_frac", "cycle.unattributed_frac"):
                entry[name] = statistics.median(t[name] for t in traced)
                print("  %-22s median %.4f (%d traced runs)"
                      % (name, entry[name], args.traced))
        report[workload] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
