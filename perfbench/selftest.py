#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py            # tiny size, every workload
    python3 perfbench/selftest.py --shape    # also: two full-size seeds

Run from the root of a checkout.  The tiny pass runs each workload of
BENCHMARK.json at --size tiny, untraced and traced, and asserts that:
  * the run is correct and prints exactly the metrics BENCHMARK.json
    names for that mode, each with its unit and a finite value;
  * in the traced run, the layer seconds account for the traced cycle's
    wall time: cycle.unattributed_frac, one minus their share of it,
    lies in (-0.25, 0.5).

--shape runs every workload traced at full size on the two SHAPE_SEEDS
(run_seconds from BENCHMARK.json) and asserts that both seeds give a
workload of the same shape: the same
dominant layer, matching counts within a tenth, and the layer balance
each workload was chosen for (cycle_paper: orientation plus center
refinement is the largest layer; cycle_wide: 3D DFT, distribution,
view FFTs and reconstruction outweigh matching).
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Layer seconds that make up one traced cycle (cycle.traced_s).
CYCLE_LAYERS = ("fft.map_dft_s", "matcher.table_build_s",
                "stream.distribute_s", "fft.view_analysis_s",
                "matcher.orient_s", "center.refine_s", "recon.s", "fsc.s")
# Two full-size seeds for --shape, neither among spread.py's.
SHAPE_SEEDS = (11, 29)


def run(workload, seed, seconds, trace, size):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--size", size]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def values(result):
    return {k: m["value"] for k, m in result["metrics"].items()}


def tiny(bench):
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, 1, 1, trace, "tiny")
            where = "%s trace %d" % (workload, trace)
            check(result["correct"] and result["failed"] == 0,
                  where + ": run not correct")
            check(result["attempted"] >= 1, where + ": nothing attempted")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = result["metrics"]
            check(set(got) == set(want),
                  where + ": metrics differ: %s" % sorted(set(got) ^ set(want)))
            for name, metric in got.items():
                check(metric["unit"] == want[name],
                      "%s: %s unit %s" % (where, name, metric["unit"]))
                check(isinstance(metric["value"], (int, float)) and
                      math.isfinite(metric["value"]),
                      "%s: %s not finite" % (where, name))
            if trace:
                unattributed = values(result)["cycle.unattributed_frac"]
                check(-0.25 < unattributed < 0.5,
                      where + ": unattributed share %.3f" % unattributed)
            print("ok  %s" % where)


def shape(bench):
    seconds = bench["run_seconds"]
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [values(run(workload, s, seconds, 1, "full"))
                for s in SHAPE_SEEDS]
        doms = [max(CYCLE_LAYERS, key=lambda k: v[k]) for v in runs]
        m = [v["matcher.matchings"] for v in runs]
        print("%s: dominant layer %s, matchings %s" % (workload, doms, m))
        check(len(set(doms)) == 1, workload + ": dominant layer differs")
        check(abs(m[0] - m[1]) <= 0.1 * max(m), workload + ": matchings differ")
        for v in runs:
            match = v["matcher.orient_s"] + v["center.refine_s"]
            print("  layer seconds: %s" % {k: round(v[k], 3) for k in CYCLE_LAYERS})
            if workload == "cycle_paper":
                rest = [v[k] for k in CYCLE_LAYERS
                        if k not in ("matcher.orient_s", "center.refine_s")]
                check(match > max(rest), workload + ": matching not largest")
            elif workload == "cycle_wide":
                io = sum(v[k] for k in ("fft.map_dft_s", "stream.distribute_s",
                                        "fft.view_analysis_s", "recon.s",
                                        "fsc.s"))
                check(io > match, workload + ": matching outweighs the rest")
        print("ok  %s shape" % workload)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    tiny(bench)
    if args.shape:
        shape(bench)
    print("selftest passed")


if __name__ == "__main__":
    main()
