#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload cycle_paper --seed 7 --seconds 20 --trace 0

Run from the root of a checkout.  The first call configures and builds
the benchmark (perfbench/CMakeLists.txt, which builds the library from
the checkout's own sources) into .bench_build/perfbench; later calls
only rebuild what changed.  The workload's inputs are generated from
--seed in a scratch directory under .bench_work/ that is removed again.

Workloads (see BENCHMARK.json and perfbench/ledger.json):
  cycle_paper    one B<->C cycle at l=64 with the paper's 4-level schedule
  cycle_wide     the same driver at l=128 with one coarse level
  serve_journal  small jobs through the journaled RefineService

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
The last line of stdout is the JSON result; build and progress output
go to stderr.  The exit code is 0 only when a result was printed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("cycle_paper", "cycle_wide", "serve_journal")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build the perfbench target incrementally."""
    # Compiler and library temporaries stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks the workload (self-test only)")
    args = parser.parse_args()

    exe = build()
    workdir = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed,
                                               os.getpid()))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--size", args.size]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("perfbench: exited %d" % proc.returncode, file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("perfbench: malformed result", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print("perfbench: %s seed %d trace %d took %.1f s" % (
        args.workload, args.seed, args.trace, time.monotonic() - started),
        file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, OSError, ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
