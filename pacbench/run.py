#!/usr/bin/env python3
"""Build the simulator and run one benchmark workload.

Run from the repository root:

    python3 pacbench/run.py --workload fig8 --seed 1 --seconds 10 --trace 0

Workloads: fig8, bruteforce, accuracy_remote, or `all` (each in its own
process, one after the other). The first run configures and builds
pacbench/ (which builds ../src) into .bench_build/pacbench; later runs
rebuild incrementally. The workload's report is passed through, and the
last line of standard output is its result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics,
or with --trace 1 the per-layer metrics. Exits non-zero, printing no
result, when the build fails or the workload does not finish.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "pacbench")
BINARY = os.path.join(BUILD_DIR, "pacbench_workload")
WORKLOADS = ["fig8", "bruteforce", "accuracy_remote"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("pacbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources at %s/src" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "pacbench_workload", "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def expected_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(workload, args):
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", ".bench_run"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail("%s exited with %d" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: malformed result line" % workload)
    names = expected_names(args.trace)
    if sorted(result["metrics"]) != sorted(names):
        fail("%s: metrics %s do not match BENCHMARK.json %s"
             % (workload, sorted(result["metrics"]), sorted(names)))
    print("\n".join(lines[:-1]))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()
    if args.workload != "all":
        print(json.dumps(run_one(args.workload, args)))
        return

    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    for w in WORKLOADS:
        r = run_one(w, args)
        combined["correct"] = combined["correct"] and r["correct"]
        combined["attempted"] += r["attempted"]
        combined["failed"] += r["failed"]
        for name, m in r["metrics"].items():
            combined["metrics"]["%s/%s" % (w, name)] = m
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
