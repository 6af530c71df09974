#!/usr/bin/env python3
"""The benchmark's own test. Run from the repository root:

    python3 pacbench/selftest.py

1. Builds pacbench and runs its unit tests (the statistics helper:
   even counts, fewer than ten samples, the ten-beyond rule for tails).
2. For the baseline and the held-out seed of pacbench/seeds.json, runs
   every workload twice (short runs) and asserts that the outputs pass
   their checks with no failed item, and that the exact counts (the
   COUNTS line) repeat bit for bit.
3. Runs bruteforce at --jobs 1 and --jobs 2 on one seed and asserts
   that the simulated counts ("sim." keys) are identical: the campaign
   merge makes them independent of the thread count. Replica-local
   host counters ("host." keys) are reported at --jobs 1 only (the
   default), because which replica runs which chunk is a race at
   --jobs 2.

A later change that claims only a speed-up must leave every count
identical; comparing these COUNTS lines across the two commits shows it.
Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark driver: build + paths)

SECONDS = "2"


def workload(name, seed, jobs=None):
    cmd = [run.BINARY, "--workload", name, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", "0",
           "--out-dir", ".bench_run"]
    if jobs:
        cmd += ["--jobs", str(jobs)]
    out = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE,
                         text=True, timeout=run.RUN_TIMEOUT_S)
    if out.returncode != 0:
        sys.exit("selftest: %s exited %d" % (" ".join(cmd), out.returncode))
    lines = out.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    counts = json.loads(next(l for l in lines if l.startswith("COUNTS "))[7:])
    return result, counts


def expect(ok, what):
    print("%s %s" % ("PASS" if ok else "FAIL", what), flush=True)
    if not ok:
        sys.exit(1)


def main():
    run.build()
    tests = os.path.join(run.BUILD_DIR, "pacbench_tests")
    if subprocess.run(["cmake", "--build", run.BUILD_DIR, "--target",
                       "pacbench_tests", "-j", "4"], cwd=run.ROOT,
                      stdout=sys.stderr).returncode:
        sys.exit("selftest: cannot build pacbench_tests")
    expect(subprocess.run([tests], stdout=sys.stderr).returncode == 0,
           "pacbench_tests (statistics helper)")

    with open(os.path.join(run.BENCH_DIR, "seeds.json")) as f:
        seeds = json.load(f)
    for label in ("baseline", "held_out"):
        seed = seeds[label]
        for name in run.WORKLOADS:
            r1, c1 = workload(name, seed)
            r2, c2 = workload(name, seed)
            for r in (r1, r2):
                expect(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                       "%s seed %d (%s): correct, %d/%d failed"
                       % (name, seed, label, r["failed"], r["attempted"]))
            expect(c1 == c2 and len(c1) > 0,
                   "%s seed %d: %d exact counts repeat across two runs"
                   % (name, seed, len(c1)))

    seed = seeds["baseline"]
    _, j1 = workload("bruteforce", seed, jobs=1)
    _, j2 = workload("bruteforce", seed, jobs=2)
    sim1 = {k: v for k, v in j1.items() if k.startswith("sim.")}
    sim2 = {k: v for k, v in j2.items() if k.startswith("sim.")}
    expect(sim1 == sim2 and len(sim1) > 0,
           "bruteforce seed %d: %d simulated counts equal at jobs 1 and 2"
           % (seed, len(sim1)))
    expect(any(k.startswith("host.") for k in j1),
           "bruteforce at jobs 1 reports host counts")


if __name__ == "__main__":
    main()
