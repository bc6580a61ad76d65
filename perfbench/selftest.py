#!/usr/bin/env python3
"""Self-test of the µBE benchmark at tiny sizes.

Usage (from the repository root):  python3 perfbench/selftest.py

Runs every workload untraced and traced with --tiny and checks that each
run exits 0 with "correct": true, and that its result meets the contract
run.py enforces: every emitted name uses only [A-Za-z0-9_.-] and has a
unit, and the emitted metrics are exactly the ones BENCHMARK.json declares
for that kind of run, in the declared units. Also checks that
BENCHMARK.json's workloads are the ones run.py runs. Exits non-zero on any
failure. Takes about a minute after the build.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the module under test)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    if sorted(workloads) != sorted(run.WORKLOADS):
        sys.exit("selftest: BENCHMARK.json workloads %s != run.py %s" %
                 (workloads, run.WORKLOADS))
    failures = 0
    for workload in workloads:
        for trace in (0, 1):
            command = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", "1", "--seconds",
                       "4", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(command, cwd=run.ROOT,
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=300)
            problems = []
            if proc.returncode != 0:
                problems.append("exit code %d" % proc.returncode)
            try:
                result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
            except ValueError:
                result = None
                problems.append("no result line")
            if result is not None:
                problems += run.check_result(result, bool(trace))
                if result.get("correct") is not True:
                    problems.append("correct is not true")
            print("%-22s %s" % ("%s trace=%d" % (workload, trace),
                                "FAIL: " + "; ".join(problems)
                                if problems else "ok"))
            failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
