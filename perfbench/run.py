#!/usr/bin/env python3
"""Builds and runs the µBE benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_loop|web_churn|serving_mix \
        --seed N --seconds S --trace 0|1 [--tiny]

The first call configures and builds perfbench/ (which compiles the
program from src/) into .bench_build/perfbench; later calls rebuild
incrementally. The binary's output is forwarded; its last line is the
result object {"correct", "attempted", "failed", "metrics"}, checked here
against BENCHMARK.json, the only list of declared metrics. A traced run's
result gets the per-layer metrics its workload bypasses added as 0. The
exit code is non-zero when the build fails, a check fails or the result
breaks the contract.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "mube_perfbench")
WORKLOADS = ("paper_loop", "web_churn", "serving_mix")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# One run must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources under src/ next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "mube_perfbench",
         "-j", jobs],
    ]
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                cwd=ROOT)
        if result.returncode != 0:
            fail("build step failed: " + " ".join(step))


def source_id():
    """The commit when run in a git checkout, else a digest of the tree."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10)
        if commit.returncode == 0 and commit.stdout.strip():
            return "commit-" + commit.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def fill_bypassed_layers(result):
    """A traced run emits the layers its workload loads; every other
    declared per-layer metric reads 0 in its declared unit."""
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return
    for name, unit in declared_metrics(True).items():
        metrics.setdefault(name, {"value": 0, "unit": unit})


def check_result(result, trace):
    """Returns the contract violations of one result object."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(key + " is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    declared = declared_metrics(trace)
    metrics = result["metrics"]
    for name, entry in metrics.items():
        if not NAME_RE.match(name):
            problems.append("bad metric name %r" % name)
        if set(entry) != {"value", "unit"}:
            problems.append("metric %s has keys %s" % (name, sorted(entry)))
            continue
        if not UNIT_RE.match(str(entry["unit"])):
            problems.append("metric %s has bad unit %r" % (name, entry["unit"]))
        if not isinstance(entry["value"], (int, float)) or isinstance(
                entry["value"], bool):
            problems.append("metric %s is not a number" % name)
    for name, unit in declared.items():
        if name not in metrics:
            problems.append("declared metric %s not emitted" % name)
        elif metrics[name]["unit"] != unit:
            problems.append("metric %s emitted in %s, declared in %s" %
                            (name, metrics[name]["unit"], unit))
    for name in metrics:
        if name not in declared:
            problems.append("metric %s emitted but not declared" % name)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the self-test")
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--source-id", source_id()]
    if args.tiny:
        command.append("--tiny")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("no result line (exit code %d)" % run.returncode)
    if args.trace and isinstance(result, dict):
        fill_bypassed_layers(result)
    problems = check_result(result, bool(args.trace))
    if problems:
        fail("result breaks the contract: " + "; ".join(problems))
    print(json.dumps(result))
    sys.stdout.flush()
    if run.returncode != 0 or not result["correct"]:
        sys.exit(run.returncode or 1)


if __name__ == "__main__":
    main()
