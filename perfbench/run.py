#!/usr/bin/env python3
"""Builds and runs the repository benchmark, and checks what it reports.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The measuring program (perfbench/src) is
built from source with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then run.  Its result line is parsed here with
Python's json module, independently of the C++ that wrote it, and checked
against BENCHMARK.json: every metric the mode requires (end_to_end with
--trace 0, per_layer with --trace 1) must be present, with its unit and
direction, as a finite number, and end-to-end metrics must be non-zero.
The last line printed is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--workload all runs every workload in turn, each ending with its own
result line.  Exits non-zero without a result when the program cannot be
built or run, or when its output breaks that contract.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIME_LIMIT_S = 170  # the whole invocation, build check included


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures once, then (re)builds the measuring program."""
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            fail("build failed: " + " ".join(step))
    return build_dir / "perfbench"


def check(result, specs, end_to_end):
    """Returns the contract's problems with the program's result line."""
    problems = []
    for key, kind in (("correct", bool), ("attempted", int), ("failed", int),
                      ("metrics", dict), ("errors", list)):
        if not isinstance(result.get(key), kind):
            problems.append("missing or mistyped '%s'" % key)
    if problems:
        return problems
    for key in ("attempted", "failed"):
        if isinstance(result[key], bool) or result[key] < 0:
            problems.append("'%s' is not a whole number" % key)
    if result["attempted"] < 1:
        problems.append("'attempted' is below 1")
    metrics = result["metrics"]
    wanted = {spec["name"]: spec for spec in specs}
    for name in sorted(set(metrics) - set(wanted)):
        problems.append("metric %s is not in BENCHMARK.json" % name)
    for name, spec in wanted.items():
        got = metrics.get(name)
        if not isinstance(got, dict):
            problems.append("metric %s is missing" % name)
            continue
        value = got.get("value")
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            problems.append("metric %s has no finite value" % name)
        elif end_to_end and value <= 0:
            problems.append("end-to-end metric %s is %r" % (name, value))
        for key in ("unit", "better"):
            if got.get(key) != spec[key]:
                problems.append("metric %s has %s %r, BENCHMARK.json says %r"
                                % (name, key, got.get(key), spec[key]))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    start = time.monotonic()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads + ["all"]:
        fail("unknown workload %r (have %s)" % (args.workload,
                                                ", ".join(workloads)))
    if args.seed < 0:
        fail("--seed must be a whole number")
    end_to_end = args.trace == "0"
    specs = spec["end_to_end"] if end_to_end else spec["per_layer"]

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    program = build(build_dir)
    names = workloads if args.workload == "all" else [args.workload]
    for name in names:
        run(program, build_dir, name, args, specs, end_to_end, start)
        start = time.monotonic()


def run(program, build_dir, workload, args, specs, end_to_end, start):
    """Runs one workload and prints its human-readable lines and result."""
    command = [str(program), "--workload", workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               args.trace]
    if not end_to_end:
        out_dir = build_dir / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(out_dir / ("%s-seed%d.trace.json" % (
            workload, args.seed)))]
    try:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, TIME_LIMIT_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        fail("the measuring program ran out of time")
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        fail("the measuring program failed (exit %d)" % done.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError as e:
        fail("unparsable result line: %s" % e)
    problems = check(result, specs, end_to_end)
    if problems:
        fail("result breaks the contract:\n  " + "\n  ".join(problems))

    print(json.dumps({
        "correct": result["correct"] and not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {s["name"]: {"value": result["metrics"][s["name"]]["value"],
                                "unit": s["unit"]} for s in specs},
    }), flush=True)


if __name__ == "__main__":
    main()
