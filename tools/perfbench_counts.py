#!/usr/bin/env python3
"""Gate the deterministic perfbench counts exactly.

Usage: perfbench_counts.py [tools/perfbench_counts.json]

Runs `perfbench/run.py --workload W --seed S --seconds 1 --trace 1` for
every workload in the expectation file (the traced run does a fixed amount
of work, so its counts do not depend on the machine), parses the
`#   name = value unit` lines it prints, and fails unless every listed
count equals its expected value and the run reports `"correct": true`.
The perfbench build directory follows run.py: $CARGO_TARGET_DIR, default
.bench_build.
"""
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINE = re.compile(r"^#\s+(\S+) = (\S+) \S+$")


def run_traced(workload, seed):
    """Returns (counts by name, parsed JSON result line) of one traced run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: run.py exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    counts = {}
    for line in lines:
        m = LINE.match(line)
        if m:
            counts[m.group(1)] = m.group(2)
    return counts, json.loads(lines[-1])


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        ROOT, "tools", "perfbench_counts.json")
    with open(path) as f:
        spec = json.load(f)
    ok = True
    for workload, expected in spec["workloads"].items():
        try:
            counts, result = run_traced(workload, spec["seed"])
        except (RuntimeError, ValueError, IndexError) as err:
            print(f"FAIL {workload}: {err}")
            ok = False
            continue
        if result.get("correct") is not True:
            print(f"FAIL {workload}: \"correct\" is not true")
            ok = False
        for name, want in expected.items():
            got = counts.get(name)
            if got != str(want):
                print(f"FAIL {workload}: {name} = {got}, expected {want}")
                ok = False
            else:
                print(f"ok   {workload}: {name} = {got}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
