#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload on the tiny deployment, untraced and traced, and
checks that each run passes its output checks and emits every metric
BENCHMARK.json names, with its unit. Then runs once with corrupted
reference lists and checks that the output check fails the run. Exit
status 0 when everything holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 5


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace), "--tiny", *extra]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if done.returncode != 0 and "--corrupt-reference" not in extra:
        sys.stderr.write(done.stderr)
    return done.returncode, result


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(workload, trace)
            where = f"{workload} trace={trace}"
            if code != 0 or result is None or not result["correct"]:
                failures.append(f"{where}: exit {code}, result {result}")
                continue
            if result["attempted"] < 1 or result["failed"] != 0:
                failures.append(f"{where}: attempted {result['attempted']}, "
                                f"failed {result['failed']}")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                failures.append(f"{where}: metrics differ from BENCHMARK.json:"
                                f" missing {sorted(set(expected) - set(got))},"
                                f" extra {sorted(set(got) - set(expected))},"
                                f" unit mismatches {sorted(n for n in got if n in expected and got[n] != expected[n])}")
            print(f"ok   {where}: {len(got)} metrics")
    code, result = run("explore", 0, "--corrupt-reference")
    if code == 0 or result is None or result["correct"]:
        failures.append(f"corrupted reference not detected: exit {code}")
    else:
        print("ok   corrupted reference lists fail the output check")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
