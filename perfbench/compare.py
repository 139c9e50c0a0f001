#!/usr/bin/env python3
"""Compares two sets of perfbench run outputs.

    python3 perfbench/compare.py BASE_DIR [CANDIDATE_DIR]

Each directory holds one file per run, named <workload>-<anything>, whose
last line is the JSON result run.py printed. For every workload and metric
the report gives the median, the quartiles (statistics.quantiles, n=4) and
the spread (quartile distance / median) of each set. With two sets, an
end-to-end metric agrees when the candidate median is not worse than the
base median by more than the metric's bound in BENCHMARK.json and the
candidate spread stays within that bound (set-up time is judged on its
median only). Exit status 1 when any end-to-end metric disagrees.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_set(directory):
    """{workload: {metric: [values]}} plus {metric: unit}."""
    runs, units = {}, {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path) or "-" not in name:
            continue
        with open(path) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        if not lines:
            continue
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"skipping {path}: last line is not JSON", file=sys.stderr)
            continue
        workload = name.split("-", 1)[0]
        for metric, entry in result["metrics"].items():
            runs.setdefault(workload, {}).setdefault(metric, []).append(
                entry["value"])
            units[metric] = entry["unit"]
    return runs, units


def summary(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, units = load_set(argv[1])
    cand = load_set(argv[2])[0] if len(argv) == 3 else None

    ok = True
    header = f"{'workload':8} {'metric':32} {'unit':6} {'n':>3} " \
             f"{'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}"
    for workload in sorted(base):
        print(header)
        for metric in sorted(base[workload]):
            sets = [("base", base[workload][metric])]
            if cand is not None and metric in cand.get(workload, {}):
                sets.append(("cand", cand[workload][metric]))
            stats = []
            for label, values in sets:
                median, q1, q3, spread = summary(values)
                stats.append((median, spread))
                print(f"{workload:8} {metric:32} {units[metric]:6} "
                      f"{len(values):3d} {median:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {spread:7.3f}  {label}")
            bound = bounds.get(metric)
            if bound is None:
                continue
            verdicts = []
            for label, (median, spread) in zip(("base", "cand"), stats):
                if metric != "setup_s" and spread > bound["bound"]:
                    verdicts.append(f"{label} spread {spread:.3f} > "
                                    f"{bound['bound']}")
            if len(stats) == 2:
                base_median, cand_median = stats[0][0], stats[1][0]
                change = (cand_median - base_median) / base_median
                worse = change if bound["better"] == "lower" else -change
                if worse > bound["bound"]:
                    verdicts.append(f"median {worse:+.3f} worse > "
                                    f"{bound['bound']}")
                else:
                    verdicts.append(f"agree ({change:+.3f})")
            if verdicts:
                disagree = any(not v.startswith("agree") for v in verdicts)
                ok = ok and not disagree
                print(f"{'':8} {metric:32} -> {'; '.join(verdicts)}")
        print()
    print("all end-to-end metrics agree" if ok
          else "some end-to-end metrics disagree")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
