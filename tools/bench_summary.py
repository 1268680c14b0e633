"""Pair a parent's and a change's perfbench results and summarize them as JSON.

    python3 tools/bench_summary.py PARENT_OUT CHANGE_OUT > BENCH_<title>.json

PARENT_OUT and CHANGE_OUT are the `.perfbench_out` directories of two
checkouts, one at the parent commit and one with the change, after runs of
`perfbench/run.py --trace 0` on the same seeds. Results are paired by
(workload, seed); a seed run on one side only is left out. For each workload
and each end-to-end metric the summary gives both sides' median and
quartiles, the number of pairs, the seeds, the pairs the change won (by the
metric's direction in BENCHMARK.json), the relative change of the medians,
and whether the gap between the medians exceeds the parent's interquartile
range. Each workload also sums both sides' attempted and failed operations
over the paired runs, so their failure shares can be compared. The environment block of each side holds the fields its result files
agree on. Every number is read from the result files, none is typed in.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT = re.compile(r"result-(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json$")


def load_results(directory: str) -> dict:
    """{(workload, seed): result} for every trace-0 result file in directory."""
    results = {}
    for path in glob.glob(os.path.join(directory, "result-*-trace0.json")):
        match = RESULT.search(os.path.basename(path))
        if match:
            with open(path, encoding="utf-8") as fh:
                results[(match["workload"], int(match["seed"]))] = json.load(fh)
    return results


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def common_environment(results: list[dict]) -> dict:
    """The environment fields every result agrees on."""
    first = results[0]["environment"]
    return {key: value for key, value in first.items()
            if all(r["environment"].get(key) == value for r in results)}


def summarize(parent: dict, change: dict, better: dict) -> dict:
    keys = sorted(set(parent) & set(change))
    if not keys:
        raise SystemExit("bench_summary: no (workload, seed) is in both directories")
    workloads: dict = {}
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        pairs = [(parent[(workload, s)], change[(workload, s)]) for s in seeds]
        metrics = {}
        for name in sorted(better):
            before = [p["metrics"][name]["value"] for p, _ in pairs]
            after = [c["metrics"][name]["value"] for _, c in pairs]
            sign = 1.0 if better[name] == "lower" else -1.0
            p, c = quartiles(before), quartiles(after)
            metrics[name] = {
                "unit": pairs[0][0]["metrics"][name]["unit"],
                "better": better[name],
                "parent": p,
                "change": c,
                "pairs": len(pairs),
                "wins": sum(sign * (b - a) > 0 for b, a in zip(before, after)),
                "median_change": (c["median"] - p["median"]) / p["median"] if p["median"] else None,
                "gap_exceeds_parent_iqr": abs(c["median"] - p["median"]) > p["q3"] - p["q1"],
            }
        workloads[workload] = {
            "seeds": seeds,
            "attempted": {"parent": sum(p["attempted"] for p, _ in pairs),
                          "change": sum(c["attempted"] for _, c in pairs)},
            "failed": {"parent": sum(p["failed"] for p, _ in pairs),
                       "change": sum(c["failed"] for _, c in pairs)},
            "metrics": metrics,
        }
    return {
        "workloads": workloads,
        "environment": {
            "parent": common_environment([parent[k] for k in keys]),
            "change": common_environment([change[k] for k in keys]),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_out", help="the parent checkout's .perfbench_out directory")
    parser.add_argument("change_out", help="the change's .perfbench_out directory")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    summary = summarize(load_results(args.parent_out), load_results(args.change_out), better)
    sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
