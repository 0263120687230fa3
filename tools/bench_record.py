"""Assemble a committed bench record from two perfbench result directories.

Each directory is a `.perfbench_work/results/` left by untraced perfbench
runs (`--trace 0`) of one checkout: the parent commit and the change. Runs
are paired by workload and seed. For every end-to-end metric of
BENCHMARK.json the output holds both sides' per-seed values, their medians
and quartiles, and the pairs the change won; it also holds every per-seed
record as perfbench wrote it, the `src/` line count of each side and the
checkpoint payload sha256 values of each run.

    python3 tools/bench_record.py --parent PARENT/.perfbench_work/results \\
        --change .perfbench_work/results --out BENCH_7.json

Standard library only.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_records(results_dir):
    """{(workload, seed): record} of the untraced runs in results_dir."""
    records = {}
    for path in sorted(glob.glob(os.path.join(results_dir, "*-trace0.json"))):
        with open(path) as fh:
            record = json.load(fh)
        records[(record["workload"], record["seed"])] = record
    return records


def quartiles(values):
    """(lower quartile, median, upper quartile); inclusive method, so one
    or two values give a defined spread."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent, change, seeds, name, better):
    """Per-seed values, medians, quartiles and pairs won for one metric."""
    p = [parent[s]["metrics"][name]["value"] for s in seeds]
    c = [change[s]["metrics"][name]["value"] for s in seeds]
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (b - a) < 0 for a, b in zip(p, c))
    lost = sum(sign * (b - a) > 0 for a, b in zip(p, c))
    pq, cq = quartiles(p), quartiles(c)
    return {
        "unit": parent[seeds[0]]["metrics"][name]["unit"],
        "better": better,
        "parent": dict(zip(map(str, seeds), p)),
        "change": dict(zip(map(str, seeds), c)),
        "parent_median": pq[1], "parent_quartiles": [pq[0], pq[2]],
        "change_median": cq[1], "change_quartiles": [cq[0], cq[2]],
        "pairs": len(seeds), "pairs_won": won, "pairs_lost": lost,
        "median_change_pct": 100.0 * (cq[1] - pq[1]) / pq[1],
        "median_gap_exceeds_parent_iqr": abs(cq[1] - pq[1]) > pq[2] - pq[0],
    }


def build(parent_dir, change_dir, benchmark):
    parent, change = load_records(parent_dir), load_records(change_dir)
    out = {"workloads": {}}
    for side, records in (("parent", parent), ("change", change)):
        lines = {r["host"]["src_py_lines"] for r in records.values()}
        if len(lines) != 1:
            raise ValueError(f"{side}: src_py_lines differs between runs: {lines}")
        out[f"{side}_src_py_lines"] = lines.pop()
    for wl in benchmark["workloads"]:
        name = wl["name"]
        seeds = sorted(s for w, s in parent if w == name and (w, s) in change)
        if not seeds:
            continue
        p = {s: parent[(name, s)] for s in seeds}
        c = {s: change[(name, s)] for s in seeds}
        out["workloads"][name] = {
            "seeds": seeds,
            "correct": {side: all(r["failed"] == 0 for r in recs.values())
                        for side, recs in (("parent", p), ("change", c))},
            "metrics": {m["name"]: summarize(p, c, seeds, m["name"], m["better"])
                        for m in benchmark["end_to_end"]},
            "payload_sha256": {
                side: {str(s): r["fingerprints"]["info"] for s, r in recs.items()}
                for side, recs in (("parent", p), ("change", c))},
            "records": {side: [recs[s] for s in seeds]
                        for side, recs in (("parent", p), ("change", c))},
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="results directory of the parent commit's runs")
    parser.add_argument("--change", required=True,
                        help="results directory of the change's runs")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    record = build(args.parent, args.change, benchmark)
    if not record["workloads"]:
        print("no workload has runs on both sides", file=sys.stderr)
        return 1
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, wl in record["workloads"].items():
        for metric, m in wl["metrics"].items():
            print(f"{name} {metric}: parent {m['parent_median']:.4g} "
                  f"[{m['parent_quartiles'][0]:.4g}, {m['parent_quartiles'][1]:.4g}] "
                  f"change {m['change_median']:.4g} "
                  f"[{m['change_quartiles'][0]:.4g}, {m['change_quartiles'][1]:.4g}] "
                  f"{m['unit']}, won {m['pairs_won']}/{m['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
