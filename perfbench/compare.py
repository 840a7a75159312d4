#!/usr/bin/env python3
"""Compares two sets of benchmark runs: a parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--benchmark FILE]

Each directory holds one file per run: the standard output of
perfbench/run.py with --trace 0. Make the runs in pairs, one on each
commit with the same seed, alternating which side runs first.

Per workload and end-to-end metric the tool prints each side's median and
quartiles, the share of pairs the change wins, and one verdict:

  improved    the change wins at least nine pairs in ten, and the medians
              lie further apart than the parent's own interquartile range;
  no worse    the change's median is worse than the parent's by no more
              than the metric's bound in BENCHMARK.json;
  worse       it is worse by more than the bound;
  unresolved  the parent's interquartile range is wider than the bound, so
              "no worse" cannot be told from noise (unless every change run
              beats every parent run).

Pairs are matched by seed; ties count for neither side. It also prints the
operations attempted and failed on each side. Runs whose host fingerprints
differ (CPU, core count, Montgomery backends, key sizes, build type, run
length) are not compared. Exit code: 0, or 1 when any verdict is "worse",
or 2 when the runs cannot be compared.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Fingerprint fields that must match across every compared run; commit,
# source digest and seed are expected to differ.
HOST_FIELDS = ("workload", "cpu_model", "nproc", "mont_backends", "key_bits",
               "build_type", "seconds", "trace", "short")


def load_run(path):
    """Returns (fingerprint, result) parsed from one run's output."""
    fingerprint = None
    result = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("# fingerprint "):
                fingerprint = json.loads(line[len("# fingerprint "):])
            elif line.startswith("{"):
                try:
                    parsed = json.loads(line)
                except ValueError:
                    continue
                if {"correct", "attempted", "failed", "metrics"} <= set(parsed):
                    result = parsed
    if fingerprint is None or result is None:
        raise ValueError("%s: no fingerprint or result line" % path)
    return fingerprint, result


def load_side(directory):
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        fingerprint, result = load_run(path)
        runs.setdefault(fingerprint["workload"], []).append(
            (fingerprint, result))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, pairs, better, bound):
    """The verdict for one metric; `pairs` is [(parent, change)]."""
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    iqr = p_q3 - p_q1
    wins = sum(1 for p, c in pairs if better(c, p))
    share = wins / len(pairs) if pairs else 0.0
    if share >= 0.9 and better(c_med, p_med) and abs(c_med - p_med) > iqr:
        return "improved", share
    worse_by = (p_med - c_med) if better(p_med, c_med) else 0.0
    if p_med != 0 and iqr / abs(p_med) > bound:
        all_better = all(better(c, p) for c in change for p in parent)
        return ("no worse" if all_better else "unresolved"), share
    if p_med == 0 or abs(worse_by) / abs(p_med) <= bound:
        return "no worse", share
    return "worse", share


def host_mismatch(runs):
    """The first fingerprint field that differs among `runs`, or None."""
    first = runs[0][0]
    for fingerprint, _ in runs[1:]:
        for field in HOST_FIELDS:
            if fingerprint.get(field) != first.get(field):
                return field, first.get(field), fingerprint.get(field)
    return None


def pair_runs(parent, change):
    """Pairs runs with the same seed; unmatched seeds pair by position."""
    by_seed = {f["seed"]: r for f, r in change}
    if sorted(by_seed) == sorted(f["seed"] for f, _ in parent):
        return [(r, by_seed[f["seed"]]) for f, r in parent]
    return list(zip([r for _, r in parent], [r for _, r in change]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument(
        "--benchmark",
        default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    try:
        parent_runs = load_side(args.parent)
        change_runs = load_side(args.change)
    except (OSError, ValueError) as err:
        print("cannot read runs: %s" % err)
        return 2

    status = 0
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        if not parent or not change:
            print("%s: runs on one side only; not compared" % workload)
            status = max(status, 2)
            continue
        mismatch = host_mismatch(parent + change)
        if mismatch is not None:
            print("%s: fingerprints differ in %s (%r vs %r); not compared"
                  % ((workload,) + mismatch))
            status = max(status, 2)
            continue
        pairs = pair_runs(parent, change)
        print("%s: %d parent run(s), %d change run(s), %d pair(s)"
              % (workload, len(parent), len(change), len(pairs)))
        for side, runs in (("parent", parent), ("change", change)):
            attempted = sum(r["attempted"] for _, r in runs)
            failed = sum(r["failed"] for _, r in runs)
            print("  %-6s attempted %d, failed %d" % (side, attempted, failed))
        print("  %-22s %-38s %-38s %-6s %s" % (
            "metric", "parent median [q1, q3]", "change median [q1, q3]",
            "wins", "verdict"))
        for metric in metrics:
            name = metric["name"]
            lower = metric["better"] == "lower"
            better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
            p = [r["metrics"][name]["value"]
                 for _, r in parent if name in r["metrics"]]
            c = [r["metrics"][name]["value"]
                 for _, r in change if name in r["metrics"]]
            if not p or not c:
                print("  %-22s missing on one side" % name)
                continue
            paired = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                      for a, b in pairs
                      if name in a["metrics"] and name in b["metrics"]]
            result, share = verdict(p, c, paired, better, metric["bound"])
            if result == "worse":
                status = max(status, 1)
            pq, cq = quartiles(p), quartiles(c)
            print("  %-22s %-38s %-38s %-6s %s" % (
                name,
                "%.6g [%.6g, %.6g]" % (pq[1], pq[0], pq[2]),
                "%.6g [%.6g, %.6g]" % (cq[1], cq[0], cq[2]),
                "%.0f%%" % (100 * share), result))
    return status


if __name__ == "__main__":
    sys.exit(main())
