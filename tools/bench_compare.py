#!/usr/bin/env python3
"""Compare BENCH_*.json files from two runs (e.g. a committed baseline vs a
fresh CI run) and print a per-file report.

Usage:
    tools/bench_compare.py <baseline_dir> <current_dir> [--threshold PCT]

Every bench writes one BENCH_<bench>.json whose "metrics" map gives each
metric's value, unit and better direction ("higher" or "lower"). For every
file present in both directories, every metric present on either side is
printed as base -> current with the percent change. A change worse than
--threshold (default 10%) in the metric's better direction is flagged with
'!!', and the gates that failed in the current run are listed.

The script is a report, not a gate: it always exits 0 so a noisy benchmark
cannot block CI. Each bench enforces its own gates under --check.
"""

import argparse
import json
import os
import sys


def load_reports(directory):
    reports = {}
    try:
        names = sorted(os.listdir(directory))
    except OSError as e:
        print(f"bench_compare: cannot list {directory}: {e}")
        return reports
    for fname in names:
        if not (fname.startswith("BENCH_") and fname.endswith(".json")):
            continue
        path = os.path.join(directory, fname)
        try:
            with open(path) as f:
                reports[fname] = json.load(f)
        except (OSError, ValueError) as e:
            print(f"bench_compare: skipping unreadable {path}: {e}")
    return reports


def fmt(value):
    return "n/a" if value is None else f"{value:g}"


def compare_one(name, base, cur, threshold):
    """Prints one file's metrics; returns whether any metric was flagged."""
    base_metrics = base.get("metrics", {})
    cur_metrics = cur.get("metrics", {})
    print(f"\n== {name} ==")
    any_flag = False
    for metric in sorted(set(base_metrics) | set(cur_metrics)):
        spec = cur_metrics.get(metric) or base_metrics[metric]
        bval = base_metrics.get(metric, {}).get("value")
        cval = cur_metrics.get(metric, {}).get("value")
        text = f"{fmt(bval)} -> {fmt(cval)}"
        flagged = False
        if bval not in (None, 0) and cval is not None:
            pct = 100.0 * (cval - bval) / abs(bval)
            text += f" ({pct:+.1f}%)"
            worse = -pct if spec.get("better") == "higher" else pct
            flagged = worse > threshold
        any_flag = any_flag or flagged
        print(f"  {metric:<40} {text} {spec.get('unit', '')}{' !!' if flagged else ''}")
    return any_flag


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline_dir")
    ap.add_argument("current_dir")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="flag regressions beyond this percent (default 10)")
    args = ap.parse_args()

    base = load_reports(args.baseline_dir)
    cur = load_reports(args.current_dir)
    common = sorted(set(base) & set(cur))
    only_base = sorted(set(base) - set(cur))
    only_cur = sorted(set(cur) - set(base))

    flagged = [name for name in common
               if compare_one(name, base[name], cur[name], args.threshold)]

    print()
    if not common:
        print("bench_compare: no benchmark files in common; nothing to compare")
    if only_base:
        print(f"baseline only (not re-run): {', '.join(only_base)}")
    if only_cur:
        print(f"current only (no baseline): {', '.join(only_cur)}")
    if flagged:
        print(f"possible regressions (> {args.threshold:g}%) in: "
              f"{', '.join(flagged)}")
    elif common:
        print(f"no regressions beyond {args.threshold:g}% threshold")
    for name in sorted(cur):
        for g in cur[name].get("gates", []):
            if not g.get("pass"):
                print(f"FAILED GATE in {name}: {g.get('metric')} = {fmt(g.get('value'))}, "
                      f"needs {g.get('op')} {fmt(g.get('bound'))}")
    # Always succeed: this is a report for humans, not a CI gate.
    return 0


if __name__ == "__main__":
    sys.exit(main())
