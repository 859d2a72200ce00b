#!/usr/bin/env python3
"""Compare BENCH_*.json files from two runs (e.g. a committed baseline vs a
fresh CI run) and print a per-benchmark report.

Usage:
    tools/bench_compare.py <baseline_dir> <current_dir> [--threshold PCT]

For every BENCH_<name>.json present in both directories, reports the delta in
simulated wall time, disk writes, network messages, and per-op p50/p99
latency. Regressions beyond --threshold (default 10%) are flagged with '!!'.

The script is a report, not a gate: it always exits 0 so a noisy benchmark
cannot block CI. Flags are for humans reading the job log.
"""

import argparse
import json
import os
import sys


def load_benches(directory):
    benches = {}
    try:
        names = sorted(os.listdir(directory))
    except OSError as e:
        print(f"bench_compare: cannot list {directory}: {e}")
        return benches
    for fname in names:
        if not (fname.startswith("BENCH_") and fname.endswith(".json")):
            continue
        path = os.path.join(directory, fname)
        try:
            with open(path) as f:
                benches[fname] = json.load(f)
        except (OSError, ValueError) as e:
            print(f"bench_compare: skipping unreadable {path}: {e}")
    return benches


def fmt_delta(base, cur, invert=False):
    """Return (formatted string, regressed?). Lower is better unless invert."""
    if base is None or cur is None:
        return "n/a", False
    if base == 0:
        return f"{base} -> {cur}", cur > base
    pct = 100.0 * (cur - base) / base
    regressed = pct < 0 if invert else pct > 0
    return f"{base:g} -> {cur:g} ({pct:+.1f}%)", regressed


def get(d, *keys):
    for k in keys:
        if not isinstance(d, dict) or k not in d:
            return None
        d = d[k]
    return d


def compare_one(name, base, cur, threshold):
    rows = []  # (label, text, flagged)

    def row(label, bval, cval, invert=False):
        text, regressed = fmt_delta(bval, cval, invert)
        # Only flag when the delta is a number and beyond threshold.
        flagged = False
        if regressed and bval not in (None, 0) and cval is not None:
            pct = abs(100.0 * (cval - bval) / bval)
            flagged = pct > threshold
        rows.append((label, text, flagged))

    row("sim_seconds", get(base, "sim_seconds"), get(cur, "sim_seconds"))
    row("disk.writes", get(base, "disk", "writes"), get(cur, "disk", "writes"))
    row("disk.reads", get(base, "disk", "reads"), get(cur, "disk", "reads"))
    row("net.messages", get(base, "net", "messages_sent"),
        get(cur, "net", "messages_sent"))

    base_ops = get(base, "ops") or {}
    cur_ops = get(cur, "ops") or {}
    for op in sorted(set(base_ops) | set(cur_ops)):
        for pct_key in ("p50_us", "p99_us"):
            row(f"op.{op}.{pct_key}", get(base_ops, op, pct_key),
                get(cur_ops, op, pct_key))

    # Optional sections from the history/cleaner/recovery benches. Fail-soft:
    # older baselines predate these sections, in which case the rows are
    # simply omitted rather than reported as regressions.
    def points_by(section, key, d):
        pts = get(d, section, "points") or []
        return {p.get(key): p for p in pts if isinstance(p, dict)}

    if get(base, "history") or get(cur, "history"):
        bpts = points_by("history", "depth", base)
        cpts = points_by("history", "depth", cur)
        for depth in sorted(set(bpts) | set(cpts)):
            row(f"history.depth{depth}.walk_sectors",
                get(bpts.get(depth, {}), "walk_sectors_waypoints"),
                get(cpts.get(depth, {}), "walk_sectors_waypoints"))
            row(f"history.depth{depth}.ratio",
                get(bpts.get(depth, {}), "ratio"),
                get(cpts.get(depth, {}), "ratio"), invert=True)

    if get(base, "cleaner", "steady_state") or get(cur, "cleaner", "steady_state"):
        row("cleaner.steady.walk_sectors",
            get(base, "cleaner", "steady_state", "walk_sectors_incremental"),
            get(cur, "cleaner", "steady_state", "walk_sectors_incremental"))
        row("cleaner.steady.ratio",
            get(base, "cleaner", "steady_state", "ratio"),
            get(cur, "cleaner", "steady_state", "ratio"), invert=True)

    if get(base, "cleaner", "idle_slice") or get(cur, "cleaner", "idle_slice"):
        row("cleaner.idle.fg_p99_us",
            get(base, "cleaner", "idle_slice", "fg_p99_us"),
            get(cur, "cleaner", "idle_slice", "fg_p99_us"))
        row("cleaner.idle.fg_makespan_s",
            get(base, "cleaner", "idle_slice", "fg_makespan_s"),
            get(cur, "cleaner", "idle_slice", "fg_makespan_s"))

    if get(base, "audit") or get(cur, "audit"):
        row("audit.postmark_chained_s", get(base, "audit", "postmark_chained_s"),
            get(cur, "audit", "postmark_chained_s"))
        row("audit.chain_overhead_pct", get(base, "audit", "chain_overhead_pct"),
            get(cur, "audit", "chain_overhead_pct"))
        row("audit.blocks_written", get(base, "audit", "blocks_written"),
            get(cur, "audit", "blocks_written"))

    if get(base, "cluster") or get(cur, "cluster"):
        def scaling_by_n(d):
            pts = get(d, "cluster", "scaling") or []
            return {p.get("n"): p for p in pts if isinstance(p, dict)}

        bpts = scaling_by_n(base)
        cpts = scaling_by_n(cur)
        for n in sorted(set(bpts) | set(cpts)):
            row(f"cluster.n{n}.tx_per_s", get(bpts.get(n, {}), "tx_per_s"),
                get(cpts.get(n, {}), "tx_per_s"), invert=True)
            row(f"cluster.n{n}.elapsed_tx_per_s",
                get(bpts.get(n, {}), "elapsed_tx_per_s"),
                get(cpts.get(n, {}), "elapsed_tx_per_s"), invert=True)
        row("cluster.speedup_4x", get(base, "cluster", "speedup_4x"),
            get(cur, "cluster", "speedup_4x"), invert=True)
        row("cluster.elapsed_speedup_4x",
            get(base, "cluster", "elapsed_speedup_4x"),
            get(cur, "cluster", "elapsed_speedup_4x"), invert=True)
        row("cluster.degraded.penalty_x",
            get(base, "cluster", "degraded", "penalty_x"),
            get(cur, "cluster", "degraded", "penalty_x"))
        row("cluster.rebuild.fg_p99_us",
            get(base, "cluster", "rebuild", "foreground_p99_us"),
            get(cur, "cluster", "rebuild", "foreground_p99_us"))
        row("cluster.rebuild.ticks", get(base, "cluster", "rebuild", "ticks"),
            get(cur, "cluster", "rebuild", "ticks"))

    if get(base, "concurrency") or get(cur, "concurrency"):
        def scaling_by_workers(d):
            pts = get(d, "concurrency", "scaling") or []
            return {p.get("workers"): p for p in pts if isinstance(p, dict)}

        bpts = scaling_by_workers(base)
        cpts = scaling_by_workers(cur)
        for w in sorted(set(bpts) | set(cpts)):
            row(f"concurrency.w{w}.ops_per_s", get(bpts.get(w, {}), "ops_per_s"),
                get(cpts.get(w, {}), "ops_per_s"), invert=True)
        row("concurrency.speedup_4x", get(base, "concurrency", "speedup_4x"),
            get(cur, "concurrency", "speedup_4x"), invert=True)
        row("concurrency.read_overlap.speedup",
            get(base, "concurrency", "read_overlap", "speedup"),
            get(cur, "concurrency", "read_overlap", "speedup"), invert=True)

    if get(base, "recovery") or get(cur, "recovery"):
        bpts = points_by("recovery", "journal_mb", base)
        cpts = points_by("recovery", "journal_mb", cur)
        for mb in sorted(set(bpts) | set(cpts)):
            row(f"recovery.{mb}mb.disk_ms", get(bpts.get(mb, {}), "disk_ms"),
                get(cpts.get(mb, {}), "disk_ms"))
            row(f"recovery.{mb}mb.reads", get(bpts.get(mb, {}), "reads"),
                get(cpts.get(mb, {}), "reads"))

    if get(base, "recovery_clean") or get(cur, "recovery_clean"):
        bpts = points_by("recovery_clean", "journal_mb", base)
        cpts = points_by("recovery_clean", "journal_mb", cur)
        for mb in sorted(set(bpts) | set(cpts)):
            row(f"recovery_clean.{mb}mb.disk_ms", get(bpts.get(mb, {}), "disk_ms"),
                get(cpts.get(mb, {}), "disk_ms"))
            row(f"recovery_clean.{mb}mb.audit_ms", get(bpts.get(mb, {}), "audit_ms"),
                get(cpts.get(mb, {}), "audit_ms"))
            row(f"recovery_clean.{mb}mb.reads", get(bpts.get(mb, {}), "reads"),
                get(cpts.get(mb, {}), "reads"))

    print(f"\n== {name} ==")
    any_flag = False
    for label, text, flagged in rows:
        mark = " !!" if flagged else ""
        print(f"  {label:<24} {text}{mark}")
        any_flag = any_flag or flagged
    return any_flag


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline_dir")
    ap.add_argument("current_dir")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="flag regressions beyond this percent (default 10)")
    args = ap.parse_args()

    base = load_benches(args.baseline_dir)
    cur = load_benches(args.current_dir)
    common = sorted(set(base) & set(cur))
    only_base = sorted(set(base) - set(cur))
    only_cur = sorted(set(cur) - set(base))

    if not common:
        print("bench_compare: no benchmark files in common; nothing to compare")
        if only_base:
            print(f"  baseline only: {', '.join(only_base)}")
        if only_cur:
            print(f"  current only: {', '.join(only_cur)}")
        return 0

    flagged = [name for name in common
               if compare_one(name, base[name], cur[name], args.threshold)]

    print()
    if only_base:
        print(f"baseline only (not re-run): {', '.join(only_base)}")
    if only_cur:
        print(f"current only (no baseline): {', '.join(only_cur)}")
    if flagged:
        print(f"possible regressions (> {args.threshold:g}%) in: "
              f"{', '.join(flagged)}")
    else:
        print(f"no regressions beyond {args.threshold:g}% threshold")
    # Always succeed: this is a report for humans, not a CI gate.
    return 0


if __name__ == "__main__":
    sys.exit(main())
