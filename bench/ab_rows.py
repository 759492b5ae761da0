#!/usr/bin/env python3
"""A/B two micro_kernels binaries in one sitting, row by row.

Usage: ab_rows.py PARENT_BIN CHANGE_BIN [--filter RE] [--reps N]

Two sittings of the same code on a shared host can differ by far more
than either sitting's spread, so a row delta taken against a committed
BENCH_micro.json measures the host as much as the code. This script
runs the two binaries alternately, N rounds of one repetition each
(the order flips every round: parent-change, change-parent, ...), so
both sides see the same host. It prints, per row present in both:

  - the parent and change medians of real_time over the N rounds,
  - parent / change (> 1 = the change is faster),
  - the rounds where the change was faster ("wins"),
  - a verdict by benchmark/compare.py's gain rule: "faster" or
    "slower" only when one side wins at least nine tenths of the
    rounds and the medians differ by more than the parent's quartile
    distance, "within" otherwise (the same binary on both sides reads
    up to about +-15% on us-scale rows, so a ratio alone is no
    evidence). Below MIN_VERDICT_ROUNDS (10) rounds the verdict reads
    "n/a": at two rounds, 2/2 wins passes the nine-tenths rule and two
    samples give a near-zero quartile distance, so the same binary on
    both sides read "slower" on a us-scale row,
  - the repetitions compare_bench.py --contention would flag
    (real_time > 1.5x cpu_time: the run waited on something other
    than its own work), as "p" (parent) and "c" (change) round lists.

Pass the same build type of both trees (Release for perf evidence).
--filter is handed to --benchmark_filter; any environment (say
PHOTOFOURIER_THREADS=1) is inherited by both binaries. The default is
10 rounds: at 5, the ms-scale engine rows flipped between sittings on a
4-vCPU shared host. Exit code 0 unless a binary fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave no __pycache__ in benchmark/
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "benchmark"))
from compare import quartiles  # noqa: E402
from compare_bench import CONTENTION_FACTOR, fmt_ns  # noqa: E402

UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
MIN_VERDICT_ROUNDS = 10


def run_once(binary, filter_re):
    """name -> (real_ns, cpu_ns) for one repetition of every row."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "rows.json")
        cmd = [binary, f"--benchmark_filter={filter_re}",
               f"--benchmark_out={out}", "--benchmark_out_format=json"]
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.exit(f"error: {binary} exited {done.returncode}: "
                     f"{done.stderr.strip()[-400:]}")
        with open(out, "r", encoding="utf-8") as f:
            doc = json.load(f)
    rows = {}
    for row in doc.get("benchmarks", []):
        if row.get("run_type") == "aggregate" or "real_time" not in row:
            continue
        scale = UNIT_NS.get(row.get("time_unit", "ns"))
        if scale is None:
            continue
        rows[row["name"]] = (row["real_time"] * scale,
                             row["cpu_time"] * scale)
    return rows


def contended(sample):
    real, cpu = sample
    return cpu > 0 and real > CONTENTION_FACTOR * cpu


def verdict(parent, change):
    """faster / slower / within for paired real times, one per round;
    n/a below MIN_VERDICT_ROUNDS rounds."""
    if len(parent) < MIN_VERDICT_ROUNDS:
        return "n/a"
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    if abs(c_med - p_med) <= p_q3 - p_q1:
        return "within"
    n = len(parent)
    if sum(c < p for p, c in zip(parent, change)) >= 0.9 * n:
        return "faster"
    if sum(c > p for p, c in zip(parent, change)) >= 0.9 * n:
        return "slower"
    return "within"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_bin")
    parser.add_argument("change_bin")
    parser.add_argument("--filter", default=".",
                        help="--benchmark_filter regex (default: all)")
    parser.add_argument("--reps", type=int, default=10,
                        help="alternating rounds (default 10)")
    args = parser.parse_args()
    if args.reps < 1:
        sys.exit("error: --reps must be at least 1")

    rounds = []  # [(parent_rows, change_rows)]
    for r in range(args.reps):
        if r % 2 == 0:
            parent = run_once(args.parent_bin, args.filter)
            change = run_once(args.change_bin, args.filter)
        else:
            change = run_once(args.change_bin, args.filter)
            parent = run_once(args.parent_bin, args.filter)
        rounds.append((parent, change))
        print(f"round {r + 1}/{args.reps} done", file=sys.stderr)

    names = [n for n in rounds[0][0]
             if all(n in p and n in c for p, c in rounds)]
    if not names:
        print("no row ran in both binaries")
        return
    width = max(len(n) for n in names)
    print(f"{'benchmark':<{width}}  {'parent med':>10}  "
          f"{'change med':>10}  {'p/c':>6}  {'wins':>6}  {'verdict':<7}  "
          "flagged")
    for name in names:
        p = [parent[name] for parent, _ in rounds]
        c = [change[name] for _, change in rounds]
        p_real = [s[0] for s in p]
        c_real = [s[0] for s in c]
        p_med = statistics.median(p_real)
        c_med = statistics.median(c_real)
        wins = sum(1 for a, b in zip(p_real, c_real) if b < a)
        flags = [f"p{i + 1}" for i, s in enumerate(p) if contended(s)]
        flags += [f"c{i + 1}" for i, s in enumerate(c) if contended(s)]
        print(f"{name:<{width}}  {fmt_ns(p_med):>10}  {fmt_ns(c_med):>10}"
              f"  {p_med / c_med:>5.3f}x  {wins:>2}/{len(rounds):<3}  "
              f"{verdict(p_real, c_real):<7}  "
              f"{' '.join(flags) if flags else '-'}")


if __name__ == "__main__":
    main()
