#!/usr/bin/env python3
"""Compare two sets of pf_bench result files.

Usage:
  compare.py --before A1.json A2.json ... --after B1.json B2.json ...
             [--spec BENCHMARK.json]

The result files are the ones benchmark/run.sh writes to
.bench_build/results/. For every (workload, metric) the table gives
each side's median and quartiles and the share of seed-matched pairs
the AFTER side wins (ties count for neither). End-to-end metrics get a
verdict against their BENCHMARK.json bound:

  unresolved  the run-to-run spread (quartile distance over median) of
              either side is wider than the bound, and not every AFTER
              run beats every BEFORE run
  REGRESSION  the AFTER median is worse than the BEFORE median by more
              than the bound
  gain        AFTER wins at least nine tenths of the pairs and the
              medians differ by more than BEFORE's quartile distance
  within      none of the above

error_rate, failed plus rejected requests over attempted ones summed
over a side's files, is a REGRESSION whenever AFTER's exceeds
BEFORE's.

Per-layer metrics (from --trace 1 files) print medians only, except
the ones that must repeat exactly (arch.* and *_lookups_per_req),
which print "identical" or "DIFFERS".

Every file on both sides must share build_type, num_cpus and
simd_level (read with provenance() from bench/compare_bench.py);
otherwise the comparison is refused. Exit code: 0, or 1 when any
metric regressed or an exact metric differs, or 2 when refused.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # leave no __pycache__ in bench/
sys.path.insert(0, os.path.join(ROOT, "bench"))
from compare_bench import provenance  # noqa: E402


def is_exact(name):
    return name.startswith("arch.") or name.endswith("_lookups_per_req")


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        sys.exit(f"error: cannot read result file {path!r}: {err}")


def check_provenance(docs):
    stamps = [(path, provenance(doc)) for path, doc in docs]
    refused = False
    for key in ("build_type", "num_cpus", "simd_level"):
        seen = {s[key] for _, s in stamps if s[key] is not None}
        if len(seen) > 1:
            print(f"PROVENANCE MISMATCH: {key} takes values "
                  f"{sorted(seen)}")
            refused = True
    if refused:
        print("error: refusing to compare runs from different machines or "
              "builds: a different experiment is not a regression")
        sys.exit(2)
    for path, s in stamps:
        if s["build_type"] not in (None, "release"):
            print(f"WARNING: {path} comes from a {s['build_type']!r} build")


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def collect(docs):
    """{(workload, metric): {seed: value}}."""
    table = {}
    for _, doc in docs:
        for name, m in doc["metrics"].items():
            table.setdefault((doc["workload"], name), {})[doc["seed"]] = \
                m["value"]
    return table


def error_rates(docs):
    """{workload: (failed + rejected) / attempted over all its files}."""
    totals = {}
    for _, doc in docs:
        failed, attempted = totals.get(doc["workload"], (0, 0))
        totals[doc["workload"]] = (failed + doc["failed"],
                                   attempted + doc["attempted"])
    return {w: f / a if a else 0.0 for w, (f, a) in totals.items()}


def cell(q):
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def better(after, before, higher):
    return after > before if higher else after < before


def verdict(before, after, bound, higher):
    b_q1, b_med, b_q3 = quartiles(list(before.values()))
    a_q1, a_med, a_q3 = quartiles(list(after.values()))
    spread = max((b_q3 - b_q1) / abs(b_med) if b_med else 0.0,
                 (a_q3 - a_q1) / abs(a_med) if a_med else 0.0)
    all_better = all(better(a, b, higher)
                     for a in after.values() for b in before.values())
    if spread > bound and not all_better:
        return "unresolved"
    worse = (b_med - a_med) if higher else (a_med - b_med)
    if b_med and worse / abs(b_med) > bound:
        return "REGRESSION"
    seeds = sorted(set(before) & set(after))
    wins = sum(better(after[s], before[s], higher) for s in seeds)
    if seeds and wins >= 0.9 * len(seeds) and \
            abs(a_med - b_med) > (b_q3 - b_q1):
        return "gain"
    return "within"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--before", nargs="+", required=True)
    parser.add_argument("--after", nargs="+", required=True)
    parser.add_argument("--spec", default=os.path.join(ROOT,
                                                       "BENCHMARK.json"))
    args = parser.parse_args()

    spec = load(args.spec)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    directions = {m["name"]: m["better"] == "higher"
                  for m in spec["end_to_end"] + spec["per_layer"]}
    before_docs = [(p, load(p)) for p in args.before]
    after_docs = [(p, load(p)) for p in args.after]
    check_provenance(before_docs + after_docs)
    before = collect(before_docs)
    after = collect(after_docs)

    failed = False
    header = (f"{'workload':<22} {'metric':<36} {'before [q1, q3]':>30} "
              f"{'after [q1, q3]':>30} {'win':>5}  verdict")
    print(header)
    for key in sorted(set(before) & set(after)):
        workload, name = key
        b, a = before[key], after[key]
        bq, aq = quartiles(list(b.values())), quartiles(list(a.values()))
        higher = directions.get(name, False)
        seeds = sorted(set(b) & set(a))
        wins = sum(better(a[s], b[s], higher) for s in seeds)
        win = f"{wins}/{len(seeds)}"
        if name in bounds:
            result = verdict(b, a, bounds[name]["bound"], higher)
            failed |= result == "REGRESSION"
        elif is_exact(name):
            same = len(set(b.values()) | set(a.values())) == 1
            result = "identical" if same else "DIFFERS"
            failed |= not same
        else:
            result = ""
        print(f"{workload:<22} {name:<36} {cell(bq):>30} "
              f"{cell(aq):>30} {win:>5}  {result}".rstrip())
    # Failed requests leave the latency and throughput samples, so any
    # rise in their share is a regression, however the timings moved.
    before_errors = error_rates(before_docs)
    after_errors = error_rates(after_docs)
    for workload in sorted(set(before_errors) & set(after_errors)):
        b, a = before_errors[workload], after_errors[workload]
        result = "REGRESSION" if a > b else "within"
        failed |= a > b
        print(f"{workload:<22} {'error_rate':<36} {b:>30.5g} {a:>30.5g} "
              f"{'':>5}  {result}")
    only = sorted(set(before) ^ set(after))
    if only:
        print(f"\n{len(only)} (workload, metric) pairs appear on one "
              f"side only, e.g. {only[0]}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
