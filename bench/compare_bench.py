#!/usr/bin/env python3
"""Diff two google-benchmark JSON files and print per-benchmark speedups.

Usage: compare_bench.py BEFORE.json AFTER.json [--threshold PCT]
       compare_bench.py --amortization RUN.json
       compare_bench.py --contention RUN.json

Benchmarks are matched by name; the table reports before/after wall
time as mean ± CV (coefficient of variation over the repetitions,
from the _mean/_cv aggregates of --benchmark_repetitions runs) and
the after-vs-before speedup (>1 = AFTER is faster). A change whose
relative size is inside the combined spread (the two CVs added in
quadrature) is labelled "noise" and never flagged; rows without
repetitions carry no spread and no label. Benchmarks present in only
one file are listed separately. Exit code is always 0 unless an
input is unreadable — this is a reporting tool, not a gate (use
--threshold to flag regressions louder than PCT percent).

Context sanity: if either run was recorded from a debug build of the
photofourier library (the "photofourier_build_type" custom context
stamped by bench/micro_kernels.cc), the comparison is headed with a
warning — debug timings are not meaningful perf evidence. If the two
runs disagree on machine or build provenance — core count, build
type, or SIMD dispatch level (the photofourier_* custom contexts, or
num_cpus/build_type/simd_level in a serve_loadgen record) — the
comparison is refused with a nonzero exit: a different machine,
build, or instruction set is a different experiment, not a
regression. Pass --allow-cross-machine to compare anyway. Differing
git shas are reported but allowed — diffing two commits is the whole
point of the tool.
"""

import argparse
import json
import math
import statistics
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        sys.exit(f"error: cannot read benchmark JSON {path!r}: {err}")


def benchmarks(doc):
    """name -> (mean real_time in ns, CV or None). With
    --benchmark_repetitions, the per-repetition rows share one name:
    their mean and coefficient of variation (stddev over mean) are
    computed, and the "_mean" and "_cv" aggregate rows (keyed back to
    their run_name) override them, so the table always reports a mean,
    never whichever repetition happened to parse last. A single
    repetition has no spread (CV None)."""
    samples, means, cvs = {}, {}, {}
    for row in doc.get("benchmarks", []):
        name = row.get("name")
        if name is None or "real_time" not in row:
            continue
        if row.get("run_type") == "aggregate":
            kind = row.get("aggregate_name")
            if kind not in ("mean", "cv"):
                continue
            base = row.get("run_name")
            if base is None and name.endswith("_" + kind):
                base = name[: -len(kind) - 1]
            if kind == "cv":
                # A ratio, whatever time_unit the row carries.
                cvs[base or name] = row["real_time"]
                continue
        unit = row.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit)
        if scale is None:
            continue
        ns = row["real_time"] * scale
        if row.get("run_type") == "aggregate":
            means[base or name] = ns
        else:
            samples.setdefault(name, []).append(ns)
    out = {}
    for name, values in samples.items():
        mean = statistics.fmean(values)
        cv = (statistics.stdev(values) / mean
              if len(values) > 1 and mean > 0 else None)
        out[name] = (mean, cv)
    for name, mean in means.items():
        out[name] = (mean, out.get(name, (None, None))[1])
    for name, cv in cvs.items():
        if name in out:
            out[name] = (out[name][0], cv)
    return out


def combined_spread(cv_before, cv_after):
    """Relative spread of the after/before ratio (the two CVs added in
    quadrature), or None when either side has no spread."""
    if cv_before is None or cv_after is None:
        return None
    return math.hypot(cv_before, cv_after)


def fmt_mean_cv(mean, cv):
    text = fmt_ns(mean)
    return text + (f" ± {100.0 * cv:.1f}%" if cv is not None else "")


def provenance(doc):
    """{"build_type", "num_cpus", "git_sha", "simd_level"} from
    either record flavor: google-benchmark custom context
    (micro_kernels) or top-level keys (serve_loadgen). Missing facts
    map to None — records predating the provenance stamp stay
    comparable."""
    ctx = doc.get("context", {})
    out = {
        "build_type": ctx.get("photofourier_build_type",
                              doc.get("build_type")),
        "num_cpus": ctx.get("photofourier_num_cpus",
                            doc.get("num_cpus")),
        "git_sha": ctx.get("photofourier_git_sha", doc.get("git_sha")),
        "simd_level": ctx.get("photofourier_simd_level",
                              doc.get("simd_level")),
    }
    return {k: (str(v) if v is not None else None)
            for k, v in out.items()}


def check_provenance(before_doc, after_doc, allow_cross_machine):
    before, after = provenance(before_doc), provenance(after_doc)
    mismatched = []
    for key in ("build_type", "num_cpus", "simd_level"):
        b, a = before[key], after[key]
        if b is not None and a is not None and b != a:
            mismatched.append(f"{key}: BEFORE={b} AFTER={a}")
        elif b is None or a is None:
            print(f"WARNING: {key} missing from "
                  f"{'BEFORE' if b is None else 'AFTER'} record — "
                  f"cannot verify same-machine comparison")
    if before["git_sha"] and after["git_sha"] \
            and before["git_sha"] != after["git_sha"]:
        print(f"comparing {before['git_sha']} -> {after['git_sha']}")
    if not mismatched:
        return
    for line in mismatched:
        print(f"PROVENANCE MISMATCH: {line}")
    if allow_cross_machine:
        print("continuing anyway (--allow-cross-machine)")
        return
    sys.exit("error: refusing to compare runs from different "
             "machines/builds — a different experiment is not a "
             "regression (--allow-cross-machine to override)")


def fmt_ns(ns):
    for unit, div in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= div:
            return f"{ns / div:.3g} {unit}"
    return f"{ns:.3g} ns"


# The batched serving-path benchmark families whose Arg is the number
# of requests in one convolveBatch call, not a problem size. For
# these, per-request amortization vs their own /1 row is the number
# that matters — see --amortization.
AMORTIZED_FAMILIES = (
    "BM_ConvEngineBatch",
    "BM_ConvEngineBatchPhotoFourier",
    "BM_ConvEngineBatchPhotoFourierOptical",
)


def report_amortization(path):
    """Per-item speedup of each batched family's /k rows vs its /1
    row, from one benchmark JSON: speedup = (t_1 * k) / t_k, >1 means
    fusing k items into one pass beats k solo passes."""
    doc = load(path)
    build = provenance(doc)["build_type"]
    if build and build != "release":
        print(f"WARNING: '{build}' build — timings are not "
              f"meaningful perf evidence")
    bench = {name: mean for name, (mean, _) in benchmarks(doc).items()}
    any_family = False
    for family in AMORTIZED_FAMILIES:
        rows = {}
        for name, ns in bench.items():
            base, _, arg = name.partition("/")
            if base == family and arg.isdigit():
                rows[int(arg)] = ns
        if 1 not in rows or len(rows) < 2:
            continue
        if not any_family:
            print(f"{'benchmark':<32}  {'per-item':>10}  "
                  f"{'vs /1':>8}")
            any_family = True
        for k in sorted(rows):
            per_item = rows[k] / k
            ratio = rows[1] / per_item
            print(f"{family + '/' + str(k):<32}  "
                  f"{fmt_ns(per_item):>10}  {ratio:>7.2f}x")
    if not any_family:
        print("no batched benchmark families found "
              f"in {path!r}")


# A repetition whose wall time exceeds its CPU time by more than this
# factor waited on something other than its own work: a contended host
# (steal, other tenants) rather than the code under test.
CONTENTION_FACTOR = 1.5


def report_contention(path):
    """Every repetition row of one benchmark JSON whose real_time
    exceeds CONTENTION_FACTOR x its cpu_time. Such a sitting is not
    perf evidence for those rows: re-record them."""
    rows = [row for row in load(path).get("benchmarks", [])
            if row.get("run_type") != "aggregate"
            and row.get("cpu_time", 0) > 0
            and row.get("real_time", 0) >
            CONTENTION_FACTOR * row["cpu_time"]]
    if not rows:
        print(f"no row's real_time exceeds {CONTENTION_FACTOR:g}x "
              f"its cpu_time")
        return
    print(f"{len(rows)} row(s) with real_time > "
          f"{CONTENTION_FACTOR:g}x cpu_time (contended sitting?):")
    width = max(len(row["name"]) for row in rows)
    for row in rows:
        unit = row.get("time_unit", "ns")
        print(f"  {row['name']:<{width}}  "
              f"rep {row.get('repetition_index', 0)}  "
              f"real {row['real_time']:.4g} {unit}  "
              f"cpu {row['cpu_time']:.4g} {unit}  "
              f"{row['real_time'] / row['cpu_time']:.1f}x")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("before")
    parser.add_argument("after", nargs="?")
    parser.add_argument("--threshold", type=float, default=5.0,
                        help="flag changes larger than this percent "
                             "(default 5)")
    parser.add_argument("--allow-cross-machine", action="store_true",
                        help="compare despite mismatched machine/"
                             "build provenance")
    parser.add_argument("--amortization", action="store_true",
                        help="report per-item amortization of the "
                             "batched families in ONE file instead "
                             "of diffing two")
    parser.add_argument("--contention", action="store_true",
                        help="list the rows of ONE file whose real "
                             f"time exceeds {CONTENTION_FACTOR:g}x "
                             "their CPU time")
    args = parser.parse_args()

    if args.contention:
        if args.after is not None:
            sys.exit("error: --contention takes one file")
        report_contention(args.before)
        return
    if args.amortization:
        if args.after is not None:
            sys.exit("error: --amortization takes one file")
        report_amortization(args.before)
        return
    if args.after is None:
        sys.exit("error: AFTER.json required (or --amortization)")

    before_doc = load(args.before)
    after_doc = load(args.after)
    check_provenance(before_doc, after_doc, args.allow_cross_machine)
    for label, doc in (("BEFORE", before_doc), ("AFTER", after_doc)):
        build = doc.get("context", {}).get("photofourier_build_type")
        if build and build != "release":
            print(f"WARNING: {label} run was recorded from a "
                  f"'{build}' build of photofourier — timings are not "
                  f"meaningful perf evidence")

    before = benchmarks(before_doc)
    after = benchmarks(after_doc)
    common = [n for n in before if n in after]
    if not common:
        print("no common benchmarks between the two files")
        return

    width = max(len(n) for n in common)
    print(f"{'benchmark':<{width}}  {'before (mean ± CV)':>20}  "
          f"{'after (mean ± CV)':>20}  {'speedup':>8}")
    flagged = []
    for name in common:
        (b_mean, b_cv), (a_mean, a_cv) = before[name], after[name]
        ratio = b_mean / a_mean if a_mean > 0 else 0.0
        spread = combined_spread(b_cv, a_cv)
        mark = ""
        if spread is not None and abs(a_mean / b_mean - 1.0) <= spread:
            mark = "  noise"
        elif ratio >= 1.0 + args.threshold / 100.0:
            mark = "  +"
        elif ratio <= 1.0 - args.threshold / 100.0:
            mark = "  -"
            flagged.append((name, ratio))
        print(f"{name:<{width}}  {fmt_mean_cv(b_mean, b_cv):>20}  "
              f"{fmt_mean_cv(a_mean, a_cv):>20}  {ratio:>7.2f}x{mark}")

    only_before = sorted(set(before) - set(after))
    only_after = sorted(set(after) - set(before))
    if only_before:
        print(f"\nonly in BEFORE ({len(only_before)}): "
              + ", ".join(only_before[:8])
              + (" ..." if len(only_before) > 8 else ""))
    if only_after:
        print(f"\nonly in AFTER ({len(only_after)}): "
              + ", ".join(only_after[:8])
              + (" ..." if len(only_after) > 8 else ""))
    if flagged:
        print(f"\n{len(flagged)} benchmark(s) regressed more than "
              f"{args.threshold:g}%:")
        for name, ratio in flagged:
            print(f"  {name}: {ratio:.2f}x")


if __name__ == "__main__":
    main()
