#!/usr/bin/env sh
# Build the Release tree, run the micro-kernel benchmarks, the serving
# smoke bench, and the 2-shard loopback cluster sweep, and record the
# results as BENCH_micro.json, BENCH_serving.json, and
# BENCH_cluster.json at the repo root. These files are the measured-
# perf trajectory: later PRs append comparable runs instead of
# re-deriving a baseline.
#
# Usage: bench/run_benches.sh [extra google-benchmark flags...]
set -eu

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir="$repo_root/build-bench"

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release \
    -DPHOTOFOURIER_BUILD_TESTS=OFF
# One compile job per core: an unbounded -j oversubscribes a shared
# host and can exhaust its memory.
jobs=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 2)
cmake --build "$build_dir" -j "$jobs" --target micro_kernels serve_loadgen \
    cluster_shard cluster_router trace_dump

# Refuse to record numbers from anything but a Release library build:
# debug timings have repeatedly snuck into BENCH_micro.json looking
# like regressions. (The benchmark library's own "library_build_type"
# context key describes the system libbenchmark, not us — the
# authoritative stamp is the photofourier_build_type custom context
# micro_kernels writes.)
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' \
    "$build_dir/CMakeCache.txt")
if [ "$build_type" != "Release" ]; then
    echo "error: bench tree '$build_dir' is built as" \
        "'${build_type:-unset}', not Release; refusing to record" \
        "benchmark numbers" >&2
    exit 1
fi

# Keep the previous numbers so the run ends with a before/after table
# from the same host.
prev_micro=""
if [ -f "$repo_root/BENCH_micro.json" ]; then
    prev_micro="$build_dir/BENCH_micro.prev.json"
    cp "$repo_root/BENCH_micro.json" "$prev_micro"
fi

# Record to a temp path first: the committed BENCH_micro.json is only
# replaced after the build-type stamp checks out, so a debug run can
# never corrupt the tracked numbers.
micro_tmp="$build_dir/BENCH_micro.new.json"
"$build_dir/micro_kernels" \
    --benchmark_repetitions=5 \
    --benchmark_out="$micro_tmp" \
    --benchmark_out_format=json \
    "$@"

if grep -q '"photofourier_build_type": "debug"' "$micro_tmp"; then
    echo "error: micro_kernels reports a debug photofourier build" \
        "(CMakeCache said Release — check CMAKE_CXX_FLAGS_RELEASE);" \
        "leaving $repo_root/BENCH_micro.json untouched" >&2
    exit 1
fi
mv "$micro_tmp" "$repo_root/BENCH_micro.json"
echo "Wrote $repo_root/BENCH_micro.json"

if [ -n "$prev_micro" ] && command -v python3 >/dev/null 2>&1; then
    echo ""
    echo "=== micro-kernel speedups vs previous BENCH_micro.json ==="
    python3 "$repo_root/bench/compare_bench.py" \
        "$prev_micro" "$repo_root/BENCH_micro.json" || true
fi

# Rows whose wall time far exceeds their CPU time were recorded on a
# contended host (other tenants, steal): they are not perf evidence.
if command -v python3 >/dev/null 2>&1; then
    echo ""
    echo "=== rows with real_time > 1.5x cpu_time ==="
    python3 "$repo_root/bench/compare_bench.py" --contention \
        "$repo_root/BENCH_micro.json" || true
fi

# Per-request amortization of the batched conv-engine rows (N requests
# in one convolveBatch call): >1 means batching beats N solo calls.
if command -v python3 >/dev/null 2>&1; then
    echo ""
    echo "=== batched conv-engine per-request amortization ==="
    python3 "$repo_root/bench/compare_bench.py" --amortization \
        "$repo_root/BENCH_micro.json" || true
fi

# Serving smoke: closed-loop throughput vs micro-batch cap on the
# digital engine (fast enough for CI); wall-clock scaling is bounded
# by the machine's core count, recorded as hardware_threads.
"$build_dir/serve_loadgen" \
    --model small-vgg --mode closed \
    --requests 96 --workers 2 --clients 4 --batch-list 1,2,4,8 \
    --out "$repo_root/BENCH_serving.json"

echo "Wrote $repo_root/BENCH_serving.json"

# Cluster smoke: 2 shards + router on loopback, bit-exactness verify
# over every zoo model, then a closed-loop mixed-model sweep.
"$repo_root/bench/cluster_smoke.sh" "$build_dir" \
    "$repo_root/BENCH_cluster.json"
