#!/usr/bin/env bash
# The one command of the end-to-end benchmark (see benchmark/README.md).
#
#   bash benchmark/run.sh                      # all workloads, end to end
#   bash benchmark/run.sh --trace 1            # all workloads, per layer
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds pf_bench in Release into .bench_build/ (any other build type is
# refused), runs pf_bench --selftest against BENCHMARK.json, then runs
# each workload in its own process with the pinned environment for
# BENCHMARK.json's run_seconds (--seconds may only repeat that value).
# Every workload prints "workload metric value unit" lines and, last,
# one JSON result line; a results file per run lands in
# .bench_build/results/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build=".bench_build"
spec="BENCHMARK.json"

workload=""
seed=1
seconds=""
trace=0
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

mkdir -p "$build/results"
log="$build/build.log"
# Configure once; later builds re-run CMake themselves when needed.
# benchmark/CMakeLists.txt refuses any build type but Release.
if ! { { [ -f "$build/Makefile" ] ||
         cmake -S benchmark -B "$build" -G "Unix Makefiles" \
             -DCMAKE_BUILD_TYPE=Release; } &&
       cmake --build "$build" -j 4 --target pf_bench; } > "$log" 2>&1; then
    tail -n 30 "$log" >&2
    echo "run.sh: build failed (full log: $log)" >&2
    exit 1
fi

# Pinned environment: one FFT/tiling pool thread, so the serving
# workers never contend on the pool's dispatch mutex.
export PHOTOFOURIER_THREADS=1

# "name:unit" lists from BENCHMARK.json for the selftest.
read_spec() {
    python3 - "$spec" "$1" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
key = sys.argv[2]
if key == "run_seconds":
    print(doc[key])
elif key == "workloads":
    print(",".join(w["name"] for w in doc[key]))
else:
    print(",".join(m["name"] + ":" + m["unit"] for m in doc[key]))
EOF
}

"$build/pf_bench" --selftest \
    --expect-workloads "$(read_spec workloads)" \
    --expect-e2e "$(read_spec end_to_end)" \
    --expect-layer "$(read_spec per_layer)" >&2

run_seconds="$(read_spec run_seconds)"
if [ -n "$seconds" ] && [ "$seconds" != "$run_seconds" ]; then
    echo "run.sh: --seconds $seconds differs from BENCHMARK.json's" \
         "run_seconds $run_seconds; both sides of a comparison must run" \
         "the same length" >&2
    exit 2
fi
if [ -n "$workload" ]; then
    names="$workload"
else
    names="$(read_spec workloads | tr ',' ' ')"
fi
for name in $names; do
    "$build/pf_bench" --workload "$name" --seed "$seed" \
        --seconds "$run_seconds" --trace "$trace" \
        --out "$build/results/$name-seed$seed-trace$trace.json"
done
