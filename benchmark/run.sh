#!/usr/bin/env bash
# The benchmark's one command: build, run, verify every result, print every
# metric as `name value unit`, write the result JSON, exit non-zero on a
# failed check.
#
#   benchmark/run.sh [--seed S] [--workload W] [--traced] [--smoke] [--seconds T] [--out FILE]
#       every workload (or W), one process each; with --traced also the
#       per-layer pass; results in benchmark/out/results.json (or FILE)
#   benchmark/run.sh --compare A.json B.json
#       per workload x end-to-end metric: both medians, delta, bound, verdict
#   benchmark/run.sh --workload W --seed N --seconds T --trace 0|1
#       the driver's form (BENCHMARK.json): one run of one workload, the
#       contract's JSON object as the last line of standard output
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# CARGO_TARGET_DIR may be relative to where the caller stands
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

build_start=$(date +%s.%N)
# build chatter goes to stderr: standard output carries results only
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" 1>&2
build_s=$(awk -v a="$build_start" -v b="$(date +%s.%N)" 'BEGIN { printf "%.3f", b - a }')
bin="$target/release/hzbench"

export HZBENCH_RUSTC="${HZBENCH_RUSTC:-$(rustc -V 2>/dev/null || echo unknown)}"
export HZBENCH_COMMIT="${HZBENCH_COMMIT:-$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)}"

mode=all
for arg in "$@"; do
    case "$arg" in
        --compare) mode=compare ;;
        --trace) mode=run ;;
    esac
done

case "$mode" in
    compare)
        shift_args=()
        for arg in "$@"; do [ "$arg" = --compare ] || shift_args+=("$arg"); done
        exec "$bin" compare "${shift_args[@]}"
        ;;
    run)
        exec "$bin" run --build-s "$build_s" --out-dir "$here/out" "$@"
        ;;
    all)
        exec "$bin" all --build-s "$build_s" --out-dir "$here/out" "$@"
        ;;
esac
