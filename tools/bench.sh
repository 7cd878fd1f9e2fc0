#!/usr/bin/env bash
# Release-mode evaluation-engine benchmarks: builds bench_eval_tape and
# bench_batch_eval with full optimization and writes the measured tables
# to BENCH_eval.json / BENCH_batch.json at the repo root (the numbers
# quoted in EXPERIMENTS.md).
#
# Usage: tools/bench.sh [build-dir] [--repeat N] [-- extra bench args]
#   --repeat N  measure every cell N times and report the median per row
#               (default 3; forwarded to both binaries). One 0.25 s window
#               per cell is not enough on a shared host: a single window
#               once read TWC's masked B=8 scoring at 4.98 M/s against
#               8.01-8.37 M/s in the surrounding runs.
#
# Both JSON files are stamped with `git describe --always --dirty`, so a
# table measured on a modified tree says so.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="$repo_root/build-release"
repeat_args=(--repeat 3)
if [ $# -gt 0 ] && [ "$1" != "--" ] && [ "$1" != "--repeat" ]; then
  build_dir="$1"
  shift
fi
if [ "${1:-}" = "--repeat" ]; then
  if [ $# -lt 2 ]; then
    echo "error: --repeat requires a value" >&2
    exit 2
  fi
  repeat_args=(--repeat "$2")
  shift 2
fi
[ "${1:-}" = "--" ] && shift

echo "== configure (Release) =="
cmake -S "$repo_root" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release \
  ${STCG_CHECK_GENERATOR:+-G "$STCG_CHECK_GENERATOR"}

echo "== build bench_eval_tape bench_batch_eval =="
cmake --build "$build_dir" -j "$(nproc)" \
  --target bench_eval_tape --target bench_batch_eval

# Run metadata pinned into both JSON files (CPU model and SIMD level are
# detected by the binaries themselves).
git_sha="$(git -C "$repo_root" describe --always --dirty 2>/dev/null ||
  echo unknown)"
stamp="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

echo "== run bench_eval_tape =="
"$build_dir/bench/bench_eval_tape" --json "$repo_root/BENCH_eval.json" \
  --git "$git_sha" --timestamp "$stamp" ${repeat_args[@]+"${repeat_args[@]}"} "$@"

echo "== run bench_batch_eval =="
"$build_dir/bench/bench_batch_eval" --json "$repo_root/BENCH_batch.json" \
  --git "$git_sha" --timestamp "$stamp" ${repeat_args[@]+"${repeat_args[@]}"} "$@"
