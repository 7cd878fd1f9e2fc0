#!/usr/bin/env bash
# CI-style gate: sanitizer + warnings-as-errors build, full test suite,
# a thread-sanitizer pass over the parallel solve loop (when the
# toolchain supports -fsanitize=thread), and (when installed) clang-tidy
# over src/.
#
# Usage: tools/check.sh [build-dir]
#
# Exits non-zero on the first failing stage. clang-tidy and TSAN are
# optional — containers without them skip those stages with a notice
# instead of failing.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-"$repo_root/build-check"}"

echo "== configure (STCG_SANITIZE=address,undefined STCG_WERROR=ON) =="
cmake -S "$repo_root" -B "$build_dir" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSTCG_SANITIZE=address,undefined \
  -DSTCG_WERROR=ON \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
  ${STCG_CHECK_GENERATOR:+-G "$STCG_CHECK_GENERATOR"}

echo "== build =="
cmake --build "$build_dir" -j "$(nproc)"

echo "== test =="
ctest --test-dir "$build_dir" --output-on-failure

# Full tape-verifier sweep under ASan/UBSan: all eight bench models'
# sim/interval/distance tapes plus a random-model and random-DAG corpus,
# raw and pass-pipeline output both verified and differentially compared.
echo "== tape audit (full, sanitized) =="
cmake --build "$build_dir" -j "$(nproc)" --target tape_audit
"$build_dir/tools/tape_audit"

# TSAN is a separate build: it cannot share shadow memory with ASAN, and
# the races it exists to catch (the pool's batch handover, and the solve
# scan's lookups into the one-step query cache) only show in the threaded
# tests and the cache's own, so only those run here. The timeout turns a
# handover deadlock into a failed stage instead of a stalled one.
tsan_probe="$(mktemp -d)"
echo 'int main(){return 0;}' > "$tsan_probe/t.cpp"
if c++ -fsanitize=thread "$tsan_probe/t.cpp" -o "$tsan_probe/t" 2>/dev/null; then
  echo "== thread-sanitizer smoke (STCG_SANITIZE=thread) =="
  tsan_dir="${build_dir}-tsan"
  cmake -S "$repo_root" -B "$tsan_dir" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSTCG_SANITIZE=thread \
    ${STCG_CHECK_GENERATOR:+-G "$STCG_CHECK_GENERATOR"}
  cmake --build "$tsan_dir" -j "$(nproc)" --target stcg_tests
  timeout 600 "$tsan_dir/tests/stcg_tests" \
    --gtest_filter='ThreadPool.*:ParallelGen.*:OneStepCache.*'
else
  echo "== -fsanitize=thread unsupported by this toolchain; skipping TSAN =="
fi
rm -rf "$tsan_probe"

# The tape engine's perf contract is meaningless under sanitizers, so the
# bench smoke gates get their own small Release build: --quick fails
# (exit 1) if the tape engine is ever slower than the tree walk it
# replaced, or if the B=8 batched lanes fail to beat the scalar tape.
echo "== release bench smoke (bench_eval_tape / bench_batch_eval --quick) =="
bench_dir="${build_dir}-bench"
cmake -S "$repo_root" -B "$bench_dir" -DCMAKE_BUILD_TYPE=Release \
  ${STCG_CHECK_GENERATOR:+-G "$STCG_CHECK_GENERATOR"}
cmake --build "$bench_dir" -j "$(nproc)" \
  --target bench_eval_tape --target bench_batch_eval --target tape_audit
"$bench_dir/bench/bench_eval_tape" --quick
# The batch gate runs twice: once pinned to the portable scalar kernels
# and once at the best level the CPU dispatches to, so a vectorized-path
# regression can't hide behind the scalar fallback (or vice versa). Since
# the payload-row array planes landed, --quick also asserts B=8 *replay*
# beats the scalar simulator on the two array-bound models (CPUTask,
# LANSwitch) at both levels, so the array fast paths can't silently rot.
echo "== bench_batch_eval --quick (STCG_SIMD=scalar) =="
STCG_SIMD=scalar "$bench_dir/bench/bench_batch_eval" --quick
echo "== bench_batch_eval --quick (detected SIMD level) =="
"$bench_dir/bench/bench_batch_eval" --quick
# The box solver certifies candidates as batch-executor lanes, so its
# differential tests against the tree-walking certifier, the proven-UNSAT
# memo tests and the campaign trajectory pins run at both levels as well,
# together with the one-step query's bookkeeping: the lazy MT engine
# against std::mt19937_64, dense-slot HC4 and the node-index substitute
# against their pointer-map oracles, and HC4's forward pass against the
# interval evaluator, the tape executor and concrete points
# (Hc4TransferAgreement, Hc4StoreClamp), all optimized. Local search
# scores every candidate through the batched distance tape on the same
# lane kernels, so its tests run at both levels too: the solver against
# the sequential reference climber (LocalSearchReference), the batched
# scorer against the one-lane DistanceTape (BatchDistance), the
# early-exit masks and the portfolio dispatcher.
cmake --build "$bench_dir" -j "$(nproc)" --target stcg_tests
solver_filter='Solver*:*Certify*:*Memo*:*TrajectoryPin*:*LazyMt*:*Hc4*:*Subst*:OneStepCache.*'
solver_filter+=':LocalSearch*:LocalSearchReference.*:BatchDistance.*:EarlyExitMask.*:Portfolio.*'
echo "== solver/memo/local-search tests (STCG_SIMD=scalar) =="
STCG_SIMD=scalar "$bench_dir/tests/stcg_tests" --gtest_filter="$solver_filter"
echo "== solver/memo/local-search tests (detected SIMD level) =="
"$bench_dir/tests/stcg_tests" --gtest_filter="$solver_filter"
# Quick tape-audit smoke in Release too: the producers' own debug-build
# verification is compiled out here, so the explicit sweep is the gate.
"$bench_dir/tools/tape_audit" --quick

# Kill-and-resume fuzz against the Release CLI: SIGKILL a checkpointed
# campaign at random points, resume until it completes, and require the
# exported suite to be byte-identical to an uninterrupted run; then a
# sweep of corrupt/truncated checkpoints that must all be rejected with
# a typed error (never a crash, never silent acceptance).
echo "== checkpoint kill/resume fuzz (tools/resume_fuzz.sh) =="
cmake --build "$bench_dir" -j "$(nproc)" --target stcg_cli
"$repo_root/tools/resume_fuzz.sh" "$bench_dir/tools/stcg_cli"

# JIT differential sweep in Release: the emitted C is compiled at -O2 and
# must stay bit-identical to the interpreter even when the host build is
# optimized. Containers without a C compiler skip (the library degrades
# to the interpreted tape there, which the main test stage already
# covers via the fallback tests).
if command -v "${STCG_JIT_CC:-cc}" >/dev/null 2>&1; then
  echo "== release JIT differential sweep (stcg_tests --gtest_filter='*Jit*') =="
  cmake --build "$bench_dir" -j "$(nproc)" --target stcg_tests
  "$bench_dir/tests/stcg_tests" --gtest_filter='*Jit*'
else
  echo "== no C compiler (\${STCG_JIT_CC:-cc}); skipping JIT sweep =="
fi

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy (src/) =="
  find "$repo_root/src" -name '*.cpp' -print0 |
    xargs -0 -P "$(nproc)" -n 1 \
      clang-tidy -p "$build_dir" --quiet
else
  echo "== clang-tidy not installed; skipping static-analysis stage =="
fi

echo "== all checks passed =="
