#!/usr/bin/env bash
# Kill-and-resume fuzz for the checkpointable STCG campaign, driven
# through the public CLI:
#
#   1. Engine/lane identity — the reference campaign rerun under
#      --engine tree --batch 1 and under --jobs 4 must export a
#      byte-identical suite.
#   2. SIGKILL fuzz — start a fixed-seed, round-capped campaign with
#      --checkpoint --checkpoint-every 1, SIGKILL it at a random point
#      within 1.2x the time such a run takes uninterrupted, resume,
#      repeat until a run completes; the exported suite must be byte-identical to an
#      uninterrupted reference run. Kills land anywhere, including
#      mid-save: the atomic tmp+rename write means the checkpoint on
#      disk is always either the previous complete one or the new
#      complete one, never a torn file.
#   3. Corrupt-checkpoint sweep — truncations, a flipped byte, trailing
#      junk and an empty file must each be *rejected* by --resume with a
#      typed "error:" diagnostic and a nonzero exit, never a crash
#      (exit >= 128 would mean the loader died on a signal).
#
# Usage: tools/resume_fuzz.sh <stcg_cli> [--iterations N] [--model M]
#                             [--rounds N] [--seed N]
set -euo pipefail

cli="${1:?usage: resume_fuzz.sh <stcg_cli> [--iterations N] [--model M] [--rounds N] [--seed N]}"
shift
iterations=5
model=AFC
rounds=500
seed=77
while [ $# -gt 0 ]; do
  case "$1" in
    --iterations) iterations="$2"; shift 2 ;;
    --model)      model="$2";      shift 2 ;;
    --rounds)     rounds="$2";     shift 2 ;;
    --seed)       seed="$2";       shift 2 ;;
    *) echo "error: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

work="$(mktemp -d /tmp/stcg_resume_fuzz.XXXXXX)"
trap 'rm -rf "$work"' EXIT
ck="$work/campaign.ck"
ref="$work/ref.txt"
out="$work/out.txt"

# --budget is non-binding (the round cap is the stop condition), so the
# wall-clock rebasing on resume can never change the trajectory.
common=("$model" --budget 600000 --seed "$seed" --max-rounds "$rounds")

echo "-- reference run ($model, $rounds rounds, seed $seed) --"
"$cli" "${common[@]}" --export "$ref" > /dev/null

# Every fuzz attempt saves a checkpoint each round, which makes a run
# many times slower than the uninterrupted reference (each save writes
# the whole campaign state). Kill delays are therefore drawn from
# [0, 1.2 * a checkpoint-every-round run], so they land mid-campaign
# regardless of build type or host speed; the tail past 1.0x covers the
# kill-after-final-save case. That timed run must itself export the
# reference suite.
rm -f "$ck"
t0=$(date +%s%N)
"$cli" "${common[@]}" --checkpoint "$ck" --checkpoint-every 1 \
  --export "$out" > /dev/null
ck_ms=$(( ($(date +%s%N) - t0) / 1000000 ))
if ! cmp -s "$ref" "$out"; then
  echo "FAIL: suite with --checkpoint-every 1 differs from the reference" >&2
  diff "$ref" "$out" | head -20 >&2
  exit 1
fi
max_delay_ms=$(( ck_ms * 6 / 5 ))
[ "$max_delay_ms" -lt 20 ] && max_delay_ms=20
echo "   checkpointed run took ${ck_ms}ms, suite identical;" \
  "kill window [0, ${max_delay_ms}ms]"

# The reference trajectory must not depend on the engine, the replay
# lane width or the solve lane count: the tree engine with scalar replay
# runs the tree recorder and the scalar commit path, while the default
# tape engine with batched replay (the reference, and again at --jobs 4)
# runs the tape and batch-lane recorders and the lane commit path.
expect_identical() {
  local label="$1"
  shift
  rm -f "$out"
  "$cli" "${common[@]}" "$@" --export "$out" > /dev/null
  if ! cmp -s "$ref" "$out"; then
    echo "FAIL: suite under $label differs from the reference" >&2
    diff "$ref" "$out" | head -20 >&2
    exit 1
  fi
  echo "   $label: suite identical"
}
echo "-- engine / batch / jobs identity --"
expect_identical "--engine tree --batch 1" --engine tree --batch 1
expect_identical "--jobs 4" --jobs 4

echo "-- SIGKILL + resume fuzz ($iterations iterations) --"
for it in $(seq 1 "$iterations"); do
  rm -f "$ck" "$out"
  attempts=0
  while :; do
    attempts=$((attempts + 1))
    # Progress bound, not a tight budget: with --checkpoint-every 1 any
    # attempt that survives one round past the last save advances the
    # campaign, so completion is certain; Release builds routinely eat
    # 30+ kills before finishing 500 rounds.
    if [ "$attempts" -gt 150 ]; then
      echo "FAIL: iteration $it never completed after 150 resume attempts" >&2
      exit 1
    fi
    # --resume is lenient in the CLI: first attempt (no checkpoint on
    # disk yet, or killed before the first save) starts fresh. The
    # subshell keeps bash's "Killed" job notices out of the log; some
    # attempts finish before the kill lands, which is also a case worth
    # covering (kill arriving after the final save).
    status=0
    (
      "$cli" "${common[@]}" --checkpoint "$ck" --checkpoint-every 1 \
        --resume --export "$out" > /dev/null 2> "$work/err.txt" &
      pid=$!
      # Two RANDOMs: one spans only [0, 32767] ms.
      delay_ms=$(( (RANDOM * 32768 + RANDOM) % (max_delay_ms + 1) ))
      sleep "$(awk -v ms="$delay_ms" 'BEGIN { printf "%.3f", ms / 1000 }')"
      kill -9 "$pid" 2> /dev/null || true
      wait "$pid"
    ) 2> /dev/null || status=$?
    if [ "$status" -eq 0 ]; then
      break
    elif [ "$status" -ne 137 ]; then
      echo "FAIL: iteration $it attempt $attempts exited $status (not 0 or SIGKILL):" >&2
      cat "$work/err.txt" >&2
      exit 1
    fi
  done
  if ! cmp -s "$ref" "$out"; then
    echo "FAIL: iteration $it ($attempts attempts): resumed suite differs from uninterrupted reference" >&2
    diff "$ref" "$out" | head -20 >&2
    exit 1
  fi
  echo "   iteration $it: suite identical after $attempts attempt(s)"
done

echo "-- corrupt/truncated checkpoint rejection sweep --"
rm -f "$ck"
"$cli" "${common[@]}" --checkpoint "$ck" > /dev/null
size=$(wc -c < "$ck")

# Each corruption is applied to a copy; --resume on it must exit
# nonzero (rejected with a typed diagnostic), never 0 (silently
# accepted) and never >= 128 (crashed on a signal).
expect_rejected() {
  local label="$1" bad="$2"
  local status=0
  "$cli" "${common[@]}" --checkpoint "$bad" --resume \
    > /dev/null 2> "$work/err.txt" || status=$?
  if [ "$status" -eq 0 ]; then
    echo "FAIL: $label checkpoint was accepted" >&2
    exit 1
  elif [ "$status" -ge 128 ]; then
    echo "FAIL: $label checkpoint crashed the loader (exit $status)" >&2
    exit 1
  elif ! grep -q "error:" "$work/err.txt"; then
    echo "FAIL: $label checkpoint rejected without an error: diagnostic" >&2
    cat "$work/err.txt" >&2
    exit 1
  fi
  echo "   $label: rejected ($(head -1 "$work/err.txt"))"
}

for frac_label in "truncated-half:$((size / 2))" \
                  "truncated-1:$((size - 1))" \
                  "truncated-40:$((size - 40))"; do
  label="${frac_label%%:*}"
  keep="${frac_label##*:}"
  head -c "$keep" "$ck" > "$work/bad.ck"
  expect_rejected "$label" "$work/bad.ck"
done

cp "$ck" "$work/bad.ck"
off=$((size / 2))
orig="$(dd if="$work/bad.ck" bs=1 skip="$off" count=1 2> /dev/null)"
repl=X
[ "$orig" = "X" ] && repl=Y
printf '%s' "$repl" | dd of="$work/bad.ck" bs=1 seek="$off" conv=notrunc 2> /dev/null
expect_rejected "byte-flipped" "$work/bad.ck"

cp "$ck" "$work/bad.ck"
printf 'trailing garbage\n' >> "$work/bad.ck"
expect_rejected "trailing-junk" "$work/bad.ck"

: > "$work/bad.ck"
expect_rejected "empty" "$work/bad.ck"

# A checkpoint from a different seed must be refused (options signature),
# not silently replayed under the wrong trajectory.
rm -f "$work/bad.ck"
"$cli" "$model" --budget 600000 --seed $((seed + 1)) --max-rounds "$rounds" \
  --checkpoint "$work/bad.ck" > /dev/null
expect_rejected "stale-options" "$work/bad.ck"

echo "-- resume fuzz passed --"
