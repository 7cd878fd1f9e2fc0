// Static verification of compiled tapes.
//
// Every engine — TapeExecutor, IntervalTapeExecutor, DistanceTape,
// BatchTapeExecutor — trusts structural invariants of the tape it runs:
// operand slots are in bounds and defined before use, constant and
// variable slots are never clobbered, each instruction's result type
// obeys the applyUnary/applyBinary contract the batch executor's typed
// lane kernels assume, every root names a defined slot, and no array slot
// is written twice (executors alias array operands in place). Scalar slot
// sharing (introduced by the optimizer's linear-scan reallocation) is
// legal whenever the writers agree on the static lane type; whether the
// live ranges were computed right is checked dynamically, by the
// optimized-vs-raw differential fuzz. verifyTape() proves the static
// invariants, with one typed finding per violation, so a corrupted or
// mis-optimized tape is rejected before an executor ever runs it, and
// the JIT has a checked IR to emit from.
//
// Findings carry stable kebab-case ids (tapeIssueCheckId) surfaced
// through `stcg_cli lint --tape`. requireVerifiedTape() throws EvalError
// on the first error-severity finding; producers call
// maybeRequireVerifiedTape(), which is a no-op unless assertions are on
// (!NDEBUG) or STCG_TAPE_VERIFY=1 is set in the environment.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "expr/tape.h"

namespace stcg::expr {

enum class TapeIssueKind {
  kSlotBounds,      // operand/dst slot outside its space, or bad shape
  kUseBeforeDef,    // operand slot read before any write reaches it
  kConstClobbered,  // instruction writes a constant or variable slot
  kTypeMismatch,    // result type breaks the typed-lane contract
  kRootUndefined,   // root slot invalid or never defined
  kUnsafeSharing,   // array slot written by more than one instruction
  kCseDuplicate,    // two live pure instructions with identical operands
};

/// Stable kebab-case check id for lint / JSON output ("tape-slot-bounds").
[[nodiscard]] const char* tapeIssueCheckId(TapeIssueKind k);

/// True for kinds that make execution unsound; kCseDuplicate is a missed
/// optimization, not a soundness hole.
[[nodiscard]] bool tapeIssueIsError(TapeIssueKind k);

struct TapeIssue {
  TapeIssueKind kind = TapeIssueKind::kSlotBounds;
  std::int32_t instr = -1;  // offending instruction index, -1 = tape-level
  std::string message;
};

struct TapeVerifyResult {
  std::vector<TapeIssue> issues;

  [[nodiscard]] bool ok() const { return issues.empty(); }
  [[nodiscard]] bool hasErrors() const;
  /// One "id [#instr]: message" line per issue.
  [[nodiscard]] std::string render() const;
};

/// The static type model of BatchTapeExecutor's lane layout: per scalar
/// slot its compile-time payload type (or "dynamic" for kSelect results
/// over arrays without a statically uniform element type), per array slot
/// whether its element type is statically uniform. The verifier checks
/// tapes against this model; the slot allocator keys its free lists by
/// it, so a shared slot keeps one lane type. Multi-writer slots are
/// well-defined only on tapes where all writers agree (which the verifier
/// checks).
struct TapeStaticTypes {
  std::vector<Type> scalarType;
  std::vector<std::uint8_t> scalarDynamic;  // 1 = per-lane type may vary
  std::vector<std::uint8_t> arrayUniform;   // 1 = element type is static
  std::vector<Type> arrayElemType;          // valid where arrayUniform
};

[[nodiscard]] TapeStaticTypes analyzeTapeStaticTypes(const Tape& t);

/// Run every static check against `t`. Never throws.
[[nodiscard]] TapeVerifyResult verifyTape(const Tape& t);

/// Throws EvalError("<what>: <first error finding>") when verifyTape
/// reports an error-severity issue.
void requireVerifiedTape(const Tape& t, const char* what);

/// True in !NDEBUG builds, or when STCG_TAPE_VERIFY is set to anything
/// but "0" (checked once per process).
[[nodiscard]] bool tapeVerifyEnabled();

/// requireVerifiedTape gated on tapeVerifyEnabled() — what every tape
/// producer calls on each tape it builds or optimizes.
void maybeRequireVerifiedTape(const Tape& t, const char* what);

}  // namespace stcg::expr
