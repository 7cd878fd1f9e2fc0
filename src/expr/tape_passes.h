// Optimizer pass pipeline over compiled tapes.
//
// optimizeTape() takes a freshly built (single-assignment) tape and
// produces a semantically identical, smaller one:
//
//   1. Constant folding / propagation — executor-exact: folds replicate
//      the applyUnary/applyBinary/castTo calls TapeExecutor makes,
//      including the guarded kDiv/kMod zero semantics (`x / 0` folds to
//      the guard's zero, never to a trap or an unfolded division) and
//      the clamped kSelect. In intervalSafe mode only folds that are
//      *point-exact in the interval domain* are applied: div/mod by a
//      constant zero and kSelect of a constant array at an integral
//      constant index are exact by construction; any other all-constant
//      fold must be approved by opts.foldGuard (the analysis layer
//      supplies a guard that replays the interval transfer on point
//      operands and compares bits).
//   2. Copy propagation — identity kCast, constant-condition kIte,
//      equal-arm kIte and a small set of concrete-only algebraic
//      identities (int x+0, x*1, bool and/or/xor units, ...) rewrite
//      readers to the source slot. Each identity is applied only when
//      the operand's static slot type equals the instruction's result
//      type, so the elided castTo was a bit-identity.
//   3. Value numbering (CSE) — re-runs the builder's global CSE over
//      the rewritten operands, merging instructions folding exposed.
//   4. Dead-instruction elimination — backward liveness from the tape's
//      roots plus `extraLive` (out-of-tape reads such as the distance
//      overlay's interior value taps). Dead constants and variable
//      bindings are dropped with their slots (setVar ignores ids a tape
//      does not mention, so callers need not change).
//   5. Linear-scan slot reallocation — scalar temporaries whose live
//      ranges do not overlap share one physical slot, which shrinks both
//      the dense frame and the batch executor's B-wide SoA footprint
//      (vals_[slot*B + lane]). Free lists are keyed by static lane type
//      (type, dynamic), keeping the batch executor's typed-lane layout
//      intact, so each key needs only as many slots as it has values live
//      at once. Arrays never share (executors alias array operands in
//      place). Roots and extraLive slots are read "at infinity" and are
//      never freed.
//
// The result carries an old->new slot remap (producers rewrite their
// saved SlotRefs through it) and before/after statistics. The caller
// keeps the original tape as the differential oracle; tape_verify.h
// checks both.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "expr/tape.h"

namespace stcg::expr {

struct TapePassOptions {
  bool foldConstants = true;
  bool propagateCopies = true;
  bool eliminateDead = true;
  bool reuseSlots = true;

  /// Restrict rewrites to those exact in the interval domain as well as
  /// the concrete one (IntervalTapeExecutor consumers set this).
  bool intervalSafe = false;

  /// intervalSafe only: approves a generic all-constant fold of `in`
  /// over constant operands (null when the instruction has fewer) to
  /// `folded`. Return true iff the abstract transfer of `in` on point
  /// operands is exactly point(folded). Unset = skip such folds.
  std::function<bool(const TapeInstr& in, const Scalar* a, const Scalar* b,
                     const Scalar* c, const Scalar& folded)>
      foldGuard;
};

struct TapePassStats {
  std::size_t instrsBefore = 0, instrsAfter = 0;
  std::size_t scalarSlotsBefore = 0, scalarSlotsAfter = 0;
  std::size_t arraySlotsBefore = 0, arraySlotsAfter = 0;
  std::size_t constantsFolded = 0;
  std::size_t copiesPropagated = 0;
  std::size_t cseMerged = 0;
  std::size_t deadRemoved = 0;
  std::size_t slotsReused = 0;

  [[nodiscard]] bool shrank() const {
    return instrsAfter < instrsBefore || scalarSlotsAfter < scalarSlotsBefore ||
           arraySlotsAfter < arraySlotsBefore;
  }
  /// "12→9 instrs, 10→7 scalar slots, ..." one-line report.
  [[nodiscard]] std::string summary() const;
};

/// Old-slot -> new-slot maps (per space); -1 marks a dead slot. Folded
/// or copy-propagated slots map to the surviving equivalent slot.
struct TapeRemap {
  std::vector<std::int32_t> scalar;
  std::vector<std::int32_t> array;

  [[nodiscard]] SlotRef operator()(SlotRef r) const {
    if (!r.valid()) return r;
    const auto& m = r.isArray ? array : scalar;
    if (static_cast<std::size_t>(r.slot) >= m.size()) return {-1, r.isArray};
    return {m[static_cast<std::size_t>(r.slot)], r.isArray};
  }
};

struct OptimizedTape {
  std::shared_ptr<const Tape> tape;
  TapeRemap remap;
  TapePassStats stats;
};

/// Run the pipeline. `tape` must be single-assignment (what TapeBuilder
/// produces); `extraLive` lists slots read outside the tape's roots.
[[nodiscard]] OptimizedTape optimizeTape(
    const std::shared_ptr<const Tape>& tape,
    const std::vector<SlotRef>& extraLive = {},
    const TapePassOptions& opts = {});

/// Mutable access to a Tape's internals for the pass pipeline and for
/// tests that corrupt tapes to exercise the verifier. Rewriting a tape
/// executors already hold is undefined; rewrite before sharing.
class TapeRewriter {
 public:
  explicit TapeRewriter(Tape& t) : t_(t) {}

  [[nodiscard]] std::vector<TapeInstr>& code() { return t_.code_; }
  [[nodiscard]] std::vector<Scalar>& scalarInit() { return t_.scalarInit_; }
  [[nodiscard]] std::vector<std::vector<Scalar>>& arrayInit() {
    return t_.arrayInit_;
  }
  [[nodiscard]] std::vector<std::int32_t>& constScalarSlots() {
    return t_.constScalarSlots_;
  }
  [[nodiscard]] std::vector<std::int32_t>& constArraySlots() {
    return t_.constArraySlots_;
  }
  [[nodiscard]] std::vector<TapeVarBinding>& varBindings() {
    return t_.varBindings_;
  }
  [[nodiscard]] std::vector<TapeArrayBinding>& arrayBindings() {
    return t_.arrayBindings_;
  }
  [[nodiscard]] std::vector<SlotRef>& rootSlots() { return t_.rootSlots_; }
  [[nodiscard]] std::vector<ExprPtr>& pinnedRoots() { return t_.pinnedRoots_; }
  [[nodiscard]] static const std::vector<ExprPtr>& pinnedRootsOf(
      const Tape& t) {
    return t.pinnedRoots_;
  }

 private:
  Tape& t_;
};

}  // namespace stcg::expr
