// Interval-domain execution of a compiled expression tape — the abstract
// counterpart of expr::TapeExecutor, applying the per-op rules of
// interval/transfer.h (shared with IntervalEvaluator and HC4's forward
// pass) over the same flat instruction sequence.
//
// The reachability fixpoint re-evaluates the same next-state DAG dozens of
// times under changing interval environments; dead-branch / lint proofs
// evaluate every path constraint once under the invariant. Both walks pay
// the tree Evaluator's pointer-chasing and memo hashing per node per pass.
// Compiling the roots to a tape once and rebinding per pass turns each
// pass into a linear sweep over dense interval slots.
//
// Binding semantics match IntervalEvaluator: a variable absent from the
// IntervalEnv falls back to its declared [lo, hi] domain (integral-hulled
// for non-real types); an absent array variable becomes size × whole().
// Results are identical to the tree walk on every op (same transfer
// functions applied in the same dependency order).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "analysis/interval_eval.h"
#include "expr/tape.h"
#include "expr/tape_passes.h"
#include "interval/interval.h"

namespace stcg::analysis {

/// Build one CSE-shared tape over `roots` and allocate its slots (the
/// allocator leaves every instruction as built, so it is exact in the
/// interval domain too). `roots[i]`'s slot is `rootSlots[i]` on `tape`;
/// `rawTape` keeps the unallocated build as the differential oracle.
struct IntervalTapeBuild {
  std::shared_ptr<const expr::Tape> tape;
  std::shared_ptr<const expr::Tape> rawTape;
  std::vector<expr::SlotRef> rootSlots;
  expr::TapePassStats stats;
};

[[nodiscard]] IntervalTapeBuild buildIntervalTape(
    const std::vector<expr::ExprPtr>& roots);

/// Interval execution of a tape under `lanes` independent environments
/// per run(): slots are laid out lane-major (`[slot * lanes + lane]`) with
/// the instruction loop outside and the lane loop inside, so the op
/// dispatch is paid once per instruction. One lane is the plain abstract
/// evaluation (the reachability fixpoint); the sub-box refutation layer
/// of analysis::proveConstraintDeadFrom binds one candidate sub-box per
/// lane and refutes all of them in one sweep. Each lane's result depends
/// only on its own environment.
class IntervalTapeExecutor {
 public:
  /// `lanes` is clamped to >= 1. The tape is shared, never copied.
  explicit IntervalTapeExecutor(std::shared_ptr<const expr::Tape> tape,
                                int lanes = 1);

  [[nodiscard]] int lanes() const { return lanes_; }

  /// (Re)bind every tape variable of `lane`: from `env` when bound there,
  /// else the declared-domain default. Call for every lane before each
  /// run().
  void bind(const IntervalEnv& env, int lane = 0);

  /// Execute the full tape across all lanes.
  void run();

  [[nodiscard]] const interval::Interval& scalar(expr::SlotRef r,
                                                 int lane = 0) const {
    return scalars_[idx(r.slot, lane)];
  }
  [[nodiscard]] const std::vector<interval::Interval>& array(
      expr::SlotRef r, int lane = 0) const {
    return arrays_[idx(r.slot, lane)];
  }

  [[nodiscard]] const expr::Tape& tape() const { return *tape_; }

 private:
  [[nodiscard]] std::size_t idx(std::int32_t slot, int lane) const {
    return static_cast<std::size_t>(slot) * static_cast<std::size_t>(lanes_) +
           static_cast<std::size_t>(lane);
  }

  std::shared_ptr<const expr::Tape> tape_;
  int lanes_ = 1;
  std::vector<interval::Interval> scalars_;  // [slot * lanes + lane]
  std::vector<std::vector<interval::Interval>> arrays_;
};

/// Lane-parallel interval verdicts: compile all `roots` (scalar-typed)
/// onto one CSE-shared tape and judge them under every environment in
/// `envs` with one B-wide pass (B = envs.size()); out[e][i] is roots[i]'s
/// interval under envs[e]. The workhorse of sub-box refutation: each
/// environment is one candidate sub-box.
[[nodiscard]] std::vector<std::vector<interval::Interval>>
intervalVerdictsBatch(const std::vector<expr::ExprPtr>& roots,
                      std::span<const IntervalEnv> envs);

/// The one-environment case: one interval per root, in order. Replaces N
/// tree walks with one linear pass when many constraints are judged under
/// the same environment (dead-branch and lint unreachability sweeps).
[[nodiscard]] std::vector<interval::Interval> intervalVerdicts(
    const std::vector<expr::ExprPtr>& roots, const IntervalEnv& env);

}  // namespace stcg::analysis
