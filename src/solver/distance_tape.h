// Compiled branch-distance evaluation for the local-search solver.
//
// The hill climber scores thousands of candidate points per query. A
// distance build compiles the goal once into
//   (1) a value tape (expr::Tape) over the goal's whole DAG, and
//   (2) a distance overlay: a linear program of sum/min/compare/truth
//       instructions over double slots, one per distinct (node, want)
//       pair of the Korel/Tracey distance recursion,
// so scoring a point is two linear sweeps. buildDistanceTape() is the one
// producer, in the shape of compile::buildModelTape and
// analysis::buildIntervalTape: raw tape, optimized tape, the overlay
// program over the optimized tape, and the pass statistics.
//
// BatchDistanceTape is the scorer LocalSearchSolver runs: the value tape
// across B lanes (expr::BatchTapeExecutor) and the overlay through the
// lane kernels, so one batched pass scores a whole neighborhood of
// candidate points (DESIGN.md §5f). DistanceTape is its one-lane
// reference: the scalar TapeExecutor plus the overlay, one point per
// rebind(), which the batch parity tests and benches compare against.
//
// Bit-identity: the overlay applies the same double operations in the
// same order as the recursive branch distance (same kEps, same operand
// order for + and std::min), and value slots are bit-identical to the
// tree Evaluator, so every cost either class returns equals the
// recursive walk exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "expr/batch_tape.h"
#include "expr/expr.h"
#include "expr/tape.h"
#include "expr/tape_passes.h"
#include "solver/solver.h"

namespace stcg::solver {

/// The compiled distance overlay: a linear program over double slots,
/// evaluated after the value tape. Built once, shared by the scalar and
/// batched executors.
struct DistanceProgram {
  struct Instr {
    enum class Kind { kSum, kMin, kCmp, kTruth };
    Kind kind = Kind::kSum;
    std::int32_t dst = -1;
    std::int32_t a = -1, b = -1;    // distance-slot operands (kSum/kMin)
    std::int32_t va = -1, vb = -1;  // value-tape scalar slots (kCmp/kTruth)
    expr::Op cmpOp = expr::Op::kEq; // kCmp
    bool want = true;               // kCmp/kTruth
  };
  std::vector<Instr> code;
  std::vector<double> init;  // per-slot initial value (constants pre-set)
  std::int32_t root = -1;

  [[nodiscard]] std::size_t slotCount() const { return init.size(); }
};

/// Emit `goal`'s value DAG onto `b` and compile its distance overlay
/// (whose va/vb operands index `b`'s raw slots). Throws expr::EvalError
/// on a non-boolean / array goal.
[[nodiscard]] DistanceProgram buildDistanceProgram(const expr::ExprPtr& goal,
                                                   expr::TapeBuilder& b);

/// One goal's distance build. `prog`'s value reads index `tape`, the
/// slot allocator's output (its overlay taps ride through optimizeTape as
/// extraLive slots); `rawTape` keeps the unallocated build as the
/// differential oracle.
struct DistanceTapeBuild {
  std::shared_ptr<const expr::Tape> tape;
  std::shared_ptr<const expr::Tape> rawTape;
  DistanceProgram prog;
  expr::TapePassStats stats;
};

/// Build value tape + overlay for `goal` and optimize the value tape.
/// Throws expr::EvalError on a non-boolean / array goal.
[[nodiscard]] DistanceTapeBuild buildDistanceTape(const expr::ExprPtr& goal);

/// One-lane reference scorer: the optimized value tape on the scalar
/// TapeExecutor, then the overlay.
class DistanceTape {
 public:
  /// Compile `goal` (scalar boolean) for the variable list a point binds.
  /// Throws expr::EvalError on a non-boolean goal.
  DistanceTape(const expr::ExprPtr& goal,
               const std::vector<expr::VarInfo>& vars);

  /// Bind every variable to `point` (raw reals, scalarForVar coercion)
  /// and return the distance.
  double rebind(const std::vector<double>& point);

  /// Diagnostics for bench reporting.
  [[nodiscard]] std::size_t valueInstrCount() const {
    return exec_.tape().code().size();
  }
  [[nodiscard]] std::size_t overlayInstrCount() const {
    return prog_.code.size();
  }

 private:
  DistanceTape(const std::vector<expr::VarInfo>& vars,
               DistanceTapeBuild built);

  std::vector<expr::VarInfo> vars_;
  expr::TapeExecutor exec_;
  DistanceProgram prog_;
  std::vector<double> dist_;  // distance slots (constants pre-set)
};

/// B-lane distance evaluation: the same value tape and overlay program as
/// DistanceTape, executed across `lanes` candidate points per run() call.
/// distance(lane) is bit-identical to DistanceTape::rebind of that lane's
/// point. The local-search solver's only scorer.
class BatchDistanceTape {
 public:
  /// Cumulative lane-instruction accounting for the overlay executor:
  /// one "lane instruction" is one overlay instruction evaluated for one
  /// lane. runBounded() skips lane instructions once a lane is provably
  /// worse than the bound (and whole instructions once every lane is);
  /// the retired/skipped split makes the early-exit rate visible in
  /// bench output without touching the candidates/sec methodology.
  struct OverlayStats {
    std::uint64_t laneInstrsRetired = 0;
    std::uint64_t laneInstrsSkipped = 0;
    std::uint64_t boundedRuns = 0;
    std::uint64_t fullRuns = 0;
  };

  BatchDistanceTape(const expr::ExprPtr& goal,
                    const std::vector<expr::VarInfo>& vars, int lanes);

  [[nodiscard]] int lanes() const { return exec_->lanes(); }

  /// Bind every search variable of `lane` to `point` (same scalarForVar
  /// coercion as DistanceTape::rebind, via the executor's typed binds).
  void setPoint(int lane, const std::vector<double>& point);

  /// Evaluate all lanes: one batched value-tape pass, then the overlay
  /// program with the instruction loop outside and the lane loop inside —
  /// kSum/kMin run the dSum/dMin lane kernels over the lane-major
  /// distance rows and kCmp/kTruth read the value tape lane-wide into the
  /// dCmp/dTruth kernels (expr/simd.h), so the overlay's dispatch cost
  /// amortizes across lanes exactly like the value tape's. Each lane's
  /// arithmetic is overlayStep's, operand for operand, at every SIMD
  /// level.
  void run();

  /// run() with per-lane early-exit masks: while sweeping the overlay, a
  /// lane whose value at any monotone lower-bound slot (the root plus,
  /// transitively, the operands of kSum instructions feeding it — every
  /// distance is >= 0, so a partial sum can only grow) fails
  /// `value < bound` can never come in under `bound`; it is masked off
  /// and its distance(lane) reports +infinity. Once every lane is masked
  /// the remaining overlay instructions are skipped outright. Callers
  /// that only consume distances through `d < bound` comparisons (the
  /// climber's accept test with `bound` = incumbent cost) observe
  /// behavior identical to run() — masked lanes fail that test either
  /// way, so accept order and final suites cannot change.
  void runBounded(double bound);

  [[nodiscard]] double distance(int lane) const {
    return dist_[static_cast<std::size_t>(prog_.root) *
                     static_cast<std::size_t>(exec_->lanes()) +
                 static_cast<std::size_t>(lane)];
  }

  [[nodiscard]] const OverlayStats& overlayStats() const { return stats_; }

 private:
  /// One overlay instruction, full row width, through the lane kernels.
  void overlayInstr(const DistanceProgram::Instr& in);

  std::vector<expr::VarInfo> vars_;
  DistanceProgram prog_;
  std::optional<expr::BatchTapeExecutor> exec_;
  std::optional<PointBinder> binder_;  // vars_ on exec_'s tape
  const expr::LaneKernels* kern_ = nullptr;  // same level as exec_
  util::AlignedVec<double> dist_;  // [slot * lanes + lane]
  util::AlignedVec<double> va_, vb_;      // lane-wide kCmp operand scratch
  util::AlignedVec<std::uint64_t> truth_; // lane-wide kTruth scratch
  std::vector<std::uint8_t> lowerSlot_;  // 1 = monotone lower bound of root
  std::vector<std::uint8_t> active_;     // runBounded lane mask scratch
  OverlayStats stats_;
};

}  // namespace stcg::solver
