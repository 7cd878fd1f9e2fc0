// Branch-and-prune box solver over expression constraints.
//
// This plays the role SLDV's internal engine plays in the paper: given a
// boolean constraint over bounded input variables, find a satisfying
// assignment, prove none exists, or give up within a budget.
//
// Algorithm: maintain a worklist of boxes. For each box, (1) contract with
// HC4 — an empty contraction soundly refutes the box; (2) draw the box's
// 3 + samplesPerBox candidate points (corners, midpoint, random draws) and
// certify them as the lanes of one compiled tape pass — the first true
// lane is the model; (3) otherwise split the widest dimension and recurse.
// UNSAT is reported only when every box has been refuted; running out of
// time/boxes yields UNKNOWN.
//
// Certification compiles the goal into a Tape (expr/tape.h) the first
// time a box survives HC4, so queries refuted at the root compile
// nothing, and runs every candidate of a box through one
// BatchTapeExecutor pass (lane width 3 + samplesPerBox; on the root box
// the corners first run alone, so a solve that returns at a corner never
// draws from the RNG). The tape is
// bit-identical to the tree Evaluator and candidates past the first true
// lane were never observable to callers (a candidate-by-candidate loop
// returned there), so status, model and stats equal those of the
// evaluate()-per-candidate solver this replaced — tests/test_solver.cpp
// keeps that solver as the differential oracle.
//
// The paper's central observation lives here: after STCG fixes the model
// state as constants, the residual constraints are small and this solver
// disposes of them in microseconds, whereas multi-step unrollings (the
// SLDV-like baseline) produce deep store/select towers it must grind on.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "expr/eval.h"
#include "expr/expr.h"
#include "interval/box.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace stcg::expr {
class BatchTapeExecutor;
}  // namespace stcg::expr

namespace stcg::solver {

enum class SolveStatus { kSat, kUnsat, kUnknown };

[[nodiscard]] const char* solveStatusName(SolveStatus s);

struct SolveOptions {
  std::int64_t timeBudgetMillis = 100;  // wall-clock budget per query
  int maxBoxes = 4096;                  // worklist expansion cap
  int samplesPerBox = 6;                // random samples per box
  int contractPasses = 3;               // HC4 sweeps per box
  std::uint64_t seed = 1;               // sampling seed
};

struct SolveStats {
  int boxesProcessed = 0;
  int boxesRefuted = 0;
  int samplesTried = 0;
  std::int64_t elapsedMillis = 0;
};

struct SolveResult {
  SolveStatus status = SolveStatus::kUnknown;
  expr::Env model;  // populated when status == kSat, covers all variables
  SolveStats stats;
  /// The status and model do not depend on SolveOptions::seed: BoxSolver
  /// proved UNSAT, decided a constant goal, or found the model before it
  /// drew from its RNG (at a corner of the root box). False for every
  /// other result and for every LocalSearchSolver result.
  bool seedFree = false;

  [[nodiscard]] bool sat() const { return status == SolveStatus::kSat; }
};

class BoxSolver {
 public:
  explicit BoxSolver(SolveOptions options = {}) : options_(options) {}

  /// Find an assignment over `vars` making `goal` true. `goal` must be
  /// boolean-typed. Variables of `vars` not occurring in `goal` receive
  /// their domain midpoint in the model. Every variable `goal` mentions
  /// must be declared in `vars`: otherwise solve() throws expr::EvalError
  /// before any search, even when the variable sits in a branch no
  /// candidate would reach (the compiled certifier binds eagerly).
  [[nodiscard]] SolveResult solve(const expr::ExprPtr& goal,
                                  const std::vector<expr::VarInfo>& vars);

  [[nodiscard]] const SolveOptions& options() const { return options_; }

 private:
  /// Draw a concrete point from `box` into `row` (one entry per box
  /// dimension).
  void samplePoint(const interval::Box& box, Rng& rng, bool corners,
                   int cornerKind, double* row) const;

  SolveOptions options_;
};

/// Convert a solver scalar draw (stored as real) to the variable's type.
[[nodiscard]] expr::Scalar scalarForVar(const expr::VarInfo& info, double v);

/// Binds candidate points (one raw draw per var of `vars`) into the lanes
/// of a BatchTapeExecutor: scalarForVar's coercion applied through the
/// executor's typed binds, without materializing a Scalar. The tape
/// binding of every variable is resolved once, at construction, so
/// binding a lane is a straight walk with no binding search.
class PointBinder {
 public:
  PointBinder(const expr::BatchTapeExecutor& ex,
              const std::vector<expr::VarInfo>& vars);
  /// Bind `point` into `lane` of `ex`, which runs the tape the binder was
  /// built for.
  void bind(expr::BatchTapeExecutor& ex, int lane, const double* point) const;

 private:
  struct Bind {
    std::size_t dim;  // index into vars and into a point
    int binding;      // index into the tape's var bindings
    expr::Type type;  // the variable's type: how the raw draw coerces
  };
  std::vector<Bind> binds_;
};

/// Integer endpoints of the real interval [lo, hi], saturated to a range
/// that casts exactly to int64 — casting an unbounded (±inf) endpoint
/// directly is UB and yields garbage bounds. first > second means the
/// interval contains no integer (e.g. a sub-unit real interval).
[[nodiscard]] std::pair<std::int64_t, std::int64_t> integerEndpoints(
    double lo, double hi);

}  // namespace stcg::solver
