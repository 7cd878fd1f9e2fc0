// Search-based solver: hill climbing on the classic branch-distance
// objective (Korel / Tracey), the staple of search-based software testing.
//
// This is the "more constraint solvers" direction of the paper's future
// work. It complements the box solver: it cannot prove UNSAT, but it
// excels at nonlinear numeric goals where interval contraction is weak
// (products, sums of squares) because the distance function gives the
// search a gradient toward satisfaction.
//
// Cost of a boolean expression under an assignment (want = true):
//   a == b   -> |a - b|
//   a != b   -> 0 if a != b else 1
//   a <  b   -> 0 if a < b else (a - b) + eps
//   a && b   -> cost(a) + cost(b)
//   a || b   -> min(cost(a), cost(b))
//   !a       -> cost of a with flipped polarity
//   ite(c,t,e) (bool) -> cost((c && t) || (!c && e))
// Zero cost certifies satisfaction (verified by concrete evaluation).
//
// Every candidate is scored through one BatchDistanceTape (the compiled
// form of this recursion, distance_tape.h) of kLanes lanes: a (re)start
// scores its point alone, and the kLanes pattern moves of one variable
// are scored in one batched pass, then scanned in move order, accepting
// the first improvement. That commits exactly the accept order and sample
// count of a climber that scores one candidate at a time, which the tests
// keep as the reference (tests/distance_oracle.h).
#pragma once

#include "solver/solver.h"

namespace stcg::solver {

class LocalSearchSolver {
 public:
  /// Lanes of the neighborhood scorer: the pattern moves per variable
  /// (four step sizes, two directions each).
  static constexpr int kLanes = 8;

  explicit LocalSearchSolver(SolveOptions options = {})
      : options_(options) {}

  /// Find an assignment making `goal` true, or report UNKNOWN — local
  /// search can never prove UNSAT.
  [[nodiscard]] SolveResult solve(const expr::ExprPtr& goal,
                                  const std::vector<expr::VarInfo>& vars);

 private:
  SolveOptions options_;
};

/// Which engine a query runs on.
enum class SolverKind {
  kBox,          // interval branch-and-prune (can prove UNSAT)
  kLocalSearch,  // branch-distance hill climbing (SAT-only)
  kPortfolio,    // box first, then local search on UNKNOWN
};

[[nodiscard]] const char* solverKindName(SolverKind k);

/// Dispatch a query to the chosen engine.
[[nodiscard]] SolveResult solveWith(SolverKind kind,
                                    const expr::ExprPtr& goal,
                                    const std::vector<expr::VarInfo>& vars,
                                    const SolveOptions& options);

}  // namespace stcg::solver
