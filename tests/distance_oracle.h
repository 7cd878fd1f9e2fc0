// Differential oracles for local search: the recursive Korel/Tracey branch
// distance and the climber that scores one candidate at a time with it,
// which the library used before every candidate went through the batched
// scorer (solver::BatchDistanceTape). Test-only; bench_eval_tape links
// it for its tree-walk baseline column.
#pragma once

#include <vector>

#include "expr/eval.h"
#include "expr/expr.h"
#include "solver/solver.h"

namespace stcg::testref {

/// Branch distance of `goal` (toward `want`) under `env`; 0 iff satisfied.
/// The tree walk the compiled overlay (solver::DistanceProgram) must
/// equal bit for bit.
[[nodiscard]] double branchDistance(const expr::ExprPtr& goal,
                                    const expr::Env& env, bool want);

/// solver::LocalSearchSolver::solve as a sequential climber: the same
/// restarts, pattern moves and accept rule, each candidate scored alone
/// by branchDistance. Status, model and samplesTried must equal the
/// production solver's whenever neither run hits the deadline.
[[nodiscard]] solver::SolveResult referenceLocalSearch(
    const expr::ExprPtr& goal, const std::vector<expr::VarInfo>& vars,
    const solver::SolveOptions& options);

}  // namespace stcg::testref
