// Forward interval evaluation of expressions under interval-valued state
// and input environments — the abstract domain used by the reachability
// analysis (analysis/reachability.h).
//
// Unlike the HC4 contractor (whose variables live in a solver Box of
// scalar inputs), this evaluator binds *any* variable — including
// array-typed state leaves — to interval domains, so whole next-state
// functions can be evaluated abstractly. The per-op rules are HC4's and
// the interval tape executor's (interval/transfer.h); this class only
// walks the DAG and binds variables.
#pragma once

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "expr/expr.h"
#include "interval/interval.h"

namespace stcg::analysis {

/// Interval bindings for scalar and array variables.
class IntervalEnv {
 public:
  void set(expr::VarId id, interval::Interval iv);
  void setArray(expr::VarId id, std::vector<interval::Interval> elems);

  [[nodiscard]] bool has(expr::VarId id) const;
  [[nodiscard]] bool hasArray(expr::VarId id) const;
  [[nodiscard]] const interval::Interval& get(expr::VarId id) const;
  [[nodiscard]] const std::vector<interval::Interval>& getArray(
      expr::VarId id) const;

 private:
  std::unordered_map<expr::VarId, interval::Interval> scalars_;
  std::unordered_map<expr::VarId, std::vector<interval::Interval>> arrays_;
};

/// Evaluate the possible values of `e` under `env`. Unbound variables
/// evaluate to their declared [lo, hi] domain (inputs), or to the finite
/// whole hull when no domain is known. Sound: the concrete value of `e`
/// under any concretization of `env` lies in the result.
class IntervalEvaluator {
 public:
  explicit IntervalEvaluator(const IntervalEnv& env) : env_(&env) {}

  [[nodiscard]] interval::Interval evalScalar(const expr::ExprPtr& e);
  [[nodiscard]] std::vector<interval::Interval> evalArray(
      const expr::ExprPtr& e);

  /// Number of distinct roots currently pinned (regression hook: reusing
  /// one evaluator across many calls on the same root must not grow this).
  [[nodiscard]] std::size_t pinnedRootCount() const {
    return pinnedRoots_.size();
  }

 private:
  interval::Interval scalarRec(const expr::Expr* e);
  std::vector<interval::Interval> arrayRec(const expr::Expr* e);

  const IntervalEnv* env_;
  std::unordered_map<const expr::Expr*, interval::Interval> memo_;
  std::unordered_map<const expr::Expr*, std::vector<interval::Interval>>
      arrayMemo_;
  // Pins evaluated roots so pointer-keyed memo entries can't go stale
  // (node addresses would otherwise be recyclable across calls).
  // Deduplicated by address: re-evaluating the same root must not grow
  // the pin list without bound.
  std::vector<expr::ExprPtr> pinnedRoots_;
  std::unordered_set<const expr::Expr*> pinnedSet_;
};

}  // namespace stcg::analysis
