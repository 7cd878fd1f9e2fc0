// Differential oracles for the dense node-index memos: the pointer-keyed
// hash-map versions of HC4 contraction and partial evaluation that the
// library used before numbering DAG nodes. Test-only.
#pragma once

#include <unordered_map>
#include <vector>

#include "expr/eval.h"
#include "expr/expr.h"
#include "interval/box.h"
#include "interval/hc4.h"

namespace stcg::testref {

/// interval::Hc4Contractor with its forward memos as per-pass
/// std::unordered_map<const Expr*, ...> cleared at the start of each pass.
class MapHc4Contractor {
 public:
  explicit MapHc4Contractor(expr::ExprPtr goal);

  interval::ContractOutcome contract(interval::Box& box, int maxPasses = 3);
  [[nodiscard]] interval::Interval forwardEval(const interval::Box& box);

 private:
  using ArrayDomain = std::vector<interval::Interval>;

  interval::ContractOutcome pass(interval::Box& box);
  interval::Interval forward(const expr::Expr* e, const interval::Box& box);
  ArrayDomain forwardArray(const expr::Expr* e, const interval::Box& box);
  bool backward(const expr::Expr* e, interval::Interval target,
                interval::Box& box);

  expr::ExprPtr goal_;
  std::unordered_map<const expr::Expr*, interval::Interval> fwd_;
  std::unordered_map<const expr::Expr*, ArrayDomain> fwdArray_;
};

/// expr::substitute / expr::substituteExprs with a pointer-keyed
/// std::unordered_map memo.
[[nodiscard]] expr::ExprPtr mapSubstitute(const expr::ExprPtr& e,
                                          const expr::Env& binding);
[[nodiscard]] expr::ExprPtr mapSubstituteExprs(
    const expr::ExprPtr& e,
    const std::unordered_map<expr::VarId, expr::ExprPtr>& mapping);

}  // namespace stcg::testref
