#include "analysis/interval_eval.h"

#include <cassert>

#include "interval/transfer.h"

namespace stcg::analysis {

using expr::Expr;
using expr::ExprPtr;
using expr::Op;
using interval::Interval;

void IntervalEnv::set(expr::VarId id, Interval iv) { scalars_[id] = iv; }

void IntervalEnv::setArray(expr::VarId id, std::vector<Interval> elems) {
  arrays_[id] = std::move(elems);
}

bool IntervalEnv::has(expr::VarId id) const { return scalars_.count(id) > 0; }

bool IntervalEnv::hasArray(expr::VarId id) const {
  return arrays_.count(id) > 0;
}

const Interval& IntervalEnv::get(expr::VarId id) const {
  return scalars_.at(id);
}

const std::vector<Interval>& IntervalEnv::getArray(expr::VarId id) const {
  return arrays_.at(id);
}

Interval IntervalEvaluator::evalScalar(const ExprPtr& e) {
  assert(!e->isArray());
  if (pinnedSet_.insert(e.get()).second) pinnedRoots_.push_back(e);
  return scalarRec(e.get());
}

std::vector<Interval> IntervalEvaluator::evalArray(const ExprPtr& e) {
  assert(e->isArray());
  if (pinnedSet_.insert(e.get()).second) pinnedRoots_.push_back(e);
  return arrayRec(e.get());
}

Interval IntervalEvaluator::scalarRec(const Expr* e) {
  if (auto it = memo_.find(e); it != memo_.end()) return it->second;
  const auto arg = [&](std::size_t k) { return scalarRec(e->args[k].get()); };
  Interval out;
  switch (e->op) {
    case Op::kConst:
      out = interval::constI(e->constVal);
      break;
    case Op::kVar:
      out = env_->has(e->var)
                ? env_->get(e->var)
                : interval::declaredDomain(e->type, e->varLo, e->varHi);
      break;
    case Op::kIte: {  // lazy: a decided condition skips the other arm
      const Interval c = arg(0);
      out = interval::transferScalar(Op::kIte, e->type, c,
                                     c.isFalse() ? Interval::empty() : arg(1),
                                     c.isTrue() ? Interval::empty() : arg(2));
      break;
    }
    case Op::kSelect:
      out = interval::selectI(arrayRec(e->args[0].get()), arg(1));
      break;
    default: {
      const Interval a = arg(0);
      out = interval::transferScalar(
          e->op, e->type, a, e->args.size() > 1 ? arg(1) : Interval::empty(),
          Interval::empty());
      break;
    }
  }
  memo_.emplace(e, out);
  return out;
}

std::vector<Interval> IntervalEvaluator::arrayRec(const Expr* e) {
  if (auto it = arrayMemo_.find(e); it != arrayMemo_.end()) return it->second;
  std::vector<Interval> out;
  switch (e->op) {
    case Op::kConstArray:
      interval::constArrayI(e->constArray, out);
      break;
    case Op::kVarArray:
      if (env_->hasArray(e->var)) {
        out = env_->getArray(e->var);
      } else {
        interval::unboundArray(e->arraySize, out);
      }
      break;
    case Op::kStore:
      out = arrayRec(e->args[0].get());
      interval::storeI(out, scalarRec(e->args[1].get()),
                       scalarRec(e->args[2].get()));
      break;
    case Op::kIte: {  // lazy, as for scalars
      const Interval c = scalarRec(e->args[0].get());
      interval::iteArrayI(
          c, c.isFalse() ? std::vector<Interval>{} : arrayRec(e->args[1].get()),
          c.isTrue() ? std::vector<Interval>{} : arrayRec(e->args[2].get()),
          out);
      break;
    }
    default:
      assert(false && "scalar node in array interval eval");
      break;
  }
  arrayMemo_.emplace(e, out);
  return out;
}

}  // namespace stcg::analysis
