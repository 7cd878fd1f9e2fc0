// The pointer-keyed hash-map implementations that the dense node-index
// versions replaced (interval::Hc4Contractor, expr::substitute), kept
// as differential oracles for the tests: verbatim apart from names,
// except that HC4's forward pass applies the shared per-op interval
// rules (interval/transfer.h) like the library does.
#include "map_oracles.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "expr/builder.h"
#include "interval/transfer.h"

namespace stcg::testref {

using namespace expr;      // NOLINT(google-build-using-namespace)
using namespace interval;  // NOLINT(google-build-using-namespace)

// ----- HC4 over per-pass pointer maps ---------------------------------------

namespace {

constexpr double kHuge = 1e300;

/// Inclusive upper bound for "strictly less than x" on the given type:
/// the largest integer strictly below x for discrete types (x-1 when x is
/// itself integral, floor(x) otherwise).
double strictBelow(double x, Type t) {
  if (t == Type::kReal) return x;  // closed approximation, still sound
  return std::ceil(x) - 1.0;
}

double strictAbove(double x, Type t) {
  if (t == Type::kReal) return x;
  return std::floor(x) + 1.0;
}

}  // namespace

MapHc4Contractor::MapHc4Contractor(ExprPtr goal) : goal_(std::move(goal)) {
  assert(goal_->type == Type::kBool && !goal_->isArray());
}

Interval MapHc4Contractor::forwardEval(const Box& box) {
  fwd_.clear();
  fwdArray_.clear();
  return forward(goal_.get(), box);
}

ContractOutcome MapHc4Contractor::contract(Box& box, int maxPasses) {
  bool shrunkAny = false;
  for (int i = 0; i < maxPasses; ++i) {
    const double before = box.totalWidth();
    const ContractOutcome out = pass(box);
    if (out == ContractOutcome::kEmpty) return ContractOutcome::kEmpty;
    const double after = box.totalWidth();
    if (after < before) {
      shrunkAny = true;
    } else {
      break;  // fixpoint
    }
  }
  return shrunkAny ? ContractOutcome::kShrunk : ContractOutcome::kUnchanged;
}

ContractOutcome MapHc4Contractor::pass(Box& box) {
  fwd_.clear();
  fwdArray_.clear();
  const Interval root = forward(goal_.get(), box);
  if (root.isEmpty() || !root.canBeTrue()) return ContractOutcome::kEmpty;
  if (!backward(goal_.get(), Interval::boolTrue(), box)) {
    return ContractOutcome::kEmpty;
  }
  if (box.isEmpty()) return ContractOutcome::kEmpty;
  return ContractOutcome::kShrunk;  // caller compares widths
}

// The per-op arithmetic is the shared interval::transferScalar /
// selectI / storeI / iteArrayI: this oracle checks the memo layout, not
// the interval semantics, which tests/test_interval_transfer.cpp checks
// against the concrete evaluator.
Interval MapHc4Contractor::forward(const Expr* e, const Box& box) {
  if (auto it = fwd_.find(e); it != fwd_.end()) return it->second;
  const auto fa = [&](std::size_t k) {
    return forward(e->args[k].get(), box);
  };
  Interval out;
  switch (e->op) {
    case Op::kConst:
      out = constI(e->constVal);
      break;
    case Op::kVar:
      out = box.domain(e->var).intersect(
          declaredDomain(e->type, e->varLo, e->varHi));
      break;
    case Op::kIte: {
      const Interval c = fa(0);
      out = transferScalar(Op::kIte, e->type, c,
                           c.isFalse() ? Interval::empty() : fa(1),
                           c.isTrue() ? Interval::empty() : fa(2));
      break;
    }
    case Op::kSelect:
      out = selectI(forwardArray(e->args[0].get(), box), fa(1));
      break;
    default: {
      const Interval a = fa(0);
      out = transferScalar(e->op, e->type, a,
                           e->args.size() > 1 ? fa(1) : Interval::empty(),
                           Interval::empty());
      break;
    }
  }
  fwd_.emplace(e, out);
  return out;
}

MapHc4Contractor::ArrayDomain MapHc4Contractor::forwardArray(
    const Expr* e, const Box& box) {
  if (auto it = fwdArray_.find(e); it != fwdArray_.end()) return it->second;
  ArrayDomain out;
  switch (e->op) {
    case Op::kConstArray:
      constArrayI(e->constArray, out);
      break;
    case Op::kVarArray:
      unboundArray(e->arraySize, out);
      break;
    case Op::kStore:
      out = forwardArray(e->args[0].get(), box);
      storeI(out, forward(e->args[1].get(), box),
             forward(e->args[2].get(), box));
      break;
    case Op::kIte: {
      const Interval c = forward(e->args[0].get(), box);
      const auto arm = [&](std::size_t k, bool skipped) {
        return skipped ? ArrayDomain{} : forwardArray(e->args[k].get(), box);
      };
      iteArrayI(c, arm(1, c.isFalse()), arm(2, c.isTrue()), out);
      break;
    }
    default:
      assert(false && "scalar node reached array forward");
      break;
  }
  fwdArray_.emplace(e, out);
  return out;
}

bool MapHc4Contractor::backward(const Expr* e, Interval target, Box& box) {
  const auto fwdOf = [&](const Expr* n) {
    auto it = fwd_.find(n);
    return it != fwd_.end() ? it->second : Interval::whole();
  };
  const Interval self = fwdOf(e);
  target = target.intersect(self);
  if (target.isEmpty()) return false;

  switch (e->op) {
    case Op::kConst:
    case Op::kConstArray:
    case Op::kVarArray:  // array state variables carry no box domain
      return true;  // already intersected with the point above
    case Op::kVar:
      return box.narrow(e->var, target);
    case Op::kNot:
      return backward(e->args[0].get(), notI(target), box);
    case Op::kNeg:
      return backward(e->args[0].get(), negI(target), box);
    case Op::kAbs: {
      const Interval tp = target.intersect(Interval(0.0, kHuge));
      if (tp.isEmpty()) return false;
      return backward(e->args[0].get(), tp.hull(negI(tp)), box);
    }
    case Op::kCast: {
      const Expr* a = e->args[0].get();
      if (e->type == Type::kBool) {
        if (target.isFalse()) {
          return backward(a, Interval::point(0.0), box);
        }
        if (target.isTrue()) {
          const Interval fa = fwdOf(a);
          if (fa.isPoint() && fa.lo() == 0.0) return false;
          if (a->type == Type::kInt || a->type == Type::kBool) {
            if (fa.lo() == 0.0) {
              return backward(a, Interval(1.0, fa.hi()), box);
            }
            if (fa.hi() == 0.0) {
              return backward(a, Interval(fa.lo(), -1.0), box);
            }
          }
        }
        return true;
      }
      if (e->type == Type::kInt && a->type == Type::kReal) {
        // Truncation: conservative pre-image.
        return backward(a, Interval(target.lo() - 1.0, target.hi() + 1.0),
                        box);
      }
      return backward(a, target, box);
    }
    case Op::kAdd: {
      const Expr* a = e->args[0].get();
      const Expr* b = e->args[1].get();
      if (!backward(a, subI(target, fwdOf(b)), box)) return false;
      return backward(b, subI(target, fwdOf(a)), box);
    }
    case Op::kSub: {
      const Expr* a = e->args[0].get();
      const Expr* b = e->args[1].get();
      if (!backward(a, addI(target, fwdOf(b)), box)) return false;
      return backward(b, subI(fwdOf(a), target), box);
    }
    case Op::kMul: {
      const Expr* a = e->args[0].get();
      const Expr* b = e->args[1].get();
      const Interval fa = fwdOf(a), fb = fwdOf(b);
      if (!fb.containsZero() && !fb.isEmpty()) {
        if (!backward(a, divI(target, fb), box)) return false;
      }
      if (!fa.containsZero() && !fa.isEmpty()) {
        if (!backward(b, divI(target, fa), box)) return false;
      }
      return true;
    }
    case Op::kDiv: {
      const Expr* a = e->args[0].get();
      const Expr* b = e->args[1].get();
      const Interval fb = fwdOf(b);
      // Truncated integer division leaves up to |b|-1 of slack in the
      // numerator, so exact inversion only applies to real division.
      if (e->type == Type::kReal && !fb.containsZero() && !fb.isEmpty()) {
        if (!backward(a, mulI(target, fb), box)) return false;
      }
      return true;
    }
    case Op::kMod:
      return true;  // no useful inverse implemented
    case Op::kMin: {
      const Expr* a = e->args[0].get();
      const Expr* b = e->args[1].get();
      const Interval fa = fwdOf(a), fb = fwdOf(b);
      Interval at = Interval(target.lo(), kHuge);
      if (target.hi() < fb.lo()) at = at.intersect(target);
      if (!backward(a, at, box)) return false;
      Interval bt = Interval(target.lo(), kHuge);
      if (target.hi() < fa.lo()) bt = bt.intersect(target);
      return backward(b, bt, box);
    }
    case Op::kMax: {
      const Expr* a = e->args[0].get();
      const Expr* b = e->args[1].get();
      const Interval fa = fwdOf(a), fb = fwdOf(b);
      Interval at = Interval(-kHuge, target.hi());
      if (target.lo() > fb.hi()) at = at.intersect(target);
      if (!backward(a, at, box)) return false;
      Interval bt = Interval(-kHuge, target.hi());
      if (target.lo() > fa.hi()) bt = bt.intersect(target);
      return backward(b, bt, box);
    }
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe: {
      // Normalize to l (op) r with op in {<, <=}.
      const bool flip = e->op == Op::kGt || e->op == Op::kGe;
      const bool strict = e->op == Op::kLt || e->op == Op::kGt;
      const Expr* l = e->args[flip ? 1 : 0].get();
      const Expr* r = e->args[flip ? 0 : 1].get();
      const Interval fl = fwdOf(l), fr = fwdOf(r);
      if (target.isTrue()) {
        // l < r (or <=): l <= strictBelow(fr.hi), r >= strictAbove(fl.lo).
        const double lHi = strict ? strictBelow(fr.hi(), l->type) : fr.hi();
        const double rLo = strict ? strictAbove(fl.lo(), r->type) : fl.lo();
        if (!backward(l, Interval(-kHuge, lHi), box)) return false;
        return backward(r, Interval(rLo, kHuge), box);
      }
      if (target.isFalse()) {
        // !(l < r) == l >= r;  !(l <= r) == l > r.
        const double lLo = strict ? fr.lo() : strictAbove(fr.lo(), l->type);
        const double rHi = strict ? fl.hi() : strictBelow(fl.hi(), r->type);
        if (!backward(l, Interval(lLo, kHuge), box)) return false;
        return backward(r, Interval(-kHuge, rHi), box);
      }
      return true;
    }
    case Op::kEq:
    case Op::kNe: {
      const bool eqWanted =
          (e->op == Op::kEq) == target.isTrue();
      if (!target.isTrue() && !target.isFalse()) return true;
      const Expr* a = e->args[0].get();
      const Expr* b = e->args[1].get();
      const Interval fa = fwdOf(a), fb = fwdOf(b);
      if (eqWanted) {
        const Interval both = fa.intersect(fb);
        if (both.isEmpty()) return false;
        if (!backward(a, both, box)) return false;
        return backward(b, both, box);
      }
      // Disequality: only narrow when one side is a point at the other
      // side's integral boundary.
      const auto trimAgainstPoint = [&](const Expr* x, const Interval& fx,
                                        const Interval& fpoint) -> bool {
        if (!fpoint.isPoint()) return true;
        if (x->type == Type::kReal) return true;
        const double p = fpoint.lo();
        Interval nx = fx;
        if (nx.isPoint() && nx.lo() == p) return false;
        if (nx.lo() == p) nx = Interval(p + 1.0, nx.hi());
        if (nx.hi() == p) nx = Interval(nx.lo(), p - 1.0);
        return backward(x, nx, box);
      };
      if (!trimAgainstPoint(a, fa, fb)) return false;
      return trimAgainstPoint(b, fb, fa);
    }
    case Op::kAnd: {
      const Expr* a = e->args[0].get();
      const Expr* b = e->args[1].get();
      if (target.isTrue()) {
        if (!backward(a, Interval::boolTrue(), box)) return false;
        return backward(b, Interval::boolTrue(), box);
      }
      if (target.isFalse()) {
        const Interval fa = fwdOf(a), fb = fwdOf(b);
        if (fa.isTrue()) return backward(b, Interval::boolFalse(), box);
        if (fb.isTrue()) return backward(a, Interval::boolFalse(), box);
      }
      return true;
    }
    case Op::kOr: {
      const Expr* a = e->args[0].get();
      const Expr* b = e->args[1].get();
      if (target.isFalse()) {
        if (!backward(a, Interval::boolFalse(), box)) return false;
        return backward(b, Interval::boolFalse(), box);
      }
      if (target.isTrue()) {
        const Interval fa = fwdOf(a), fb = fwdOf(b);
        if (fa.isFalse()) return backward(b, Interval::boolTrue(), box);
        if (fb.isFalse()) return backward(a, Interval::boolTrue(), box);
      }
      return true;
    }
    case Op::kXor: {
      const Expr* a = e->args[0].get();
      const Expr* b = e->args[1].get();
      const Interval fa = fwdOf(a), fb = fwdOf(b);
      if (target.isTrue()) {
        if (fa.isTrue()) return backward(b, Interval::boolFalse(), box);
        if (fa.isFalse()) return backward(b, Interval::boolTrue(), box);
        if (fb.isTrue()) return backward(a, Interval::boolFalse(), box);
        if (fb.isFalse()) return backward(a, Interval::boolTrue(), box);
      }
      if (target.isFalse()) {
        if (fa.isTrue()) return backward(b, Interval::boolTrue(), box);
        if (fa.isFalse()) return backward(b, Interval::boolFalse(), box);
        if (fb.isTrue()) return backward(a, Interval::boolTrue(), box);
        if (fb.isFalse()) return backward(a, Interval::boolFalse(), box);
      }
      return true;
    }
    case Op::kIte: {
      const Expr* c = e->args[0].get();
      const Expr* t = e->args[1].get();
      const Expr* f = e->args[2].get();
      if (e->args[1]->isArray()) return true;  // array ITE: no narrowing
      const Interval fc = fwdOf(c);
      if (fc.isTrue()) return backward(t, target, box);
      if (fc.isFalse()) return backward(f, target, box);
      const Interval ft = fwdOf(t), ff = fwdOf(f);
      const bool thenPossible = !target.intersect(ft).isEmpty();
      const bool elsePossible = !target.intersect(ff).isEmpty();
      if (!thenPossible && !elsePossible) return false;
      if (!thenPossible) {
        if (!backward(c, Interval::boolFalse(), box)) return false;
        return backward(f, target, box);
      }
      if (!elsePossible) {
        if (!backward(c, Interval::boolTrue(), box)) return false;
        return backward(t, target, box);
      }
      return true;
    }
    case Op::kSelect: {
      const Expr* arrE = e->args[0].get();
      const Expr* idxE = e->args[1].get();
      const ArrayDomain arr = forwardArray(arrE, box);
      const Interval idx = fwdOf(idxE).integralHull();
      if (arr.empty()) return true;
      const auto n = static_cast<std::int64_t>(arr.size());
      std::int64_t lo = 0, hi = n - 1;
      if (!idx.isEmpty()) {
        lo = static_cast<std::int64_t>(
            std::clamp(idx.lo(), 0.0, static_cast<double>(n - 1)));
        hi = static_cast<std::int64_t>(
            std::clamp(idx.hi(), 0.0, static_cast<double>(n - 1)));
      }
      // Indices whose element domain intersects the target remain feasible.
      std::int64_t first = -1, last = -1;
      for (std::int64_t i = lo; i <= hi; ++i) {
        if (!arr[static_cast<std::size_t>(i)].intersect(target).isEmpty()) {
          if (first < 0) first = i;
          last = i;
        }
      }
      // Out-of-range indices clamp to the boundary elements; keep them
      // feasible if the boundary element matches.
      const bool lowClampOk =
          idx.lo() < 0.0 && !arr[0].intersect(target).isEmpty();
      const bool highClampOk =
          idx.hi() >= static_cast<double>(n) &&
          !arr[static_cast<std::size_t>(n - 1)].intersect(target).isEmpty();
      if (first < 0 && !lowClampOk && !highClampOk) return false;
      double nlo = first >= 0 ? static_cast<double>(first) : kHuge;
      double nhi = last >= 0 ? static_cast<double>(last) : -kHuge;
      if (lowClampOk) nlo = std::min(nlo, idx.lo());
      if (highClampOk) nhi = std::max(nhi, idx.hi());
      return backward(idxE, Interval(nlo, nhi), box);
    }
    case Op::kStore:
      return true;  // handled via forwardArray only
  }
  return true;
}

// ----- substitute over a pointer-keyed memo ---------------------------------

namespace {

class MapSubstituter {
 public:
  explicit MapSubstituter(const Env* binding,
                          const std::unordered_map<VarId, ExprPtr>* mapping)
      : binding_(binding), mapping_(mapping) {}

  ExprPtr rewrite(const ExprPtr& e) {
    if (auto it = memo_.find(e.get()); it != memo_.end()) return it->second;
    ExprPtr result = rewriteNoMemo(e);
    memo_.emplace(e.get(), result);
    return result;
  }

 private:
  ExprPtr rewriteNoMemo(const ExprPtr& e) {
    switch (e->op) {
      case Op::kConst:
      case Op::kConstArray:
        return e;
      case Op::kVar:
        if (binding_ != nullptr && binding_->has(e->var)) {
          return cScalar(binding_->get(e->var).castTo(e->type));
        }
        if (mapping_ != nullptr) {
          if (auto it = mapping_->find(e->var); it != mapping_->end()) {
            assert(!it->second->isArray());
            return castE(it->second, e->type);
          }
        }
        return e;
      case Op::kVarArray:
        if (binding_ != nullptr && binding_->hasArray(e->var)) {
          return cArray(e->type, binding_->getArray(e->var));
        }
        if (mapping_ != nullptr) {
          if (auto it = mapping_->find(e->var); it != mapping_->end()) {
            assert(it->second->isArray() &&
                   it->second->arraySize == e->arraySize);
            return it->second;
          }
        }
        return e;
      default:
        break;
    }
    std::vector<ExprPtr> args;
    args.reserve(e->args.size());
    bool changed = false;
    for (const auto& a : e->args) {
      args.push_back(rewrite(a));
      changed = changed || args.back().get() != a.get();
    }
    if (!changed) return e;
    return rebuild(*e, std::move(args));
  }

  static ExprPtr rebuild(const Expr& e, std::vector<ExprPtr> args) {
    switch (e.op) {
      case Op::kNot: return notE(args[0]);
      case Op::kNeg: return negE(args[0]);
      case Op::kAbs: return absE(args[0]);
      case Op::kCast: return castE(args[0], e.type);
      case Op::kAdd: return castE(addE(args[0], args[1]), e.type);
      case Op::kSub: return castE(subE(args[0], args[1]), e.type);
      case Op::kMul: return castE(mulE(args[0], args[1]), e.type);
      case Op::kDiv: return castE(divE(args[0], args[1]), e.type);
      case Op::kMod: return modE(args[0], args[1]);
      case Op::kMin: return castE(minE(args[0], args[1]), e.type);
      case Op::kMax: return castE(maxE(args[0], args[1]), e.type);
      case Op::kLt: return ltE(args[0], args[1]);
      case Op::kLe: return leE(args[0], args[1]);
      case Op::kGt: return gtE(args[0], args[1]);
      case Op::kGe: return geE(args[0], args[1]);
      case Op::kEq: return eqE(args[0], args[1]);
      case Op::kNe: return neE(args[0], args[1]);
      case Op::kAnd: return andE(args[0], args[1]);
      case Op::kOr: return orE(args[0], args[1]);
      case Op::kXor: return xorE(args[0], args[1]);
      case Op::kIte: {
        // iteE promotes scalar branch types; preserve the original type.
        auto out = iteE(args[0], args[1], args[2]);
        if (!out->isArray() && out->type != e.type) out = castE(out, e.type);
        return out;
      }
      case Op::kSelect: return selectE(args[0], args[1]);
      case Op::kStore: return storeE(args[0], args[1], args[2]);
      default:
        assert(false && "leaf reached in rebuild");
        return args.empty() ? nullptr : args[0];
    }
  }

  const Env* binding_;
  const std::unordered_map<VarId, ExprPtr>* mapping_;
  std::unordered_map<const Expr*, ExprPtr> memo_;
};

}  // namespace

ExprPtr mapSubstitute(const ExprPtr& e, const Env& binding) {
  MapSubstituter s(&binding, nullptr);
  return s.rewrite(e);
}

ExprPtr mapSubstituteExprs(
    const ExprPtr& e, const std::unordered_map<VarId, ExprPtr>& mapping) {
  MapSubstituter s(nullptr, &mapping);
  return s.rewrite(e);
}

}  // namespace stcg::testref
