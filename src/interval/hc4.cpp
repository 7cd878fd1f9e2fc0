#include "interval/hc4.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "expr/node_index.h"
#include "interval/transfer.h"

namespace stcg::interval {

using expr::Expr;
using expr::ExprPtr;
using expr::Op;
using expr::Type;

namespace {

constexpr double kHuge = 1e300;

/// Inclusive upper bound for "strictly less than x" on the given type:
/// the largest integer strictly below x for discrete types (x-1 when x is
/// itself integral, floor(x) otherwise).
double strictBelow(double x, Type t) {
  if (t == Type::kReal) return x;  // closed approximation, still sound
  return std::ceil(x) - 1.0;
}

bool sameBits(const Interval& a, const Interval& b) {
  const double w[] = {a.lo(), a.hi(), b.lo(), b.hi()};
  return std::memcmp(w, w + 2, 2 * sizeof(double)) == 0;
}

double strictAbove(double x, Type t) {
  if (t == Type::kReal) return x;
  return std::floor(x) + 1.0;
}

}  // namespace

Hc4Contractor::Hc4Contractor(ExprPtr goal) : goal_(std::move(goal)) {
  assert(goal_->type == Type::kBool && !goal_->isArray());
  // Breadth-first numbering: node 0 is the goal, and each node's argument
  // indices are appended to kids_ when the node is dequeued. A child with
  // use count 1 has the dequeued node as its only parent (DAG edges never
  // change), so it is reached once and skips the lookup; only shared
  // children go through `shared`, whose numbers map to node indices via
  // sharedNode. Residuals are typically tens to a few hundred nodes;
  // reserving for that skips the first rounds of regrowth.
  constexpr std::size_t kTypicalNodes = 64;
  expr::NodeIndex shared(kTypicalNodes);
  std::vector<int> sharedNode;
  nodes_.reserve(kTypicalNodes);
  kids_.reserve(2 * kTypicalNodes);
  nodes_.push_back({goal_.get(), 0});
  bool anyArray = false;
  std::int32_t sharedCount = 0;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    nodes_[n].firstKid = static_cast<std::uint32_t>(kids_.size());
    for (const auto& a : nodes_[n].e->args) {
      const int next = static_cast<int>(nodes_.size());
      int k = next;
      if (a.use_count() > 1) {
        const auto [j, fresh] = shared.insert(a.get());
        if (fresh) sharedNode.push_back(next);
        k = sharedNode[static_cast<std::size_t>(j)];
      }
      if (k == next) {
        nodes_.push_back({a.get(), 0});
        anyArray = anyArray || a->isArray();
      } else if (nodes_[static_cast<std::size_t>(k)].target < 0) {
        // A second parent: only such nodes get a backward target slot.
        nodes_[static_cast<std::size_t>(k)].target = sharedCount++;
      }
      kids_.push_back(k);
    }
  }
  fwd_.resize(nodes_.size());
  targets_.resize(static_cast<std::size_t>(sharedCount));
  // Array slots only where forwardArray can be reached (state folding
  // leaves most residuals scalar).
  if (anyArray) fwdArray_.resize(nodes_.size());
}

void Hc4Contractor::nextEpoch() {
  if (++epoch_ != 0) return;
  for (auto& s : fwd_) s.stamp = 0;
  for (auto& s : targets_) s.stamp = 0;
  for (auto& s : fwdArray_) s.stamp = 0;
  epoch_ = 1;
}

Interval Hc4Contractor::forwardEval(const Box& box) {
  nextEpoch();
  return forward(0, box);
}

ContractOutcome Hc4Contractor::contract(Box& box, int maxPasses) {
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

ContractOutcome Hc4Contractor::pass(Box& box) {
  nextEpoch();
  const Interval root = forward(0, box);
  if (root.isEmpty() || !root.canBeTrue()) return ContractOutcome::kEmpty;
  if (!backward(0, Interval::boolTrue(), box)) {
    return ContractOutcome::kEmpty;
  }
  if (box.isEmpty()) return ContractOutcome::kEmpty;
  return ContractOutcome::kShrunk;  // caller compares widths
}

Interval Hc4Contractor::forward(int n, const Box& box) {
  ScalarSlot& slot = fwd_[static_cast<std::size_t>(n)];
  if (slot.stamp == epoch_) return slot.value;
  const Expr* e = nodes_[static_cast<std::size_t>(n)].e;
  const auto fa = [&](int k) { return forward(arg(n, k), box); };
  Interval out;
  switch (e->op) {
    case Op::kConst:
      out = constI(e->constVal);
      break;
    case Op::kVar:
      out = box.domain(e->var).intersect(
          declaredDomain(e->type, e->varLo, e->varHi));
      break;
    case Op::kIte: {  // lazy: a decided condition skips the other arm
      const Interval c = fa(0);
      out = transferScalar(Op::kIte, e->type, c,
                           c.isFalse() ? Interval::empty() : fa(1),
                           c.isTrue() ? Interval::empty() : fa(2));
      break;
    }
    case Op::kSelect:
      out = selectI(forwardArray(arg(n, 0), box), fa(1));
      break;
    default: {
      const Interval a = fa(0);
      out = transferScalar(e->op, e->type, a,
                           e->args.size() > 1 ? fa(1) : Interval::empty(),
                           Interval::empty());
      break;
    }
  }
  slot = {out, epoch_};
  return out;
}

const ArrayDomain& Hc4Contractor::forwardArray(int n, const Box& box) {
  ArraySlot& slot = fwdArray_[static_cast<std::size_t>(n)];
  if (slot.stamp == epoch_) return slot.value;
  const Expr* e = nodes_[static_cast<std::size_t>(n)].e;
  // Built in place: the slot keeps its capacity from sweep to sweep, and
  // no argument of `e` shares its slot.
  ArrayDomain& out = slot.value;
  switch (e->op) {
    case Op::kConstArray:
      constArrayI(e->constArray, out);
      break;
    case Op::kVarArray:
      // Array-typed variables carry no box domain. (Reached by the
      // dead-branch verifier, which solves constraints that still
      // contain array state leaves.)
      unboundArray(e->arraySize, out);
      break;
    case Op::kStore:
      out = forwardArray(arg(n, 0), box);
      storeI(out, forward(arg(n, 1), box), forward(arg(n, 2), box));
      break;
    case Op::kIte: {  // lazy, as for scalars
      static const ArrayDomain kSkipped;
      const Interval c = forward(arg(n, 0), box);
      iteArrayI(c, c.isFalse() ? kSkipped : forwardArray(arg(n, 1), box),
                c.isTrue() ? kSkipped : forwardArray(arg(n, 2), box), out);
      break;
    }
    default:
      assert(false && "scalar node reached array forward");
      out.clear();
      break;
  }
  slot.stamp = epoch_;
  return out;
}

bool Hc4Contractor::backward(int n, Interval target, Box& box) {
  if (const std::int32_t t = nodes_[static_cast<std::size_t>(n)].target;
      t >= 0) {
    TargetSlot& last = targets_[static_cast<std::size_t>(t)];
    if (last.stamp == epoch_ && sameBits(last.target, target)) return true;
    last = {target, epoch_};
  }
  const Expr* e = nodes_[static_cast<std::size_t>(n)].e;
  const Interval self = fwdOf(n);
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
      return backward(arg(n, 0), notI(target), box);
    case Op::kNeg:
      return backward(arg(n, 0), negI(target), box);
    case Op::kAbs: {
      const Interval tp = target.intersect(Interval(0.0, kHuge));
      if (tp.isEmpty()) return false;
      return backward(arg(n, 0), tp.hull(negI(tp)), box);
    }
    case Op::kCast: {
      const int a = arg(n, 0);
      if (e->type == Type::kBool) {
        if (target.isFalse()) {
          return backward(a, Interval::point(0.0), box);
        }
        if (target.isTrue()) {
          const Interval fa = fwdOf(a);
          if (fa.isPoint() && fa.lo() == 0.0) return false;
          if (node(a).type == Type::kInt || node(a).type == Type::kBool) {
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
      if (e->type == Type::kInt && node(a).type == Type::kReal) {
        // Truncation: conservative pre-image.
        return backward(a, Interval(target.lo() - 1.0, target.hi() + 1.0),
                        box);
      }
      return backward(a, target, box);
    }
    case Op::kAdd: {
      const int a = arg(n, 0);
      const int b = arg(n, 1);
      if (!backward(a, subI(target, fwdOf(b)), box)) return false;
      return backward(b, subI(target, fwdOf(a)), box);
    }
    case Op::kSub: {
      const int a = arg(n, 0);
      const int b = arg(n, 1);
      if (!backward(a, addI(target, fwdOf(b)), box)) return false;
      return backward(b, subI(fwdOf(a), target), box);
    }
    case Op::kMul: {
      const int a = arg(n, 0);
      const int b = arg(n, 1);
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
      const int a = arg(n, 0);
      const int b = arg(n, 1);
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
      const int a = arg(n, 0);
      const int b = arg(n, 1);
      const Interval fa = fwdOf(a), fb = fwdOf(b);
      Interval at = Interval(target.lo(), kHuge);
      if (target.hi() < fb.lo()) at = at.intersect(target);
      if (!backward(a, at, box)) return false;
      Interval bt = Interval(target.lo(), kHuge);
      if (target.hi() < fa.lo()) bt = bt.intersect(target);
      return backward(b, bt, box);
    }
    case Op::kMax: {
      const int a = arg(n, 0);
      const int b = arg(n, 1);
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
      const int l = arg(n, flip ? 1 : 0);
      const int r = arg(n, flip ? 0 : 1);
      const Interval fl = fwdOf(l), fr = fwdOf(r);
      if (target.isTrue()) {
        // l < r (or <=): l <= strictBelow(fr.hi), r >= strictAbove(fl.lo).
        const double lHi = strict ? strictBelow(fr.hi(), node(l).type) : fr.hi();
        const double rLo = strict ? strictAbove(fl.lo(), node(r).type) : fl.lo();
        if (!backward(l, Interval(-kHuge, lHi), box)) return false;
        return backward(r, Interval(rLo, kHuge), box);
      }
      if (target.isFalse()) {
        // !(l < r) == l >= r;  !(l <= r) == l > r.
        const double lLo = strict ? fr.lo() : strictAbove(fr.lo(), node(l).type);
        const double rHi = strict ? fl.hi() : strictBelow(fl.hi(), node(r).type);
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
      const int a = arg(n, 0);
      const int b = arg(n, 1);
      const Interval fa = fwdOf(a), fb = fwdOf(b);
      if (eqWanted) {
        const Interval both = fa.intersect(fb);
        if (both.isEmpty()) return false;
        if (!backward(a, both, box)) return false;
        return backward(b, both, box);
      }
      // Disequality: only narrow when one side is a point at the other
      // side's integral boundary.
      const auto trimAgainstPoint = [&](int x, const Interval& fx,
                                        const Interval& fpoint) -> bool {
        if (!fpoint.isPoint()) return true;
        if (node(x).type == Type::kReal) return true;
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
      const int a = arg(n, 0);
      const int b = arg(n, 1);
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
      const int a = arg(n, 0);
      const int b = arg(n, 1);
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
      const int a = arg(n, 0);
      const int b = arg(n, 1);
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
      const int c = arg(n, 0);
      const int t = arg(n, 1);
      const int f = arg(n, 2);
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
      const int arrE = arg(n, 0);
      const int idxE = arg(n, 1);
      const ArrayDomain& arr = forwardArray(arrE, box);
      const Interval idx = fwdOf(idxE).integralHull();
      if (arr.empty()) return true;
      const auto len = static_cast<std::int64_t>(arr.size());
      std::int64_t lo = 0, hi = len - 1;
      if (!idx.isEmpty()) {
        lo = static_cast<std::int64_t>(
            std::clamp(idx.lo(), 0.0, static_cast<double>(len - 1)));
        hi = static_cast<std::int64_t>(
            std::clamp(idx.hi(), 0.0, static_cast<double>(len - 1)));
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
          idx.hi() >= static_cast<double>(len) &&
          !arr[static_cast<std::size_t>(len - 1)].intersect(target).isEmpty();
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

}  // namespace stcg::interval
