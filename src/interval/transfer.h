// The forward interval semantics of every expression op, in one place.
//
// Each rule maps the intervals of an op's operands to an interval of its
// result, and is sound: for any concrete operands inside those intervals,
// the concrete result (expr::evaluate) lies inside the rule's result.
// The interval engines differ only in how they walk an expression:
//   - HC4's forward sweep (interval/hc4.h) and the interval evaluator
//     (analysis/interval_eval.h) recurse over the DAG with a memo and
//     evaluate only the taken arm of an ite whose condition is decided;
//   - the interval tape executor (analysis/interval_tape.h) applies the
//     rules in instruction order over slots, one or many lanes at a time.
// All three apply exactly these functions, so under the same variable
// domains they agree bit for bit; tests/test_interval_transfer.cpp holds
// them (and the concrete evaluator) to that.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "expr/expr.h"
#include "interval/interval.h"

namespace stcg::interval {

/// Elementwise domain of an array value.
using ArrayDomain = std::vector<Interval>;

/// A constant's image.
[[nodiscard]] inline Interval constI(const expr::Scalar& s) {
  return Interval::point(s.toReal());
}

/// A constant array's image, built in place (`out` keeps its capacity).
void constArrayI(const std::vector<expr::Scalar>& elems, ArrayDomain& out);

/// The domain a scalar variable declares: [lo, hi], integral-hulled for
/// bool and int. The default for a variable nothing else binds, and the
/// bound HC4 intersects a box domain with.
[[nodiscard]] inline Interval declaredDomain(expr::Type type, double lo,
                                             double hi) {
  const Interval d(lo, hi);
  return type == expr::Type::kReal ? d : d.integralHull();
}

/// An array variable declares no element domain: `size` unknown elements.
inline void unboundArray(std::int64_t size, ArrayDomain& out) {
  out.assign(static_cast<std::size_t>(size), Interval::whole());
}

/// The rule of every scalar-result op that reads only scalar operands
/// (all but kConst, kVar and kSelect). `a`, `b`, `c` are the operands in
/// argument order; ones the op does not read may be anything. For kIte
/// the arm that a decided condition `a` rules out is never read, so a
/// lazy walker may pass it empty. Ops without a rule give whole().
[[nodiscard]] inline Interval transferScalar(expr::Op op, expr::Type type,
                                             const Interval& a,
                                             const Interval& b,
                                             const Interval& c) {
  using expr::Op;
  // Integer division and casts to int truncate toward zero; trunc is
  // monotone, so mapping the endpoints bounds the image.
  const auto trunc = [](const Interval& x) {
    return x.isEmpty() ? x : Interval(std::trunc(x.lo()), std::trunc(x.hi()));
  };
  switch (op) {
    case Op::kNot: return notI(a);
    case Op::kNeg: return negI(a);
    case Op::kAbs: return absI(a);
    case Op::kCast:
      if (type == expr::Type::kBool) {
        // Truthiness of a numeric: 0 -> false, nonzero -> true.
        if (a.isEmpty()) return a;
        if (a.isPoint()) {
          return a.lo() == 0.0 ? Interval::boolFalse() : Interval::boolTrue();
        }
        return a.containsZero() ? Interval::boolUnknown()
                                : Interval::boolTrue();
      }
      return type == expr::Type::kInt ? trunc(a) : a;
    case Op::kAdd: return addI(a, b);
    case Op::kSub: return subI(a, b);
    case Op::kMul: return mulI(a, b);
    case Op::kDiv:
      return type == expr::Type::kInt ? trunc(divI(a, b)) : divI(a, b);
    case Op::kMod: return modI(a, b);
    case Op::kMin: return minI(a, b);
    case Op::kMax: return maxI(a, b);
    case Op::kLt: return ltI(a, b);
    case Op::kLe: return leI(a, b);
    case Op::kGt: return ltI(b, a);
    case Op::kGe: return leI(b, a);
    case Op::kEq: return eqI(a, b);
    case Op::kNe: return notI(eqI(a, b));
    case Op::kAnd: return andI(a, b);
    case Op::kOr: return orI(a, b);
    case Op::kXor: return xorI(a, b);
    case Op::kIte:  // arms already carry the result type: no cast
      if (a.isTrue()) return b;
      if (a.isFalse()) return c;
      return b.hull(c);
    default: return Interval::whole();
  }
}

/// select(arr, idx): the hull of every element `idx` can address. An
/// out-of-range index clamps to the nearest end, as in the concrete
/// semantics. Empty when the array or the integral part of `idx` is.
[[nodiscard]] Interval selectI(const ArrayDomain& arr, const Interval& idx);

/// store(arr, idx, val) in place, with select's clamping: a write the
/// index pins to one element replaces it, one it may or may not make
/// hulls `val` into each element it can reach. An index with no
/// integral point leaves `arr` as is (only an infeasible box has one).
void storeI(ArrayDomain& arr, const Interval& idx, const Interval& val);

/// ite over arrays into `out`: the arm a decided `c` selects, else the
/// elementwise hull of both arms. The arm a decided `c` rules out is
/// never read (a lazy walker may pass an empty domain). `out` may alias
/// `thenArm`, not `elseArm`.
void iteArrayI(const Interval& c, const ArrayDomain& thenArm,
               const ArrayDomain& elseArm, ArrayDomain& out);

}  // namespace stcg::interval
