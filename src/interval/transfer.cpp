#include "interval/transfer.h"

#include <algorithm>
#include <utility>

namespace stcg::interval {

namespace {

/// The elements [first, last] an index interval addresses in an array of
/// `n` elements once clamped into [0, n-1]; the empty range {1, 0} when
/// the array is empty or the index holds no integer.
std::pair<std::size_t, std::size_t> addressed(const Interval& idx,
                                              std::size_t n) {
  const Interval i = idx.integralHull();
  if (i.isEmpty() || n == 0) return {1, 0};
  const auto last = static_cast<double>(n - 1);
  return {static_cast<std::size_t>(std::clamp(i.lo(), 0.0, last)),
          static_cast<std::size_t>(std::clamp(i.hi(), 0.0, last))};
}

}  // namespace

void constArrayI(const std::vector<expr::Scalar>& elems, ArrayDomain& out) {
  out.clear();
  out.reserve(elems.size());
  for (const auto& s : elems) out.push_back(constI(s));
}

Interval selectI(const ArrayDomain& arr, const Interval& idx) {
  const auto [first, last] = addressed(idx, arr.size());
  Interval acc = Interval::empty();
  for (std::size_t i = first; i <= last; ++i) acc = acc.hull(arr[i]);
  return acc;
}

void storeI(ArrayDomain& arr, const Interval& idx, const Interval& val) {
  const auto [first, last] = addressed(idx, arr.size());
  if (first == last) {
    arr[first] = val;  // definite write
    return;
  }
  for (std::size_t i = first; i <= last; ++i) {
    arr[i] = arr[i].hull(val);  // may or may not be written
  }
}

void iteArrayI(const Interval& c, const ArrayDomain& thenArm,
               const ArrayDomain& elseArm, ArrayDomain& out) {
  if (c.isFalse()) {
    out = elseArm;
    return;
  }
  out = thenArm;
  if (c.isTrue()) return;
  for (std::size_t i = 0; i < out.size() && i < elseArm.size(); ++i) {
    out[i] = out[i].hull(elseArm[i]);
  }
}

}  // namespace stcg::interval
