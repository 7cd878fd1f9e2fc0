// A box: one interval domain per input variable.
//
// The solver searches boxes; HC4 contracts them. Integer- and bool-typed
// variables keep integral endpoints at all times.
//
// A box is a shared, immutable layout (the variable descriptors and the
// id -> dimension map, fixed at construction) plus its own domains, so
// copying a box to split it copies only the domains.
#pragma once

#include <memory>
#include <vector>

#include "expr/expr.h"
#include "interval/interval.h"

namespace stcg::interval {

class Box {
 public:
  Box() = default;

  /// Build from variable descriptors: each variable starts at its declared
  /// domain [lo, hi] (integral-hulled for int/bool variables).
  explicit Box(const std::vector<expr::VarInfo>& vars);

  /// The variable descriptors; empty for a default-constructed or
  /// moved-from box, which reads as zero-dimensional.
  [[nodiscard]] const std::vector<expr::VarInfo>& vars() const;
  [[nodiscard]] std::size_t dims() const { return domains_.size(); }

  /// Domain of variable `id`. Whole() for unknown ids (conservative).
  [[nodiscard]] Interval domain(expr::VarId id) const;

  /// Intersect the domain of `id` with `iv` (with integral rounding for
  /// discrete variables). Returns false if the domain became empty.
  bool narrow(expr::VarId id, const Interval& iv);

  /// Replace the domain of `id` outright (integral rounding still applies).
  void setDomain(expr::VarId id, const Interval& iv);

  [[nodiscard]] bool isEmpty() const;

  /// Index (into vars()) of the dimension best suited for splitting:
  /// the widest one that still contains more than one representable point.
  /// Returns -1 if no dimension is splittable.
  [[nodiscard]] int splitDimension() const;

  /// Total of interval widths (progress metric for contraction loops).
  [[nodiscard]] double totalWidth() const;

  [[nodiscard]] std::string toString() const;

 private:
  [[nodiscard]] bool isDiscrete(std::size_t dim) const;
  [[nodiscard]] int dimOf(expr::VarId id) const;

  struct Layout {
    std::vector<expr::VarInfo> vars;
    std::vector<int> idToDim;  // VarId -> dimension index or -1
  };
  std::shared_ptr<const Layout> layout_;  // null: zero dimensions
  std::vector<Interval> domains_;
};

}  // namespace stcg::interval
