// HC4 (forward-backward) contraction of a box against a boolean constraint.
//
// Forward pass: evaluate an interval domain for every DAG node under the
// current box, by the per-op rules of interval/transfer.h that the
// interval evaluator and tape executor share. Backward pass: starting
// from "the root must be true", push refined target intervals down
// through inverse operator rules, narrowing variable domains where they
// are reached. Iterated to (approximate) fixpoint. The contractor is
// sound: it never removes a point that could satisfy the constraint, so
// an empty result proves unsatisfiability within the box.
//
// Memo layout: the constructor numbers the goal DAG once (dense node
// indices, children as a flat index array), so each sweep's per-node
// forward domains live in vectors indexed by node. A sweep invalidates
// them by bumping an epoch counter rather than clearing anything: a slot
// holds a domain of the current sweep only when its stamp equals the
// epoch. Forward evaluation stays lazy — an ite whose condition is
// decided evaluates only the taken arm — and an unstamped slot reads as
// the whole line in the backward pass, exactly as an absent map entry
// did, so the contracted boxes do not depend on the memo layout.
//
// The backward pass recurses along paths, so a node shared by k parents
// can be reached k times per sweep (2^k on an `s + s` tower). Each node
// with two or more parents keeps the last target it was narrowed toward
// in a slot of its own, stamped with the epoch like its forward slot,
// and a call that reaches it again in the same sweep with a bit-identical
// target returns at once: every target below it is computed from that
// target and from forward domains the sweep never changes, so the repeat
// would re-apply the same intersections the first call already made (and
// that call returned true, or the sweep would have stopped). A node with
// one parent is reached again only through a parent call that was not
// skipped.
#pragma once

#include <cstdint>
#include <vector>

#include "expr/expr.h"
#include "interval/box.h"
#include "interval/transfer.h"

namespace stcg::interval {

enum class ContractOutcome {
  kShrunk,     // box narrowed (still non-empty)
  kUnchanged,  // fixpoint: nothing narrowed
  kEmpty,      // box proven infeasible for the constraint
};

class Hc4Contractor {
 public:
  /// `goal` must be a boolean-typed expression; contraction enforces
  /// goal == true.
  explicit Hc4Contractor(expr::ExprPtr goal);

  /// Contract `box` in place with up to `maxPasses` forward/backward
  /// sweeps (stops early at fixpoint or emptiness).
  ContractOutcome contract(Box& box, int maxPasses = 3);

  /// Forward-only evaluation of the goal's possible truth values under
  /// `box` (no narrowing). Useful as a cheap infeasibility test.
  [[nodiscard]] Interval forwardEval(const Box& box);

  /// The goal's distinct nodes, numbered by the constructor (node 0 is
  /// the goal): every node the goal mentions, taken ite arms or not.
  [[nodiscard]] int nodeCount() const {
    return static_cast<int>(nodes_.size());
  }
  [[nodiscard]] const expr::Expr& node(int n) const {
    return *nodes_[static_cast<std::size_t>(n)].e;
  }

  /// Test seam: the sweep counter. Sweeps bump it before use; on wrap to
  /// 0 every stamp is cleared, so no slot of an earlier sweep can read
  /// as current.
  [[nodiscard]] std::uint64_t epochForTesting() const { return epoch_; }
  void setEpochForTesting(std::uint64_t epoch) { epoch_ = epoch; }

 private:
  struct Node {
    const expr::Expr* e = nullptr;
    std::uint32_t firstKid = 0;  // e's args are nodes kids_[firstKid..]
    std::int32_t target = -1;    // its targets_ slot if it has 2+ parents
  };
  // Per-node forward memo; `value` is current iff stamp == epoch_.
  struct ScalarSlot {
    Interval value;
    std::uint64_t stamp = 0;
  };
  // A shared node's last backward target; current iff stamp == epoch_.
  struct TargetSlot {
    Interval target;
    std::uint64_t stamp = 0;
  };
  struct ArraySlot {
    ArrayDomain value;
    std::uint64_t stamp = 0;
  };

  // Starts a sweep: invalidates every forward slot.
  void nextEpoch();

  // One forward/backward sweep. Returns kEmpty on proven infeasibility.
  ContractOutcome pass(Box& box);

  // Index of the k-th argument of node `n`.
  [[nodiscard]] int arg(int n, int k) const {
    return kids_[nodes_[static_cast<std::size_t>(n)].firstKid +
                 static_cast<std::size_t>(k)];
  }
  // The node's forward domain of this sweep; the whole line when the
  // sweep never evaluated it (untaken ite arm, array node).
  [[nodiscard]] Interval fwdOf(int n) const {
    const ScalarSlot& s = fwd_[static_cast<std::size_t>(n)];
    return s.stamp == epoch_ ? s.value : Interval::whole();
  }

  Interval forward(int n, const Box& box);
  const ArrayDomain& forwardArray(int n, const Box& box);

  // Narrow through node `n` given that its value must lie in `target`.
  // Returns false if a contradiction (empty domain) was derived.
  bool backward(int n, Interval target, Box& box);

  expr::ExprPtr goal_;       // node 0
  std::vector<Node> nodes_;  // distinct DAG nodes, by index
  std::vector<int> kids_;
  std::vector<ScalarSlot> fwd_;
  std::vector<ArraySlot> fwdArray_;
  std::vector<TargetSlot> targets_;
  std::uint64_t epoch_ = 0;
};

}  // namespace stcg::interval
