// Tape slot allocation.
//
// optimizeTape() takes a freshly built (single-assignment) tape and
// returns the same instruction list over a smaller scalar frame:
// linear-scan slot reuse. Scalar temporaries whose live ranges do not
// overlap share one physical slot, which shrinks both the dense frame
// and the batch executor's B-wide SoA footprint (vals_[slot*B + lane]).
// Free lists are keyed by static lane type (type, dynamic), keeping the
// batch executor's typed-lane layout intact, so each key needs only as
// many slots as it has values live at once. Constants and variables keep
// their own slots, arrays never share (executors alias array operands in
// place), and roots and `extraLive` slots (out-of-tape reads such as the
// distance overlay's interior value taps) are read "at infinity" and are
// never freed.
//
// There is no folding, copy propagation or dead-code pass: the
// expression builder's smart constructors fold constants and hash-cons
// before a tape exists, and TapeBuilder's value numbering merges the
// rest, so those passes found nothing to change on any production tape
// (EXPERIMENTS.md, "Tape optimizer as a slot allocator").
//
// The result carries an old->new slot remap (producers rewrite their
// saved SlotRefs through it) and before/after slot counts. The caller
// keeps the original tape as the differential oracle; tape_verify.h
// checks both.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "expr/tape.h"

namespace stcg::expr {

struct TapePassStats {
  std::size_t instrs = 0;  // unchanged by the allocator
  std::size_t arraySlots = 0;  // never shared, so unchanged too
  std::size_t scalarSlotsBefore = 0, scalarSlotsAfter = 0;
  std::size_t slotsReused = 0;

  [[nodiscard]] bool shrank() const {
    return scalarSlotsAfter < scalarSlotsBefore;
  }
  /// "12 instrs, 10→7 scalar slots, 2 array slots (3 reused)".
  [[nodiscard]] std::string summary() const;
};

/// Old-slot -> new-slot maps (per space). Every slot of a TapeBuilder
/// tape is mapped; -1 comes back only for a ref outside the old space.
struct TapeRemap {
  std::vector<std::int32_t> scalar;
  std::vector<std::int32_t> array;

  [[nodiscard]] SlotRef operator()(SlotRef r) const {
    if (!r.valid()) return r;
    const auto& m = r.isArray ? array : scalar;
    if (static_cast<std::size_t>(r.slot) >= m.size()) return {-1, r.isArray};
    return {m[static_cast<std::size_t>(r.slot)], r.isArray};
  }
};

struct OptimizedTape {
  std::shared_ptr<const Tape> tape;
  TapeRemap remap;
  TapePassStats stats;
};

/// Allocate `tape`'s scalar slots. `tape` must be single-assignment (what
/// TapeBuilder produces); `extraLive` lists slots read outside the tape's
/// roots.
[[nodiscard]] OptimizedTape optimizeTape(
    const std::shared_ptr<const Tape>& tape,
    const std::vector<SlotRef>& extraLive = {});

/// Mutable access to a Tape's internals for the slot allocator and for
/// tests that corrupt tapes to exercise the verifier. Rewriting a tape
/// executors already hold is undefined; rewrite before sharing.
class TapeRewriter {
 public:
  explicit TapeRewriter(Tape& t) : t_(t) {}

  [[nodiscard]] std::vector<TapeInstr>& code() { return t_.code_; }
  [[nodiscard]] std::vector<Scalar>& scalarInit() { return t_.scalarInit_; }
  [[nodiscard]] std::vector<std::int32_t>& constScalarSlots() {
    return t_.constScalarSlots_;
  }
  [[nodiscard]] std::vector<TapeVarBinding>& varBindings() {
    return t_.varBindings_;
  }
  [[nodiscard]] std::vector<SlotRef>& rootSlots() { return t_.rootSlots_; }

 private:
  Tape& t_;
};

}  // namespace stcg::expr
