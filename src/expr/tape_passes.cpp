#include "expr/tape_passes.h"

#include <array>
#include <limits>
#include <numeric>

#include "expr/tape_verify.h"

namespace stcg::expr {

namespace {

constexpr std::int32_t kReadAtInfinity = std::numeric_limits<std::int32_t>::max();

/// Linear-scan scalar slot allocation over an unchanged instruction list.
class SlotAllocator {
 public:
  SlotAllocator(const Tape& tape, const std::vector<SlotRef>& extraLive)
      : t_(tape), extraLive_(extraLive) {}

  OptimizedTape run() {
    out_.stats.instrs = t_.code().size();
    out_.stats.arraySlots = t_.arraySlotCount();
    out_.stats.scalarSlotsBefore = t_.scalarSlotCount();
    allocateScalars();
    assemble();
    return std::move(out_);
  }

 private:
  void allocateScalars() {
    const std::size_t ns = t_.scalarSlotCount();
    const TapeStaticTypes types = analyzeTapeStaticTypes(t_);
    const auto& code = t_.code();

    // Last read per scalar slot; roots, extraLive, constants and
    // variable slots are read "at infinity".
    std::vector<std::int32_t> lastUse(ns, -1);
    for (std::size_t i = 0; i < code.size(); ++i) {
      forEachTapeOperand(code[i], [&](std::int32_t s, bool arr) {
        if (!arr) {
          lastUse[static_cast<std::size_t>(s)] = static_cast<std::int32_t>(i);
        }
      });
    }
    const auto pinScalar = [&](SlotRef r) {
      if (r.valid() && !r.isArray) {
        lastUse[static_cast<std::size_t>(r.slot)] = kReadAtInfinity;
      }
    };
    for (const SlotRef r : t_.rootSlots()) pinScalar(r);
    for (const SlotRef r : extraLive_) pinScalar(r);
    std::vector<std::uint8_t> pinned(ns, 0);
    for (const std::int32_t s : t_.constScalarSlots()) {
      pinned[static_cast<std::size_t>(s)] = 1;
    }
    for (const auto& b : t_.varBindings()) {
      pinned[static_cast<std::size_t>(b.slot)] = 1;
    }

    // Physical assignment. Pinned (const/variable) slots first, in
    // old-slot order; temporaries at their defining instruction, pulling
    // from the free list of their static lane type (type, dynamic).
    physS_.assign(ns, -1);
    std::int32_t next = 0;
    for (std::size_t s = 0; s < ns; ++s) {
      if (pinned[s] != 0) {
        physS_[s] = next++;
        lastUse[s] = kReadAtInfinity;
      }
    }
    std::array<std::vector<std::int32_t>, 6> freeLists;  // [type*2 + dyn]
    const auto freeList = [&](std::size_t s) -> std::vector<std::int32_t>& {
      return freeLists[static_cast<std::size_t>(types.scalarType[s]) * 2 +
                       (types.scalarDynamic[s] != 0 ? 1 : 0)];
    };
    std::vector<std::uint8_t> freed(ns, 0);
    for (std::size_t i = 0; i < code.size(); ++i) {
      const TapeInstr& in = code[i];
      // Free dying operands before allocating dst: every executor fully
      // reads its operands before the store (the batch kernels stage
      // through scratch), so dst may take a same-instruction operand's
      // slot.
      forEachTapeOperand(in, [&](std::int32_t s, bool arr) {
        if (arr) return;
        const auto u = static_cast<std::size_t>(s);
        if (lastUse[u] != static_cast<std::int32_t>(i) || freed[u] != 0) {
          return;
        }
        freed[u] = 1;
        freeList(u).push_back(physS_[u]);
      });
      if (in.arrayResult) continue;
      const auto d = static_cast<std::size_t>(in.dst);
      auto& list = freeList(d);
      if (!list.empty()) {
        physS_[d] = list.back();
        list.pop_back();
        ++out_.stats.slotsReused;
        continue;
      }
      physS_[d] = next++;
    }
    out_.stats.scalarSlotsAfter = static_cast<std::size_t>(next);
  }

  void assemble() {
    auto nt = std::make_shared<Tape>(t_);
    TapeRewriter rw(*nt);
    const auto phys = [&](std::int32_t s) {
      return physS_[static_cast<std::size_t>(s)];
    };

    rw.scalarInit().assign(out_.stats.scalarSlotsAfter, Scalar{});
    for (std::size_t s = 0; s < physS_.size(); ++s) {
      rw.scalarInit()[static_cast<std::size_t>(physS_[s])] =
          t_.scalarInit()[s];
    }
    for (std::int32_t& s : rw.constScalarSlots()) s = phys(s);
    for (TapeVarBinding& b : rw.varBindings()) b.slot = phys(b.slot);
    for (TapeInstr& in : rw.code()) {
      forEachTapeOperand(in, [&](std::int32_t& s, bool arr) {
        if (!arr) s = phys(s);
      });
      if (!in.arrayResult) in.dst = phys(in.dst);
    }
    for (SlotRef& r : rw.rootSlots()) {
      if (r.valid() && !r.isArray) r.slot = phys(r.slot);
    }

    // Remap in the ORIGINAL slot space (producers rewrite saved refs).
    // Array slots never share, so their numbering is unchanged.
    out_.remap.scalar = physS_;
    out_.remap.array.resize(t_.arraySlotCount());
    std::iota(out_.remap.array.begin(), out_.remap.array.end(), 0);
    out_.tape = std::move(nt);
  }

  const Tape& t_;
  const std::vector<SlotRef>& extraLive_;
  OptimizedTape out_;
  std::vector<std::int32_t> physS_;
};

}  // namespace

std::string TapePassStats::summary() const {
  return std::to_string(instrs) + " instrs, " +
         std::to_string(scalarSlotsBefore) + "→" +
         std::to_string(scalarSlotsAfter) + " scalar slots, " +
         std::to_string(arraySlots) + " array slots (" +
         std::to_string(slotsReused) + " reused)";
}

OptimizedTape optimizeTape(const std::shared_ptr<const Tape>& tape,
                           const std::vector<SlotRef>& extraLive) {
  return SlotAllocator(*tape, extraLive).run();
}

}  // namespace stcg::expr
