// Batched lockstep tape execution: B environments evaluated per pass.
//
// A BatchTapeExecutor lays the tape's scalar slots out as B-wide lanes in
// structure-of-arrays order (`vals_[slot * B + lane]`), so one walk over
// the instruction sequence evaluates B independent environments. The
// per-instruction dispatch cost of the scalar TapeExecutor — the switch,
// the operand decode, the type promotion — is paid once per instruction
// instead of once per environment. The inner per-lane loops run through
// the runtime-dispatched SIMD lane kernels (expr/simd.h): instructions
// whose operand representations already match the op (all-real
// arithmetic, real comparisons, 0/1 boolean rows, type-aligned scalar
// kIte, identity kCast) execute a kernel straight on the 64-byte-aligned
// SoA rows; mixed-type instructions keep the scratch-convert-store
// fallback, which is identical under every SIMD level.
//
// Bit-identity contract: every lane computes exactly the Scalar the
// scalar TapeExecutor would (same applyUnary/applyBinary/castTo coercions,
// same guarded kDiv/kMod, same clamped kSelect/kStore, same saturating
// real->int conversion). The scalar tape is the differential oracle for
// this executor the same way the tree Evaluator is the oracle for the
// scalar tape; tests/test_batch_tape.cpp fuzzes the equivalence
// lane-for-lane over every Op kind.
//
// How lanes stay cheap without losing Scalar's dynamic typing: payloads
// are stored as raw 64-bit words (bool as 0/1, int64 bit-stored, double
// bit-cast) plus a per-(slot, lane) Type tag. Almost every slot's type is
// statically known — constants carry their own type, variable slots the
// binding's coercion type, and each instruction's result type follows
// from applyUnary/applyBinary (e.g. a comparison is always kBool, kNeg is
// kInt even over kBool input); the derivation is shared with the verifier
// and the JIT (expr/tape_verify.h analyzeTapeStaticTypes). The single
// exception is kSelect: bound arrays keep their elements uncast
// (mirroring setArrayVar), so an element read can have any per-lane type.
// Instructions whose scalar operands are all statically typed run through
// tight typed lane kernels; dynamically typed scalars fall back to a
// per-lane generic path that calls the exact scalar helpers.
//
// Arrays use the same payload-row layout (DESIGN.md §5k): each array slot
// is one ArrayPlane holding contiguous 8-byte payload rows laid out SoA
// across lanes (`pay[elem * lanes + lane]`) plus a compact per-element
// type-tag plane that is only materialized while the plane's element
// types are not uniform (`uni` tracks runtime uniformity; statically
// uniform slots — analyzeTapeStaticTypes — never materialize tags at
// all). kSelect/kStore/array-kIte are index-clamped word moves: a
// whole-plane memcpy or an O(1) buffer swap for the copy half (arrMove_
// dead-after analysis), contiguous lane-row moves for the element half,
// and the LaneKernels sel64 row select for mixed-condition array kIte
// over uniform planes. The vector<Scalar> surface survives only as the
// materializing oracle read `array()`; hot consumers use
// arrayLen()/arrayElem().
//
// When batching is skipped: callers gate on B > 1 (a 1-lane batch is
// strictly more bookkeeping than TapeExecutor), and consumers keep their
// scalar code path for B <= 1 — see DESIGN.md §5f.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "expr/simd.h"
#include "expr/tape.h"
#include "util/aligned.h"

namespace stcg::expr {

/// Counters over the payload-row array paths, accumulated across run()
/// and bind calls (bench_batch_eval exports them per model so a
/// regression on this path shows up in BENCH_batch.json).
struct BatchArrayStats {
  std::uint64_t arrayOps = 0;        // kSelect/kStore/array-kIte executed
  std::uint64_t typedRowOps = 0;     // of those, fully on uniform typed rows
  std::uint64_t wordMoveRows = 0;    // element rows moved as contiguous words
  std::uint64_t stridedRows = 0;     // element rows moved lane-by-lane
  std::uint64_t planeCopies = 0;     // whole-plane payload copies
  std::uint64_t planeSwaps = 0;      // O(1) row-pointer swaps (arrMove_)
  std::uint64_t broadcastBinds = 0;  // setArrayVarBroadcast fan-outs
  std::uint64_t residentRebinds = 0;  // rebindArrayVarFromSlot plane copies

  [[nodiscard]] double typedRowRate() const {
    return arrayOps > 0 ? static_cast<double>(typedRowOps) /
                              static_cast<double>(arrayOps)
                        : 0.0;
  }
  [[nodiscard]] double wordMoveRate() const {
    const std::uint64_t rows = wordMoveRows + stridedRows;
    return rows > 0
               ? static_cast<double>(wordMoveRows) / static_cast<double>(rows)
               : 0.0;
  }
};

class BatchTapeExecutor {
 public:
  /// `lanes` is clamped to >= 1. The tape is shared, never copied.
  BatchTapeExecutor(std::shared_ptr<const Tape> tape, int lanes);

  [[nodiscard]] int lanes() const { return lanes_; }

  /// Bind a scalar variable in one lane (all its typed slots, coerced via
  /// castTo like TapeExecutor::setVar). Unknown ids are ignored.
  void setVar(int lane, VarId id, const Scalar& v);
  /// Typed binds — equivalent to setVar(lane, id, Scalar::r/i/b(v)) with
  /// the Scalar materialization and castTo dispatch folded into direct
  /// payload conversion. These are the overlay engines' hot bind path.
  void setVarReal(int lane, VarId id, double v);
  void setVarInt(int lane, VarId id, std::int64_t v);
  void setVarBool(int lane, VarId id, bool v);
  /// The entries [first, last) of tape().varBindings() that bind `id`
  /// (empty when the tape does not read it). A caller binding the same
  /// variables lane after lane resolves them once and binds through the
  /// setBinding* forms below, which equal setVarReal/Int/Bool restricted
  /// to one binding.
  [[nodiscard]] std::pair<int, int> varBindingRange(VarId id) const;
  void setBindingReal(int lane, int binding, double v);
  void setBindingInt(int lane, int binding, std::int64_t v);
  void setBindingBool(int lane, int binding, bool v);
  /// Bind an array variable in one lane; elements stay uncast.
  void setArrayVar(int lane, VarId id, const std::vector<Scalar>& v);
  /// Bind an array variable identically in EVERY lane: each element is
  /// converted to its payload word once and fanned out with a word-level
  /// row fill — the common replay-reset case where all B lanes start
  /// from the same initial state array. Equivalent to setArrayVar(l, id,
  /// v) for every lane l.
  void setArrayVarBroadcast(VarId id, const std::vector<Scalar>& v);
  /// Rebind an array variable in EVERY lane straight from a computed
  /// array slot's plane — the steady-state replay path, where the value
  /// a caller would bind is exactly the previous run()'s result in `src`
  /// cast to `want` (BatchSimulator's state readback applies
  /// castTo(want), which is the identity when the plane is runtime-
  /// uniform at `want`). Succeeds only in that uniform case, where one
  /// whole-plane word copy is bit-identical to per-lane setArrayVar of
  /// the read-back vectors; otherwise leaves every binding untouched and
  /// returns false so the caller falls back to per-lane Scalar binds.
  bool rebindArrayVarFromSlot(VarId id, SlotRef src, Type want);
  /// Bind every tape variable present in `env` into `lane`.
  void bindEnv(int lane, const Env& env);

  /// Execute the full tape across all lanes. Throws EvalError naming the
  /// first unbound (variable, lane) pair (checked once, like the scalar
  /// executor).
  void run();

  /// Lane views of a result slot. `scalar` materializes the exact Scalar
  /// the scalar executor would hold in that slot; `array` materializes
  /// the exact vector<Scalar> (the oracle surface — differential tests
  /// compare it element-for-element against TapeExecutor::array). Hot
  /// consumers read elements without materializing a vector through
  /// arrayLen()/arrayElem().
  [[nodiscard]] Scalar scalar(SlotRef r, int lane) const;
  [[nodiscard]] std::vector<Scalar> array(SlotRef r, int lane) const;
  [[nodiscard]] std::size_t arrayLen(SlotRef r, int lane) const;
  [[nodiscard]] Scalar arrayElem(SlotRef r, int lane, std::size_t i) const;

  /// Raw coercing reads for overlay engines — identical to
  /// scalar(r, lane).toReal() / .toBool() without materializing a Scalar.
  [[nodiscard]] double scalarToReal(SlotRef r, int lane) const;
  [[nodiscard]] bool scalarToBool(SlotRef r, int lane) const;

  /// Lane-wide coercing reads: out[l] == scalarToReal(r, l) (resp.
  /// scalarToBool, as 0/1) for every lane, with the slot-type switch
  /// hoisted out of the lane loop when the slot is statically typed.
  /// `out` must hold lanes() elements.
  void readReals(SlotRef r, double* out) const;
  void readBools(SlotRef r, std::uint64_t* out) const;

  [[nodiscard]] const Tape& tape() const { return *tape_; }

  /// SIMD level whose kernel table this executor captured at construction
  /// (see expr/simd.h; pin with forceSimdLevel before constructing).
  [[nodiscard]] SimdLevel simdLevel() const { return simdLevel_; }

  /// Array-path counters accumulated since construction (or the last
  /// resetArrayStats()).
  [[nodiscard]] const BatchArrayStats& arrayStats() const { return stats_; }
  void resetArrayStats() { stats_ = BatchArrayStats{}; }

 private:
  /// Execution strategy per instruction, fixed at construction. Dynamic
  /// (kSelect-fed) operands no longer force the per-lane Scalar path:
  /// the coercing loads below resolve each lane's payload through the
  /// types_ row, and every scalar op except the numeric binary group has
  /// a result representation that is independent of its operands' runtime
  /// types (applyUnary keys on the instruction type, comparisons/booleans
  /// /kMod fix their own representation, scalar kIte casts to the
  /// instruction type). Numeric binaries promote over RUNTIME operand
  /// types, so they re-dispatch per run: a lane-uniform type row runs the
  /// typed scratch path, a mixed row falls back to the Scalar walk.
  enum class Kind : std::uint8_t {
    kGeneric,       // per-lane Scalar path (arrays, kSelect/kStore)
    kUnary,         // kNot/kNeg/kAbs/kCast
    kBinary,        // relational/boolean/kMod, or numeric with static types
    kBinaryNumDyn,  // kAdd..kMax with a dynamic operand: runtime re-dispatch
    kIteScalar,     // scalar select
  };

  /// Direct-row kernel per instruction, fixed at construction: when every
  /// operand's static payload representation already matches what the op
  /// consumes (and the store target matches what it produces), the lane
  /// kernel runs straight on the SoA rows — no scratch conversion, no
  /// per-op switch at run time. kNone falls back to the Kind path.
  enum class FastK : std::uint8_t {
    kNone,
    kRAdd, kRSub, kRMul, kRDivG, kRFmin, kRFmax,   // real x real -> real
    kRNeg, kRAbs,                                  // real -> real
    kRCmpLt, kRCmpLe, kRCmpGt, kRCmpGe, kRCmpEq, kRCmpNe,  // real -> 0/1
    kIAdd, kISub, kIMin, kIMax,                    // int-rep x int-rep
    kINeg, kIAbs,                                  // int-rep -> int
    kBAnd, kBOr, kBXor, kBNot,                     // 0/1 rows
    kSel,                                          // scalar kIte, aligned
    kCopy,                                         // identity kCast
  };

  /// One array slot across all lanes: payload rows in element-major SoA
  /// order (`pay[elem * lanes + lane]`, same word conventions as vals_)
  /// plus a tag plane that is authoritative only while `uni < 0`. While
  /// `uni >= 0` every in-range element of every lane has Type(uni) and
  /// the tag bytes are stale (materialized on the uniform->mixed edge).
  /// Growing `cap` appends rows, so existing (elem, lane) indices stay
  /// valid; each plane owns its buffers, so plane<->plane swap is O(1).
  struct ArrayPlane {
    util::AlignedVec<std::uint64_t> pay;
    std::vector<std::uint8_t> tag;   // Type as uint8, [elem * lanes + lane]
    std::vector<std::int32_t> len;   // per-lane element count
    std::int32_t cap = 0;            // allocated element rows (>= 1)
    std::int8_t uni = 1;             // >= 0: Type all elements share; -1 mixed
    bool lensEqual = true;           // all lanes share len[0]
  };

  [[nodiscard]] std::size_t idx(std::int32_t slot, int lane) const {
    return static_cast<std::size_t>(slot) * static_cast<std::size_t>(lanes_) +
           static_cast<std::size_t>(lane);
  }

  [[nodiscard]] Scalar loadScalar(std::int32_t slot, int lane) const;
  void storeScalar(std::int32_t slot, int lane, const Scalar& s);
  void setBindingBits(int lane, int binding, std::uint64_t bits);

  void planeEnsureCap(ArrayPlane& p, std::int32_t elems);
  /// Fill the tag plane with the current uniform type and flip to mixed.
  void planeMaterializeTags(ArrayPlane& p);
  void planeCopy(ArrayPlane& dst, const ArrayPlane& src);
  /// Write `v` into every lane of `p` (payload converted once per
  /// element, then fanned out row-wise).
  void planeBroadcast(ArrayPlane& p, const std::vector<Scalar>& v);
  /// Write `v` into one lane column of `p`, maintaining uni/tags.
  void planeBindLane(ArrayPlane& p, int lane, const std::vector<Scalar>& v);
  [[nodiscard]] Scalar planeElem(const ArrayPlane& p, std::int32_t e,
                                 int lane) const;

  /// Clamp the kSelect/kStore index row in ia_ against per-lane lengths
  /// and report whether all lanes landed on the same element row (its
  /// index via *common). Lengths of 0 clamp to row 0, which planeEnsureCap
  /// keeps allocated (the scalar oracle's behavior on an empty array is
  /// undefined; we stay in-bounds instead of faulting).
  [[nodiscard]] bool clampIndexRow(const ArrayPlane& p, std::int64_t* common);

  void execArraySelect(const TapeInstr& in);
  void execArrayStore(const TapeInstr& in, std::uint8_t mv);
  void execArrayIte(const TapeInstr& in, std::uint8_t mv);

  // Lane-wide coercing loads into scratch (castTo semantics per element).
  void loadReal(std::int32_t slot, double* out) const;
  void loadInt(std::int32_t slot, std::int64_t* out) const;
  void loadBool(std::int32_t slot, std::uint64_t* out) const;  // 0/1
  // Lane-wide stores converting a typed result to the slot's cast target.
  void storeRealAs(std::int32_t dst, Type dstType, const double* in);
  void storeIntAs(std::int32_t dst, Type dstType, const std::int64_t* in);
  void storeBoolAs(std::int32_t dst, Type dstType, const std::uint64_t* in);

  /// True when every lane of `slot` currently holds one type (trivially
  /// so for statically typed slots), reporting it via *t.
  [[nodiscard]] bool rowUniformType(std::int32_t slot, Type* t) const;

  void execGeneric(const TapeInstr& in, std::uint8_t mv);
  void execUnary(const TapeInstr& in);
  void execBinary(const TapeInstr& in);
  /// The kAdd..kMax body of execBinary with the int/real promotion
  /// decided by the caller (statically or from runtime type rows).
  void execBinaryArith(const TapeInstr& in, bool real);
  void execBinaryNumDyn(const TapeInstr& in, std::uint8_t mv);
  void execIteScalar(const TapeInstr& in);
  void execFast(const TapeInstr& in, FastK f);
  void requireAllBound();

  std::shared_ptr<const Tape> tape_;
  int lanes_ = 1;
  SimdLevel simdLevel_ = SimdLevel::kScalar;
  const LaneKernels* kern_ = nullptr;  // table for simdLevel_, never null
  util::AlignedVec<std::uint64_t> vals_;  // [slot * lanes + lane] payload
  std::vector<Type> types_;           // [slot * lanes + lane] payload type
  std::vector<ArrayPlane> planes_;    // per array slot
  std::vector<Type> slotType_;        // static type per scalar slot
  std::vector<std::uint8_t> slotDynamic_;  // 1 = kSelect result slot
  std::vector<Kind> kind_;            // parallel to tape code
  std::vector<FastK> fast_;           // parallel to tape code
  // Parallel to code, kStore / array kIte only: bit0 = the kStore source
  // (or kIte then-arm), bit1 = the kIte else-arm, may be *swapped* into
  // the destination instead of copied — set when that operand slot is
  // instruction-defined, non-root, and this is its final read (see the
  // constructor; valid because run() always executes the full tape).
  std::vector<std::uint8_t> arrMove_;
  std::vector<bool> varBound_;        // [binding * lanes + lane]
  std::vector<bool> arrayBound_;      // [binding * lanes + lane]
  bool checkedBound_ = false;
  BatchArrayStats stats_;
  // Scratch lanes for the typed kernels.
  std::vector<double> ra_, rb_;
  std::vector<std::int64_t> ia_, ib_;
  std::vector<std::uint64_t> ba_, bb_, bc_;
};

}  // namespace stcg::expr
