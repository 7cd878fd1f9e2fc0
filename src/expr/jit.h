// Tape -> native JIT: emit straight-line C from a compiled Tape, build it
// with the system C compiler into a shared object, dlopen it, and run the
// model step (one frame, or B lane frames per call) as native code.
//
// The emitted C is a transliteration of TapeExecutor::exec, one block per
// instruction, specialized on the static slot types analyzeTapeStaticTypes
// derives (the same classification BatchTapeExecutor uses): statically
// typed slots read and write raw 64-bit payloads with no tag dispatch,
// and only the dynamic slots (kSelect over non-uniform arrays) fall back
// to tagged generic helpers that mirror applyUnary/applyBinary. Guarded
// kDiv/kMod, clamped kSelect/kStore and the saturating real->int cast
// (saturatingRealToIntC, the same body as Scalar::toInt) are preserved
// operation for operation, so JIT results are bit-identical to the
// interpreter — which stays on as the differential oracle, the same
// pattern as tape-vs-tree.
//
// Environment robustness is part of the contract: TapeJit::compile never
// throws on environment failures (no compiler, failed dlopen, stale or
// corrupt cached .so). It returns nullptr with a reason, records a
// severity-tagged diagnostic (jitDiagnostics()), and callers degrade to
// the interpreted tape. STCG_JIT=0 disables the JIT process-wide;
// STCG_JIT_CC overrides the compiler command (default "cc");
// STCG_JIT_CACHE overrides the on-disk .so cache directory (default
// "$TMPDIR/stcg-jit-cache"). Compiled modules are
// keyed by a hash of the emitted source, memoized in-process and cached
// on disk with an embedded tag symbol so stale objects are detected,
// discarded and rebuilt instead of trusted.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "expr/eval.h"
#include "expr/tape.h"

namespace stcg::expr {

/// False when STCG_JIT=0 (checked once per process).
[[nodiscard]] bool jitEnabled();

/// The C compiler command: STCG_JIT_CC when set and non-empty, else "cc".
/// Read per compile so tests can redirect it.
[[nodiscard]] std::string jitCompiler();

/// A recorded environment event: compile/load failures ("warning",
/// check "jit-unavailable") and cache recoveries ("note", check
/// "jit-cache"). Severity/check vocabulary matches the lint layer so the
/// CLI can surface them verbatim.
struct JitDiagnostic {
  std::string severity;
  std::string check;
  std::string message;
};
[[nodiscard]] std::vector<JitDiagnostic> jitDiagnostics();
void clearJitDiagnostics();

/// Drop the in-process module memo (testing hook: the next compile() goes
/// back through the on-disk cache and, if needed, the compiler).
void jitClearCache();

/// One compiled native module for one tape. Immutable; shared by any
/// number of JitTapeExecutor frames (and across Simulators of the same
/// model via the in-process memo).
class TapeJit {
 public:
  /// Emit + compile + load. Returns nullptr (with *whyNot set and a
  /// diagnostic recorded) when the JIT is disabled or the toolchain /
  /// cache / loader fails. Environment failures never throw.
  static std::shared_ptr<const TapeJit> compile(
      const std::shared_ptr<const Tape>& tape, std::string* whyNot = nullptr);

  ~TapeJit();
  TapeJit(const TapeJit&) = delete;
  TapeJit& operator=(const TapeJit&) = delete;

  // Frame ABI: scalar payloads sv / scalar type tags st (0=bool 1=int
  // 2=real, the Type enum order), per-array-slot live length an, flat
  // array element payloads ae / tags at with per-slot static offsets
  // baked into the code.
  using Frame = void (*)(std::uint64_t* sv, std::uint8_t* st,
                         std::int64_t* an, std::uint64_t* ae,
                         std::uint8_t* at);
  using LanesFn = void (*)(std::int64_t n, std::uint64_t* sv,
                           std::uint8_t* st, std::int64_t* an,
                           std::uint64_t* ae, std::uint8_t* at);

  [[nodiscard]] Frame step() const { return step_; }
  [[nodiscard]] LanesFn runLanes() const { return lanes_; }

  // Frame geometry (what a JitTapeExecutor must allocate).
  [[nodiscard]] std::size_t scalarSlots() const { return ns_; }
  [[nodiscard]] std::size_t arraySlots() const { return na_; }
  [[nodiscard]] std::int64_t arrayCapacity(std::int32_t slot) const {
    return arrayCap_[static_cast<std::size_t>(slot)];
  }
  [[nodiscard]] std::int64_t arrayOffset(std::int32_t slot) const {
    return arrayOff_[static_cast<std::size_t>(slot)];
  }
  [[nodiscard]] std::int64_t totalArrayCapacity() const { return totalCap_; }

  /// Content hash of the emitted source (cache key; test/debug hook).
  [[nodiscard]] const std::string& sourceHash() const { return hash_; }

 private:
  TapeJit() = default;

  void* handle_ = nullptr;
  Frame step_ = nullptr;
  LanesFn lanes_ = nullptr;
  std::size_t ns_ = 0, na_ = 0;
  std::vector<std::int64_t> arrayCap_, arrayOff_;
  std::int64_t totalCap_ = 0;
  std::string hash_;
};

/// TapeExecutor-shaped frontend over a TapeJit module: owns the slot
/// frame(s), applies the identical setVar/setArrayVar binding coercions,
/// and materializes Scalars back out of the payload/tag pairs. With
/// lanes > 1 it owns lane-major frames (lane l's scalars at sv + l*NS)
/// driven by the module's stcg_run_lanes loop.
class JitTapeExecutor {
 public:
  JitTapeExecutor(std::shared_ptr<const Tape> tape,
                  std::shared_ptr<const TapeJit> jit, int lanes = 1);

  [[nodiscard]] int lanes() const { return lanes_; }
  [[nodiscard]] const Tape& tape() const { return *tape_; }
  [[nodiscard]] const TapeJit& jit() const { return *jit_; }

  /// Lane-0 binds, mirroring TapeExecutor (unknown ids ignored; scalar
  /// binds store v.castTo(binding.type); array elements stay uncast).
  void setVar(VarId id, const Scalar& v) { setVarLane(0, id, v); }
  void setArrayVar(VarId id, const std::vector<Scalar>& v) {
    setArrayVarLane(0, id, v);
  }
  void setVarLane(int lane, VarId id, const Scalar& v);
  void setArrayVarLane(int lane, VarId id, const std::vector<Scalar>& v);
  /// Bind every tape variable present in `env` into lane 0.
  void bindEnv(const Env& env);

  /// Execute the full step natively on lane 0. Throws EvalError naming
  /// the first unbound variable (checked until the first success).
  void run();
  /// Execute lanes [0, n) (n <= lanes()); all of them must be bound.
  void runBatch(int n);

  /// Lane-0 slot reads, materialized from payload + tag.
  [[nodiscard]] Scalar scalar(SlotRef r) const { return scalarLane(0, r); }
  [[nodiscard]] Scalar scalarLane(int lane, SlotRef r) const;
  [[nodiscard]] std::vector<Scalar> array(SlotRef r) const {
    return arrayLane(0, r);
  }
  [[nodiscard]] std::vector<Scalar> arrayLane(int lane, SlotRef r) const;

 private:
  void requireAllBound(int n);
  std::uint64_t* sv(int lane) { return sv_.data() + lane * ns_; }
  std::uint8_t* st(int lane) { return st_.data() + lane * ns_; }
  std::int64_t* an(int lane) { return an_.data() + lane * na_; }
  std::uint64_t* ae(int lane) { return ae_.data() + lane * cap_; }
  std::uint8_t* at(int lane) { return at_.data() + lane * cap_; }

  std::shared_ptr<const Tape> tape_;
  std::shared_ptr<const TapeJit> jit_;
  int lanes_ = 1;
  std::ptrdiff_t ns_ = 0, na_ = 0, cap_ = 0;
  std::vector<std::uint64_t> sv_;
  std::vector<std::uint8_t> st_;
  std::vector<std::int64_t> an_;
  std::vector<std::uint64_t> ae_;
  std::vector<std::uint8_t> at_;
  std::vector<std::uint8_t> varBound_;    // [binding * lanes + lane]
  std::vector<std::uint8_t> arrayBound_;  // [binding * lanes + lane]
  int checkedLanes_ = 0;  // lanes [0, checkedLanes_) verified bound
};

}  // namespace stcg::expr
