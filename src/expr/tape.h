// Tape-compiled evaluation: the expression DAG flattened into a linear
// instruction tape over dense value slots.
//
// The recursive Evaluator pays a pointer chase, a hash-map memo lookup and
// a call frame per DAG node per evaluation. The tape pays all of that once,
// at compile time: a TapeBuilder topologically sorts the DAG into an
// instruction sequence (one instruction per distinct computation, global
// value-numbering CSE across every root added), after which evaluation is a
// single non-recursive switch loop over dense slot vectors — no shared_ptr
// dereferences, no memo hashing, no recursion.
//
// Engines executing the same tape (expr::TapeJit compiles it natively):
//   - TapeExecutor (here): concrete Scalar slots, bit-identical to the
//     tree Evaluator (same applyUnary/applyBinary/castTo calls in the same
//     order, same guarded kDiv/kMod and clamped kSelect/kStore semantics).
//   - analysis::IntervalTapeExecutor: interval slots, one or many lanes,
//     by the per-op rules of interval/transfer.h that IntervalEvaluator
//     and HC4 share (the abstract domain of the reachability pass).
//   - expr::BatchTapeExecutor: B lanes per pass (the simulator's lockstep
//     replay, the box solver's candidate certification, and local search's
//     branch-distance scorer, solver::BatchDistanceTape).
//
// Strictness note: the tree Evaluator throws on an *unbound variable it
// reaches* (kIte arms are lazy); the tape binds eagerly, so run() requires
// every variable of the tape to be bound and throws EvalError otherwise.
// All production callers (simulator, solvers) bind complete environments,
// where the two semantics coincide.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "expr/eval.h"
#include "expr/expr.h"
#include "expr/node_index.h"

namespace stcg::expr {

/// Reference to one tape slot. Scalar and array slots live in disjoint
/// dense index spaces; isArray selects the space.
struct SlotRef {
  std::int32_t slot = -1;
  bool isArray = false;

  [[nodiscard]] bool valid() const { return slot >= 0; }
};

class TapeRewriter;

/// One tape instruction. Operand meaning depends on op:
///   unary (kNot/kNeg/kAbs/kCast)  a = scalar operand
///   binary arith/rel/bool         a, b = scalar operands
///   kIte, scalar result           a = cond, b = then, c = else (scalars)
///   kIte, array result            a = cond (scalar), b/c = arrays
///   kSelect                       a = array, b = index (scalar)
///   kStore                        a = base array, b = index, c = value
/// dst indexes the scalar or array slot space according to arrayResult.
struct TapeInstr {
  Op op = Op::kConst;
  Type type = Type::kReal;  // result type (cast target, as on the DAG node)
  bool arrayResult = false;
  std::int32_t dst = -1;
  std::int32_t a = -1;
  std::int32_t b = -1;
  std::int32_t c = -1;
};

/// A scalar variable's slot: one per distinct (VarId, node type) pair.
/// Binding writes value.castTo(type) into the slot — the same coercion the
/// tree Evaluator applies at every kVar visit.
struct TapeVarBinding {
  VarId var = -1;
  Type type = Type::kReal;
  std::int32_t slot = -1;
  std::string name;
  double lo = 0.0, hi = 0.0;  // declared domain (interval-engine default)
};

/// An array variable's slot (one per VarId).
struct TapeArrayBinding {
  VarId var = -1;
  Type type = Type::kReal;
  int size = 0;
  std::int32_t slot = -1;
  std::string name;
};

/// The immutable compiled tape. Built by TapeBuilder, shared by executors.
class Tape {
 public:
  [[nodiscard]] const std::vector<TapeInstr>& code() const { return code_; }
  [[nodiscard]] std::size_t scalarSlotCount() const {
    return scalarInit_.size();
  }
  [[nodiscard]] std::size_t arraySlotCount() const {
    return arrayInit_.size();
  }

  /// Initial slot images: constants hold their value (never overwritten);
  /// variable and temporary slots hold zero / empty until bound/computed.
  [[nodiscard]] const std::vector<Scalar>& scalarInit() const {
    return scalarInit_;
  }
  [[nodiscard]] const std::vector<std::vector<Scalar>>& arrayInit() const {
    return arrayInit_;
  }
  /// Scalar/array slots holding kConst / kConstArray leaves.
  [[nodiscard]] const std::vector<std::int32_t>& constScalarSlots() const {
    return constScalarSlots_;
  }
  [[nodiscard]] const std::vector<std::int32_t>& constArraySlots() const {
    return constArraySlots_;
  }

  /// Variable bindings, sorted by (var, type) / var.
  [[nodiscard]] const std::vector<TapeVarBinding>& varBindings() const {
    return varBindings_;
  }
  [[nodiscard]] const std::vector<TapeArrayBinding>& arrayBindings() const {
    return arrayBindings_;
  }

  /// Slots handed out by TapeBuilder::addRoot, in call order (duplicates
  /// kept). These are the externally visible reads the slot allocator
  /// must keep live; producers with extra out-of-tape reads (the distance
  /// overlay) pass those separately.
  [[nodiscard]] const std::vector<SlotRef>& rootSlots() const {
    return rootSlots_;
  }

 private:
  friend class TapeBuilder;
  friend class TapeRewriter;

  std::vector<TapeInstr> code_;
  std::vector<Scalar> scalarInit_;
  std::vector<std::vector<Scalar>> arrayInit_;
  std::vector<std::int32_t> constScalarSlots_;
  std::vector<std::int32_t> constArraySlots_;
  std::vector<TapeVarBinding> varBindings_;
  std::vector<TapeArrayBinding> arrayBindings_;
  std::vector<SlotRef> rootSlots_;
  // Roots pinned so slot-keyed references can never dangle (mirrors the
  // Evaluator's pinnedRoots_ contract).
  std::vector<ExprPtr> pinnedRoots_;
};

/// Visit each operand slot of `in` as fn(slot, isArray). Shared by the
/// verifier, the slot allocator and the executors' analyses; on a
/// mutable `in`, fn may take the slot by reference to rewrite it.
template <typename Instr, typename Fn>
void forEachTapeOperand(Instr& in, Fn&& fn) {
  switch (in.op) {
    case Op::kNot:
    case Op::kNeg:
    case Op::kAbs:
    case Op::kCast:
      fn(in.a, false);
      break;
    case Op::kIte:
      fn(in.a, false);
      fn(in.b, in.arrayResult);
      fn(in.c, in.arrayResult);
      break;
    case Op::kSelect:
      fn(in.a, true);
      fn(in.b, false);
      break;
    case Op::kStore:
      fn(in.a, true);
      fn(in.b, false);
      fn(in.c, false);
      break;
    default:  // binary scalar ops
      fn(in.a, false);
      fn(in.b, false);
      break;
  }
}

/// Structural identity: same op, result type/space and operand slots —
/// the value-numbering equivalence the builder's CSE collapses on.
[[nodiscard]] inline bool sameTapeComputation(const TapeInstr& x,
                                              const TapeInstr& y) {
  return x.op == y.op && x.type == y.type && x.arrayResult == y.arrayResult &&
         x.a == y.a && x.b == y.b && x.c == y.c;
}

/// Compiles expression DAGs into a Tape. Add every root first (CSE is
/// global across roots), then finish() — the builder is spent afterwards.
class TapeBuilder {
 public:
  /// Emit `e` (and its whole DAG) onto the tape; returns its slot.
  SlotRef addRoot(const ExprPtr& e);

  /// Slot of an already-emitted node (any node reachable from a root).
  /// Throws EvalError if `e` was never emitted.
  [[nodiscard]] SlotRef slotOf(const Expr* e) const;

  /// Seal the tape: sorts the variable binding tables. The builder must
  /// not be reused afterwards.
  [[nodiscard]] std::shared_ptr<const Tape> finish();

 private:
  SlotRef emitDag(const Expr* root);
  SlotRef assignSlot(const Expr* e);
  std::int32_t newScalarSlot(const Scalar& init);
  std::int32_t newArraySlot(std::vector<Scalar> init);

  std::shared_ptr<Tape> tape_ = std::make_shared<Tape>();
  NodeIndex memo_;              // emitted node -> index into slots_
  std::vector<SlotRef> slots_;  // by memo_ index
  // Value-numbering tables (global CSE): constants by (type, payload
  // bits), scalar vars by (var, type), array vars by var, instructions by
  // (op, type, operand slots).
  std::unordered_map<std::uint64_t, std::int32_t> constSlots_;
  std::unordered_map<std::uint64_t, std::int32_t> varSlots_;
  std::unordered_map<std::int64_t, std::int32_t> arrayVarSlots_;
  std::unordered_map<std::uint64_t, std::vector<std::int32_t>> instrBuckets_;
};

/// Executes a Tape over concrete Scalar slots. Bind every variable the
/// tape mentions (setVar/setArrayVar/bindEnv), then run(); read results
/// through scalar()/array() using the SlotRefs returned at build time.
class TapeExecutor {
 public:
  explicit TapeExecutor(std::shared_ptr<const Tape> tape);

  /// Bind a scalar variable (all its typed slots). Ids the tape does not
  /// mention are ignored — environments may bind more than the tape uses.
  void setVar(VarId id, const Scalar& v);
  void setArrayVar(VarId id, const std::vector<Scalar>& v);

  /// Bind every tape variable present in `env` (missing ones stay
  /// unbound and run() will throw).
  void bindEnv(const Env& env);

  /// Execute the full tape. Throws EvalError naming the first unbound
  /// variable (checked once; later runs skip the scan).
  void run();

  [[nodiscard]] const Scalar& scalar(SlotRef r) const {
    return scalars_[static_cast<std::size_t>(r.slot)];
  }
  [[nodiscard]] const std::vector<Scalar>& array(SlotRef r) const {
    return arrays_[static_cast<std::size_t>(r.slot)];
  }

  [[nodiscard]] const Tape& tape() const { return *tape_; }

 private:
  void exec(const TapeInstr& in);
  void requireAllBound();

  std::shared_ptr<const Tape> tape_;
  std::vector<Scalar> scalars_;
  std::vector<std::vector<Scalar>> arrays_;
  std::vector<bool> varBound_;    // parallel to tape varBindings()
  std::vector<bool> arrayBound_;  // parallel to tape arrayBindings()
  bool checkedBound_ = false;
};

}  // namespace stcg::expr
