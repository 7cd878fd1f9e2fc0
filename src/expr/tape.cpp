#include "expr/tape.h"

#include <algorithm>
#include <cstring>

#include "expr/builder.h"

namespace stcg::expr {

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 12) + (h >> 4);
  return h;
}

std::uint64_t scalarBits(const Scalar& s) {
  switch (s.type()) {
    case Type::kBool:
      return s.asBool() ? 1 : 0;
    case Type::kInt:
      return static_cast<std::uint64_t>(s.asInt());
    case Type::kReal: {
      std::uint64_t bits = 0;
      const double d = s.asReal();
      static_assert(sizeof(bits) == sizeof(d));
      std::memcpy(&bits, &d, sizeof(bits));
      return bits;
    }
  }
  return 0;
}

std::uint64_t constKey(const Scalar& s) {
  return mix(static_cast<std::uint64_t>(s.type()) + 1, scalarBits(s));
}

std::uint64_t varKey(VarId var, Type type) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(var)) << 3) |
         static_cast<std::uint64_t>(type);
}

std::uint64_t instrKey(const TapeInstr& in) {
  std::uint64_t h = mix(static_cast<std::uint64_t>(in.op),
                        static_cast<std::uint64_t>(in.type));
  h = mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(in.a)));
  h = mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(in.b)));
  h = mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(in.c)));
  return h;
}

}  // namespace

SlotRef TapeBuilder::addRoot(const ExprPtr& e) {
  if (tape_ == nullptr) {
    throw EvalError("TapeBuilder::addRoot after finish()");
  }
  tape_->pinnedRoots_.push_back(e);
  const SlotRef r = emitDag(e.get());
  tape_->rootSlots_.push_back(r);
  return r;
}

SlotRef TapeBuilder::slotOf(const Expr* e) const {
  const int i = memo_.find(e);
  if (i == NodeIndex::kAbsent) {
    throw EvalError("TapeBuilder::slotOf on a node no root reaches (op " +
                    std::string(opName(e->op)) + ")");
  }
  return slots_[static_cast<std::size_t>(i)];
}

SlotRef TapeBuilder::emitDag(const Expr* root) {
  // Iterative post-order so arbitrarily deep towers (the SLDV-like
  // baseline's unrollings) cannot overflow the stack.
  struct Frame {
    const Expr* e;
    std::size_t next = 0;
  };
  std::vector<Frame> stack;
  if (memo_.find(root) == NodeIndex::kAbsent) stack.push_back({root});
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next < f.e->args.size()) {
      const Expr* child = f.e->args[f.next].get();
      ++f.next;
      if (memo_.find(child) == NodeIndex::kAbsent) stack.push_back({child});
      continue;
    }
    if (memo_.find(f.e) == NodeIndex::kAbsent) {
      const SlotRef r = assignSlot(f.e);
      memo_.insert(f.e);  // numbered slots_.size()
      slots_.push_back(r);
    }
    stack.pop_back();
  }
  return slots_[static_cast<std::size_t>(memo_.find(root))];
}

std::int32_t TapeBuilder::newScalarSlot(const Scalar& init) {
  tape_->scalarInit_.push_back(init);
  return static_cast<std::int32_t>(tape_->scalarInit_.size() - 1);
}

std::int32_t TapeBuilder::newArraySlot(std::vector<Scalar> init) {
  tape_->arrayInit_.push_back(std::move(init));
  return static_cast<std::int32_t>(tape_->arrayInit_.size() - 1);
}

SlotRef TapeBuilder::assignSlot(const Expr* e) {
  switch (e->op) {
    case Op::kConst: {
      const std::uint64_t key = constKey(e->constVal);
      if (const auto it = constSlots_.find(key); it != constSlots_.end()) {
        // Verify against the stored value: on the (astronomically rare)
        // hash collision we allocate a fresh slot instead of merging.
        const auto& cur =
            tape_->scalarInit_[static_cast<std::size_t>(it->second)];
        if (cur == e->constVal) return {it->second, false};
      }
      const std::int32_t slot = newScalarSlot(e->constVal);
      tape_->constScalarSlots_.push_back(slot);
      constSlots_.emplace(key, slot);
      return {slot, false};
    }
    case Op::kConstArray: {
      // Array constants are deduplicated by node identity only (memo_);
      // structurally equal duplicates are rare enough not to chase.
      const std::int32_t slot = newArraySlot(e->constArray);
      tape_->constArraySlots_.push_back(slot);
      return {slot, true};
    }
    case Op::kVar: {
      const std::uint64_t key = varKey(e->var, e->type);
      if (const auto it = varSlots_.find(key); it != varSlots_.end()) {
        return {it->second, false};
      }
      const std::int32_t slot = newScalarSlot(Scalar::i(0));
      tape_->varBindings_.push_back(
          {e->var, e->type, slot, e->varName, e->varLo, e->varHi});
      varSlots_.emplace(key, slot);
      return {slot, false};
    }
    case Op::kVarArray: {
      if (const auto it = arrayVarSlots_.find(e->var);
          it != arrayVarSlots_.end()) {
        return {it->second, true};
      }
      const std::int32_t slot = newArraySlot({});
      tape_->arrayBindings_.push_back(
          {e->var, e->type, e->arraySize, slot, e->varName});
      arrayVarSlots_.emplace(e->var, slot);
      return {slot, true};
    }
    default:
      break;
  }

  TapeInstr in;
  in.op = e->op;
  in.type = e->type;
  in.arrayResult = e->isArray();
  const auto slotOfArg = [&](std::size_t i) {
    return slots_[static_cast<std::size_t>(memo_.find(e->args[i].get()))]
        .slot;
  };
  in.a = slotOfArg(0);
  if (e->args.size() > 1) in.b = slotOfArg(1);
  if (e->args.size() > 2) in.c = slotOfArg(2);

  // Value numbering: structurally identical computations over identical
  // operand slots collapse to one instruction, across all roots.
  const std::uint64_t key = instrKey(in);
  auto& bucket = instrBuckets_[key];
  for (const std::int32_t idx : bucket) {
    const TapeInstr& prev = tape_->code_[static_cast<std::size_t>(idx)];
    if (sameTapeComputation(prev, in)) return {prev.dst, prev.arrayResult};
  }
  in.dst = in.arrayResult ? newArraySlot({}) : newScalarSlot(Scalar::i(0));
  bucket.push_back(static_cast<std::int32_t>(tape_->code_.size()));
  tape_->code_.push_back(in);
  return {in.dst, in.arrayResult};
}

std::shared_ptr<const Tape> TapeBuilder::finish() {
  if (tape_ == nullptr) throw EvalError("TapeBuilder::finish called twice");
  Tape& t = *tape_;
  std::sort(t.varBindings_.begin(), t.varBindings_.end(),
            [](const TapeVarBinding& x, const TapeVarBinding& y) {
              return x.var != y.var ? x.var < y.var : x.type < y.type;
            });
  std::sort(t.arrayBindings_.begin(), t.arrayBindings_.end(),
            [](const TapeArrayBinding& x, const TapeArrayBinding& y) {
              return x.var < y.var;
            });

  std::shared_ptr<const Tape> out = std::move(tape_);
  tape_ = nullptr;
  return out;
}

TapeExecutor::TapeExecutor(std::shared_ptr<const Tape> tape)
    : tape_(std::move(tape)),
      scalars_(tape_->scalarInit()),
      arrays_(tape_->arrayInit()),
      varBound_(tape_->varBindings().size(), false),
      arrayBound_(tape_->arrayBindings().size(), false) {}

void TapeExecutor::setVar(VarId id, const Scalar& v) {
  const auto& bindings = tape_->varBindings();
  auto it = std::lower_bound(
      bindings.begin(), bindings.end(), id,
      [](const TapeVarBinding& b, VarId want) { return b.var < want; });
  for (; it != bindings.end() && it->var == id; ++it) {
    scalars_[static_cast<std::size_t>(it->slot)] = v.castTo(it->type);
    varBound_[static_cast<std::size_t>(it - bindings.begin())] = true;
  }
}

void TapeExecutor::setArrayVar(VarId id, const std::vector<Scalar>& v) {
  const auto& bindings = tape_->arrayBindings();
  auto it = std::lower_bound(
      bindings.begin(), bindings.end(), id,
      [](const TapeArrayBinding& b, VarId want) { return b.var < want; });
  for (; it != bindings.end() && it->var == id; ++it) {
    arrays_[static_cast<std::size_t>(it->slot)] = v;
    arrayBound_[static_cast<std::size_t>(it - bindings.begin())] = true;
  }
}

void TapeExecutor::bindEnv(const Env& env) {
  for (const auto& b : tape_->varBindings()) {
    if (env.has(b.var)) setVar(b.var, env.get(b.var));
  }
  for (const auto& b : tape_->arrayBindings()) {
    if (env.hasArray(b.var)) setArrayVar(b.var, env.getArray(b.var));
  }
}

void TapeExecutor::requireAllBound() {
  if (checkedBound_) return;
  const auto& vb = tape_->varBindings();
  for (std::size_t i = 0; i < vb.size(); ++i) {
    if (!varBound_[i]) {
      throw EvalError("unbound variable '" + vb[i].name + "' (id " +
                      std::to_string(vb[i].var) + ") during tape execution");
    }
  }
  const auto& ab = tape_->arrayBindings();
  for (std::size_t i = 0; i < ab.size(); ++i) {
    if (!arrayBound_[i]) {
      throw EvalError("unbound array variable '" + ab[i].name + "' (id " +
                      std::to_string(ab[i].var) + ") during tape execution");
    }
  }
  checkedBound_ = true;
}

void TapeExecutor::exec(const TapeInstr& in) {
  // Semantics mirror Evaluator::scalarRec / arrayRec exactly (same
  // applyUnary/applyBinary/castTo calls in the same order) so tape values
  // are bit-identical to the tree oracle's.
  switch (in.op) {
    case Op::kNot:
    case Op::kNeg:
    case Op::kAbs:
    case Op::kCast:
      scalars_[static_cast<std::size_t>(in.dst)] = applyUnary(
          in.op, in.type, scalars_[static_cast<std::size_t>(in.a)]);
      break;
    case Op::kIte:
      if (in.arrayResult) {
        arrays_[static_cast<std::size_t>(in.dst)] =
            scalars_[static_cast<std::size_t>(in.a)].toBool()
                ? arrays_[static_cast<std::size_t>(in.b)]
                : arrays_[static_cast<std::size_t>(in.c)];
      } else {
        scalars_[static_cast<std::size_t>(in.dst)] =
            (scalars_[static_cast<std::size_t>(in.a)].toBool()
                 ? scalars_[static_cast<std::size_t>(in.b)]
                 : scalars_[static_cast<std::size_t>(in.c)])
                .castTo(in.type);
      }
      break;
    case Op::kSelect: {
      const auto& arr = arrays_[static_cast<std::size_t>(in.a)];
      auto i = scalars_[static_cast<std::size_t>(in.b)].toInt();
      const auto n = static_cast<std::int64_t>(arr.size());
      if (i < 0) i = 0;
      if (i >= n) i = n - 1;
      scalars_[static_cast<std::size_t>(in.dst)] =
          arr[static_cast<std::size_t>(i)];
      break;
    }
    case Op::kStore: {
      auto& dst = arrays_[static_cast<std::size_t>(in.dst)];
      dst = arrays_[static_cast<std::size_t>(in.a)];
      auto i = scalars_[static_cast<std::size_t>(in.b)].toInt();
      const auto v =
          scalars_[static_cast<std::size_t>(in.c)].castTo(in.type);
      const auto n = static_cast<std::int64_t>(dst.size());
      if (i < 0) i = 0;
      if (i >= n) i = n - 1;
      dst[static_cast<std::size_t>(i)] = v;
      break;
    }
    default:
      scalars_[static_cast<std::size_t>(in.dst)] =
          applyBinary(in.op, scalars_[static_cast<std::size_t>(in.a)],
                      scalars_[static_cast<std::size_t>(in.b)])
              .castTo(in.type);
      break;
  }
}

void TapeExecutor::run() {
  requireAllBound();
  for (const TapeInstr& in : tape_->code()) exec(in);
}

}  // namespace stcg::expr
