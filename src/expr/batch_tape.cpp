#include "expr/batch_tape.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "expr/builder.h"
#include "expr/simd_ops.h"
#include "expr/tape_verify.h"

namespace stcg::expr {

namespace {

inline std::uint64_t realBits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

inline double bitsReal(std::uint64_t u) {
  double d;
  std::memcpy(&d, &u, sizeof(d));
  return d;
}

/// Exactly Scalar::toInt for a real payload (saturating, non-finite -> 0).
inline std::int64_t realToInt(double r) { return saturatingRealToInt(r); }

inline std::uint64_t bitsOf(const Scalar& s) {
  switch (s.type()) {
    case Type::kBool:
      return s.asBool() ? 1 : 0;
    case Type::kInt:
      return static_cast<std::uint64_t>(s.asInt());
    case Type::kReal:
      return realBits(s.asReal());
  }
  return 0;
}

}  // namespace

BatchTapeExecutor::BatchTapeExecutor(std::shared_ptr<const Tape> tape,
                                     int lanes)
    : tape_(std::move(tape)),
      lanes_(lanes < 1 ? 1 : lanes),
      simdLevel_(activeSimdLevel()),
      kern_(&laneKernelsFor(simdLevel_)) {
  const std::size_t ns = tape_->scalarSlotCount();
  const std::size_t na = tape_->arraySlotCount();
  const auto B = static_cast<std::size_t>(lanes_);

  // Static slot typing, shared with the verifier and the JIT
  // (analyzeTapeStaticTypes; see its doc for the per-op derivation).
  // Consuming the per-slot summary in place of a per-program-point walk
  // is sound because array slots are never shared by the optimizer
  // (tape_passes.cpp: "arrays never share") and shared scalar slots only
  // merge writers that agree on (static type, dynamic) — the verifier's
  // checkTape enforces both invariants.
  {
    TapeStaticTypes st0 = analyzeTapeStaticTypes(*tape_);
    slotType_ = std::move(st0.scalarType);
    slotDynamic_ = std::move(st0.scalarDynamic);
  }

  const auto& code = tape_->code();
  kind_.reserve(code.size());
  fast_.reserve(code.size());
  const auto dyn = [&](std::int32_t s) {
    return slotDynamic_[static_cast<std::size_t>(s)] != 0;
  };
  // Static payload representation of an operand row. kBool and kInt lanes
  // share the int representation for loadInt purposes (0/1 payloads are
  // valid int64 bit patterns), which is what makes bool operands eligible
  // for the int kernels.
  const auto st = [&](std::int32_t s) {
    return slotType_[static_cast<std::size_t>(s)];
  };
  const auto intRep = [&](std::int32_t s) { return st(s) != Type::kReal; };
  for (const TapeInstr& in : code) {
    // Dynamic operands are fine everywhere the result representation does
    // not depend on them (see the Kind doc): the coercing loads resolve
    // each lane through its types_ row. Only the numeric binary group
    // promotes over runtime types and needs the re-dispatching kind.
    Kind k = Kind::kGeneric;
    if (!in.arrayResult && in.op != Op::kSelect && in.op != Op::kStore) {
      switch (in.op) {
        case Op::kNot:
        case Op::kNeg:
        case Op::kAbs:
        case Op::kCast:
          k = Kind::kUnary;
          break;
        case Op::kIte:
          k = Kind::kIteScalar;
          break;
        case Op::kAdd:
        case Op::kSub:
        case Op::kMul:
        case Op::kDiv:
        case Op::kMin:
        case Op::kMax:
          k = !dyn(in.a) && !dyn(in.b) ? Kind::kBinary : Kind::kBinaryNumDyn;
          break;
        default:  // comparisons, kAnd/kOr/kXor, kMod
          k = Kind::kBinary;
          break;
      }
    }
    kind_.push_back(k);

    // Direct-row kernel eligibility: the operand rows must already hold
    // the representation the op consumes and the store target must be the
    // representation it produces, so the kernel can skip the scratch
    // convert/store round-trip. Comparison and boolean results stored as
    // kBool or kInt are both raw 0/1 copies, hence `!= kReal` below.
    FastK f = FastK::kNone;
    // Direct-row kernels need the operands' static representation; a
    // dynamic operand resolves per lane through types_, so those
    // instructions stay on the scratch (or re-dispatching) path.
    const bool dynOperand =
        (k == Kind::kBinary && (dyn(in.a) || dyn(in.b))) ||
        (k == Kind::kUnary && dyn(in.a)) ||
        (k == Kind::kIteScalar && (dyn(in.a) || dyn(in.b) || dyn(in.c)));
    switch (dynOperand ? Kind::kGeneric : k) {
      case Kind::kBinary: {
        const bool rr = st(in.a) == Type::kReal && st(in.b) == Type::kReal;
        const bool ii = intRep(in.a) && intRep(in.b);
        switch (in.op) {
          case Op::kAdd:
            if (rr && in.type == Type::kReal) f = FastK::kRAdd;
            else if (ii && in.type == Type::kInt) f = FastK::kIAdd;
            break;
          case Op::kSub:
            if (rr && in.type == Type::kReal) f = FastK::kRSub;
            else if (ii && in.type == Type::kInt) f = FastK::kISub;
            break;
          case Op::kMul:
            if (rr && in.type == Type::kReal) f = FastK::kRMul;
            break;
          case Op::kDiv:
            if (rr && in.type == Type::kReal) f = FastK::kRDivG;
            break;
          case Op::kMin:
            if (rr && in.type == Type::kReal) f = FastK::kRFmin;
            else if (ii && in.type == Type::kInt) f = FastK::kIMin;
            break;
          case Op::kMax:
            if (rr && in.type == Type::kReal) f = FastK::kRFmax;
            else if (ii && in.type == Type::kInt) f = FastK::kIMax;
            break;
          case Op::kLt:
          case Op::kLe:
          case Op::kGt:
          case Op::kGe:
          case Op::kEq:
          case Op::kNe:
            if (rr && in.type != Type::kReal) {
              f = static_cast<FastK>(static_cast<int>(FastK::kRCmpLt) +
                                     simd_detail::cmpIndex(in.op));
            }
            break;
          case Op::kAnd:
            if (st(in.a) == Type::kBool && st(in.b) == Type::kBool &&
                in.type != Type::kReal) {
              f = FastK::kBAnd;
            }
            break;
          case Op::kOr:
            if (st(in.a) == Type::kBool && st(in.b) == Type::kBool &&
                in.type != Type::kReal) {
              f = FastK::kBOr;
            }
            break;
          case Op::kXor:
            if (st(in.a) == Type::kBool && st(in.b) == Type::kBool &&
                in.type != Type::kReal) {
              f = FastK::kBXor;
            }
            break;
          default:  // kMod and friends: scratch path
            break;
        }
        break;
      }
      case Kind::kUnary:
        switch (in.op) {
          case Op::kNot:
            if (st(in.a) == Type::kBool) f = FastK::kBNot;
            break;
          case Op::kNeg:
            if (in.type == Type::kReal && st(in.a) == Type::kReal) {
              f = FastK::kRNeg;
            } else if (in.type != Type::kReal && intRep(in.a)) {
              f = FastK::kINeg;
            }
            break;
          case Op::kAbs:
            if (in.type == Type::kReal && st(in.a) == Type::kReal) {
              f = FastK::kRAbs;
            } else if (in.type != Type::kReal && intRep(in.a)) {
              f = FastK::kIAbs;
            }
            break;
          default:  // kCast: identity when the payload doesn't change
            if (in.type == st(in.a) ||
                (in.type == Type::kInt && st(in.a) == Type::kBool)) {
              f = FastK::kCopy;
            }
            break;
        }
        break;
      case Kind::kIteScalar:
        if (st(in.a) == Type::kBool &&
            ((in.type == Type::kReal && st(in.b) == Type::kReal &&
              st(in.c) == Type::kReal) ||
             (in.type == Type::kInt && intRep(in.b) && intRep(in.c)) ||
             (in.type == Type::kBool && st(in.b) == Type::kBool &&
              st(in.c) == Type::kBool))) {
          f = FastK::kSel;
        }
        break;
      case Kind::kBinaryNumDyn:
      case Kind::kGeneric:
        break;
    }
    fast_.push_back(f);
  }

  // Move-eligibility for the array-copying ops (kStore, array kIte). The
  // per-lane vector copy degrades to an O(1) buffer swap when the consumed
  // array slot (a) is written by an earlier instruction — recomputed on
  // every run; run() always executes the full tape, this executor has no
  // partial cone replay — (b) is not a root (the only slots callers may
  // read after run()), and (c) has no later reader. The stale buffer the
  // swap leaves in the dead slot is overwritten by that slot's defining
  // instruction on the next run before anything reads it. Per-slot (not
  // per-live-range) liveness is conservative under optimizer slot reuse.
  arrMove_.assign(code.size(), 0);
  {
    std::vector<std::int32_t> lastRead(na, -1);
    std::vector<std::uint8_t> isRoot(na, 0);
    for (const SlotRef& r : tape_->rootSlots()) {
      if (r.isArray) isRoot[static_cast<std::size_t>(r.slot)] = 1;
    }
    for (std::size_t i = 0; i < code.size(); ++i) {
      const TapeInstr& in = code[i];
      if (in.op == Op::kSelect || in.op == Op::kStore) {
        lastRead[static_cast<std::size_t>(in.a)] =
            static_cast<std::int32_t>(i);
      } else if (in.op == Op::kIte && in.arrayResult) {
        lastRead[static_cast<std::size_t>(in.b)] =
            static_cast<std::int32_t>(i);
        lastRead[static_cast<std::size_t>(in.c)] =
            static_cast<std::int32_t>(i);
      }
    }
    std::vector<std::uint8_t> defined(na, 0);
    for (std::size_t i = 0; i < code.size(); ++i) {
      const TapeInstr& in = code[i];
      if (in.arrayResult) {
        const auto movable = [&](std::int32_t src) {
          const auto s = static_cast<std::size_t>(src);
          return src != in.dst && defined[s] != 0 && isRoot[s] == 0 &&
                 lastRead[s] == static_cast<std::int32_t>(i);
        };
        if (in.op == Op::kStore) {
          if (movable(in.a)) arrMove_[i] = 1;
        } else if (in.op == Op::kIte && in.b != in.c) {
          arrMove_[i] = static_cast<std::uint8_t>((movable(in.b) ? 1 : 0) |
                                                  (movable(in.c) ? 2 : 0));
        }
        defined[static_cast<std::size_t>(in.dst)] = 1;
      }
    }
  }

  // Lane images. Payload types start at the static slot type so typed
  // kernels and the generic path agree on every slot's representation;
  // non-const slots hold zero until bound/computed (the tape is
  // topologically ordered and run() refuses unbound variables, so those
  // zeros are never observed).
  vals_.assign(ns * B, 0);
  types_.assign(ns * B, Type::kInt);
  const auto& sinit = tape_->scalarInit();
  for (std::size_t s = 0; s < ns; ++s) {
    const std::uint64_t bits =
        bitsOf(sinit[s].castTo(slotType_[s]));  // consts: identity cast
    for (std::size_t l = 0; l < B; ++l) {
      vals_[s * B + l] = bits;
      types_[s * B + l] = slotType_[s];
    }
  }
  planes_.resize(na);
  const auto& ainit = tape_->arrayInit();
  for (std::size_t s = 0; s < na; ++s) {
    planes_[s].len.assign(B, 0);
    planeBroadcast(planes_[s], ainit[s]);
  }

  varBound_.assign(tape_->varBindings().size() * B, false);
  arrayBound_.assign(tape_->arrayBindings().size() * B, false);

  ra_.resize(B);
  rb_.resize(B);
  ia_.resize(B);
  ib_.resize(B);
  ba_.resize(B);
  bb_.resize(B);
  bc_.resize(B);
}

void BatchTapeExecutor::setVar(int lane, VarId id, const Scalar& v) {
  const auto& bindings = tape_->varBindings();
  auto it = std::lower_bound(
      bindings.begin(), bindings.end(), id,
      [](const TapeVarBinding& b, VarId want) { return b.var < want; });
  for (; it != bindings.end() && it->var == id; ++it) {
    // Same coercion as TapeExecutor::setVar; the payload type stays the
    // binding type the slot was initialized with.
    vals_[idx(it->slot, lane)] = bitsOf(v.castTo(it->type));
    varBound_[static_cast<std::size_t>(it - bindings.begin()) *
                  static_cast<std::size_t>(lanes_) +
              static_cast<std::size_t>(lane)] = true;
  }
}

std::pair<int, int> BatchTapeExecutor::varBindingRange(VarId id) const {
  const auto& bindings = tape_->varBindings();
  const auto first = std::lower_bound(
      bindings.begin(), bindings.end(), id,
      [](const TapeVarBinding& b, VarId want) { return b.var < want; });
  auto last = first;
  while (last != bindings.end() && last->var == id) ++last;
  return {static_cast<int>(first - bindings.begin()),
          static_cast<int>(last - bindings.begin())};
}

void BatchTapeExecutor::setBindingBits(int lane, int binding,
                                       std::uint64_t bits) {
  const auto b = static_cast<std::size_t>(binding);
  vals_[idx(tape_->varBindings()[b].slot, lane)] = bits;
  varBound_[b * static_cast<std::size_t>(lanes_) +
            static_cast<std::size_t>(lane)] = true;
}

void BatchTapeExecutor::setBindingReal(int lane, int binding, double v) {
  // Payload of Scalar::r(v).castTo(binding type), computed directly.
  std::uint64_t bits = 0;
  switch (tape_->varBindings()[static_cast<std::size_t>(binding)].type) {
    case Type::kReal: bits = realBits(v); break;
    case Type::kInt: bits = static_cast<std::uint64_t>(realToInt(v)); break;
    case Type::kBool: bits = v != 0.0 ? 1 : 0; break;
  }
  setBindingBits(lane, binding, bits);
}

void BatchTapeExecutor::setBindingInt(int lane, int binding, std::int64_t v) {
  std::uint64_t bits = 0;
  switch (tape_->varBindings()[static_cast<std::size_t>(binding)].type) {
    case Type::kInt: bits = static_cast<std::uint64_t>(v); break;
    case Type::kReal: bits = realBits(static_cast<double>(v)); break;
    case Type::kBool: bits = v != 0 ? 1 : 0; break;
  }
  setBindingBits(lane, binding, bits);
}

void BatchTapeExecutor::setBindingBool(int lane, int binding, bool v) {
  std::uint64_t bits = 0;
  switch (tape_->varBindings()[static_cast<std::size_t>(binding)].type) {
    case Type::kBool:
    case Type::kInt: bits = v ? 1 : 0; break;
    case Type::kReal: bits = realBits(v ? 1.0 : 0.0); break;
  }
  setBindingBits(lane, binding, bits);
}

void BatchTapeExecutor::setVarReal(int lane, VarId id, double v) {
  const auto [first, last] = varBindingRange(id);
  for (int b = first; b < last; ++b) setBindingReal(lane, b, v);
}

void BatchTapeExecutor::setVarInt(int lane, VarId id, std::int64_t v) {
  const auto [first, last] = varBindingRange(id);
  for (int b = first; b < last; ++b) setBindingInt(lane, b, v);
}

void BatchTapeExecutor::setVarBool(int lane, VarId id, bool v) {
  const auto [first, last] = varBindingRange(id);
  for (int b = first; b < last; ++b) setBindingBool(lane, b, v);
}

void BatchTapeExecutor::setArrayVar(int lane, VarId id,
                                    const std::vector<Scalar>& v) {
  const auto& bindings = tape_->arrayBindings();
  auto it = std::lower_bound(
      bindings.begin(), bindings.end(), id,
      [](const TapeArrayBinding& b, VarId want) { return b.var < want; });
  for (; it != bindings.end() && it->var == id; ++it) {
    planeBindLane(planes_[static_cast<std::size_t>(it->slot)], lane, v);
    arrayBound_[static_cast<std::size_t>(it - bindings.begin()) *
                    static_cast<std::size_t>(lanes_) +
                static_cast<std::size_t>(lane)] = true;
  }
}

void BatchTapeExecutor::setArrayVarBroadcast(VarId id,
                                             const std::vector<Scalar>& v) {
  const auto& bindings = tape_->arrayBindings();
  auto it = std::lower_bound(
      bindings.begin(), bindings.end(), id,
      [](const TapeArrayBinding& b, VarId want) { return b.var < want; });
  const auto B = static_cast<std::size_t>(lanes_);
  for (; it != bindings.end() && it->var == id; ++it) {
    planeBroadcast(planes_[static_cast<std::size_t>(it->slot)], v);
    const std::size_t base =
        static_cast<std::size_t>(it - bindings.begin()) * B;
    for (std::size_t l = 0; l < B; ++l) arrayBound_[base + l] = true;
    ++stats_.broadcastBinds;
  }
}

bool BatchTapeExecutor::rebindArrayVarFromSlot(VarId id, SlotRef src,
                                               Type want) {
  if (!src.valid() || !src.isArray) return false;
  const ArrayPlane& sp = planes_[static_cast<std::size_t>(src.slot)];
  if (sp.uni != static_cast<std::int8_t>(want)) return false;
  const auto& bindings = tape_->arrayBindings();
  auto it = std::lower_bound(
      bindings.begin(), bindings.end(), id,
      [](const TapeArrayBinding& b, VarId v) { return b.var < v; });
  const auto B = static_cast<std::size_t>(lanes_);
  for (; it != bindings.end() && it->var == id; ++it) {
    ArrayPlane& dp = planes_[static_cast<std::size_t>(it->slot)];
    if (&dp != &sp) planeCopy(dp, sp);
    const std::size_t base =
        static_cast<std::size_t>(it - bindings.begin()) * B;
    for (std::size_t l = 0; l < B; ++l) arrayBound_[base + l] = true;
    ++stats_.residentRebinds;
  }
  return true;
}

void BatchTapeExecutor::bindEnv(int lane, const Env& env) {
  for (const auto& b : tape_->varBindings()) {
    if (env.has(b.var)) setVar(lane, b.var, env.get(b.var));
  }
  for (const auto& b : tape_->arrayBindings()) {
    if (env.hasArray(b.var)) setArrayVar(lane, b.var, env.getArray(b.var));
  }
}

void BatchTapeExecutor::requireAllBound() {
  if (checkedBound_) return;
  const auto B = static_cast<std::size_t>(lanes_);
  const auto& vb = tape_->varBindings();
  for (std::size_t i = 0; i < vb.size(); ++i) {
    for (std::size_t l = 0; l < B; ++l) {
      if (!varBound_[i * B + l]) {
        throw EvalError("unbound variable '" + vb[i].name + "' (id " +
                        std::to_string(vb[i].var) + ") in lane " +
                        std::to_string(l) + " during batch tape execution");
      }
    }
  }
  const auto& ab = tape_->arrayBindings();
  for (std::size_t i = 0; i < ab.size(); ++i) {
    for (std::size_t l = 0; l < B; ++l) {
      if (!arrayBound_[i * B + l]) {
        throw EvalError("unbound array variable '" + ab[i].name + "' (id " +
                        std::to_string(ab[i].var) + ") in lane " +
                        std::to_string(l) + " during batch tape execution");
      }
    }
  }
  checkedBound_ = true;
}

Scalar BatchTapeExecutor::loadScalar(std::int32_t slot, int lane) const {
  const std::size_t k = idx(slot, lane);
  switch (types_[k]) {
    case Type::kBool:
      return Scalar::b(vals_[k] != 0);
    case Type::kInt:
      return Scalar::i(static_cast<std::int64_t>(vals_[k]));
    case Type::kReal:
      return Scalar::r(bitsReal(vals_[k]));
  }
  return Scalar();
}

void BatchTapeExecutor::storeScalar(std::int32_t slot, int lane,
                                    const Scalar& s) {
  const std::size_t k = idx(slot, lane);
  vals_[k] = bitsOf(s);
  types_[k] = s.type();
}

void BatchTapeExecutor::loadReal(std::int32_t slot, double* out) const {
  const std::uint64_t* v = &vals_[idx(slot, 0)];
  const int B = lanes_;
  if (slotDynamic_[static_cast<std::size_t>(slot)] != 0) {
    // kSelect-fed slot: the types_ row is authoritative per lane; this is
    // Scalar::toReal applied to each lane's payload.
    const Type* t = &types_[idx(slot, 0)];
    for (int l = 0; l < B; ++l) {
      switch (t[l]) {
        case Type::kBool: out[l] = static_cast<double>(v[l]); break;
        case Type::kInt:
          out[l] = static_cast<double>(static_cast<std::int64_t>(v[l]));
          break;
        case Type::kReal: out[l] = bitsReal(v[l]); break;
      }
    }
    return;
  }
  switch (slotType_[static_cast<std::size_t>(slot)]) {
    case Type::kBool:
      for (int l = 0; l < B; ++l) out[l] = static_cast<double>(v[l]);
      break;
    case Type::kInt:
      for (int l = 0; l < B; ++l) {
        out[l] = static_cast<double>(static_cast<std::int64_t>(v[l]));
      }
      break;
    case Type::kReal:
      for (int l = 0; l < B; ++l) out[l] = bitsReal(v[l]);
      break;
  }
}

void BatchTapeExecutor::loadInt(std::int32_t slot, std::int64_t* out) const {
  const std::uint64_t* v = &vals_[idx(slot, 0)];
  const int B = lanes_;
  if (slotDynamic_[static_cast<std::size_t>(slot)] != 0) {
    const Type* t = &types_[idx(slot, 0)];
    for (int l = 0; l < B; ++l) {
      out[l] = t[l] == Type::kReal ? realToInt(bitsReal(v[l]))
                                   : static_cast<std::int64_t>(v[l]);
    }
    return;
  }
  switch (slotType_[static_cast<std::size_t>(slot)]) {
    case Type::kBool:
    case Type::kInt:
      for (int l = 0; l < B; ++l) out[l] = static_cast<std::int64_t>(v[l]);
      break;
    case Type::kReal:
      for (int l = 0; l < B; ++l) out[l] = realToInt(bitsReal(v[l]));
      break;
  }
}

void BatchTapeExecutor::loadBool(std::int32_t slot, std::uint64_t* out) const {
  const std::uint64_t* v = &vals_[idx(slot, 0)];
  const int B = lanes_;
  if (slotDynamic_[static_cast<std::size_t>(slot)] != 0) {
    const Type* t = &types_[idx(slot, 0)];
    for (int l = 0; l < B; ++l) {
      switch (t[l]) {
        case Type::kBool: out[l] = v[l]; break;
        case Type::kInt: out[l] = v[l] != 0 ? 1 : 0; break;
        // Compare as double, not bits: -0.0 is false.
        case Type::kReal: out[l] = bitsReal(v[l]) != 0.0 ? 1 : 0; break;
      }
    }
    return;
  }
  switch (slotType_[static_cast<std::size_t>(slot)]) {
    case Type::kBool:
      for (int l = 0; l < B; ++l) out[l] = v[l];
      break;
    case Type::kInt:
      for (int l = 0; l < B; ++l) out[l] = v[l] != 0 ? 1 : 0;
      break;
    case Type::kReal:
      // Compare as double, not bits: -0.0 is false.
      for (int l = 0; l < B; ++l) out[l] = bitsReal(v[l]) != 0.0 ? 1 : 0;
      break;
  }
}

void BatchTapeExecutor::storeRealAs(std::int32_t dst, Type dstType,
                                    const double* in) {
  std::uint64_t* out = &vals_[idx(dst, 0)];
  const int B = lanes_;
  switch (dstType) {
    case Type::kReal:
      for (int l = 0; l < B; ++l) out[l] = realBits(in[l]);
      break;
    case Type::kInt:
      for (int l = 0; l < B; ++l) {
        out[l] = static_cast<std::uint64_t>(realToInt(in[l]));
      }
      break;
    case Type::kBool:
      for (int l = 0; l < B; ++l) out[l] = in[l] != 0.0 ? 1 : 0;
      break;
  }
}

void BatchTapeExecutor::storeIntAs(std::int32_t dst, Type dstType,
                                   const std::int64_t* in) {
  std::uint64_t* out = &vals_[idx(dst, 0)];
  const int B = lanes_;
  switch (dstType) {
    case Type::kInt:
      for (int l = 0; l < B; ++l) out[l] = static_cast<std::uint64_t>(in[l]);
      break;
    case Type::kReal:
      for (int l = 0; l < B; ++l) {
        out[l] = realBits(static_cast<double>(in[l]));
      }
      break;
    case Type::kBool:
      for (int l = 0; l < B; ++l) out[l] = in[l] != 0 ? 1 : 0;
      break;
  }
}

void BatchTapeExecutor::storeBoolAs(std::int32_t dst, Type dstType,
                                    const std::uint64_t* in) {
  std::uint64_t* out = &vals_[idx(dst, 0)];
  const int B = lanes_;
  switch (dstType) {
    case Type::kBool:
    case Type::kInt:
      for (int l = 0; l < B; ++l) out[l] = in[l];
      break;
    case Type::kReal:
      for (int l = 0; l < B; ++l) {
        out[l] = realBits(static_cast<double>(in[l]));
      }
      break;
  }
}

void BatchTapeExecutor::execUnary(const TapeInstr& in) {
  const int B = lanes_;
  switch (in.op) {
    case Op::kNot:
      loadBool(in.a, ba_.data());
      for (int l = 0; l < B; ++l) ba_[static_cast<std::size_t>(l)] ^= 1;
      storeBoolAs(in.dst, Type::kBool, ba_.data());
      break;
    case Op::kNeg:
      if (in.type == Type::kReal) {
        loadReal(in.a, ra_.data());
        for (int l = 0; l < B; ++l) {
          ra_[static_cast<std::size_t>(l)] = -ra_[static_cast<std::size_t>(l)];
        }
        storeRealAs(in.dst, Type::kReal, ra_.data());
      } else {
        loadInt(in.a, ia_.data());
        for (int l = 0; l < B; ++l) {
          ia_[static_cast<std::size_t>(l)] = -ia_[static_cast<std::size_t>(l)];
        }
        storeIntAs(in.dst, Type::kInt, ia_.data());
      }
      break;
    case Op::kAbs:
      if (in.type == Type::kReal) {
        loadReal(in.a, ra_.data());
        for (int l = 0; l < B; ++l) {
          ra_[static_cast<std::size_t>(l)] =
              std::fabs(ra_[static_cast<std::size_t>(l)]);
        }
        storeRealAs(in.dst, Type::kReal, ra_.data());
      } else {
        loadInt(in.a, ia_.data());
        for (int l = 0; l < B; ++l) {
          auto& x = ia_[static_cast<std::size_t>(l)];
          x = x < 0 ? -x : x;
        }
        storeIntAs(in.dst, Type::kInt, ia_.data());
      }
      break;
    default:  // kCast
      switch (in.type) {
        case Type::kReal:
          loadReal(in.a, ra_.data());
          storeRealAs(in.dst, Type::kReal, ra_.data());
          break;
        case Type::kInt:
          loadInt(in.a, ia_.data());
          storeIntAs(in.dst, Type::kInt, ia_.data());
          break;
        case Type::kBool:
          loadBool(in.a, ba_.data());
          storeBoolAs(in.dst, Type::kBool, ba_.data());
          break;
      }
      break;
  }
}

void BatchTapeExecutor::execBinaryArith(const TapeInstr& in, bool real) {
  const int B = lanes_;
  if (real) {
    loadReal(in.a, ra_.data());
    loadReal(in.b, rb_.data());
    double* a = ra_.data();
    const double* b = rb_.data();
    switch (in.op) {
      case Op::kAdd:
        for (int l = 0; l < B; ++l) a[l] += b[l];
        break;
      case Op::kSub:
        for (int l = 0; l < B; ++l) a[l] -= b[l];
        break;
      case Op::kMul:
        for (int l = 0; l < B; ++l) a[l] *= b[l];
        break;
      case Op::kDiv:
        for (int l = 0; l < B; ++l) {
          a[l] = b[l] == 0.0 ? 0.0 : a[l] / b[l];
        }
        break;
      case Op::kMin:
        for (int l = 0; l < B; ++l) a[l] = std::fmin(a[l], b[l]);
        break;
      default:
        for (int l = 0; l < B; ++l) a[l] = std::fmax(a[l], b[l]);
        break;
    }
    storeRealAs(in.dst, in.type, a);
  } else {
    loadInt(in.a, ia_.data());
    loadInt(in.b, ib_.data());
    std::int64_t* a = ia_.data();
    const std::int64_t* b = ib_.data();
    switch (in.op) {
      case Op::kAdd:
        for (int l = 0; l < B; ++l) a[l] += b[l];
        break;
      case Op::kSub:
        for (int l = 0; l < B; ++l) a[l] -= b[l];
        break;
      case Op::kMul:
        for (int l = 0; l < B; ++l) a[l] *= b[l];
        break;
      case Op::kDiv:
        for (int l = 0; l < B; ++l) a[l] = b[l] == 0 ? 0 : a[l] / b[l];
        break;
      case Op::kMin:
        for (int l = 0; l < B; ++l) a[l] = std::min(a[l], b[l]);
        break;
      default:
        for (int l = 0; l < B; ++l) a[l] = std::max(a[l], b[l]);
        break;
    }
    storeIntAs(in.dst, in.type, a);
  }
}

bool BatchTapeExecutor::rowUniformType(std::int32_t slot, Type* t) const {
  if (slotDynamic_[static_cast<std::size_t>(slot)] == 0) {
    *t = slotType_[static_cast<std::size_t>(slot)];
    return true;
  }
  const Type* row = &types_[idx(slot, 0)];
  for (int l = 1; l < lanes_; ++l) {
    if (row[l] != row[0]) return false;
  }
  *t = row[0];
  return true;
}

void BatchTapeExecutor::execBinaryNumDyn(const TapeInstr& in,
                                         std::uint8_t mv) {
  // applyBinary promotes over the RUNTIME operand types. When each
  // dynamic operand's type row is lane-uniform the whole row shares one
  // promotion, so the typed scratch path computes exactly the per-lane
  // Scalar results; a mixed row keeps the Scalar walk.
  Type ta{};
  Type tb{};
  if (!rowUniformType(in.a, &ta) || !rowUniformType(in.b, &tb)) {
    execGeneric(in, mv);
    return;
  }
  const Type nt = promote(ta == Type::kBool ? Type::kInt : ta,
                          tb == Type::kBool ? Type::kInt : tb);
  execBinaryArith(in, nt == Type::kReal);
}

void BatchTapeExecutor::execBinary(const TapeInstr& in) {
  const int B = lanes_;
  switch (in.op) {
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kMin:
    case Op::kMax: {
      const Type ta = slotType_[static_cast<std::size_t>(in.a)];
      const Type tb = slotType_[static_cast<std::size_t>(in.b)];
      const Type nt = promote(ta == Type::kBool ? Type::kInt : ta,
                              tb == Type::kBool ? Type::kInt : tb);
      execBinaryArith(in, nt == Type::kReal);
      break;
    }
    case Op::kMod:
      // applyBinary routes kMod through toInt regardless of promotion.
      loadInt(in.a, ia_.data());
      loadInt(in.b, ib_.data());
      for (int l = 0; l < B; ++l) {
        auto& a = ia_[static_cast<std::size_t>(l)];
        const auto b = ib_[static_cast<std::size_t>(l)];
        a = b == 0 ? 0 : a % b;
      }
      storeIntAs(in.dst, in.type, ia_.data());
      break;
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe:
    case Op::kEq:
    case Op::kNe: {
      // Comparisons always go through toReal, like applyBinary.
      loadReal(in.a, ra_.data());
      loadReal(in.b, rb_.data());
      const double* a = ra_.data();
      const double* b = rb_.data();
      std::uint64_t* o = ba_.data();
      switch (in.op) {
        case Op::kLt:
          for (int l = 0; l < B; ++l) o[l] = a[l] < b[l] ? 1 : 0;
          break;
        case Op::kLe:
          for (int l = 0; l < B; ++l) o[l] = a[l] <= b[l] ? 1 : 0;
          break;
        case Op::kGt:
          for (int l = 0; l < B; ++l) o[l] = a[l] > b[l] ? 1 : 0;
          break;
        case Op::kGe:
          for (int l = 0; l < B; ++l) o[l] = a[l] >= b[l] ? 1 : 0;
          break;
        case Op::kEq:
          for (int l = 0; l < B; ++l) o[l] = a[l] == b[l] ? 1 : 0;
          break;
        default:
          for (int l = 0; l < B; ++l) o[l] = a[l] != b[l] ? 1 : 0;
          break;
      }
      storeBoolAs(in.dst, in.type, o);
      break;
    }
    default: {  // kAnd / kOr / kXor over 0/1 lanes
      loadBool(in.a, ba_.data());
      loadBool(in.b, bb_.data());
      std::uint64_t* a = ba_.data();
      const std::uint64_t* b = bb_.data();
      switch (in.op) {
        case Op::kAnd:
          for (int l = 0; l < B; ++l) a[l] &= b[l];
          break;
        case Op::kOr:
          for (int l = 0; l < B; ++l) a[l] |= b[l];
          break;
        default:
          for (int l = 0; l < B; ++l) a[l] ^= b[l];
          break;
      }
      storeBoolAs(in.dst, in.type, a);
      break;
    }
  }
}

void BatchTapeExecutor::execIteScalar(const TapeInstr& in) {
  const int B = lanes_;
  loadBool(in.a, bc_.data());
  const std::uint64_t* c = bc_.data();
  // Converting both arms to the cast target and then selecting equals
  // selecting the Scalar first and casting it, per lane.
  switch (in.type) {
    case Type::kReal:
      loadReal(in.b, ra_.data());
      loadReal(in.c, rb_.data());
      for (int l = 0; l < B; ++l) {
        ra_[static_cast<std::size_t>(l)] =
            c[l] != 0 ? ra_[static_cast<std::size_t>(l)]
                      : rb_[static_cast<std::size_t>(l)];
      }
      storeRealAs(in.dst, Type::kReal, ra_.data());
      break;
    case Type::kInt:
      loadInt(in.b, ia_.data());
      loadInt(in.c, ib_.data());
      for (int l = 0; l < B; ++l) {
        ia_[static_cast<std::size_t>(l)] =
            c[l] != 0 ? ia_[static_cast<std::size_t>(l)]
                      : ib_[static_cast<std::size_t>(l)];
      }
      storeIntAs(in.dst, Type::kInt, ia_.data());
      break;
    case Type::kBool:
      loadBool(in.b, ba_.data());
      loadBool(in.c, bb_.data());
      for (int l = 0; l < B; ++l) {
        ba_[static_cast<std::size_t>(l)] =
            c[l] != 0 ? ba_[static_cast<std::size_t>(l)]
                      : bb_[static_cast<std::size_t>(l)];
      }
      storeBoolAs(in.dst, Type::kBool, ba_.data());
      break;
  }
}

void BatchTapeExecutor::planeEnsureCap(ArrayPlane& p, std::int32_t elems) {
  if (elems < 1) elems = 1;  // keep row 0 allocated for empty-array clamps
  if (elems <= p.cap) return;
  const auto B = static_cast<std::size_t>(lanes_);
  p.pay.resize(static_cast<std::size_t>(elems) * B, 0);
  p.tag.resize(static_cast<std::size_t>(elems) * B,
               static_cast<std::uint8_t>(Type::kInt));
  p.cap = elems;
}

void BatchTapeExecutor::planeMaterializeTags(ArrayPlane& p) {
  std::memset(p.tag.data(), p.uni, p.tag.size());
  p.uni = -1;
}

void BatchTapeExecutor::planeCopy(ArrayPlane& dst, const ArrayPlane& src) {
  ++stats_.planeCopies;
  const int B = lanes_;
  const auto lanes = static_cast<std::size_t>(B);
  std::int32_t maxLen = 0;
  for (int l = 0; l < B; ++l) {
    maxLen = std::max(maxLen, src.len[static_cast<std::size_t>(l)]);
  }
  planeEnsureCap(dst, maxLen);
  dst.len = src.len;
  dst.lensEqual = src.lensEqual;
  dst.uni = src.uni;
  if (src.lensEqual) {
    const std::size_t words =
        static_cast<std::size_t>(src.len[0]) * lanes;
    std::memcpy(dst.pay.data(), src.pay.data(),
                words * sizeof(std::uint64_t));
    if (src.uni < 0) std::memcpy(dst.tag.data(), src.tag.data(), words);
    stats_.wordMoveRows += static_cast<std::uint64_t>(src.len[0]);
  } else {
    for (int l = 0; l < B; ++l) {
      for (std::int32_t e = 0; e < src.len[static_cast<std::size_t>(l)];
           ++e) {
        const std::size_t k = static_cast<std::size_t>(e) * lanes +
                              static_cast<std::size_t>(l);
        dst.pay[k] = src.pay[k];
        if (src.uni < 0) dst.tag[k] = src.tag[k];
      }
    }
    stats_.stridedRows += static_cast<std::uint64_t>(maxLen);
  }
}

void BatchTapeExecutor::planeBroadcast(ArrayPlane& p,
                                       const std::vector<Scalar>& v) {
  const int B = lanes_;
  const auto lanes = static_cast<std::size_t>(B);
  const auto n = static_cast<std::int32_t>(v.size());
  planeEnsureCap(p, n);
  std::int8_t vU = n > 0 ? static_cast<std::int8_t>(v[0].type()) : p.uni;
  for (std::size_t e = 1; e < v.size(); ++e) {
    if (v[e].type() != static_cast<Type>(vU)) {
      vU = -1;
      break;
    }
  }
  for (std::int32_t e = 0; e < n; ++e) {
    const std::uint64_t w = bitsOf(v[static_cast<std::size_t>(e)]);
    std::uint64_t* row = &p.pay[static_cast<std::size_t>(e) * lanes];
    for (int l = 0; l < B; ++l) row[l] = w;
  }
  if (n > 0) {
    // The whole valid region of every lane is rewritten, so the plane's
    // uniformity is exactly the bound vector's.
    p.uni = vU;
    if (vU < 0) {
      for (std::int32_t e = 0; e < n; ++e) {
        std::memset(
            &p.tag[static_cast<std::size_t>(e) * lanes],
            static_cast<int>(v[static_cast<std::size_t>(e)].type()), lanes);
      }
    }
  }
  std::fill(p.len.begin(), p.len.end(), n);
  p.lensEqual = true;
}

void BatchTapeExecutor::planeBindLane(ArrayPlane& p, int lane,
                                      const std::vector<Scalar>& v) {
  const int B = lanes_;
  const auto lanes = static_cast<std::size_t>(B);
  const auto n = static_cast<std::int32_t>(v.size());
  planeEnsureCap(p, n);
  for (std::size_t e = 0; e < v.size(); ++e) {
    p.pay[e * lanes + static_cast<std::size_t>(lane)] = bitsOf(v[e]);
  }
  std::int8_t vU = n > 0 ? static_cast<std::int8_t>(v[0].type()) : p.uni;
  for (std::size_t e = 1; e < v.size(); ++e) {
    if (v[e].type() != static_cast<Type>(vU)) {
      vU = -1;
      break;
    }
  }
  if (p.uni >= 0 && vU != p.uni && n > 0) {
    // Uniformity can survive a differently-typed bind only when this lane
    // is the plane's sole content (the other lanes are empty).
    bool othersEmpty = true;
    for (int l = 0; l < B; ++l) {
      if (l != lane && p.len[static_cast<std::size_t>(l)] != 0) {
        othersEmpty = false;
        break;
      }
    }
    if (othersEmpty && vU >= 0) {
      p.uni = vU;
    } else {
      planeMaterializeTags(p);
    }
  }
  if (p.uni < 0) {
    for (std::size_t e = 0; e < v.size(); ++e) {
      p.tag[e * lanes + static_cast<std::size_t>(lane)] =
          static_cast<std::uint8_t>(v[e].type());
    }
  }
  p.len[static_cast<std::size_t>(lane)] = n;
  bool eq = true;
  for (int l = 1; l < B; ++l) {
    eq &= p.len[static_cast<std::size_t>(l)] == p.len[0];
  }
  p.lensEqual = eq;
}

Scalar BatchTapeExecutor::planeElem(const ArrayPlane& p, std::int32_t e,
                                    int lane) const {
  const std::size_t k =
      static_cast<std::size_t>(e) * static_cast<std::size_t>(lanes_) +
      static_cast<std::size_t>(lane);
  const Type t =
      p.uni >= 0 ? static_cast<Type>(p.uni) : static_cast<Type>(p.tag[k]);
  switch (t) {
    case Type::kBool:
      return Scalar::b(p.pay[k] != 0);
    case Type::kInt:
      return Scalar::i(static_cast<std::int64_t>(p.pay[k]));
    case Type::kReal:
      return Scalar::r(bitsReal(p.pay[k]));
  }
  return Scalar();
}

bool BatchTapeExecutor::clampIndexRow(const ArrayPlane& p,
                                      std::int64_t* common) {
  const int B = lanes_;
  bool same = true;
  for (int l = 0; l < B; ++l) {
    const auto n =
        static_cast<std::int64_t>(p.len[static_cast<std::size_t>(l)]);
    std::int64_t i = ia_[static_cast<std::size_t>(l)];
    if (i < 0) i = 0;
    if (i >= n) i = n - 1;
    if (i < 0) i = 0;  // n == 0: stay on the allocated row 0
    ia_[static_cast<std::size_t>(l)] = i;
    same &= i == ia_[0];
  }
  *common = ia_[0];
  return same;
}

void BatchTapeExecutor::execArraySelect(const TapeInstr& in) {
  ++stats_.arrayOps;
  const int B = lanes_;
  const auto lanes = static_cast<std::size_t>(B);
  const ArrayPlane& p = planes_[static_cast<std::size_t>(in.a)];
  if (slotDynamic_[static_cast<std::size_t>(in.b)] == 0) {
    loadInt(in.b, ia_.data());
  } else {
    for (int l = 0; l < B; ++l) {
      ia_[static_cast<std::size_t>(l)] = loadScalar(in.b, l).toInt();
    }
  }
  std::int64_t common = 0;
  const bool sameRow = clampIndexRow(p, &common);
  std::uint64_t* d = &vals_[idx(in.dst, 0)];
  Type* dt = &types_[idx(in.dst, 0)];
  if (sameRow && p.uni >= 0) {
    // All lanes read the same uniformly-typed element row: one contiguous
    // word move, no per-lane dispatch at all.
    std::memcpy(d, &p.pay[static_cast<std::size_t>(common) * lanes],
                lanes * sizeof(std::uint64_t));
    std::fill(dt, dt + B, static_cast<Type>(p.uni));
    ++stats_.typedRowOps;
    ++stats_.wordMoveRows;
    return;
  }
  for (int l = 0; l < B; ++l) {
    const std::size_t k =
        static_cast<std::size_t>(ia_[static_cast<std::size_t>(l)]) * lanes +
        static_cast<std::size_t>(l);
    d[l] = p.pay[k];
    dt[l] = p.uni >= 0 ? static_cast<Type>(p.uni)
                       : static_cast<Type>(p.tag[k]);
  }
  ++stats_.stridedRows;
}

void BatchTapeExecutor::execArrayStore(const TapeInstr& in, std::uint8_t mv) {
  ++stats_.arrayOps;
  const int B = lanes_;
  const auto lanes = static_cast<std::size_t>(B);
  if (in.a != in.dst) {
    if ((mv & 1u) != 0) {
      std::swap(planes_[static_cast<std::size_t>(in.dst)],
                planes_[static_cast<std::size_t>(in.a)]);
      ++stats_.planeSwaps;
    } else {
      planeCopy(planes_[static_cast<std::size_t>(in.dst)],
                planes_[static_cast<std::size_t>(in.a)]);
    }
  }
  ArrayPlane& p = planes_[static_cast<std::size_t>(in.dst)];
  if (slotDynamic_[static_cast<std::size_t>(in.b)] == 0) {
    loadInt(in.b, ia_.data());
  } else {
    for (int l = 0; l < B; ++l) {
      ia_[static_cast<std::size_t>(l)] = loadScalar(in.b, l).toInt();
    }
  }
  std::int64_t common = 0;
  const bool sameRow = clampIndexRow(p, &common);
  // Stored-value payload row: loadReal/loadInt/loadBool apply the exact
  // Scalar::castTo(in.type) coercions lane-wide; a dynamically typed value
  // slot takes the per-lane Scalar path. ia_ holds indices, so the value
  // converts through the other scratch rows.
  std::uint64_t* bits = bb_.data();
  if (slotDynamic_[static_cast<std::size_t>(in.c)] == 0) {
    switch (in.type) {
      case Type::kReal:
        loadReal(in.c, ra_.data());
        for (int l = 0; l < B; ++l) {
          bits[l] = realBits(ra_[static_cast<std::size_t>(l)]);
        }
        break;
      case Type::kInt:
        loadInt(in.c, ib_.data());
        for (int l = 0; l < B; ++l) {
          bits[l] =
              static_cast<std::uint64_t>(ib_[static_cast<std::size_t>(l)]);
        }
        break;
      case Type::kBool:
        loadBool(in.c, bits);
        break;
    }
  } else {
    for (int l = 0; l < B; ++l) {
      bits[l] = bitsOf(loadScalar(in.c, l).castTo(in.type));
    }
  }
  if (sameRow) {
    std::memcpy(&p.pay[static_cast<std::size_t>(common) * lanes], bits,
                lanes * sizeof(std::uint64_t));
    ++stats_.wordMoveRows;
  } else {
    for (int l = 0; l < B; ++l) {
      p.pay[static_cast<std::size_t>(ia_[static_cast<std::size_t>(l)]) *
                lanes +
            static_cast<std::size_t>(l)] = bits[l];
    }
    ++stats_.stridedRows;
  }
  // The written elements are exactly in.type; keep uni/tags truthful.
  if (p.uni != static_cast<std::int8_t>(in.type)) {
    if (p.uni >= 0) planeMaterializeTags(p);
    if (sameRow) {
      std::memset(&p.tag[static_cast<std::size_t>(common) * lanes],
                  static_cast<int>(in.type), lanes);
    } else {
      for (int l = 0; l < B; ++l) {
        p.tag[static_cast<std::size_t>(ia_[static_cast<std::size_t>(l)]) *
                  lanes +
              static_cast<std::size_t>(l)] =
            static_cast<std::uint8_t>(in.type);
      }
    }
  }
  if (p.uni >= 0 && sameRow) ++stats_.typedRowOps;
}

void BatchTapeExecutor::execArrayIte(const TapeInstr& in, std::uint8_t mv) {
  ++stats_.arrayOps;
  const int B = lanes_;
  const auto lanes = static_cast<std::size_t>(B);
  if (slotDynamic_[static_cast<std::size_t>(in.a)] == 0) {
    loadBool(in.a, bc_.data());
  } else {
    for (int l = 0; l < B; ++l) {
      bc_[static_cast<std::size_t>(l)] =
          loadScalar(in.a, l).toBool() ? 1 : 0;
    }
  }
  int trues = 0;
  for (int l = 0; l < B; ++l) {
    trues += bc_[static_cast<std::size_t>(l)] != 0 ? 1 : 0;
  }
  if (trues == B || trues == 0) {
    // Every lane picks the same arm: whole-plane move (or nothing when
    // the arm is the destination slot itself).
    const std::int32_t src = trues == B ? in.b : in.c;
    const std::uint8_t bit = trues == B ? 1u : 2u;
    if (src != in.dst) {
      if ((mv & bit) != 0) {
        std::swap(planes_[static_cast<std::size_t>(in.dst)],
                  planes_[static_cast<std::size_t>(src)]);
        ++stats_.planeSwaps;
      } else {
        planeCopy(planes_[static_cast<std::size_t>(in.dst)],
                  planes_[static_cast<std::size_t>(src)]);
      }
    }
    if (planes_[static_cast<std::size_t>(in.dst)].uni >= 0) {
      ++stats_.typedRowOps;
    }
    return;
  }
  // Mixed condition: build dst per lane from both arms. dst may alias an
  // arm slot; every move below reads the chosen source at the exact
  // (elem, lane) position it writes, so aliased positions only copy onto
  // themselves. Capture per-lane chosen lengths (ib_ scratch) before any
  // plane mutation.
  ArrayPlane& pb = planes_[static_cast<std::size_t>(in.b)];
  ArrayPlane& pc = planes_[static_cast<std::size_t>(in.c)];
  std::int32_t maxLen = 0;
  bool lensEq = true;
  for (int l = 0; l < B; ++l) {
    const ArrayPlane& s = bc_[static_cast<std::size_t>(l)] != 0 ? pb : pc;
    const std::int32_t n = s.len[static_cast<std::size_t>(l)];
    ib_[static_cast<std::size_t>(l)] = n;
    maxLen = std::max(maxLen, n);
    lensEq &= n == static_cast<std::int32_t>(ib_[0]);
  }
  ArrayPlane& d = planes_[static_cast<std::size_t>(in.dst)];
  planeEnsureCap(d, maxLen);
  const bool bothUniSame = pb.uni >= 0 && pb.uni == pc.uni;
  if (bothUniSame && pb.lensEqual && pc.lensEqual &&
      pb.len[0] == pc.len[0]) {
    // Uniform same-typed arms of identical shape: per-element-row payload
    // select through the LaneKernels table (sel64 allows dst == a or
    // dst == b exactly, which covers the aliasing case).
    const std::int32_t n = pb.len[0];
    for (std::int32_t e = 0; e < n; ++e) {
      kern_->sel64(&d.pay[static_cast<std::size_t>(e) * lanes], bc_.data(),
                   &pb.pay[static_cast<std::size_t>(e) * lanes],
                   &pc.pay[static_cast<std::size_t>(e) * lanes], B);
    }
    d.uni = pb.uni;
    stats_.wordMoveRows += static_cast<std::uint64_t>(n);
    ++stats_.typedRowOps;
  } else {
    for (int l = 0; l < B; ++l) {
      const ArrayPlane& s = bc_[static_cast<std::size_t>(l)] != 0 ? pb : pc;
      const std::int8_t su = s.uni;
      const auto n = static_cast<std::int32_t>(ib_[static_cast<std::size_t>(l)]);
      for (std::int32_t e = 0; e < n; ++e) {
        const std::size_t k =
            static_cast<std::size_t>(e) * lanes + static_cast<std::size_t>(l);
        d.pay[k] = s.pay[k];
        if (!bothUniSame) {
          d.tag[k] = su >= 0 ? static_cast<std::uint8_t>(su) : s.tag[k];
        }
      }
    }
    // Tags were written at every valid (elem, lane); positions beyond a
    // lane's length are never read, so no materialization pass is needed.
    d.uni = bothUniSame ? pb.uni : -1;
    stats_.stridedRows += static_cast<std::uint64_t>(maxLen);
  }
  for (int l = 0; l < B; ++l) {
    d.len[static_cast<std::size_t>(l)] =
        static_cast<std::int32_t>(ib_[static_cast<std::size_t>(l)]);
  }
  d.lensEqual = lensEq;
}

void BatchTapeExecutor::execGeneric(const TapeInstr& in, std::uint8_t mv) {
  // Per-lane mirror of TapeExecutor::exec — same helper calls, same
  // results. The array ops dispatch to the payload-row movers above;
  // dynamically typed scalar operands take the per-lane Scalar path
  // unchanged.
  const int B = lanes_;
  switch (in.op) {
    case Op::kIte:
      if (in.arrayResult) {
        execArrayIte(in, mv);
        return;
      }
      break;
    case Op::kSelect:
      execArraySelect(in);
      return;
    case Op::kStore:
      execArrayStore(in, mv);
      return;
    default:
      break;
  }
  for (int lane = 0; lane < B; ++lane) {
    switch (in.op) {
      case Op::kNot:
      case Op::kNeg:
      case Op::kAbs:
      case Op::kCast:
        storeScalar(in.dst, lane,
                    applyUnary(in.op, in.type, loadScalar(in.a, lane)));
        break;
      case Op::kIte:  // scalar result with a dynamic operand
        storeScalar(in.dst, lane,
                    (loadScalar(in.a, lane).toBool()
                         ? loadScalar(in.b, lane)
                         : loadScalar(in.c, lane))
                        .castTo(in.type));
        break;
      default:
        storeScalar(in.dst, lane,
                    applyBinary(in.op, loadScalar(in.a, lane),
                                loadScalar(in.b, lane))
                        .castTo(in.type));
        break;
    }
  }
}

void BatchTapeExecutor::execFast(const TapeInstr& in, FastK f) {
  // The tape is SSA, so dst never aliases an operand row.
  const int B = lanes_;
  const LaneKernels& k = *kern_;
  std::uint64_t* d = &vals_[idx(in.dst, 0)];
  const std::uint64_t* a = &vals_[idx(in.a, 0)];
  switch (f) {
    case FastK::kRAdd: k.rAdd(d, a, &vals_[idx(in.b, 0)], B); break;
    case FastK::kRSub: k.rSub(d, a, &vals_[idx(in.b, 0)], B); break;
    case FastK::kRMul: k.rMul(d, a, &vals_[idx(in.b, 0)], B); break;
    case FastK::kRDivG: k.rDivG(d, a, &vals_[idx(in.b, 0)], B); break;
    case FastK::kRFmin: k.rFmin(d, a, &vals_[idx(in.b, 0)], B); break;
    case FastK::kRFmax: k.rFmax(d, a, &vals_[idx(in.b, 0)], B); break;
    case FastK::kRNeg: k.rNeg(d, a, B); break;
    case FastK::kRAbs: k.rAbs(d, a, B); break;
    case FastK::kRCmpLt:
    case FastK::kRCmpLe:
    case FastK::kRCmpGt:
    case FastK::kRCmpGe:
    case FastK::kRCmpEq:
    case FastK::kRCmpNe:
      k.rCmp[static_cast<int>(f) - static_cast<int>(FastK::kRCmpLt)](
          d, a, &vals_[idx(in.b, 0)], B);
      break;
    case FastK::kIAdd: k.iAdd(d, a, &vals_[idx(in.b, 0)], B); break;
    case FastK::kISub: k.iSub(d, a, &vals_[idx(in.b, 0)], B); break;
    case FastK::kIMin: k.iMin(d, a, &vals_[idx(in.b, 0)], B); break;
    case FastK::kIMax: k.iMax(d, a, &vals_[idx(in.b, 0)], B); break;
    case FastK::kINeg: k.iNeg(d, a, B); break;
    case FastK::kIAbs: k.iAbs(d, a, B); break;
    case FastK::kBAnd: k.bAnd(d, a, &vals_[idx(in.b, 0)], B); break;
    case FastK::kBOr: k.bOr(d, a, &vals_[idx(in.b, 0)], B); break;
    case FastK::kBXor: k.bXor(d, a, &vals_[idx(in.b, 0)], B); break;
    case FastK::kBNot: k.bNot(d, a, B); break;
    case FastK::kSel:
      k.sel64(d, a, &vals_[idx(in.b, 0)], &vals_[idx(in.c, 0)], B);
      break;
    case FastK::kCopy:
      std::memcpy(d, a, static_cast<std::size_t>(B) * sizeof(std::uint64_t));
      break;
    case FastK::kNone:
      break;
  }
}

void BatchTapeExecutor::run() {
  requireAllBound();
  const auto& code = tape_->code();
  for (std::size_t i = 0; i < code.size(); ++i) {
    const TapeInstr& in = code[i];
    if (fast_[i] != FastK::kNone) {
      execFast(in, fast_[i]);
      continue;
    }
    switch (kind_[i]) {
      case Kind::kUnary:
        execUnary(in);
        break;
      case Kind::kBinary:
        execBinary(in);
        break;
      case Kind::kBinaryNumDyn:
        execBinaryNumDyn(in, arrMove_[i]);
        break;
      case Kind::kIteScalar:
        execIteScalar(in);
        break;
      case Kind::kGeneric:
        execGeneric(in, arrMove_[i]);
        break;
    }
  }
}

Scalar BatchTapeExecutor::scalar(SlotRef r, int lane) const {
  return loadScalar(r.slot, lane);
}

std::vector<Scalar> BatchTapeExecutor::array(SlotRef r, int lane) const {
  const ArrayPlane& p = planes_[static_cast<std::size_t>(r.slot)];
  const std::int32_t n = p.len[static_cast<std::size_t>(lane)];
  std::vector<Scalar> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::int32_t e = 0; e < n; ++e) out.push_back(planeElem(p, e, lane));
  return out;
}

std::size_t BatchTapeExecutor::arrayLen(SlotRef r, int lane) const {
  return static_cast<std::size_t>(
      planes_[static_cast<std::size_t>(r.slot)]
          .len[static_cast<std::size_t>(lane)]);
}

Scalar BatchTapeExecutor::arrayElem(SlotRef r, int lane,
                                    std::size_t i) const {
  return planeElem(planes_[static_cast<std::size_t>(r.slot)],
                   static_cast<std::int32_t>(i), lane);
}

double BatchTapeExecutor::scalarToReal(SlotRef r, int lane) const {
  const std::size_t k = idx(r.slot, lane);
  switch (types_[k]) {
    case Type::kBool:
      return vals_[k] != 0 ? 1.0 : 0.0;
    case Type::kInt:
      return static_cast<double>(static_cast<std::int64_t>(vals_[k]));
    case Type::kReal:
      return bitsReal(vals_[k]);
  }
  return 0.0;
}

bool BatchTapeExecutor::scalarToBool(SlotRef r, int lane) const {
  const std::size_t k = idx(r.slot, lane);
  switch (types_[k]) {
    case Type::kBool:
    case Type::kInt:
      return vals_[k] != 0;
    case Type::kReal:
      return bitsReal(vals_[k]) != 0.0;
  }
  return false;
}

void BatchTapeExecutor::readReals(SlotRef r, double* out) const {
  // Non-dynamic slots hold their static type in every lane (typed kernels
  // store the slot type; the generic path's castTo lands on it too), so
  // the hoisted loadReal equals per-lane scalarToReal. Dynamic (kSelect)
  // slots keep the per-lane tag dispatch.
  if (slotDynamic_[static_cast<std::size_t>(r.slot)] == 0) {
    loadReal(r.slot, out);
    return;
  }
  for (int l = 0; l < lanes_; ++l) out[l] = scalarToReal(r, l);
}

void BatchTapeExecutor::readBools(SlotRef r, std::uint64_t* out) const {
  if (slotDynamic_[static_cast<std::size_t>(r.slot)] == 0) {
    loadBool(r.slot, out);
    return;
  }
  for (int l = 0; l < lanes_; ++l) out[l] = scalarToBool(r, l) ? 1 : 0;
}

}  // namespace stcg::expr
