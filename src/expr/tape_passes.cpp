#include "expr/tape_passes.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <unordered_map>

#include "expr/builder.h"
#include "expr/tape_verify.h"

namespace stcg::expr {

namespace {

constexpr std::int32_t kReadAtInfinity = std::numeric_limits<std::int32_t>::max();

std::uint64_t mixBits(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 12) + (h >> 4);
  return h;
}

std::uint64_t payloadBits(const Scalar& s) {
  switch (s.type()) {
    case Type::kBool:
      return s.asBool() ? 1U : 0U;
    case Type::kInt:
      return static_cast<std::uint64_t>(s.asInt());
    case Type::kReal: {
      std::uint64_t b = 0;
      const double d = s.asReal();
      std::memcpy(&b, &d, sizeof(b));
      return b;
    }
  }
  return 0;
}

/// Zero with the guarded kDiv/kMod result bits: applyBinary returns
/// r(0.0) or i(0) from the guard and the executor casts to in.type;
/// castTo maps either onto the same canonical zero of in.type.
Scalar zeroOf(Type t) { return Scalar::i(0).castTo(t); }

/// Rewrite each operand slot of `in` through the alias maps, preserving
/// the operand shape forEachTapeOperand documents.
void rewriteOperands(TapeInstr& in, const std::vector<std::int32_t>& aliasS,
                     const std::vector<std::int32_t>& aliasA) {
  const auto S = [&](std::int32_t& x) {
    x = aliasS[static_cast<std::size_t>(x)];
  };
  const auto A = [&](std::int32_t& x) {
    x = aliasA[static_cast<std::size_t>(x)];
  };
  switch (in.op) {
    case Op::kNot:
    case Op::kNeg:
    case Op::kAbs:
    case Op::kCast:
      S(in.a);
      break;
    case Op::kIte:
      S(in.a);
      if (in.arrayResult) {
        A(in.b);
        A(in.c);
      } else {
        S(in.b);
        S(in.c);
      }
      break;
    case Op::kSelect:
      A(in.a);
      S(in.b);
      break;
    case Op::kStore:
      A(in.a);
      S(in.b);
      S(in.c);
      break;
    default:
      S(in.a);
      S(in.b);
      break;
  }
}

std::uint64_t instrHash(const TapeInstr& in) {
  std::uint64_t h = mixBits(static_cast<std::uint64_t>(in.op),
                            static_cast<std::uint64_t>(in.type));
  h = mixBits(h, in.arrayResult ? 1U : 0U);
  h = mixBits(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(in.a)));
  h = mixBits(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(in.b)));
  h = mixBits(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(in.c)));
  return h;
}

/// The whole pipeline's working state. Scalar-slot metadata lives in
/// "grown" index space: original slots plus constants interned by the
/// folder. Array space never grows.
class Pipeline {
 public:
  Pipeline(const std::shared_ptr<const Tape>& tape,
           const std::vector<SlotRef>& extraLive, const TapePassOptions& opts)
      : src_(tape), t_(*tape), extraLive_(extraLive), opts_(opts) {}

  OptimizedTape run() {
    out_.stats.instrsBefore = t_.code().size();
    out_.stats.scalarSlotsBefore = t_.scalarSlotCount();
    out_.stats.arraySlotsBefore = t_.arraySlotCount();
    initState();
    rewriteForward();
    eliminateDead();
    allocateSlots();
    assemble();
    return std::move(out_);
  }

 private:
  // ---- setup -----------------------------------------------------------

  void initState() {
    const std::size_t ns = t_.scalarSlotCount();
    const std::size_t na = t_.arraySlotCount();
    scalarInit_ = t_.scalarInit();
    isConstS_.assign(ns, 0);
    isVarS_.assign(ns, 0);
    isConstA_.assign(na, 0);
    isVarA_.assign(na, 0);
    for (const std::int32_t s : t_.constScalarSlots()) {
      isConstS_[static_cast<std::size_t>(s)] = 1;
      constPool_[{static_cast<int>(scalarInit_[static_cast<std::size_t>(s)]
                                       .type()),
                  payloadBits(scalarInit_[static_cast<std::size_t>(s)])}] = s;
    }
    for (const auto& b : t_.varBindings()) {
      isVarS_[static_cast<std::size_t>(b.slot)] = 1;
    }
    for (const std::int32_t s : t_.constArraySlots()) {
      isConstA_[static_cast<std::size_t>(s)] = 1;
    }
    for (const auto& b : t_.arrayBindings()) {
      isVarA_[static_cast<std::size_t>(b.slot)] = 1;
    }
    aliasS_.resize(ns);
    for (std::size_t i = 0; i < ns; ++i) {
      aliasS_[i] = static_cast<std::int32_t>(i);
    }
    aliasA_.resize(na);
    for (std::size_t i = 0; i < na; ++i) {
      aliasA_[i] = static_cast<std::int32_t>(i);
    }
    types_ = analyzeTapeStaticTypes(t_);
  }

  [[nodiscard]] const Scalar* constValOf(std::int32_t slot) const {
    return isConstS_[static_cast<std::size_t>(slot)] != 0
               ? &scalarInit_[static_cast<std::size_t>(slot)]
               : nullptr;
  }

  /// Slot of a constant with `v`'s exact type and payload bits, creating
  /// one when the pool has none.
  std::int32_t internConst(const Scalar& v) {
    const std::pair<int, std::uint64_t> key{static_cast<int>(v.type()),
                                            payloadBits(v)};
    const auto it = constPool_.find(key);
    if (it != constPool_.end()) return it->second;
    const auto slot = static_cast<std::int32_t>(scalarInit_.size());
    scalarInit_.push_back(v);
    isConstS_.push_back(1);
    isVarS_.push_back(0);
    aliasS_.push_back(slot);
    types_.scalarType.push_back(v.type());
    types_.scalarDynamic.push_back(0);
    constPool_.emplace(key, slot);
    return slot;
  }

  /// Static-type check for copy propagation: the elided castTo(in.type)
  /// is an identity only when the source slot's type is statically
  /// `want` (dynamic kSelect results never qualify).
  [[nodiscard]] bool staticallyTyped(std::int32_t slot, Type want) const {
    const auto s = static_cast<std::size_t>(slot);
    return types_.scalarDynamic[s] == 0 && types_.scalarType[s] == want;
  }

  // ---- phase 1-3: fold / copy-propagate / CSE, one forward pass --------

  /// Constant-condition truth, matching the concrete executor (toBool)
  /// and, in intervalSafe mode, only when the interval verdict on the
  /// point agrees (isTrue needs v>=1, isFalse needs v<=0; a constant in
  /// (0,1) or below 0 hulls/flips and must not be folded).
  [[nodiscard]] bool condIsDecided(const Scalar& cond, bool* truth) const {
    const bool concrete = cond.toBool();
    if (!opts_.intervalSafe) {
      *truth = concrete;
      return true;
    }
    const double v = cond.toReal();
    if (v >= 1.0) {
      *truth = true;
      return concrete;  // toBool agrees (v != 0)
    }
    if (v == 0.0) {
      *truth = false;
      return !concrete;
    }
    return false;
  }

  /// Try to fold `in` (operands already alias-rewritten) to a constant.
  [[nodiscard]] bool tryFold(const TapeInstr& in, Scalar* out) const {
    if (!opts_.foldConstants) return false;
    if (in.arrayResult) return false;
    const auto guarded = [&](const Scalar* a, const Scalar* b,
                             const Scalar* c, const Scalar& folded) {
      if (!opts_.intervalSafe) return true;
      return static_cast<bool>(opts_.foldGuard) &&
             opts_.foldGuard(in, a, b, c, folded);
    };
    switch (in.op) {
      case Op::kNot:
      case Op::kNeg:
      case Op::kAbs:
      case Op::kCast: {
        const Scalar* a = constValOf(in.a);
        if (a == nullptr) return false;
        const Scalar v = applyUnary(in.op, in.type, *a);
        if (!guarded(a, nullptr, nullptr, v)) return false;
        *out = v;
        return true;
      }
      case Op::kIte: {
        const Scalar* a = constValOf(in.a);
        const Scalar* b = constValOf(in.b);
        const Scalar* c = constValOf(in.c);
        if (a == nullptr || b == nullptr || c == nullptr) return false;
        const Scalar v = (a->toBool() ? *b : *c).castTo(in.type);
        if (!guarded(a, b, c, v)) return false;
        *out = v;
        return true;
      }
      case Op::kSelect: {
        if (isConstA_[static_cast<std::size_t>(in.a)] == 0) return false;
        const Scalar* idx = constValOf(in.b);
        if (idx == nullptr) return false;
        const auto& arr = t_.arrayInit()[static_cast<std::size_t>(in.a)];
        const auto n = static_cast<std::int64_t>(arr.size());
        if (n == 0) return false;
        if (opts_.intervalSafe) {
          // Interval kSelect indexes by the interval's real endpoints;
          // exact alignment with toInt truncation needs an integral
          // index (always true for kInt-typed index constants).
          const double v = idx->toReal();
          if (idx->type() == Type::kReal &&
              v != static_cast<double>(static_cast<std::int64_t>(v))) {
            return false;
          }
        }
        std::int64_t i = idx->toInt();
        if (i < 0) i = 0;
        if (i >= n) i = n - 1;
        *out = arr[static_cast<std::size_t>(i)];  // exec never casts
        return true;
      }
      case Op::kStore:
        return false;
      default: {  // binary scalar ops
        const Scalar* a = constValOf(in.a);
        const Scalar* b = constValOf(in.b);
        // Guarded-zero kDiv/kMod fold even with an unknown dividend:
        // the guard's result depends only on in.type, and it is
        // point-exact in the interval domain (divI(x, point(0)) and
        // modI(x, |b|max < 1) are both point(0)), so no foldGuard.
        if (in.op == Op::kDiv && b != nullptr && b->toReal() == 0.0) {
          *out = zeroOf(in.type);
          return true;
        }
        if (in.op == Op::kMod && b != nullptr && b->toInt() == 0) {
          *out = zeroOf(in.type);
          return true;
        }
        if (!opts_.intervalSafe) {
          // Absorbing elements (concrete only: e.g. interval NaN/inf
          // endpoints make x*0 a widening, and bool ops fold exactly
          // anyway once both operands are constant).
          if (in.op == Op::kMul && in.type == Type::kInt) {
            const bool az = a != nullptr && a->type() != Type::kReal &&
                            a->toInt() == 0;
            const bool bz = b != nullptr && b->type() != Type::kReal &&
                            b->toInt() == 0;
            if (az || bz) {
              *out = zeroOf(in.type);
              return true;
            }
          }
          if (in.type == Type::kBool) {
            const auto absorbs = [&](const Scalar* s) {
              return s != nullptr &&
                     ((in.op == Op::kAnd && !s->toBool()) ||
                      (in.op == Op::kOr && s->toBool()));
            };
            if ((in.op == Op::kAnd || in.op == Op::kOr) &&
                (absorbs(a) || absorbs(b))) {
              *out = Scalar::b(in.op == Op::kOr);
              return true;
            }
          }
        }
        if (a == nullptr || b == nullptr) return false;
        const Scalar v = applyBinary(in.op, *a, *b).castTo(in.type);
        if (!guarded(a, b, nullptr, v)) return false;
        *out = v;
        return true;
      }
    }
  }

  /// Try to resolve `in` to a plain copy of one operand slot. Returns
  /// the source slot, or -1. *isArray reports the space. May instead
  /// strength-reduce in place (constant-condition kIte whose arm needs
  /// the cast becomes kCast) and return -1.
  [[nodiscard]] std::int32_t tryCopy(TapeInstr& in, bool* isArray) const {
    if (!opts_.propagateCopies) return -1;
    *isArray = false;
    switch (in.op) {
      case Op::kCast:
        // concrete: castTo over an equal static type is the identity.
        // interval: the int/bool transfers truncate/collapse, only the
        // real->real cast is the identity there too.
        if (staticallyTyped(in.a, in.type) &&
            (!opts_.intervalSafe || in.type == Type::kReal)) {
          return in.a;
        }
        return -1;
      case Op::kIte: {
        const Scalar* cond = constValOf(in.a);
        bool truth = false;
        if (cond != nullptr && condIsDecided(*cond, &truth)) {
          const std::int32_t arm = truth ? in.b : in.c;
          if (in.arrayResult) {
            *isArray = true;  // array kIte copies the arm uncast
            return arm;
          }
          if (staticallyTyped(arm, in.type)) return arm;
          if (!opts_.intervalSafe) {
            // The cast still matters: keep it, drop the branch. (The
            // interval kIte transfer does not cast, so this rewrite is
            // concrete-only.)
            in.op = Op::kCast;
            in.a = arm;
            in.b = in.c = -1;
            return -1;
          }
          return -1;
        }
        if (in.b == in.c) {
          // Equal arms: both modes (interval hulls an interval with
          // itself); concrete needs the castTo to be an identity.
          if (in.arrayResult) {
            *isArray = true;
            return in.b;
          }
          if (staticallyTyped(in.b, in.type)) return in.b;
        }
        return -1;
      }
      default:
        break;
    }
    if (opts_.intervalSafe) return -1;
    // Concrete-only algebraic identities. Each requires the surviving
    // operand's static type to equal in.type (identity castTo) and,
    // for the int family, non-real constants (promote() would have
    // gone through the real path otherwise).
    const Scalar* a = constValOf(in.a);
    const Scalar* b = in.b >= 0 ? constValOf(in.b) : nullptr;
    const auto intConst = [](const Scalar* s, std::int64_t v) {
      return s != nullptr && s->type() != Type::kReal && s->toInt() == v;
    };
    switch (in.op) {
      case Op::kAdd:
        if (in.type != Type::kInt) return -1;
        if (intConst(b, 0) && staticallyTyped(in.a, Type::kInt)) return in.a;
        if (intConst(a, 0) && staticallyTyped(in.b, Type::kInt)) return in.b;
        return -1;
      case Op::kSub:
        if (in.type == Type::kInt && intConst(b, 0) &&
            staticallyTyped(in.a, Type::kInt)) {
          return in.a;
        }
        return -1;
      case Op::kMul:
        if (in.type != Type::kInt) return -1;
        if (intConst(b, 1) && staticallyTyped(in.a, Type::kInt)) return in.a;
        if (intConst(a, 1) && staticallyTyped(in.b, Type::kInt)) return in.b;
        return -1;
      case Op::kDiv:
        if (in.type == Type::kInt && intConst(b, 1) &&
            staticallyTyped(in.a, Type::kInt)) {
          return in.a;  // i(x / 1) == x
        }
        if (in.type == Type::kReal && b != nullptr &&
            b->type() == Type::kReal && b->asReal() == 1.0 &&
            staticallyTyped(in.a, Type::kReal)) {
          return in.a;  // x / 1.0 is exact for every x
        }
        return -1;
      case Op::kAnd:
      case Op::kOr:
        if (in.type != Type::kBool) return -1;
        {
          const bool unit = in.op == Op::kAnd;  // and:true / or:false
          if (a != nullptr && a->toBool() == unit &&
              staticallyTyped(in.b, Type::kBool)) {
            return in.b;
          }
          if (b != nullptr && b->toBool() == unit &&
              staticallyTyped(in.a, Type::kBool)) {
            return in.a;
          }
        }
        return -1;
      case Op::kXor:
        if (in.type != Type::kBool) return -1;
        if (a != nullptr && !a->toBool() &&
            staticallyTyped(in.b, Type::kBool)) {
          return in.b;
        }
        if (b != nullptr && !b->toBool() &&
            staticallyTyped(in.a, Type::kBool)) {
          return in.a;
        }
        return -1;
      case Op::kMin:
      case Op::kMax:
        // Same-slot min/max: int only (std::fmin may canonicalize NaN
        // payloads, and the fuzz oracle compares bits).
        if (in.a == in.b && in.type == Type::kInt &&
            staticallyTyped(in.a, Type::kInt)) {
          return in.a;
        }
        return -1;
      default:
        return -1;
    }
  }

  void rewriteForward() {
    std::unordered_map<std::uint64_t, std::vector<std::int32_t>> vn;
    for (const TapeInstr& in0 : t_.code()) {
      TapeInstr in = in0;
      rewriteOperands(in, aliasS_, aliasA_);
      Scalar folded;
      if (tryFold(in, &folded)) {
        aliasS_[static_cast<std::size_t>(in.dst)] = internConst(folded);
        ++out_.stats.constantsFolded;
        continue;
      }
      bool copyIsArray = false;
      const std::int32_t copyOf = tryCopy(in, &copyIsArray);
      if (copyOf >= 0) {
        (copyIsArray ? aliasA_ : aliasS_)[static_cast<std::size_t>(in.dst)] =
            copyOf;
        ++out_.stats.copiesPropagated;
        continue;
      }
      const std::uint64_t h = instrHash(in);
      auto& bucket = vn[h];
      bool merged = false;
      for (const std::int32_t prior : bucket) {
        const TapeInstr& p = code_[static_cast<std::size_t>(prior)];
        if (sameTapeComputation(p, in)) {
          (in.arrayResult ? aliasA_ : aliasS_)[static_cast<std::size_t>(
              in.dst)] = p.dst;
          ++out_.stats.cseMerged;
          merged = true;
          break;
        }
      }
      if (merged) continue;
      bucket.push_back(static_cast<std::int32_t>(code_.size()));
      code_.push_back(in);
    }
  }

  // ---- phase 4: dead-instruction elimination ---------------------------

  [[nodiscard]] SlotRef resolveLive(SlotRef r) const {
    if (!r.valid()) return r;
    const auto& alias = r.isArray ? aliasA_ : aliasS_;
    return {alias[static_cast<std::size_t>(r.slot)], r.isArray};
  }

  void eliminateDead() {
    liveS_.assign(scalarInit_.size(), 0);
    liveA_.assign(t_.arraySlotCount(), 0);
    const auto mark = [&](SlotRef r) {
      if (!r.valid()) return;
      (r.isArray ? liveA_ : liveS_)[static_cast<std::size_t>(r.slot)] = 1;
    };
    for (const SlotRef r : t_.rootSlots()) mark(resolveLive(r));
    for (const SlotRef r : extraLive_) mark(resolveLive(r));

    if (!opts_.eliminateDead) {
      // Keep everything referenced (and all pinned slots).
      for (const TapeInstr& in : code_) {
        mark({in.dst, in.arrayResult});
        forEachTapeOperand(in, [&](std::int32_t s, bool arr) {
          mark({s, arr});
        });
      }
      for (std::size_t s = 0; s < liveS_.size(); ++s) {
        if (isConstS_[s] != 0 || isVarS_[s] != 0) liveS_[s] = 1;
      }
      for (std::size_t s = 0; s < liveA_.size(); ++s) {
        if (isConstA_[s] != 0 || isVarA_[s] != 0) liveA_[s] = 1;
      }
      return;
    }

    std::vector<TapeInstr> kept;
    kept.reserve(code_.size());
    for (auto it = code_.rbegin(); it != code_.rend(); ++it) {
      const TapeInstr& in = *it;
      const auto& live = in.arrayResult ? liveA_ : liveS_;
      if (live[static_cast<std::size_t>(in.dst)] == 0) {
        ++out_.stats.deadRemoved;
        continue;
      }
      forEachTapeOperand(in, [&](std::int32_t s, bool arr) {
        mark({s, arr});
      });
      kept.push_back(in);
    }
    std::reverse(kept.begin(), kept.end());
    code_ = std::move(kept);
  }

  // ---- phase 5: linear-scan slot reallocation ------------------------

  /// Re-derive static slot types over the rewritten instruction list.
  /// Aliasing can only improve them (an array kIte arm is uniform
  /// whenever the kIte result was), but the allocator's sharing keys and
  /// the verifier's re-analysis of the final tape must agree exactly.
  void rederiveStaticTypes() {
    for (const TapeInstr& in : code_) {
      if (in.arrayResult) {
        const auto dst = static_cast<std::size_t>(in.dst);
        if (in.op == Op::kStore) {
          const auto src = static_cast<std::size_t>(in.a);
          types_.arrayUniform[dst] =
              types_.arrayUniform[src] != 0 &&
                      types_.arrayElemType[src] == in.type
                  ? 1
                  : 0;
          types_.arrayElemType[dst] = in.type;
        } else {  // array kIte
          const auto tb = static_cast<std::size_t>(in.b);
          const auto fc = static_cast<std::size_t>(in.c);
          types_.arrayUniform[dst] =
              types_.arrayUniform[tb] != 0 && types_.arrayUniform[fc] != 0 &&
                      types_.arrayElemType[tb] == types_.arrayElemType[fc]
                  ? 1
                  : 0;
          types_.arrayElemType[dst] = types_.arrayElemType[tb];
        }
        continue;
      }
      const auto dst = static_cast<std::size_t>(in.dst);
      types_.scalarDynamic[dst] = 0;
      switch (in.op) {
        case Op::kNot:
          types_.scalarType[dst] = Type::kBool;
          break;
        case Op::kNeg:
        case Op::kAbs:
          types_.scalarType[dst] =
              in.type == Type::kReal ? Type::kReal : Type::kInt;
          break;
        case Op::kSelect: {
          const auto a = static_cast<std::size_t>(in.a);
          if (types_.arrayUniform[a] != 0) {
            types_.scalarType[dst] = types_.arrayElemType[a];
          } else {
            types_.scalarDynamic[dst] = 1;
            types_.scalarType[dst] = in.type;
          }
          break;
        }
        default:
          types_.scalarType[dst] = in.type;
          break;
      }
    }
  }

  void allocateSlots() {
    rederiveStaticTypes();
    const std::size_t ns = scalarInit_.size();
    const std::size_t na = t_.arraySlotCount();

    // Last read per scalar slot; roots, extraLive, constants and
    // variable slots are read "at infinity".
    std::vector<std::int32_t> lastUse(ns, -1);
    for (std::size_t i = 0; i < code_.size(); ++i) {
      forEachTapeOperand(code_[i], [&](std::int32_t s, bool arr) {
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
    for (const SlotRef r : t_.rootSlots()) pinScalar(resolveLive(r));
    for (const SlotRef r : extraLive_) pinScalar(resolveLive(r));
    for (std::size_t s = 0; s < ns; ++s) {
      if (isConstS_[s] != 0 || isVarS_[s] != 0) lastUse[s] = kReadAtInfinity;
    }

    // Physical assignment. Pinned (const/variable) live slots first, in
    // old-slot order; temporaries at their defining instruction, pulling
    // from the free list of their static lane type (type, dynamic).
    physS_.assign(ns, -1);
    std::int32_t next = 0;
    for (std::size_t s = 0; s < ns; ++s) {
      if ((isConstS_[s] != 0 || isVarS_[s] != 0) && liveS_[s] != 0) {
        physS_[s] = next++;
      }
    }
    std::array<std::vector<std::int32_t>, 6> freeLists;  // [type*2 + dyn]
    const auto freeList = [&](std::size_t s) -> std::vector<std::int32_t>& {
      return freeLists[static_cast<std::size_t>(types_.scalarType[s]) * 2 +
                       (types_.scalarDynamic[s] != 0 ? 1 : 0)];
    };
    std::vector<std::uint8_t> freed(ns, 0);
    for (std::size_t i = 0; i < code_.size(); ++i) {
      const TapeInstr& in = code_[i];
      if (opts_.reuseSlots) {
        // Free dying operands before allocating dst: every executor
        // fully reads its operands before the store (the batch kernels
        // stage through scratch), so dst may take a same-instruction
        // operand's slot.
        forEachTapeOperand(in, [&](std::int32_t s, bool arr) {
          if (arr) return;
          const auto u = static_cast<std::size_t>(s);
          if (lastUse[u] != static_cast<std::int32_t>(i)) return;
          if (freed[u] != 0 || physS_[u] < 0) return;
          freed[u] = 1;
          freeList(u).push_back(physS_[u]);
        });
      }
      if (in.arrayResult) continue;
      const auto d = static_cast<std::size_t>(in.dst);
      if (physS_[d] >= 0) continue;  // defensive; single assignment
      auto& list = freeList(d);
      if (opts_.reuseSlots && !list.empty()) {
        physS_[d] = list.back();
        list.pop_back();
        ++out_.stats.slotsReused;
        continue;
      }
      physS_[d] = next++;
    }
    nPhysScalar_ = static_cast<std::size_t>(next);

    // Arrays never share: dense renumber of live slots in old order.
    physA_.assign(na, -1);
    std::int32_t nextA = 0;
    for (std::size_t s = 0; s < na; ++s) {
      if (liveA_[s] != 0) physA_[s] = nextA++;
    }
    nPhysArray_ = static_cast<std::size_t>(nextA);
  }

  // ---- phase 6: assemble the optimized tape ----------------------------

  void assemble() {
    auto nt = std::make_shared<Tape>();
    TapeRewriter rw(*nt);

    rw.scalarInit().assign(nPhysScalar_, Scalar{});
    for (std::size_t s = 0; s < physS_.size(); ++s) {
      if (physS_[s] >= 0) {
        rw.scalarInit()[static_cast<std::size_t>(physS_[s])] = scalarInit_[s];
      }
    }
    rw.arrayInit().assign(nPhysArray_, {});
    for (std::size_t s = 0; s < physA_.size(); ++s) {
      if (physA_[s] >= 0) {
        rw.arrayInit()[static_cast<std::size_t>(physA_[s])] =
            t_.arrayInit()[s];
      }
    }
    for (std::size_t s = 0; s < physS_.size(); ++s) {
      if (isConstS_[s] != 0 && physS_[s] >= 0) {
        rw.constScalarSlots().push_back(physS_[s]);
      }
    }
    for (std::size_t s = 0; s < physA_.size(); ++s) {
      if (isConstA_[s] != 0 && physA_[s] >= 0) {
        rw.constArraySlots().push_back(physA_[s]);
      }
    }
    for (const auto& b : t_.varBindings()) {
      const std::int32_t p = physS_[static_cast<std::size_t>(b.slot)];
      if (p < 0) continue;  // nothing left reads this variable's slot
      TapeVarBinding nb = b;
      nb.slot = p;
      rw.varBindings().push_back(nb);  // source order keeps the sort
    }
    for (const auto& b : t_.arrayBindings()) {
      const std::int32_t p = physA_[static_cast<std::size_t>(b.slot)];
      if (p < 0) continue;
      TapeArrayBinding nb = b;
      nb.slot = p;
      rw.arrayBindings().push_back(nb);
    }

    for (TapeInstr in : code_) {
      const auto S = [&](std::int32_t& x) {
        x = physS_[static_cast<std::size_t>(x)];
      };
      const auto A = [&](std::int32_t& x) {
        x = physA_[static_cast<std::size_t>(x)];
      };
      switch (in.op) {
        case Op::kNot:
        case Op::kNeg:
        case Op::kAbs:
        case Op::kCast:
          S(in.a);
          break;
        case Op::kIte:
          S(in.a);
          if (in.arrayResult) {
            A(in.b);
            A(in.c);
          } else {
            S(in.b);
            S(in.c);
          }
          break;
        case Op::kSelect:
          A(in.a);
          S(in.b);
          break;
        case Op::kStore:
          A(in.a);
          S(in.b);
          S(in.c);
          break;
        default:
          S(in.a);
          S(in.b);
          break;
      }
      if (in.arrayResult) {
        A(in.dst);
      } else {
        S(in.dst);
      }
      rw.code().push_back(in);
    }

    // Remap in the ORIGINAL slot space (producers rewrite saved refs).
    out_.remap.scalar.assign(t_.scalarSlotCount(), -1);
    for (std::size_t s = 0; s < t_.scalarSlotCount(); ++s) {
      out_.remap.scalar[s] = physS_[static_cast<std::size_t>(aliasS_[s])];
    }
    out_.remap.array.assign(t_.arraySlotCount(), -1);
    for (std::size_t s = 0; s < t_.arraySlotCount(); ++s) {
      out_.remap.array[s] = physA_[static_cast<std::size_t>(aliasA_[s])];
    }
    for (const SlotRef r : t_.rootSlots()) {
      rw.rootSlots().push_back(out_.remap(r));
    }
    rw.pinnedRoots() = TapeRewriter::pinnedRootsOf(t_);

    out_.stats.instrsAfter = rw.code().size();
    out_.stats.scalarSlotsAfter = nPhysScalar_;
    out_.stats.arraySlotsAfter = nPhysArray_;
    out_.tape = std::move(nt);
  }

  std::shared_ptr<const Tape> src_;
  const Tape& t_;
  const std::vector<SlotRef>& extraLive_;
  const TapePassOptions& opts_;
  OptimizedTape out_;

  // Grown scalar space (original + interned constants).
  std::vector<Scalar> scalarInit_;
  std::vector<std::uint8_t> isConstS_, isVarS_, isConstA_, isVarA_;
  std::vector<std::int32_t> aliasS_, aliasA_;  // fully resolved
  std::map<std::pair<int, std::uint64_t>, std::int32_t> constPool_;
  TapeStaticTypes types_;

  std::vector<TapeInstr> code_;  // surviving instructions, old slot ids
  std::vector<std::uint8_t> liveS_, liveA_;
  std::vector<std::int32_t> physS_, physA_;
  std::size_t nPhysScalar_ = 0, nPhysArray_ = 0;
};

}  // namespace

std::string TapePassStats::summary() const {
  std::string s = std::to_string(instrsBefore) + "→" +
                  std::to_string(instrsAfter) + " instrs, " +
                  std::to_string(scalarSlotsBefore) + "→" +
                  std::to_string(scalarSlotsAfter) + " scalar slots, " +
                  std::to_string(arraySlotsBefore) + "→" +
                  std::to_string(arraySlotsAfter) + " array slots (" +
                  std::to_string(constantsFolded) + " folded, " +
                  std::to_string(copiesPropagated) + " copied, " +
                  std::to_string(cseMerged) + " cse, " +
                  std::to_string(deadRemoved) + " dead, " +
                  std::to_string(slotsReused) + " reused)";
  return s;
}

OptimizedTape optimizeTape(const std::shared_ptr<const Tape>& tape,
                           const std::vector<SlotRef>& extraLive,
                           const TapePassOptions& opts) {
  return Pipeline(tape, extraLive, opts).run();
}

}  // namespace stcg::expr
