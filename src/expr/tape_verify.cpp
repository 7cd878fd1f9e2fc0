#include "expr/tape_verify.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#include "util/env.h"

namespace stcg::expr {

namespace {

std::uint64_t mixBits(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 12) + (h >> 4);
  return h;
}

bool isLeafOp(Op op) {
  return op == Op::kConst || op == Op::kConstArray || op == Op::kVar ||
         op == Op::kVarArray;
}

bool isComparisonOp(Op op) {
  return op == Op::kLt || op == Op::kLe || op == Op::kGt || op == Op::kGe ||
         op == Op::kEq || op == Op::kNe;
}

bool isBoolBinaryOp(Op op) {
  return op == Op::kAnd || op == Op::kOr || op == Op::kXor;
}

bool isArithBinaryOp(Op op) {
  return op == Op::kAdd || op == Op::kSub || op == Op::kMul ||
         op == Op::kDiv || op == Op::kMod || op == Op::kMin || op == Op::kMax;
}

class Verifier {
 public:
  explicit Verifier(const Tape& t) : t_(t) {}

  TapeVerifyResult run() {
    checkBindingTables();
    checkCodeShape();
    checkDefUseAndTypes();
    checkRoots();
    checkArraySharing();
    checkCseDuplicates();
    return std::move(result_);
  }

 private:
  void issue(TapeIssueKind kind, std::int32_t instr, std::string msg) {
    result_.issues.push_back({kind, instr, std::move(msg)});
  }

  [[nodiscard]] std::int32_t nScalar() const {
    return static_cast<std::int32_t>(t_.scalarSlotCount());
  }
  [[nodiscard]] std::int32_t nArray() const {
    return static_cast<std::int32_t>(t_.arraySlotCount());
  }

  void checkBindingTables() {
    // Slot-table sanity: const/var slots in range, variable tables sorted
    // (setVar binary-searches them), and no slot claimed as both a
    // constant and a variable binding.
    std::vector<std::uint8_t> owner(t_.scalarSlotCount(), 0);
    for (const std::int32_t s : t_.constScalarSlots()) {
      if (s < 0 || s >= nScalar()) {
        issue(TapeIssueKind::kSlotBounds, -1,
              "const scalar slot " + std::to_string(s) + " out of range");
        continue;
      }
      owner[static_cast<std::size_t>(s)] |= 1;
    }
    for (const auto& b : t_.varBindings()) {
      if (b.slot < 0 || b.slot >= nScalar()) {
        issue(TapeIssueKind::kSlotBounds, -1,
              "variable '" + b.name + "' bound to out-of-range slot " +
                  std::to_string(b.slot));
        continue;
      }
      if ((owner[static_cast<std::size_t>(b.slot)] & 1) != 0) {
        issue(TapeIssueKind::kConstClobbered, -1,
              "slot " + std::to_string(b.slot) +
                  " is both a constant and variable '" + b.name + "'");
      }
      owner[static_cast<std::size_t>(b.slot)] |= 2;
    }
    const auto& vb = t_.varBindings();
    for (std::size_t i = 1; i < vb.size(); ++i) {
      const bool ordered = vb[i - 1].var < vb[i].var ||
                           (vb[i - 1].var == vb[i].var &&
                            vb[i - 1].type < vb[i].type);
      if (!ordered) {
        issue(TapeIssueKind::kSlotBounds, -1,
              "varBindings not sorted by (var, type) at entry " +
                  std::to_string(i) + " — setVar binary search would miss");
        break;
      }
    }
    const auto& ab = t_.arrayBindings();
    for (std::size_t i = 1; i < ab.size(); ++i) {
      if (!(ab[i - 1].var < ab[i].var)) {
        issue(TapeIssueKind::kSlotBounds, -1,
              "arrayBindings not sorted by var at entry " +
                  std::to_string(i));
        break;
      }
    }
    for (const std::int32_t s : t_.constArraySlots()) {
      if (s < 0 || s >= nArray()) {
        issue(TapeIssueKind::kSlotBounds, -1,
              "const array slot " + std::to_string(s) + " out of range");
      }
    }
    for (const auto& b : ab) {
      if (b.slot < 0 || b.slot >= nArray()) {
        issue(TapeIssueKind::kSlotBounds, -1,
              "array variable '" + b.name + "' bound to out-of-range slot " +
                  std::to_string(b.slot));
      }
    }
  }

  void checkCodeShape() {
    const auto& code = t_.code();
    for (std::size_t i = 0; i < code.size(); ++i) {
      const TapeInstr& in = code[i];
      const auto idx = static_cast<std::int32_t>(i);
      if (isLeafOp(in.op)) {
        issue(TapeIssueKind::kSlotBounds, idx,
              std::string("leaf op ") + opName(in.op) +
                  " emitted as an instruction");
        continue;
      }
      if (in.arrayResult && !(in.op == Op::kIte || in.op == Op::kStore)) {
        issue(TapeIssueKind::kSlotBounds, idx,
              std::string(opName(in.op)) + " cannot produce an array result");
      }
      if (in.op == Op::kStore && !in.arrayResult) {
        issue(TapeIssueKind::kSlotBounds, idx,
              "kStore must produce an array result");
      }
      const std::int32_t dstMax = in.arrayResult ? nArray() : nScalar();
      if (in.dst < 0 || in.dst >= dstMax) {
        issue(TapeIssueKind::kSlotBounds, idx,
              "dst slot " + std::to_string(in.dst) + " out of range");
      }
      forEachTapeOperand(in, [&](std::int32_t slot, bool isArray) {
        const std::int32_t max = isArray ? nArray() : nScalar();
        if (slot < 0 || slot >= max) {
          issue(TapeIssueKind::kSlotBounds, idx,
                std::string(isArray ? "array" : "scalar") + " operand slot " +
                    std::to_string(slot) + " out of range");
        }
      });
    }
  }

  void checkDefUseAndTypes() {
    // One forward pass: def-before-use, const/var clobbers, and the
    // typed-lane contract (result types as the batch executor derives
    // them, with multi-writer slots required to agree).
    std::vector<std::uint8_t> sDef(t_.scalarSlotCount(), 0);
    std::vector<std::uint8_t> aDef(t_.arraySlotCount(), 0);
    std::vector<std::uint8_t> sPinned(t_.scalarSlotCount(), 0);
    std::vector<std::uint8_t> aPinned(t_.arraySlotCount(), 0);
    for (const std::int32_t s : t_.constScalarSlots()) {
      if (s >= 0 && s < nScalar()) {
        sDef[static_cast<std::size_t>(s)] = 1;
        sPinned[static_cast<std::size_t>(s)] = 1;
      }
    }
    for (const auto& b : t_.varBindings()) {
      if (b.slot >= 0 && b.slot < nScalar()) {
        sDef[static_cast<std::size_t>(b.slot)] = 1;
        sPinned[static_cast<std::size_t>(b.slot)] = 1;
      }
    }
    for (const std::int32_t s : t_.constArraySlots()) {
      if (s >= 0 && s < nArray()) {
        aDef[static_cast<std::size_t>(s)] = 1;
        aPinned[static_cast<std::size_t>(s)] = 1;
      }
    }
    for (const auto& b : t_.arrayBindings()) {
      if (b.slot >= 0 && b.slot < nArray()) {
        aDef[static_cast<std::size_t>(b.slot)] = 1;
        aPinned[static_cast<std::size_t>(b.slot)] = 1;
      }
    }

    const TapeStaticTypes st = analyzeTapeStaticTypes(t_);
    // First-writer derived (type, dynamic) per scalar slot, for the
    // multi-writer agreement check.
    std::vector<std::int8_t> seenType(t_.scalarSlotCount(), -1);
    std::vector<std::uint8_t> seenDyn(t_.scalarSlotCount(), 0);
    // Likewise per array slot: (statically uniform?, element type). The
    // batch executor's payload planes fix this summary at construction,
    // so writers sharing an array slot must agree on it. The optimizer
    // never shares array slots; this fires only on hand-built tapes.
    std::vector<std::int8_t> seenAUni(t_.arraySlotCount(), -1);
    std::vector<std::int8_t> seenAElem(t_.arraySlotCount(), 0);

    const auto& code = t_.code();
    for (std::size_t i = 0; i < code.size(); ++i) {
      const TapeInstr& in = code[i];
      const auto idx = static_cast<std::int32_t>(i);
      if (isLeafOp(in.op)) continue;  // reported by checkCodeShape

      forEachTapeOperand(in, [&](std::int32_t slot, bool isArray) {
        const std::int32_t max = isArray ? nArray() : nScalar();
        if (slot < 0 || slot >= max) return;  // bounds issue already filed
        const auto& def = isArray ? aDef : sDef;
        if (def[static_cast<std::size_t>(slot)] == 0) {
          issue(TapeIssueKind::kUseBeforeDef, idx,
                std::string(isArray ? "array" : "scalar") + " slot " +
                    std::to_string(slot) + " read before any definition");
        }
      });

      // Typed-lane contract: the result types applyUnary/applyBinary
      // guarantee, which BatchTapeExecutor bakes into its lane layout.
      switch (in.op) {
        case Op::kNot:
          if (in.type != Type::kBool) {
            issue(TapeIssueKind::kTypeMismatch, idx,
                  "kNot result typed " + std::string(typeName(in.type)) +
                      ", executors produce kBool");
          }
          break;
        case Op::kNeg:
        case Op::kAbs:
          if (in.type == Type::kBool) {
            issue(TapeIssueKind::kTypeMismatch, idx,
                  std::string(opName(in.op)) +
                      " result typed kBool, executors produce kInt/kReal");
          }
          break;
        default:
          if ((isComparisonOp(in.op) || isBoolBinaryOp(in.op)) &&
              in.type != Type::kBool) {
            issue(TapeIssueKind::kTypeMismatch, idx,
                  std::string(opName(in.op)) + " result typed " +
                      typeName(in.type) + ", comparisons/booleans are kBool");
          }
          if (isArithBinaryOp(in.op) && in.type == Type::kBool) {
            issue(TapeIssueKind::kTypeMismatch, idx,
                  std::string(opName(in.op)) +
                      " result typed kBool, promote() never yields kBool");
          }
          break;
      }

      const std::int32_t dstMax = in.arrayResult ? nArray() : nScalar();
      if (in.dst >= 0 && in.dst < dstMax) {
        const auto d = static_cast<std::size_t>(in.dst);
        if (in.arrayResult) {
          if (aPinned[d] != 0) {
            issue(TapeIssueKind::kConstClobbered, idx,
                  "instruction overwrites constant/variable array slot " +
                      std::to_string(in.dst));
          }
          // Re-derive this writer's (uniform, element type) contribution
          // from its operands' summaries, mirroring analyzeTapeStaticTypes.
          bool myUni = false;
          Type myElem = in.type;
          if (in.op == Op::kStore) {
            const auto a = static_cast<std::size_t>(in.a);
            myUni = in.a >= 0 && in.a < nArray() &&
                    st.arrayUniform[a] != 0 && st.arrayElemType[a] == in.type;
          } else if (in.op == Op::kIte && in.b >= 0 && in.b < nArray() &&
                     in.c >= 0 && in.c < nArray()) {
            const auto tb = static_cast<std::size_t>(in.b);
            const auto fc = static_cast<std::size_t>(in.c);
            myUni = st.arrayUniform[tb] != 0 && st.arrayUniform[fc] != 0 &&
                    st.arrayElemType[tb] == st.arrayElemType[fc];
            myElem = st.arrayElemType[tb];
          }
          if (seenAUni[d] < 0) {
            seenAUni[d] = myUni ? 1 : 0;
            seenAElem[d] = static_cast<std::int8_t>(myElem);
          } else if ((seenAUni[d] != 0) != myUni ||
                     (myUni && static_cast<Type>(seenAElem[d]) != myElem)) {
            issue(TapeIssueKind::kTypeMismatch, idx,
                  "writers of shared array slot " + std::to_string(in.dst) +
                      " disagree on its static element type");
          }
          aDef[d] = 1;
        } else {
          if (sPinned[d] != 0) {
            issue(TapeIssueKind::kConstClobbered, idx,
                  "instruction overwrites constant/variable slot " +
                      std::to_string(in.dst));
          }
          // Multi-writer slots must agree on the static lane type the
          // batch executor fixes at construction.
          const Type derived = st.scalarType[d];
          const bool dyn = st.scalarDynamic[d] != 0;
          // analyzeTapeStaticTypes is last-writer-wins; re-derive this
          // writer's contribution to compare across writers.
          Type mine = in.type;
          bool myDyn = false;
          switch (in.op) {
            case Op::kNot:
              mine = Type::kBool;
              break;
            case Op::kNeg:
            case Op::kAbs:
              mine = in.type == Type::kReal ? Type::kReal : Type::kInt;
              break;
            case Op::kSelect: {
              const auto a = static_cast<std::size_t>(in.a);
              if (in.a >= 0 && in.a < nArray() && st.arrayUniform[a] != 0) {
                mine = st.arrayElemType[a];
              } else {
                myDyn = true;
                mine = in.type;
              }
              break;
            }
            default:
              break;
          }
          if (seenType[d] < 0) {
            seenType[d] = static_cast<std::int8_t>(mine);
            seenDyn[d] = myDyn ? 1 : 0;
          } else if (static_cast<Type>(seenType[d]) != mine ||
                     (seenDyn[d] != 0) != myDyn) {
            issue(TapeIssueKind::kTypeMismatch, idx,
                  "writers of shared slot " + std::to_string(in.dst) +
                      " disagree on its static lane type");
          }
          (void)derived;
          (void)dyn;
          sDef[d] = 1;
        }
      }
    }
  }

  void checkRoots() {
    // Everything defined by the end of the code (consts, vars, any dst).
    std::vector<std::uint8_t> sDef(t_.scalarSlotCount(), 0);
    std::vector<std::uint8_t> aDef(t_.arraySlotCount(), 0);
    for (const std::int32_t s : t_.constScalarSlots()) {
      if (s >= 0 && s < nScalar()) sDef[static_cast<std::size_t>(s)] = 1;
    }
    for (const auto& b : t_.varBindings()) {
      if (b.slot >= 0 && b.slot < nScalar()) {
        sDef[static_cast<std::size_t>(b.slot)] = 1;
      }
    }
    for (const std::int32_t s : t_.constArraySlots()) {
      if (s >= 0 && s < nArray()) aDef[static_cast<std::size_t>(s)] = 1;
    }
    for (const auto& b : t_.arrayBindings()) {
      if (b.slot >= 0 && b.slot < nArray()) {
        aDef[static_cast<std::size_t>(b.slot)] = 1;
      }
    }
    for (const TapeInstr& in : t_.code()) {
      const std::int32_t max = in.arrayResult ? nArray() : nScalar();
      if (in.dst >= 0 && in.dst < max) {
        (in.arrayResult ? aDef : sDef)[static_cast<std::size_t>(in.dst)] = 1;
      }
    }
    const auto& roots = t_.rootSlots();
    for (std::size_t i = 0; i < roots.size(); ++i) {
      const SlotRef r = roots[i];
      const std::int32_t max = r.isArray ? nArray() : nScalar();
      if (r.slot < 0 || r.slot >= max) {
        issue(TapeIssueKind::kRootUndefined, -1,
              "root #" + std::to_string(i) + " slot " +
                  std::to_string(r.slot) + " out of range");
        continue;
      }
      const auto& def = r.isArray ? aDef : sDef;
      if (def[static_cast<std::size_t>(r.slot)] == 0) {
        issue(TapeIssueKind::kRootUndefined, -1,
              "root #" + std::to_string(i) + " slot " +
                  std::to_string(r.slot) + " is never defined");
      }
    }
  }

  void checkArraySharing() {
    // Array slots are never shared: executors alias array operands in
    // place, so a second writer would clobber a value still being read.
    // Scalar slots may be shared by any writers whose live ranges do not
    // overlap; the static lane-type agreement is checkDefUseAndTypes'.
    const auto& code = t_.code();
    std::vector<std::int32_t> arrayWriters(t_.arraySlotCount(), -1);
    for (std::size_t i = 0; i < code.size(); ++i) {
      const TapeInstr& in = code[i];
      if (!in.arrayResult || in.dst < 0 || in.dst >= nArray()) continue;
      auto& w = arrayWriters[static_cast<std::size_t>(in.dst)];
      if (w >= 0) {
        issue(TapeIssueKind::kUnsafeSharing, static_cast<std::int32_t>(i),
              "array slot " + std::to_string(in.dst) +
                  " written twice (instr " + std::to_string(w) +
                  "); executors alias arrays in place");
      }
      w = static_cast<std::int32_t>(i);
    }
  }

  void checkCseDuplicates() {
    // Value numbering with slot versions: operands compare equal only
    // when they name the same write of the same slot (shared slots are
    // multi-version, so textual identity alone is not redundancy).
    std::vector<std::int32_t> sVer(t_.scalarSlotCount(), 0);
    std::vector<std::int32_t> aVer(t_.arraySlotCount(), 0);
    struct Seen {
      TapeInstr in;
      std::int32_t va = 0, vb = 0, vc = 0;
      std::int32_t idx = 0;
    };
    std::unordered_map<std::uint64_t, std::vector<Seen>> buckets;
    const auto& code = t_.code();
    for (std::size_t i = 0; i < code.size(); ++i) {
      const TapeInstr& in = code[i];
      if (isLeafOp(in.op)) continue;
      std::int32_t ver[3] = {0, 0, 0};
      int n = 0;
      forEachTapeOperand(in, [&](std::int32_t slot, bool isArray) {
        const std::int32_t max = isArray ? nArray() : nScalar();
        if (n < 3) {
          ver[n++] = (slot >= 0 && slot < max)
                         ? (isArray ? aVer : sVer)[static_cast<std::size_t>(
                               slot)]
                         : -1;
        }
      });
      std::uint64_t h = mixBits(static_cast<std::uint64_t>(in.op),
                                static_cast<std::uint64_t>(in.type));
      h = mixBits(h, static_cast<std::uint64_t>(
                         static_cast<std::uint32_t>(in.a)));
      h = mixBits(h, static_cast<std::uint64_t>(
                         static_cast<std::uint32_t>(in.b)));
      h = mixBits(h, static_cast<std::uint64_t>(
                         static_cast<std::uint32_t>(in.c)));
      for (int k = 0; k < 3; ++k) {
        h = mixBits(h, static_cast<std::uint64_t>(
                           static_cast<std::uint32_t>(ver[k])));
      }
      auto& bucket = buckets[h];
      for (const Seen& s : bucket) {
        if (sameTapeComputation(s.in, in) && s.va == ver[0] &&
            s.vb == ver[1] && s.vc == ver[2]) {
          issue(TapeIssueKind::kCseDuplicate, static_cast<std::int32_t>(i),
                std::string(opName(in.op)) + " duplicates instruction " +
                    std::to_string(s.idx) + " over identical operands");
          break;
        }
      }
      bucket.push_back({in, ver[0], ver[1], ver[2],
                        static_cast<std::int32_t>(i)});
      const std::int32_t dstMax = in.arrayResult ? nArray() : nScalar();
      if (in.dst >= 0 && in.dst < dstMax) {
        ++(in.arrayResult ? aVer : sVer)[static_cast<std::size_t>(in.dst)];
      }
    }
  }

  const Tape& t_;
  TapeVerifyResult result_;
};

}  // namespace

const char* tapeIssueCheckId(TapeIssueKind k) {
  switch (k) {
    case TapeIssueKind::kSlotBounds:
      return "tape-slot-bounds";
    case TapeIssueKind::kUseBeforeDef:
      return "tape-use-before-def";
    case TapeIssueKind::kConstClobbered:
      return "tape-const-clobbered";
    case TapeIssueKind::kTypeMismatch:
      return "tape-type-mismatch";
    case TapeIssueKind::kRootUndefined:
      return "tape-root-undefined";
    case TapeIssueKind::kUnsafeSharing:
      return "tape-unsafe-sharing";
    case TapeIssueKind::kCseDuplicate:
      return "tape-cse-duplicate";
  }
  return "tape-unknown";
}

bool tapeIssueIsError(TapeIssueKind k) {
  return k != TapeIssueKind::kCseDuplicate;
}

bool TapeVerifyResult::hasErrors() const {
  for (const TapeIssue& i : issues) {
    if (tapeIssueIsError(i.kind)) return true;
  }
  return false;
}

std::string TapeVerifyResult::render() const {
  std::string out;
  for (const TapeIssue& i : issues) {
    out += tapeIssueCheckId(i.kind);
    if (i.instr >= 0) out += " [#" + std::to_string(i.instr) + "]";
    out += ": " + i.message + "\n";
  }
  return out;
}

TapeStaticTypes analyzeTapeStaticTypes(const Tape& t) {
  // Mirrors the derivation in BatchTapeExecutor's constructor: constants
  // carry their own type, variable slots the binding's coercion type,
  // and instruction results follow from applyUnary/applyBinary. The one
  // dynamic case is kSelect over an array without a statically uniform
  // element type (var-bound arrays keep elements uncast).
  TapeStaticTypes st;
  const std::size_t ns = t.scalarSlotCount();
  const std::size_t na = t.arraySlotCount();
  st.scalarType.assign(ns, Type::kInt);
  st.scalarDynamic.assign(ns, 0);
  st.arrayUniform.assign(na, 0);
  st.arrayElemType.assign(na, Type::kInt);

  for (const std::int32_t s : t.constScalarSlots()) {
    if (s < 0 || s >= static_cast<std::int32_t>(ns)) continue;
    st.scalarType[static_cast<std::size_t>(s)] =
        t.scalarInit()[static_cast<std::size_t>(s)].type();
  }
  for (const auto& b : t.varBindings()) {
    if (b.slot < 0 || b.slot >= static_cast<std::int32_t>(ns)) continue;
    st.scalarType[static_cast<std::size_t>(b.slot)] = b.type;
  }
  for (const std::int32_t s : t.constArraySlots()) {
    if (s < 0 || s >= static_cast<std::int32_t>(na)) continue;
    const auto& init = t.arrayInit()[static_cast<std::size_t>(s)];
    if (init.empty()) continue;
    bool uniform = true;
    for (const Scalar& e : init) uniform &= e.type() == init[0].type();
    if (uniform) {
      st.arrayUniform[static_cast<std::size_t>(s)] = 1;
      st.arrayElemType[static_cast<std::size_t>(s)] = init[0].type();
    }
  }

  for (const TapeInstr& in : t.code()) {
    if (in.arrayResult) {
      if (in.dst < 0 || in.dst >= static_cast<std::int32_t>(na)) continue;
      const auto dst = static_cast<std::size_t>(in.dst);
      if (in.op == Op::kStore) {
        const bool srcOk = in.a >= 0 && in.a < static_cast<std::int32_t>(na);
        const auto src = static_cast<std::size_t>(in.a);
        st.arrayUniform[dst] =
            srcOk && st.arrayUniform[src] != 0 &&
                    st.arrayElemType[src] == in.type
                ? 1
                : 0;
        st.arrayElemType[dst] = in.type;
      } else {  // array kIte
        const bool ok = in.b >= 0 && in.b < static_cast<std::int32_t>(na) &&
                        in.c >= 0 && in.c < static_cast<std::int32_t>(na);
        if (ok) {
          const auto tb = static_cast<std::size_t>(in.b);
          const auto fc = static_cast<std::size_t>(in.c);
          st.arrayUniform[dst] =
              st.arrayUniform[tb] != 0 && st.arrayUniform[fc] != 0 &&
                      st.arrayElemType[tb] == st.arrayElemType[fc]
                  ? 1
                  : 0;
          st.arrayElemType[dst] = st.arrayElemType[tb];
        } else {
          st.arrayUniform[dst] = 0;
        }
      }
      continue;
    }
    if (in.dst < 0 || in.dst >= static_cast<std::int32_t>(ns)) continue;
    const auto dst = static_cast<std::size_t>(in.dst);
    switch (in.op) {
      case Op::kNot:
        st.scalarType[dst] = Type::kBool;
        break;
      case Op::kNeg:
      case Op::kAbs:
        st.scalarType[dst] = in.type == Type::kReal ? Type::kReal : Type::kInt;
        break;
      case Op::kSelect: {
        const bool aOk = in.a >= 0 && in.a < static_cast<std::int32_t>(na);
        if (aOk && st.arrayUniform[static_cast<std::size_t>(in.a)] != 0) {
          st.scalarType[dst] =
              st.arrayElemType[static_cast<std::size_t>(in.a)];
        } else {
          st.scalarDynamic[dst] = 1;
          st.scalarType[dst] = in.type;
        }
        break;
      }
      default:
        st.scalarType[dst] = in.type;
        break;
    }
  }
  return st;
}

TapeVerifyResult verifyTape(const Tape& t) { return Verifier(t).run(); }

void requireVerifiedTape(const Tape& t, const char* what) {
  const TapeVerifyResult r = verifyTape(t);
  for (const TapeIssue& i : r.issues) {
    if (!tapeIssueIsError(i.kind)) continue;
    throw EvalError(std::string(what) + ": tape verification failed: " +
                    tapeIssueCheckId(i.kind) +
                    (i.instr >= 0 ? " [#" + std::to_string(i.instr) + "]"
                                  : std::string()) +
                    ": " + i.message);
  }
}

bool tapeVerifyEnabled() {
#ifndef NDEBUG
  return true;
#else
  static const bool on = util::envFlag("STCG_TAPE_VERIFY", false);
  return on;
#endif
}

void maybeRequireVerifiedTape(const Tape& t, const char* what) {
  if (tapeVerifyEnabled()) requireVerifiedTape(t, what);
}

}  // namespace stcg::expr
