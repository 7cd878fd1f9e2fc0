#include "expr/jit.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#include "expr/tape_verify.h"
#include "util/env.h"

#if !defined(_WIN32)
#include <dlfcn.h>
#include <unistd.h>
#define STCG_JIT_HAVE_DLOPEN 1
#else
#define STCG_JIT_HAVE_DLOPEN 0
#endif

namespace stcg::expr {

namespace {

namespace fs = std::filesystem;

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

inline Scalar scalarOf(std::uint64_t payload, std::uint8_t tag) {
  switch (tag) {
    case 0:
      return Scalar::b(payload != 0);
    case 1:
      return Scalar::i(static_cast<std::int64_t>(payload));
    default:
      return Scalar::r(bitsReal(payload));
  }
}

// ---------------------------------------------------------------------------
// Diagnostics registry + in-process module memo.

std::mutex& jitMutex() {
  static std::mutex m;
  return m;
}

// Separate from jitMutex: diagnostics are recorded from inside compile(),
// which already holds jitMutex (sharing one non-recursive mutex would
// self-deadlock on the first failure or cache-recovery note).
std::mutex& diagMutex() {
  static std::mutex m;
  return m;
}

std::vector<JitDiagnostic>& diagStore() {
  static std::vector<JitDiagnostic> v;
  return v;
}

std::map<std::string, std::shared_ptr<const TapeJit>>& moduleMemo() {
  static std::map<std::string, std::shared_ptr<const TapeJit>> m;
  return m;
}

void recordDiagnostic(const char* severity, const char* check,
                      const std::string& message) {
  std::lock_guard<std::mutex> lock(diagMutex());
  diagStore().push_back({severity, check, message});
}

// ---------------------------------------------------------------------------
// Cache-file plumbing.

fs::path jitCacheDir() {
  if (const auto e = util::envString("STCG_JIT_CACHE")) {
    return fs::path(*e);
  }
  std::error_code ec;
  fs::path tmp = fs::temp_directory_path(ec);
  if (ec) tmp = "/tmp";
  return tmp / "stcg-jit-cache";
}

std::string fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string readFileTail(const fs::path& p, std::size_t maxBytes) {
  std::ifstream in(p);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string s = ss.str();
  if (s.size() > maxBytes) s = "..." + s.substr(s.size() - maxBytes);
  // Fold newlines so the message stays a single diagnostic line.
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

// ---------------------------------------------------------------------------
// Frame layout: per-array-slot static element capacities and flat offsets.

struct ArrayLayout {
  std::vector<std::int64_t> cap;
  std::vector<std::int64_t> off;
  std::int64_t total = 0;
};

ArrayLayout computeArrayLayout(const Tape& t) {
  ArrayLayout lay;
  const std::size_t na = t.arraySlotCount();
  lay.cap.assign(na, 0);
  for (std::size_t i = 0; i < na; ++i) {
    lay.cap[i] = static_cast<std::int64_t>(t.arrayInit()[i].size());
  }
  for (const TapeArrayBinding& b : t.arrayBindings()) {
    auto& c = lay.cap[static_cast<std::size_t>(b.slot)];
    c = std::max(c, static_cast<std::int64_t>(b.size));
  }
  // Copy fixpoint: kStore inherits its base's capacity, an array kIte the
  // max of both arms. Optimizer slot reuse can chain these, so iterate to
  // a fixed point (capacities only grow; bounded by the largest source).
  for (std::size_t pass = 0; pass <= t.code().size(); ++pass) {
    bool changed = false;
    for (const TapeInstr& in : t.code()) {
      if (!in.arrayResult) continue;
      auto& d = lay.cap[static_cast<std::size_t>(in.dst)];
      std::int64_t want = d;
      if (in.op == Op::kStore) {
        want = std::max(want, lay.cap[static_cast<std::size_t>(in.a)]);
      } else if (in.op == Op::kIte) {
        want = std::max({want, lay.cap[static_cast<std::size_t>(in.b)],
                         lay.cap[static_cast<std::size_t>(in.c)]});
      }
      if (want != d) {
        d = want;
        changed = true;
      }
    }
    if (!changed) break;
  }
  lay.off.assign(na, 0);
  std::int64_t o = 0;
  for (std::size_t i = 0; i < na; ++i) {
    lay.off[i] = o;
    o += lay.cap[i];
  }
  lay.total = o;
  return lay;
}

// ---------------------------------------------------------------------------
// C emission. One block per instruction, transliterating TapeExecutor::exec
// specialized on the static slot types; the only runtime type dispatch left
// is on dynamic slots (kSelect over non-uniform arrays), which goes through
// the tagged g_* helpers that mirror applyUnary/applyBinary.

class CEmitter {
 public:
  CEmitter(const Tape& t, const ArrayLayout& lay)
      : t_(t), lay_(lay), st_(analyzeTapeStaticTypes(t)) {}

  /// The whole translation unit, minus the trailing tag symbol.
  std::string source() {
    buildBlocks();
    std::string o = preamble();
    o += "static void step_one" + kSig + " {\n" + kUnused;
    for (const std::string& b : blocks_) o += b;
    o += "}\n\n";
    o += "void stcg_step" + kSig + " { step_one(sv, st, an, ae, at); }\n\n";
    o += "void stcg_run_lanes(i64 n, u64* sv, u8* st, i64* an, u64* ae, "
         "u8* at) {\n"
         "  for (i64 l = 0; l < n; ++l) {\n"
         "    step_one(sv + l * " +
         S(static_cast<std::int64_t>(t_.scalarSlotCount())) + ", st + l * " +
         S(static_cast<std::int64_t>(t_.scalarSlotCount())) + ", an + l * " +
         S(static_cast<std::int64_t>(t_.arraySlotCount())) + ", ae + l * " +
         S(lay_.total) + ", at + l * " + S(lay_.total) + ");\n  }\n}\n\n";
    return o;
  }

 private:
  static std::string S(std::int64_t v) { return std::to_string(v); }
  static int tagOf(Type t) { return static_cast<int>(t); }

  [[nodiscard]] bool dyn(std::int32_t s) const {
    return st_.scalarDynamic[static_cast<std::size_t>(s)] != 0;
  }
  [[nodiscard]] Type sty(std::int32_t s) const {
    return st_.scalarType[static_cast<std::size_t>(s)];
  }
  std::string sv(std::int32_t s) const { return "sv[" + S(s) + "]"; }
  std::string stg(std::int32_t s) const { return "st[" + S(s) + "]"; }
  std::string an(std::int32_t s) const { return "an[" + S(s) + "]"; }
  std::string aOff(std::int32_t s) const {
    return S(lay_.off[static_cast<std::size_t>(s)]);
  }
  /// Operand tag as a C expression: the live tag for dynamic slots, the
  /// static type literal otherwise.
  std::string tag(std::int32_t s) const {
    return dyn(s) ? stg(s) : S(tagOf(sty(s))) + "u";
  }

  // Typed reads, dynamic-safe: a dynamic slot dispatches on its live tag
  // through the g_* helpers (exactly Scalar::toReal/toInt/toBool); static
  // slots read the payload directly in its known representation.
  std::string rdReal(std::int32_t s) const {
    if (dyn(s)) return "g_toreal(" + sv(s) + ", " + stg(s) + ")";
    switch (sty(s)) {
      case Type::kBool: return "(double)" + sv(s);
      case Type::kInt: return "(double)(i64)" + sv(s);
      case Type::kReal: return "br_(" + sv(s) + ")";
    }
    return "0.0";
  }
  std::string rdInt(std::int32_t s) const {
    if (dyn(s)) return "g_toint(" + sv(s) + ", " + stg(s) + ")";
    if (sty(s) == Type::kReal) return "sat_i64(br_(" + sv(s) + "))";
    return "(i64)" + sv(s);
  }
  std::string rdBool(std::int32_t s) const {  // yields an int 0/1
    if (dyn(s)) return "g_tobool(" + sv(s) + ", " + stg(s) + ")";
    if (sty(s) == Type::kReal) return "(br_(" + sv(s) + ") != 0.0)";
    return "(" + sv(s) + " != 0u)";
  }

  /// Append "st[dst] = <tag>;" when the destination slot is dynamic —
  /// static slots keep their preset tag (the BatchTapeExecutor invariant).
  std::string tagWrite(std::int32_t d, Type to) const {
    return dyn(d) ? " " + stg(d) + " = " + S(tagOf(to)) + "u;" : "";
  }
  // Typed stores implementing castTo(to) from each source domain
  // (storeRealAs/storeIntAs/storeBoolAs of the batch executor, at B=1).
  std::string wrReal(std::int32_t d, Type to, const std::string& x) const {
    std::string s;
    switch (to) {
      case Type::kReal: s = sv(d) + " = rb_(" + x + ");"; break;
      case Type::kInt: s = sv(d) + " = (u64)sat_i64(" + x + ");"; break;
      case Type::kBool:
        s = sv(d) + " = (" + x + ") != 0.0 ? 1u : 0u;";
        break;
    }
    return s + tagWrite(d, to);
  }
  std::string wrInt(std::int32_t d, Type to, const std::string& x) const {
    std::string s;
    switch (to) {
      case Type::kInt: s = sv(d) + " = (u64)(" + x + ");"; break;
      case Type::kReal: s = sv(d) + " = rb_((double)(" + x + "));"; break;
      case Type::kBool: s = sv(d) + " = (" + x + ") != 0 ? 1u : 0u;"; break;
    }
    return s + tagWrite(d, to);
  }
  std::string wrBool(std::int32_t d, Type to, const std::string& x) const {
    // x is an int 0/1 expression; bool->int keeps the 0/1 payload.
    std::string s;
    switch (to) {
      case Type::kBool:
      case Type::kInt: s = sv(d) + " = (u64)(" + x + ");"; break;
      case Type::kReal: s = sv(d) + " = rb_((double)(" + x + "));"; break;
    }
    return s + tagWrite(d, to);
  }

  /// Payload of scalar slot `s` cast to `to` (kStore's value coercion).
  std::string castPayload(std::int32_t s, Type to) const {
    switch (to) {
      case Type::kReal: return "rb_(" + rdReal(s) + ")";
      case Type::kInt: return "(u64)" + rdInt(s) + "";
      case Type::kBool: return "(u64)" + rdBool(s) + "";
    }
    return "0u";
  }

  std::string arrayCopy(std::int32_t dst, std::int32_t src,
                        const std::string& n) const {
    if (dst == src) return "";
    return "    memcpy(ae + " + aOff(dst) + ", ae + " + aOff(src) +
           ", (size_t)" + n + " * sizeof(u64));\n    memcpy(at + " +
           aOff(dst) + ", at + " + aOff(src) + ", (size_t)" + n + ");\n";
  }

  std::string block(const TapeInstr& in, std::size_t idx) const {
    std::string o = "  { /* i" + S(static_cast<std::int64_t>(idx)) + " " +
                    opName(in.op) + " */\n";
    switch (in.op) {
      case Op::kNot:
        // applyUnary: Scalar::b(!toBool(a)) — stored uncast (kBool).
        o += "    " + wrBool(in.dst, Type::kBool, "!" + rdBool(in.a)) + "\n";
        break;
      case Op::kNeg:
        if (in.type == Type::kReal) {
          o += "    " + wrReal(in.dst, Type::kReal, "-" + rdReal(in.a)) + "\n";
        } else {
          // Two's-complement negate via unsigned to avoid the UB edge the
          // host's -O2 happens to fold the same way.
          o += "    " +
               wrInt(in.dst, Type::kInt, "(i64)(0u - (u64)" + rdInt(in.a) + ")") +
               "\n";
        }
        break;
      case Op::kAbs:
        if (in.type == Type::kReal) {
          o += "    " + wrReal(in.dst, Type::kReal, "fabs(" + rdReal(in.a) + ")") +
               "\n";
        } else {
          o += "    { i64 x = " + rdInt(in.a) + ";\n      " +
               wrInt(in.dst, Type::kInt, "x < 0 ? (i64)(0u - (u64)x) : x") +
               " }\n";
        }
        break;
      case Op::kCast:
        switch (in.type) {
          case Type::kReal:
            o += "    " + wrReal(in.dst, Type::kReal, rdReal(in.a)) + "\n";
            break;
          case Type::kInt:
            o += "    " + wrInt(in.dst, Type::kInt, rdInt(in.a)) + "\n";
            break;
          case Type::kBool:
            o += "    " + wrBool(in.dst, Type::kBool, rdBool(in.a)) + "\n";
            break;
        }
        break;
      case Op::kAdd:
      case Op::kSub:
      case Op::kMul:
      case Op::kDiv:
      case Op::kMin:
      case Op::kMax:
        o += arith(in);
        break;
      case Op::kMod:
        o += "    { i64 x = " + rdInt(in.a) + ", y = " + rdInt(in.b) +
             ";\n      " + wrInt(in.dst, in.type, "y == 0 ? 0 : x % y") +
             " }\n";
        break;
      case Op::kLt:
      case Op::kLe:
      case Op::kGt:
      case Op::kGe:
      case Op::kEq:
      case Op::kNe: {
        const char* cmp = in.op == Op::kLt   ? "<"
                          : in.op == Op::kLe ? "<="
                          : in.op == Op::kGt ? ">"
                          : in.op == Op::kGe ? ">="
                          : in.op == Op::kEq ? "=="
                                             : "!=";
        o += "    " +
             wrBool(in.dst, in.type,
                    rdReal(in.a) + " " + cmp + " " + rdReal(in.b)) +
             "\n";
        break;
      }
      case Op::kAnd:
      case Op::kOr:
      case Op::kXor: {
        const char* op = in.op == Op::kAnd ? "&" : in.op == Op::kOr ? "|" : "^";
        o += "    " +
             wrBool(in.dst, in.type,
                    rdBool(in.a) + std::string(" ") + op + " " + rdBool(in.b)) +
             "\n";
        break;
      }
      case Op::kIte:
        if (in.arrayResult) {
          o += "    { i64 n;\n    if (" + rdBool(in.a) + ") {\n      n = " +
               an(in.b) + ";\n" + arrayCopy(in.dst, in.b, "n") +
               "    } else {\n      n = " + an(in.c) + ";\n" +
               arrayCopy(in.dst, in.c, "n") + "    }\n    " + an(in.dst) +
               " = n; }\n";
        } else {
          // select-then-castTo(in.type) == read the chosen arm in the
          // target domain (dynamic-safe reads handle per-arm live types).
          switch (in.type) {
            case Type::kReal:
              o += "    " +
                   wrReal(in.dst, Type::kReal,
                          rdBool(in.a) + " ? " + rdReal(in.b) + " : " +
                              rdReal(in.c)) +
                   "\n";
              break;
            case Type::kInt:
              o += "    " +
                   wrInt(in.dst, Type::kInt,
                         rdBool(in.a) + " ? " + rdInt(in.b) + " : " +
                             rdInt(in.c)) +
                   "\n";
              break;
            case Type::kBool:
              o += "    " +
                   wrBool(in.dst, Type::kBool,
                          rdBool(in.a) + " ? " + rdBool(in.b) + " : " +
                              rdBool(in.c)) +
                   "\n";
              break;
          }
        }
        break;
      case Op::kSelect: {
        // Clamped read; payload and tag both come off the element, exactly
        // the interpreter's Scalar copy. Empty arrays cannot occur on a
        // verified tape; the n>0 guard keeps the native code memory-safe
        // regardless.
        o += "    i64 n = " + an(in.a) + ";\n    if (n > 0) {\n      i64 i = " +
             rdInt(in.b) +
             ";\n      if (i < 0) i = 0;\n      if (i >= n) i = n - 1;\n"
             "      " +
             sv(in.dst) + " = ae[" + aOff(in.a) + " + i];\n";
        if (dyn(in.dst)) {
          o += "      " + stg(in.dst) + " = at[" + aOff(in.a) + " + i];\n";
        }
        o += "    }\n";
        break;
      }
      case Op::kStore: {
        o += "    i64 n = " + an(in.a) + ";\n" + arrayCopy(in.dst, in.a, "n") +
             "    " + an(in.dst) +
             " = n;\n    if (n > 0) {\n      i64 i = " + rdInt(in.b) +
             ";\n      if (i < 0) i = 0;\n      if (i >= n) i = n - 1;\n"
             "      ae[" +
             aOff(in.dst) + " + i] = " + castPayload(in.c, in.type) +
             ";\n      at[" + aOff(in.dst) + " + i] = " + S(tagOf(in.type)) +
             "u;\n    }\n";
        break;
      }
      default:
        // Leaf ops never appear as instructions on a verified tape.
        break;
    }
    return o + "  }\n";
  }

  /// Promote-sensitive arithmetic: the domain (int vs real) depends on
  /// both operand types, so a dynamic operand forces the tagged helper;
  /// static operands get the domain resolved at emission time.
  std::string arith(const TapeInstr& in) const {
    if (dyn(in.a) || dyn(in.b)) {
      return "    { u8 rt; u64 rv = g_arith(" +
             S(static_cast<int>(in.op)) + ", " + sv(in.a) + ", " + tag(in.a) +
             ", " + sv(in.b) + ", " + tag(in.b) + ", &rt);\n      " + sv(in.dst) +
             " = g_cast(rv, rt, " + S(tagOf(in.type)) + "u);" +
             tagWrite(in.dst, in.type) + " }\n";
    }
    const Type ta = sty(in.a) == Type::kBool ? Type::kInt : sty(in.a);
    const Type tb = sty(in.b) == Type::kBool ? Type::kInt : sty(in.b);
    const bool real = ta == Type::kReal || tb == Type::kReal;
    std::string x, body;
    if (real) {
      body = "    { double x = " + rdReal(in.a) + ", y = " + rdReal(in.b) +
             ";\n      ";
      switch (in.op) {
        case Op::kAdd: x = "x + y"; break;
        case Op::kSub: x = "x - y"; break;
        case Op::kMul: x = "x * y"; break;
        case Op::kDiv: x = "y == 0.0 ? 0.0 : x / y"; break;
        case Op::kMin: x = "fmin(x, y)"; break;
        default: x = "fmax(x, y)"; break;
      }
      return body + wrReal(in.dst, in.type, x) + " }\n";
    }
    body = "    { i64 x = " + rdInt(in.a) + ", y = " + rdInt(in.b) + ";\n      ";
    switch (in.op) {
      case Op::kAdd: x = "(i64)((u64)x + (u64)y)"; break;
      case Op::kSub: x = "(i64)((u64)x - (u64)y)"; break;
      case Op::kMul: x = "(i64)((u64)x * (u64)y)"; break;
      case Op::kDiv: x = "y == 0 ? 0 : x / y"; break;
      case Op::kMin: x = "x < y ? x : y"; break;
      default: x = "x < y ? y : x"; break;
    }
    return body + wrInt(in.dst, in.type, x) + " }\n";
  }

  void buildBlocks() {
    blocks_.clear();
    blocks_.reserve(t_.code().size());
    for (std::size_t i = 0; i < t_.code().size(); ++i) {
      blocks_.push_back(block(t_.code()[i], i));
    }
  }

  std::string preamble() const {
    std::string o =
        "/* Generated by stcg expr::TapeJit — hash-keyed cache artifact.\n"
        "   Transliteration of TapeExecutor::exec for one tape; do not edit. "
        "*/\n"
        "#include <stdint.h>\n#include <string.h>\n#include <math.h>\n\n"
        "typedef uint64_t u64;\ntypedef int64_t i64;\ntypedef uint8_t u8;\n\n"
        "static inline double br_(u64 u) { double d; memcpy(&d, &u, 8); "
        "return d; }\n"
        "static inline u64 rb_(double d) { u64 u; memcpy(&u, &d, 8); "
        "return u; }\n\n";
    o += saturatingRealToIntC();
    o +=
        "\nstatic inline double g_toreal(u64 v, u8 t) {\n"
        "  if (t == 2u) return br_(v);\n"
        "  if (t == 1u) return (double)(i64)v;\n"
        "  return v ? 1.0 : 0.0;\n}\n"
        "static inline i64 g_toint(u64 v, u8 t) {\n"
        "  if (t == 2u) return sat_i64(br_(v));\n"
        "  return (i64)v;\n}\n"
        "static inline int g_tobool(u64 v, u8 t) {\n"
        "  if (t == 2u) return br_(v) != 0.0;\n"
        "  return v != 0u;\n}\n"
        "static inline u64 g_cast(u64 v, u8 t, u8 to) {\n"
        "  if (to == 2u) return rb_(g_toreal(v, t));\n"
        "  if (to == 1u) return (u64)g_toint(v, t);\n"
        "  return g_tobool(v, t) ? 1u : 0u;\n}\n"
        "/* applyBinary's promote-sensitive arithmetic over tagged payloads. "
        "*/\n"
        "static inline u64 g_arith(int op, u64 a, u8 ta, u64 b, u8 tb, "
        "u8* rt) {\n"
        "  if (ta == 2u || tb == 2u) {\n"
        "    double x = g_toreal(a, ta), y = g_toreal(b, tb), r;\n"
        "    if (op == " + S(static_cast<int>(Op::kAdd)) + ") r = x + y;\n"
        "    else if (op == " + S(static_cast<int>(Op::kSub)) + ") r = x - y;\n"
        "    else if (op == " + S(static_cast<int>(Op::kMul)) + ") r = x * y;\n"
        "    else if (op == " + S(static_cast<int>(Op::kDiv)) +
        ") r = y == 0.0 ? 0.0 : x / y;\n"
        "    else if (op == " + S(static_cast<int>(Op::kMin)) +
        ") r = fmin(x, y);\n"
        "    else r = fmax(x, y);\n"
        "    *rt = 2u; return rb_(r);\n  }\n"
        "  i64 x = g_toint(a, ta), y = g_toint(b, tb), r;\n"
        "  if (op == " + S(static_cast<int>(Op::kAdd)) +
        ") r = (i64)((u64)x + (u64)y);\n"
        "  else if (op == " + S(static_cast<int>(Op::kSub)) +
        ") r = (i64)((u64)x - (u64)y);\n"
        "  else if (op == " + S(static_cast<int>(Op::kMul)) +
        ") r = (i64)((u64)x * (u64)y);\n"
        "  else if (op == " + S(static_cast<int>(Op::kDiv)) +
        ") r = y == 0 ? 0 : x / y;\n"
        "  else if (op == " + S(static_cast<int>(Op::kMin)) +
        ") r = x < y ? x : y;\n"
        "  else r = x < y ? y : x;\n"
        "  *rt = 1u; return (u64)r;\n}\n\n";
    return o;
  }

  static inline const std::string kSig =
      "(u64* sv, u8* st, i64* an, u64* ae, u8* at)";
  static inline const std::string kUnused =
      "  (void)sv; (void)st; (void)an; (void)ae; (void)at;\n";

  const Tape& t_;
  const ArrayLayout& lay_;
  TapeStaticTypes st_;
  std::vector<std::string> blocks_;
};

#if STCG_JIT_HAVE_DLOPEN

/// dlopen + tag check. Returns nullptr with *err set on any mismatch —
/// a stale or foreign cached object is discarded, never trusted.
void* tryLoadModule(const fs::path& so, const std::string& hash,
                    std::string* err) {
  void* h = ::dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (h == nullptr) {
    const char* e = ::dlerror();
    *err = e != nullptr ? e : "dlopen failed";
    return nullptr;
  }
  const char* tag = static_cast<const char*>(::dlsym(h, "stcg_jit_tag"));
  if (tag == nullptr || hash != tag) {
    ::dlclose(h);
    *err = "cached module tag mismatch (stale or foreign .so)";
    return nullptr;
  }
  if (::dlsym(h, "stcg_step") == nullptr ||
      ::dlsym(h, "stcg_run_lanes") == nullptr) {
    ::dlclose(h);
    *err = "cached module is missing required symbols";
    return nullptr;
  }
  return h;
}

#endif  // STCG_JIT_HAVE_DLOPEN

}  // namespace

bool jitEnabled() {
  static const bool on = util::envFlag("STCG_JIT", true);
  return on;
}

std::string jitCompiler() {
  return util::envString("STCG_JIT_CC").value_or("cc");
}

std::vector<JitDiagnostic> jitDiagnostics() {
  std::lock_guard<std::mutex> lock(diagMutex());
  return diagStore();
}

void clearJitDiagnostics() {
  std::lock_guard<std::mutex> lock(diagMutex());
  diagStore().clear();
}

void jitClearCache() {
  std::lock_guard<std::mutex> lock(jitMutex());
  moduleMemo().clear();
}

TapeJit::~TapeJit() {
#if STCG_JIT_HAVE_DLOPEN
  if (handle_ != nullptr) ::dlclose(handle_);
#endif
}

std::shared_ptr<const TapeJit> TapeJit::compile(
    const std::shared_ptr<const Tape>& tape, std::string* whyNot) {
  const auto fail = [&](const std::string& why, const char* severity =
                            "warning") -> std::shared_ptr<const TapeJit> {
    recordDiagnostic(severity, "jit-unavailable", why);
    if (whyNot != nullptr) *whyNot = why;
    return nullptr;
  };
  if (!jitEnabled()) {
    return fail("tape JIT disabled via STCG_JIT=0", "note");
  }
#if !STCG_JIT_HAVE_DLOPEN
  return fail("tape JIT unsupported on this platform (no dlopen)");
#else
  // Never emit from an unsound tape: the verifier's static model is what
  // the specialization below trusts.
  if (TapeVerifyResult vr = verifyTape(*tape); vr.hasErrors()) {
    return fail("refusing to JIT an unverified tape: " + vr.render());
  }

  const ArrayLayout lay = computeArrayLayout(*tape);
  CEmitter em(*tape, lay);
  std::string src = em.source();
  const std::string hash = fnv1a(src);
  src += "const char stcg_jit_tag[] = \"" + hash + "\";\n";

  // One compile at a time process-wide: serializes the memo, the cache
  // directory and the compiler invocation.
  std::lock_guard<std::mutex> lock(jitMutex());
  if (const auto it = moduleMemo().find(hash); it != moduleMemo().end()) {
    return it->second;
  }

  std::error_code ec;
  const fs::path dir = jitCacheDir();
  fs::create_directories(dir, ec);
  const fs::path so = dir / ("stcg_jit_" + hash + ".so");
  const fs::path cSrc = dir / ("stcg_jit_" + hash + ".c");
  const fs::path errFile = dir / ("stcg_jit_" + hash + ".err");

  std::string loadErr;
  void* handle = nullptr;
  if (fs::exists(so, ec)) {
    handle = tryLoadModule(so, hash, &loadErr);
    if (handle == nullptr) {
      // Stale/corrupt cache entry: discard and rebuild.
      recordDiagnostic("note", "jit-cache",
                       "discarding cached module " + so.string() + ": " +
                           loadErr);
      fs::remove(so, ec);
    }
  }
  if (handle == nullptr) {
    {
      std::ofstream out(cSrc);
      if (!out) {
        return fail("cannot write JIT source to " + cSrc.string());
      }
      out << src;
    }
    const std::string cc = jitCompiler();
    const fs::path tmpSo =
        dir / ("stcg_jit_" + hash + ".so.tmp" + std::to_string(::getpid()));
    const std::string cmd = "\"" + cc + "\" -O2 -fPIC -shared -std=c11 -x c \"" +
                            cSrc.string() + "\" -o \"" + tmpSo.string() +
                            "\" -lm 2> \"" + errFile.string() + "\"";
    const int rc = std::system(cmd.c_str());
    if (rc != 0) {
      std::string tail = readFileTail(errFile, 400);
      fs::remove(tmpSo, ec);
      return fail("JIT compile failed (cc='" + cc + "', exit " +
                  std::to_string(rc) + (tail.empty() ? ")" : "): " + tail));
    }
    fs::rename(tmpSo, so, ec);
    if (ec) {
      fs::remove(tmpSo, ec);
      return fail("cannot install compiled module at " + so.string());
    }
    handle = tryLoadModule(so, hash, &loadErr);
    if (handle == nullptr) {
      return fail("dlopen failed after compile: " + loadErr);
    }
  }

  auto jit = std::shared_ptr<TapeJit>(new TapeJit());
  jit->handle_ = handle;
  jit->hash_ = hash;
  jit->ns_ = tape->scalarSlotCount();
  jit->na_ = tape->arraySlotCount();
  jit->arrayCap_ = lay.cap;
  jit->arrayOff_ = lay.off;
  jit->totalCap_ = lay.total;
  jit->step_ = reinterpret_cast<Frame>(::dlsym(handle, "stcg_step"));
  jit->lanes_ = reinterpret_cast<LanesFn>(::dlsym(handle, "stcg_run_lanes"));
  moduleMemo()[hash] = jit;
  return jit;
#endif  // STCG_JIT_HAVE_DLOPEN
}

// ---------------------------------------------------------------------------
// JitTapeExecutor

JitTapeExecutor::JitTapeExecutor(std::shared_ptr<const Tape> tape,
                                 std::shared_ptr<const TapeJit> jit, int lanes)
    : tape_(std::move(tape)), jit_(std::move(jit)),
      lanes_(lanes < 1 ? 1 : lanes) {
  if (jit_ == nullptr) {
    throw EvalError("JitTapeExecutor: null TapeJit module");
  }
  if (jit_->scalarSlots() != tape_->scalarSlotCount() ||
      jit_->arraySlots() != tape_->arraySlotCount()) {
    throw EvalError("JitTapeExecutor: module/tape frame geometry mismatch");
  }
  ns_ = static_cast<std::ptrdiff_t>(jit_->scalarSlots());
  na_ = static_cast<std::ptrdiff_t>(jit_->arraySlots());
  cap_ = static_cast<std::ptrdiff_t>(jit_->totalArrayCapacity());
  const TapeStaticTypes st = analyzeTapeStaticTypes(*tape_);
  const auto B = static_cast<std::size_t>(lanes_);

  sv_.assign(static_cast<std::size_t>(ns_) * B, 0);
  st_.assign(static_cast<std::size_t>(ns_) * B, 0);
  an_.assign(static_cast<std::size_t>(na_) * B, 0);
  ae_.assign(static_cast<std::size_t>(cap_) * B, 0);
  at_.assign(static_cast<std::size_t>(cap_) * B, 0);

  // Lane-0 image, then replicated: constants carry their payload, every
  // other slot starts zero with its static tag (the batch executor's
  // initialization, at any B).
  for (std::size_t s = 0; s < static_cast<std::size_t>(ns_); ++s) {
    sv_[s] = bitsOf(tape_->scalarInit()[s].castTo(st.scalarType[s]));
    st_[s] = static_cast<std::uint8_t>(st.scalarType[s]);
  }
  for (std::size_t a = 0; a < static_cast<std::size_t>(na_); ++a) {
    const auto& init = tape_->arrayInit()[a];
    an_[a] = static_cast<std::int64_t>(init.size());
    const auto off = static_cast<std::size_t>(jit_->arrayOffset(
        static_cast<std::int32_t>(a)));
    for (std::size_t j = 0; j < init.size(); ++j) {
      ae_[off + j] = bitsOf(init[j]);
      at_[off + j] = static_cast<std::uint8_t>(init[j].type());
    }
  }
  for (std::size_t l = 1; l < B; ++l) {
    std::copy_n(sv_.begin(), ns_, sv_.begin() + static_cast<std::ptrdiff_t>(l) * ns_);
    std::copy_n(st_.begin(), ns_, st_.begin() + static_cast<std::ptrdiff_t>(l) * ns_);
    std::copy_n(an_.begin(), na_, an_.begin() + static_cast<std::ptrdiff_t>(l) * na_);
    std::copy_n(ae_.begin(), cap_, ae_.begin() + static_cast<std::ptrdiff_t>(l) * cap_);
    std::copy_n(at_.begin(), cap_, at_.begin() + static_cast<std::ptrdiff_t>(l) * cap_);
  }

  varBound_.assign(tape_->varBindings().size() * B, 0);
  arrayBound_.assign(tape_->arrayBindings().size() * B, 0);
}

void JitTapeExecutor::setVarLane(int lane, VarId id, const Scalar& v) {
  const auto& bindings = tape_->varBindings();
  auto it = std::lower_bound(
      bindings.begin(), bindings.end(), id,
      [](const TapeVarBinding& b, VarId want) { return b.var < want; });
  for (; it != bindings.end() && it->var == id; ++it) {
    const auto slot = static_cast<std::size_t>(it->slot);
    sv(lane)[slot] = bitsOf(v.castTo(it->type));
    st(lane)[slot] = static_cast<std::uint8_t>(it->type);
    varBound_[static_cast<std::size_t>(it - bindings.begin()) *
                  static_cast<std::size_t>(lanes_) +
              static_cast<std::size_t>(lane)] = 1;
  }
}

void JitTapeExecutor::setArrayVarLane(int lane, VarId id,
                                      const std::vector<Scalar>& v) {
  const auto& bindings = tape_->arrayBindings();
  auto it = std::lower_bound(
      bindings.begin(), bindings.end(), id,
      [](const TapeArrayBinding& b, VarId want) { return b.var < want; });
  for (; it != bindings.end() && it->var == id; ++it) {
    const std::int32_t slot = it->slot;
    if (static_cast<std::int64_t>(v.size()) > jit_->arrayCapacity(slot)) {
      throw EvalError("JitTapeExecutor: array bind of " +
                      std::to_string(v.size()) + " element(s) exceeds slot " +
                      std::to_string(slot) + "'s static capacity " +
                      std::to_string(jit_->arrayCapacity(slot)));
    }
    an(lane)[static_cast<std::size_t>(slot)] =
        static_cast<std::int64_t>(v.size());
    const auto off = static_cast<std::size_t>(jit_->arrayOffset(slot));
    for (std::size_t j = 0; j < v.size(); ++j) {
      ae(lane)[off + j] = bitsOf(v[j]);  // elements stay uncast, like setVar
      at(lane)[off + j] = static_cast<std::uint8_t>(v[j].type());
    }
    arrayBound_[static_cast<std::size_t>(it - bindings.begin()) *
                    static_cast<std::size_t>(lanes_) +
                static_cast<std::size_t>(lane)] = 1;
  }
}

void JitTapeExecutor::bindEnv(const Env& env) {
  for (const auto& b : tape_->varBindings()) {
    if (env.has(b.var)) setVar(b.var, env.get(b.var));
  }
  for (const auto& b : tape_->arrayBindings()) {
    if (env.hasArray(b.var)) setArrayVar(b.var, env.getArray(b.var));
  }
}

void JitTapeExecutor::requireAllBound(int n) {
  if (checkedLanes_ >= n) return;
  const auto& vb = tape_->varBindings();
  const auto& ab = tape_->arrayBindings();
  for (int lane = 0; lane < n; ++lane) {
    for (std::size_t i = 0; i < vb.size(); ++i) {
      if (varBound_[i * static_cast<std::size_t>(lanes_) +
                    static_cast<std::size_t>(lane)] == 0) {
        throw EvalError("unbound variable '" + vb[i].name + "' (id " +
                        std::to_string(vb[i].var) +
                        ") during tape execution");
      }
    }
    for (std::size_t i = 0; i < ab.size(); ++i) {
      if (arrayBound_[i * static_cast<std::size_t>(lanes_) +
                      static_cast<std::size_t>(lane)] == 0) {
        throw EvalError("unbound array variable '" + ab[i].name + "' (id " +
                        std::to_string(ab[i].var) +
                        ") during tape execution");
      }
    }
  }
  checkedLanes_ = n;
}

void JitTapeExecutor::run() {
  requireAllBound(1);
  jit_->step()(sv(0), st(0), an(0), ae(0), at(0));
}

void JitTapeExecutor::runBatch(int n) {
  n = std::clamp(n, 1, lanes_);
  requireAllBound(n);
  jit_->runLanes()(n, sv(0), st(0), an(0), ae(0), at(0));
}

Scalar JitTapeExecutor::scalarLane(int lane, SlotRef r) const {
  const auto idx = static_cast<std::size_t>(lane) *
                       static_cast<std::size_t>(ns_) +
                   static_cast<std::size_t>(r.slot);
  return scalarOf(sv_[idx], st_[idx]);
}

std::vector<Scalar> JitTapeExecutor::arrayLane(int lane, SlotRef r) const {
  const auto n = static_cast<std::size_t>(
      an_[static_cast<std::size_t>(lane) * static_cast<std::size_t>(na_) +
          static_cast<std::size_t>(r.slot)]);
  const auto off = static_cast<std::size_t>(lane) *
                       static_cast<std::size_t>(cap_) +
                   static_cast<std::size_t>(jit_->arrayOffset(r.slot));
  std::vector<Scalar> out;
  out.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    out.push_back(scalarOf(ae_[off + j], at_[off + j]));
  }
  return out;
}

}  // namespace stcg::expr
