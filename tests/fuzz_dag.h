// Shared random-DAG fuzz harness for the tape-engine differential tests
// (test_tape.cpp, test_batch_tape.cpp).
//
// Grows pools of well-typed expressions by repeatedly applying random
// productions to random pool members, which yields genuinely shared DAG
// structure (the same subterm feeds many parents). Integer and real
// arithmetic results are clamped through min/max towers so no value chain
// can reach signed-overflow or out-of-int64 territory — the tape evaluates
// untaken kIte arms eagerly, so *every* emitted computation must stay
// defined under UBSAN, not just the taken path.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "expr/builder.h"
#include "expr/eval.h"
#include "expr/expr.h"
#include "expr/jit.h"
#include "expr/tape.h"
#include "expr/tape_passes.h"
#include "util/rng.h"

namespace stcg::fuzz {

// Bitwise comparison helpers. Scalar::operator== compares doubles with
// ==, which would miss a NaN-vs-NaN agreement and accept -0.0 == +0.0;
// the tape contract is *bit* identity, so compare payload bits.
inline bool sameBits(double a, double b) {
  std::uint64_t x = 0, y = 0;
  std::memcpy(&x, &a, sizeof a);
  std::memcpy(&y, &b, sizeof b);
  return x == y;
}

inline bool sameScalar(const expr::Scalar& a, const expr::Scalar& b) {
  if (a.type() != b.type()) return false;
  if (a.type() == expr::Type::kReal) return sameBits(a.toReal(), b.toReal());
  return a == b;
}

inline expr::ExprPtr clampInt(expr::ExprPtr e) {
  return expr::minE(expr::maxE(std::move(e), expr::cInt(-100000)),
                    expr::cInt(100000));
}

inline expr::ExprPtr clampReal(expr::ExprPtr e) {
  return expr::minE(expr::maxE(std::move(e), expr::cReal(-1e6)),
                    expr::cReal(1e6));
}

struct FuzzDag {
  std::vector<expr::VarInfo> vars;  // scalar variables, ids 0..7
  std::vector<expr::ExprPtr> bools, ints, reals;
  // Array pools; variable ids 8 (real, width 4) / 9 (int, width 3).
  std::vector<expr::ExprPtr> realArrays, intArrays;
  bool withArrays = false;

  std::vector<expr::ExprPtr>& pool(expr::Type t) {
    return t == expr::Type::kBool ? bools
                                  : (t == expr::Type::kInt ? ints : reals);
  }
};

constexpr expr::VarId kRealArrId = 8;
constexpr expr::VarId kIntArrId = 9;

inline FuzzDag makeFuzzDag(Rng& rng, bool withArrays) {
  using expr::ExprPtr;
  using expr::Scalar;
  using expr::Type;
  FuzzDag d;
  d.withArrays = withArrays;
  d.vars = {
      {0, "b0", Type::kBool, 0, 1},      {1, "b1", Type::kBool, 0, 1},
      {2, "i0", Type::kInt, -10, 10},    {3, "i1", Type::kInt, -10, 10},
      {4, "i2", Type::kInt, -10, 10},    {5, "r0", Type::kReal, -100, 100},
      {6, "r1", Type::kReal, -100, 100}, {7, "r2", Type::kReal, -100, 100},
  };
  for (const auto& v : d.vars) d.pool(v.type).push_back(expr::mkVar(v));
  d.ints.push_back(expr::cInt(rng.uniformInt(-5, 5)));
  d.reals.push_back(expr::cReal(rng.uniformReal(-5.0, 5.0)));
  if (withArrays) {
    d.realArrays.push_back(expr::mkVarArray(kRealArrId, "ar", Type::kReal, 4));
    d.intArrays.push_back(expr::mkVarArray(kIntArrId, "ai", Type::kInt, 3));
    d.realArrays.push_back(expr::cArray(
        Type::kReal,
        {Scalar::r(0.5), Scalar::r(-2.0), Scalar::r(7.25), Scalar::r(3.0)}));
    d.intArrays.push_back(
        expr::cArray(Type::kInt, {Scalar::i(1), Scalar::i(-4), Scalar::i(9)}));
  }

  const auto pick = [&](const std::vector<ExprPtr>& pool) -> const ExprPtr& {
    return pool[rng.index(pool.size())];
  };
  const auto pickNumPool = [&]() -> std::vector<ExprPtr>& {
    return rng.chance(0.5) ? d.ints : d.reals;
  };

  const int kGrow = 80;
  for (int it = 0; it < kGrow; ++it) {
    switch (rng.index(withArrays ? 11 : 8)) {
      case 0:
        d.bools.push_back(expr::notE(pick(d.bools)));
        break;
      case 1: {
        const auto& a = pick(d.bools);
        const auto& b = pick(d.bools);
        switch (rng.index(3)) {
          case 0: d.bools.push_back(expr::andE(a, b)); break;
          case 1: d.bools.push_back(expr::orE(a, b)); break;
          default: d.bools.push_back(expr::xorE(a, b)); break;
        }
        break;
      }
      case 2: {  // scalar ite, same-typed arms
        const Type t = std::vector<Type>{Type::kBool, Type::kInt,
                                         Type::kReal}[rng.index(3)];
        auto& p = d.pool(t);
        p.push_back(expr::iteE(pick(d.bools), pick(p), pick(p)));
        break;
      }
      case 3: {  // relational over numerics (mixed int/real promotes)
        const auto& a = pick(pickNumPool());
        const auto& b = pick(pickNumPool());
        switch (rng.index(6)) {
          case 0: d.bools.push_back(expr::ltE(a, b)); break;
          case 1: d.bools.push_back(expr::leE(a, b)); break;
          case 2: d.bools.push_back(expr::gtE(a, b)); break;
          case 3: d.bools.push_back(expr::geE(a, b)); break;
          case 4: d.bools.push_back(expr::eqE(a, b)); break;
          default: d.bools.push_back(expr::neE(a, b)); break;
        }
        break;
      }
      case 4: {  // integer arithmetic, clamped
        const auto& a = pick(d.ints);
        const auto& b = pick(d.ints);
        ExprPtr e;
        switch (rng.index(7)) {
          case 0: e = expr::addE(a, b); break;
          case 1: e = expr::subE(a, b); break;
          case 2: e = expr::mulE(a, b); break;
          case 3: e = expr::divE(a, b); break;  // guarded: x/0 == 0
          case 4: e = expr::modE(a, b); break;  // guarded: x%0 == 0
          case 5: e = expr::minE(a, b); break;
          default: e = expr::maxE(a, b); break;
        }
        d.ints.push_back(clampInt(std::move(e)));
        break;
      }
      case 5: {  // real arithmetic, clamped
        const auto& a = pick(d.reals);
        const auto& b = pick(d.reals);
        ExprPtr e;
        switch (rng.index(7)) {
          case 0: e = expr::addE(a, b); break;
          case 1: e = expr::subE(a, b); break;
          case 2: e = expr::mulE(a, b); break;
          case 3: e = expr::divE(a, b); break;
          case 4: e = expr::modE(a, b); break;
          case 5: e = expr::minE(a, b); break;
          default: e = expr::maxE(a, b); break;
        }
        d.reals.push_back(clampReal(std::move(e)));
        break;
      }
      case 6: {  // unary numeric (stays within the clamped range)
        auto& p = pickNumPool();
        p.push_back(rng.chance(0.5) ? expr::negE(pick(p))
                                    : expr::absE(pick(p)));
        break;
      }
      case 7: {  // cast between scalar types
        const Type from = std::vector<Type>{Type::kBool, Type::kInt,
                                            Type::kReal}[rng.index(3)];
        const Type to = std::vector<Type>{Type::kBool, Type::kInt,
                                          Type::kReal}[rng.index(3)];
        d.pool(to).push_back(expr::castE(pick(d.pool(from)), to));
        break;
      }
      case 8: {  // select (index clamps at runtime)
        if (rng.chance(0.5)) {
          d.reals.push_back(expr::selectE(pick(d.realArrays), pick(d.ints)));
        } else {
          d.ints.push_back(expr::selectE(pick(d.intArrays), pick(d.ints)));
        }
        break;
      }
      case 9: {  // store
        if (rng.chance(0.5)) {
          d.realArrays.push_back(expr::storeE(pick(d.realArrays),
                                              pick(d.ints), pick(d.reals)));
        } else {
          d.intArrays.push_back(expr::storeE(pick(d.intArrays), pick(d.ints),
                                             pick(d.ints)));
        }
        break;
      }
      default: {  // array ite
        auto& p = rng.chance(0.5) ? d.realArrays : d.intArrays;
        p.push_back(expr::iteE(pick(d.bools), pick(p), pick(p)));
        break;
      }
    }
  }
  return d;
}

// A raw tape and its pass-pipeline-optimized counterpart over the same
// roots, with both slot maps — the optimized-vs-raw differential oracle
// the pass-pipeline fuzz tests execute side by side.
struct TapePair {
  std::shared_ptr<const expr::Tape> raw;
  std::shared_ptr<const expr::Tape> optimized;
  std::vector<expr::SlotRef> rawSlots;  // roots[i] on `raw`
  std::vector<expr::SlotRef> optSlots;  // roots[i] on `optimized`
  expr::TapePassStats stats;
};

inline TapePair buildTapePair(const std::vector<expr::ExprPtr>& roots,
                              const expr::TapePassOptions& opts = {}) {
  expr::TapeBuilder b;
  TapePair p;
  p.rawSlots.reserve(roots.size());
  for (const auto& r : roots) p.rawSlots.push_back(b.addRoot(r));
  p.raw = b.finish();
  expr::OptimizedTape opt = expr::optimizeTape(p.raw, {}, opts);
  p.optimized = std::move(opt.tape);
  p.stats = opt.stats;
  p.optSlots.reserve(p.rawSlots.size());
  for (const auto& s : p.rawSlots) p.optSlots.push_back(opt.remap(s));
  return p;
}

/// Native-code arm for the differential fuzz: compile `tape` through the
/// TapeJit and wrap it in its executor frontend. Returns nullptr when the
/// JIT is unavailable in this environment (no compiler / dlopen) — tests
/// GTEST_SKIP on that rather than fail, mirroring the library's own
/// graceful degradation.
inline std::unique_ptr<expr::JitTapeExecutor> makeJitArm(
    const std::shared_ptr<const expr::Tape>& tape,
    std::string* whyNot = nullptr) {
  auto jit = expr::TapeJit::compile(tape, whyNot);
  if (jit == nullptr) return nullptr;
  return std::make_unique<expr::JitTapeExecutor>(tape, std::move(jit));
}

inline expr::Scalar randomScalarFor(Rng& rng, const expr::VarInfo& v) {
  using expr::Scalar;
  switch (v.type) {
    case expr::Type::kBool: return Scalar::b(rng.chance(0.5));
    case expr::Type::kInt: return Scalar::i(rng.uniformInt(-10, 10));
    case expr::Type::kReal: return Scalar::r(rng.uniformReal(-100.0, 100.0));
  }
  return Scalar::r(0);
}

inline expr::Env randomEnv(Rng& rng, const FuzzDag& d) {
  using expr::Scalar;
  expr::Env env;
  env.reserve(10);
  for (const auto& v : d.vars) env.set(v.id, randomScalarFor(rng, v));
  if (d.withArrays) {
    std::vector<Scalar> ar;
    for (int i = 0; i < 4; ++i) {
      ar.push_back(Scalar::r(rng.uniformReal(-50.0, 50.0)));
    }
    env.setArray(kRealArrId, std::move(ar));
    std::vector<Scalar> ai;
    for (int i = 0; i < 3; ++i) {
      ai.push_back(Scalar::i(rng.uniformInt(-20, 20)));
    }
    env.setArray(kIntArrId, std::move(ai));
  }
  return env;
}

/// One random element whose *type* is also random — bound arrays keep
/// elements uncast, so a mixed vector drives every select over the
/// var-bound arrays through the per-lane dynamic path and forces the
/// batch executor's tag planes out of their uniform fast path.
inline expr::Scalar randomMixedElem(Rng& rng) {
  using expr::Scalar;
  switch (rng.index(3)) {
    case 0: return Scalar::b(rng.chance(0.5));
    case 1: return Scalar::i(rng.uniformInt(-20, 20));
    default: return Scalar::r(rng.uniformReal(-50.0, 50.0));
  }
}

inline std::vector<expr::Scalar> randomMixedArray(Rng& rng, int n) {
  std::vector<expr::Scalar> v;
  v.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v.push_back(randomMixedElem(rng));
  return v;
}

/// randomEnv with mixed-element-type array bindings (uniform ones with
/// probability `uniformChance`, so uniform<->mixed plane transitions are
/// also exercised).
inline expr::Env randomEnvMixedArrays(Rng& rng, const FuzzDag& d,
                                      double uniformChance = 0.25) {
  using expr::Scalar;
  expr::Env env;
  env.reserve(10);
  for (const auto& v : d.vars) env.set(v.id, randomScalarFor(rng, v));
  if (d.withArrays) {
    if (rng.chance(uniformChance)) {
      std::vector<Scalar> ar;
      for (int i = 0; i < 4; ++i) {
        ar.push_back(Scalar::r(rng.uniformReal(-50.0, 50.0)));
      }
      env.setArray(kRealArrId, std::move(ar));
    } else {
      env.setArray(kRealArrId, randomMixedArray(rng, 4));
    }
    if (rng.chance(uniformChance)) {
      std::vector<Scalar> ai;
      for (int i = 0; i < 3; ++i) {
        ai.push_back(Scalar::i(rng.uniformInt(-20, 20)));
      }
      env.setArray(kIntArrId, std::move(ai));
    } else {
      env.setArray(kIntArrId, randomMixedArray(rng, 3));
    }
  }
  return env;
}

}  // namespace stcg::fuzz
