// Pass-pipeline and verifier tests.
//
//   - corrupted-tape rejection: each TapeIssueKind is provoked through
//     TapeRewriter on an otherwise-clean tape and must come back as a
//     typed finding (and requireVerifiedTape must throw on errors),
//   - the guarded-zero regression pin: `x / 0` and `x % 0` (int and
//     real) fold away entirely and stay bit-identical to the raw tape,
//     the tree Evaluator and every BatchTapeExecutor lane,
//   - optimizer unit tests: constant folding through the DAG, dead-arm
//     elimination under a constant kIte condition, algebraic copy
//     propagation, slot reuse across variable-dependency classes with
//     every engine (concrete, batch lanes per SIMD level, interval, JIT)
//     matching the raw tape,
//   - the acceptance sweep: all eight bench models' sim/interval/distance
//     tapes verify clean raw and optimized, and the pipeline shrinks the
//     sim tape on at least four of the eight.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/interval_tape.h"
#include "benchmodels/benchmodels.h"
#include "compile/compiler.h"
#include "compile/model_tape.h"
#include "expr/batch_tape.h"
#include "expr/builder.h"
#include "expr/eval.h"
#include "expr/simd.h"
#include "expr/tape.h"
#include "expr/tape_passes.h"
#include "expr/tape_verify.h"
#include "solver/distance_tape.h"
#include "util/rng.h"

#include "fuzz_dag.h"

namespace stcg {
namespace {

using expr::Env;
using expr::ExprPtr;
using expr::Op;
using expr::Scalar;
using expr::SlotRef;
using expr::Tape;
using expr::TapeIssueKind;
using expr::TapeRewriter;
using expr::Type;
using expr::VarInfo;
using fuzz::buildTapePair;
using fuzz::sameScalar;
using fuzz::TapePair;

// ----- Verifier: corrupted-tape rejection ----------------------------------

bool hasKind(const expr::TapeVerifyResult& res, TapeIssueKind k) {
  for (const auto& issue : res.issues) {
    if (issue.kind == k) return true;
  }
  return false;
}

/// A small clean tape to corrupt: two int variables, two dependent
/// temporaries, one constant. code: [add x y, mul add c3].
std::shared_ptr<const Tape> cleanTape() {
  const auto x = expr::mkVar({0, "x", Type::kInt, -10, 10});
  const auto y = expr::mkVar({1, "y", Type::kInt, -10, 10});
  expr::TapeBuilder b;
  (void)b.addRoot(expr::mulE(expr::addE(x, y), expr::cInt(3)));
  return b.finish();
}

TEST(TapeVerify, CleanTapeVerifiesOk) {
  const auto t = cleanTape();
  const auto res = expr::verifyTape(*t);
  EXPECT_TRUE(res.ok()) << res.render();
}

TEST(TapeVerify, RejectsSlotBoundsViolation) {
  Tape t = *cleanTape();
  TapeRewriter(t).code()[0].a = 9999;
  const auto res = expr::verifyTape(t);
  EXPECT_TRUE(res.hasErrors());
  EXPECT_TRUE(hasKind(res, TapeIssueKind::kSlotBounds)) << res.render();
}

TEST(TapeVerify, RejectsUseBeforeDef) {
  Tape t = *cleanTape();
  ASSERT_GE(t.code().size(), 2u);
  // First instruction reads the second's (not-yet-written) destination.
  TapeRewriter rw(t);
  rw.code()[0].b = rw.code()[1].dst;
  const auto res = expr::verifyTape(t);
  EXPECT_TRUE(res.hasErrors());
  EXPECT_TRUE(hasKind(res, TapeIssueKind::kUseBeforeDef)) << res.render();
}

TEST(TapeVerify, RejectsConstantClobber) {
  Tape t = *cleanTape();
  ASSERT_FALSE(t.constScalarSlots().empty());
  TapeRewriter rw(t);
  rw.code()[0].dst = t.constScalarSlots()[0];
  const auto res = expr::verifyTape(t);
  EXPECT_TRUE(res.hasErrors());
  EXPECT_TRUE(hasKind(res, TapeIssueKind::kConstClobbered)) << res.render();
}

TEST(TapeVerify, RejectsTypeMismatch) {
  const auto x = expr::mkVar({0, "x", Type::kInt, -10, 10});
  const auto y = expr::mkVar({1, "y", Type::kInt, -10, 10});
  expr::TapeBuilder b;
  (void)b.addRoot(expr::ltE(x, y));
  Tape t = *b.finish();
  TapeRewriter rw(t);
  ASSERT_EQ(rw.code()[0].op, Op::kLt);
  rw.code()[0].type = Type::kInt;  // comparisons must produce kBool lanes
  const auto res = expr::verifyTape(t);
  EXPECT_TRUE(res.hasErrors());
  EXPECT_TRUE(hasKind(res, TapeIssueKind::kTypeMismatch)) << res.render();
}

TEST(TapeVerify, RejectsUndefinedRoot) {
  Tape t = *cleanTape();
  TapeRewriter rw(t);
  rw.scalarInit().push_back(Scalar::i(0));
  rw.rootSlots().push_back(
      {static_cast<std::int32_t>(t.scalarSlotCount()) - 1, false});
  const auto res = expr::verifyTape(t);
  EXPECT_TRUE(res.hasErrors());
  EXPECT_TRUE(hasKind(res, TapeIssueKind::kRootUndefined)) << res.render();
}

TEST(TapeVerify, RejectsUnsafeSharing) {
  const auto a = expr::mkVarArray(2, "a", Type::kInt, 3);
  const auto i = expr::mkVar({0, "i", Type::kInt, 0, 2});
  expr::TapeBuilder b;
  (void)b.addRoot(expr::storeE(a, i, expr::cInt(1)));
  (void)b.addRoot(expr::storeE(a, i, expr::cInt(2)));
  Tape t = *b.finish();
  TapeRewriter rw(t);
  ASSERT_EQ(rw.code().size(), 2u);
  ASSERT_TRUE(rw.code()[0].arrayResult);
  // Force the second store onto the first one's array slot: executors
  // alias array operands in place, so an array slot may have one writer.
  rw.code()[1].dst = rw.code()[0].dst;
  rw.rootSlots()[1] = {rw.code()[0].dst, true};
  const auto res = expr::verifyTape(t);
  EXPECT_TRUE(res.hasErrors());
  EXPECT_TRUE(hasKind(res, TapeIssueKind::kUnsafeSharing)) << res.render();
}

TEST(TapeVerify, WarnsOnCseDuplicate) {
  Tape t = *cleanTape();
  TapeRewriter rw(t);
  // Re-emit the first instruction verbatim into a fresh slot: a live
  // duplicate the builder's value numbering would have merged.
  rw.scalarInit().push_back(Scalar::i(0));
  expr::TapeInstr dup = rw.code()[0];
  dup.dst = static_cast<std::int32_t>(t.scalarSlotCount()) - 1;
  rw.code().push_back(dup);
  rw.rootSlots().push_back({dup.dst, false});
  const auto res = expr::verifyTape(t);
  EXPECT_FALSE(res.hasErrors()) << res.render();
  EXPECT_TRUE(hasKind(res, TapeIssueKind::kCseDuplicate)) << res.render();
}

TEST(TapeVerify, RequireVerifiedTapeThrowsTypedDiagnostic) {
  Tape t = *cleanTape();
  TapeRewriter(t).code()[0].a = 9999;
  try {
    expr::requireVerifiedTape(t, "corrupted");
    FAIL() << "expected EvalError";
  } catch (const expr::EvalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("corrupted"), std::string::npos) << what;
    EXPECT_NE(what.find("tape-"), std::string::npos)
        << "message must carry the stable check id: " << what;
  }
}

// ----- Regression pin: guarded div/mod by a constant zero ------------------

TEST(TapePasses, DivModByConstantZeroFoldsToGuardedZero) {
  const VarInfo xi{0, "x", Type::kInt, -10, 10};
  const VarInfo ri{1, "r", Type::kReal, -100, 100};
  const auto x = expr::mkVar(xi);
  const auto r = expr::mkVar(ri);
  const std::vector<ExprPtr> roots = {
      expr::divE(x, expr::cInt(0)),    expr::modE(x, expr::cInt(0)),
      expr::divE(r, expr::cReal(0.0)), expr::modE(r, expr::cReal(0.0)),
      expr::divE(x, expr::cReal(0.0)),  // int/real promotes to real
  };
  const TapePair p = buildTapePair(roots);

  // The guarded instructions must be gone, not merely bypassed.
  for (const auto& in : p.optimized->code()) {
    EXPECT_NE(in.op, Op::kDiv);
    EXPECT_NE(in.op, Op::kMod);
  }
  EXPECT_TRUE(expr::verifyTape(*p.optimized).ok());

  Env env;
  env.set(0, Scalar::i(7));
  env.set(1, Scalar::r(3.5));
  expr::TapeExecutor raw(p.raw), opt(p.optimized);
  raw.bindEnv(env);
  raw.run();
  opt.bindEnv(env);
  opt.run();
  expr::Evaluator tree(env);
  for (std::size_t i = 0; i < roots.size(); ++i) {
    const Scalar expected = tree.evalScalar(roots[i]);
    EXPECT_TRUE(sameScalar(expected, raw.scalar(p.rawSlots[i]))) << i;
    EXPECT_TRUE(sameScalar(expected, opt.scalar(p.optSlots[i]))) << i;
  }

  // Per-lane batch execution of the optimized tape agrees too.
  const int kLanes = 4;
  expr::BatchTapeExecutor batch(p.optimized, kLanes);
  for (int lane = 0; lane < kLanes; ++lane) {
    batch.setVar(lane, 0, Scalar::i(lane - 2));
    batch.setVar(lane, 1, Scalar::r(0.25 * lane - 1.0));
  }
  batch.run();
  for (int lane = 0; lane < kLanes; ++lane) {
    Env laneEnv;
    laneEnv.set(0, Scalar::i(lane - 2));
    laneEnv.set(1, Scalar::r(0.25 * lane - 1.0));
    expr::Evaluator laneTree(laneEnv);
    for (std::size_t i = 0; i < roots.size(); ++i) {
      EXPECT_TRUE(sameScalar(laneTree.evalScalar(roots[i]),
                             batch.scalar(p.optSlots[i], lane)))
          << "lane " << lane << " root " << i;
    }
  }
}

// ----- Optimizer unit tests -------------------------------------------------

TEST(TapePasses, ConstantsPropagateThroughTheDag) {
  // The expression builder already folds all-constant subtrees, so the
  // tape-level pipeline sees constants only where its own folds expose
  // them. x/0 is the seed (the builder keeps non-const numerators): it
  // folds to the guarded 0, which turns (x/0) + 3 all-constant, which
  // folds to 3 — the whole tape empties.
  const auto x = expr::mkVar({0, "x", Type::kInt, -10, 10});
  const TapePair p =
      buildTapePair({expr::addE(expr::divE(x, expr::cInt(0)), expr::cInt(3))});
  bool rawHasDiv = false;
  for (const auto& in : p.raw->code()) rawHasDiv |= in.op == Op::kDiv;
  ASSERT_TRUE(rawHasDiv) << "precondition: the builder must not fold x/0";
  EXPECT_TRUE(p.optimized->code().empty());
  EXPECT_GE(p.stats.constantsFolded, 2u);
  expr::TapeExecutor ex(p.optimized);
  ex.setVar(0, Scalar::i(4));
  ex.run();
  EXPECT_TRUE(sameScalar(ex.scalar(p.optSlots[0]), Scalar::i(3)));
}

TEST(TapePasses, ConstantConditionIteKillsTheDeadArm) {
  const auto x = expr::mkVar({0, "x", Type::kInt, -10, 10});
  const auto y = expr::mkVar({1, "y", Type::kInt, -10, 10});
  // The condition (x/0 == 0) is non-constant to the expression builder
  // but folds to true on the tape, so the kIte copies its then-arm
  // through and the untaken x*y becomes dead.
  const auto cond = expr::eqE(expr::divE(x, expr::cInt(0)), expr::cInt(0));
  const TapePair p =
      buildTapePair({expr::iteE(cond, expr::addE(x, y), expr::mulE(x, y))});
  bool rawHasIte = false;
  for (const auto& in : p.raw->code()) rawHasIte |= in.op == Op::kIte;
  ASSERT_TRUE(rawHasIte) << "precondition: the builder must emit the kIte";
  for (const auto& in : p.optimized->code()) {
    EXPECT_NE(in.op, Op::kIte);
    EXPECT_NE(in.op, Op::kMul) << "untaken arm must be eliminated";
  }
  EXPECT_GE(p.stats.deadRemoved, 1u);
  expr::TapeExecutor ex(p.optimized);
  ex.setVar(0, Scalar::i(4));
  ex.setVar(1, Scalar::i(9));
  ex.run();
  EXPECT_TRUE(sameScalar(ex.scalar(p.optSlots[0]), Scalar::i(13)));
}

TEST(TapePasses, AlgebraicIdentitiesPropagateTheSource) {
  const auto x = expr::mkVar({0, "x", Type::kInt, -10, 10});
  // x + 0 and x * 1 both collapse onto x's own slot: no code remains.
  const TapePair p = buildTapePair(
      {expr::addE(x, expr::cInt(0)), expr::mulE(x, expr::cInt(1))});
  EXPECT_TRUE(p.optimized->code().empty())
      << p.optimized->code().size() << " instrs remain";
  EXPECT_EQ(p.optSlots[0].slot, p.optSlots[1].slot);
  expr::TapeExecutor ex(p.optimized);
  ex.setVar(0, Scalar::i(-6));
  ex.run();
  EXPECT_TRUE(sameScalar(ex.scalar(p.optSlots[0]), Scalar::i(-6)));
}

/// Run `p`'s optimized tape on every engine — concrete, batch lanes at the
/// scalar and the detected SIMD level, interval and (when this
/// environment can JIT) native — and require each root to match the raw
/// tape bit for bit. Roots must be scalar int/bool; `points` are (x, y)
/// values for variables 0 and 1.
void expectEnginesMatchRaw(
    const TapePair& p,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& points) {
  const auto bindPoint = [](auto& ex, std::int64_t x, std::int64_t y) {
    ex.setVar(0, Scalar::i(x));
    ex.setVar(1, Scalar::i(y));
  };
  expr::TapeExecutor raw(p.raw), opt(p.optimized);
  std::vector<std::vector<Scalar>> want;  // [point][root]
  for (const auto& [x, y] : points) {
    bindPoint(raw, x, y);
    bindPoint(opt, x, y);
    raw.run();
    opt.run();
    auto& row = want.emplace_back();
    for (std::size_t r = 0; r < p.rawSlots.size(); ++r) {
      row.push_back(raw.scalar(p.rawSlots[r]));
      EXPECT_TRUE(sameScalar(row.back(), opt.scalar(p.optSlots[r])))
          << "concrete root " << r << " at (" << x << ", " << y << ")";
    }
  }

  std::vector<expr::SimdLevel> levels = {expr::SimdLevel::kScalar};
  if (expr::detectedSimdLevel() != expr::SimdLevel::kScalar) {
    levels.push_back(expr::detectedSimdLevel());
  }
  const int lanes = static_cast<int>(points.size());
  for (const expr::SimdLevel lvl : levels) {
    expr::forceSimdLevel(lvl);
    expr::BatchTapeExecutor bx(p.optimized, lanes);
    expr::forceSimdLevel(std::nullopt);
    ASSERT_EQ(bx.simdLevel(), lvl);
    for (int l = 0; l < lanes; ++l) {
      const auto& [x, y] = points[static_cast<std::size_t>(l)];
      bx.setVar(l, 0, Scalar::i(x));
      bx.setVar(l, 1, Scalar::i(y));
    }
    bx.run();
    for (int l = 0; l < lanes; ++l) {
      for (std::size_t r = 0; r < p.optSlots.size(); ++r) {
        EXPECT_TRUE(sameScalar(want[static_cast<std::size_t>(l)][r],
                               bx.scalar(p.optSlots[r], l)))
            << expr::simdLevelName(lvl) << " lane " << l << " root " << r;
      }
    }
  }

  analysis::IntervalTapeExecutor iraw(p.raw), iopt(p.optimized);
  analysis::IntervalEnv box;
  box.set(0, interval::Interval(-3, 4));
  box.set(1, interval::Interval(-2, 5));
  iraw.bind(box);
  iopt.bind(box);
  iraw.run();
  iopt.run();
  for (std::size_t r = 0; r < p.rawSlots.size(); ++r) {
    const interval::Interval& a = iraw.scalar(p.rawSlots[r]);
    const interval::Interval& b = iopt.scalar(p.optSlots[r]);
    EXPECT_TRUE(fuzz::sameBits(a.lo(), b.lo()) &&
                fuzz::sameBits(a.hi(), b.hi()))
        << "interval root " << r;
  }

  std::string why;
  const auto jit = fuzz::makeJitArm(p.optimized, &why);
  if (jit == nullptr) return;  // no toolchain: the other engines ran
  for (std::size_t k = 0; k < points.size(); ++k) {
    bindPoint(*jit, points[k].first, points[k].second);
    jit->run();
    for (std::size_t r = 0; r < p.optSlots.size(); ++r) {
      EXPECT_TRUE(sameScalar(want[k][r], jit->scalar(p.optSlots[r])))
          << "jit root " << r << " point " << k;
    }
  }
}

const std::vector<std::pair<std::int64_t, std::int64_t>> kSlotPoints = {
    {3, -2}, {5, -7}, {0, 0}, {-10, 9}, {7, 3}, {-4, -4}};

TEST(TapePasses, SlotReuseShrinksFrameAcrossDependencyClasses) {
  const auto x = expr::mkVar({0, "x", Type::kInt, -10, 10});
  const auto y = expr::mkVar({1, "y", Type::kInt, -10, 10});
  // A long chain over {x, y}: the linear scan collapses its dead links
  // onto few physical slots.
  ExprPtr e = expr::addE(x, y);
  for (int i = 0; i < 12; ++i) e = fuzz::clampInt(expr::addE(e, y));
  const TapePair joint = buildTapePair({e});
  EXPECT_LT(joint.optimized->scalarSlotCount(), joint.raw->scalarSlotCount());
  EXPECT_GE(joint.stats.slotsReused, 1u);
  EXPECT_TRUE(expr::verifyTape(*joint.optimized).ok());
  expectEnginesMatchRaw(joint, kSlotPoints);

  // An {x}-only chain, then a {y}-only chain, each with up to four
  // temporaries live at once: their dead temporaries depend on different
  // variables, and the y chain reuses the slots the x chain freed. Slot
  // classes split by variable dependency (what exact per-variable replay
  // needs) take 14 scalar slots here.
  const auto chain = [](const ExprPtr& v) {
    ExprPtr t = expr::addE(v, expr::cInt(1));
    for (int i = 0; i < 4; ++i) {
      t = fuzz::clampInt(expr::addE(
          expr::mulE(expr::addE(t, v), expr::subE(t, v)),
          expr::mulE(expr::addE(t, expr::cInt(i)), expr::subE(v, t))));
    }
    return t;
  };
  const ExprPtr ex = chain(x);
  const ExprPtr ey = chain(y);
  const TapePair split = buildTapePair({expr::addE(ex, ey)});
  EXPECT_EQ(split.optimized->scalarSlotCount(), 11u)
      << split.stats.summary();
  EXPECT_EQ(split.raw->scalarSlotCount(), 80u);
  const expr::TapeVerifyResult res = expr::verifyTape(*split.optimized);
  EXPECT_TRUE(res.ok()) << res.render();
  expectEnginesMatchRaw(split, kSlotPoints);
}

// ----- Acceptance sweep: the eight bench models -----------------------------

TEST(TapePasses, BenchModelTapesVerifyCleanAndMostlyShrink) {
  int shrank = 0;
  for (const auto& info : bench::allBenchModels()) {
    const auto cm = compile::compile(bench::buildBenchModel(info.name));

    const compile::ModelTape mt = compile::buildModelTape(cm);
    EXPECT_FALSE(expr::verifyTape(*mt.rawTape).hasErrors()) << info.name;
    EXPECT_FALSE(expr::verifyTape(*mt.tape).hasErrors()) << info.name;
    if (mt.passStats.shrank()) ++shrank;

    if (!cm.states.empty()) {
      std::vector<ExprPtr> nextRoots;
      for (const auto& sv : cm.states) nextRoots.push_back(sv.next);
      const auto built = analysis::buildIntervalTape(nextRoots);
      EXPECT_FALSE(expr::verifyTape(*built.rawTape).hasErrors()) << info.name;
      EXPECT_FALSE(expr::verifyTape(*built.tape).hasErrors()) << info.name;
    }

    for (const auto& br : cm.branches) {
      const ExprPtr& goal = br.pathConstraint;
      if (goal->type != Type::kBool || goal->isArray()) continue;
      const solver::DistanceTapeBuild built = solver::buildDistanceTape(goal);
      EXPECT_FALSE(expr::verifyTape(*built.rawTape).hasErrors()) << info.name;
      EXPECT_FALSE(expr::verifyTape(*built.tape).hasErrors()) << info.name;
      EXPECT_GE(built.stats.instrsBefore, built.stats.instrsAfter)
          << info.name;
    }
  }
  EXPECT_GE(shrank, 4) << "pipeline must shrink at least half the models";
}

}  // namespace
}  // namespace stcg
