// Slot-allocator and verifier tests.
//
//   - corrupted-tape rejection: each TapeIssueKind is provoked through
//     TapeRewriter on an otherwise-clean tape and must come back as a
//     typed finding (and requireVerifiedTape must throw on errors),
//   - the guarded-zero regression pin: `x / 0` and `x % 0` (int and
//     real) give the guard's zero on the raw and optimized tapes, the
//     tree Evaluator, every BatchTapeExecutor lane and, on a point box,
//     the interval tape executor,
//   - the allocator's contract: the optimized tape keeps every raw
//     instruction in order, and every root, variable binding and slot
//     comes through the remap (fuzz DAGs and all eight bench models),
//   - allocator unit tests: the builder's own folding of algebraic
//     identities, slot reuse across variable-dependency classes with
//     every engine (concrete, batch lanes per SIMD level, interval, JIT)
//     matching the raw tape,
//   - the acceptance sweep: all eight bench models' sim/interval/distance
//     tapes verify clean raw and optimized, and slot reuse shrinks the
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

TEST(TapePasses, DivModByConstantZeroMatchesGuardOnEveryEngine) {
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

  // The interval transfer of a division or remainder by a point zero is
  // the guard's point(0), on the raw and the optimized tape alike.
  analysis::IntervalEnv box;
  box.set(0, interval::Interval::point(7));
  box.set(1, interval::Interval::point(3.5));
  analysis::IntervalTapeExecutor iraw(p.raw), iopt(p.optimized);
  iraw.bind(box);
  iraw.run();
  iopt.bind(box);
  iopt.run();
  for (std::size_t i = 0; i < roots.size(); ++i) {
    for (const interval::Interval& iv :
         {iraw.scalar(p.rawSlots[i]), iopt.scalar(p.optSlots[i])}) {
      EXPECT_FALSE(iv.isEmpty()) << i;
      EXPECT_EQ(iv.lo(), 0.0) << i;
      EXPECT_EQ(iv.hi(), 0.0) << i;
    }
  }
}

// ----- The allocator's contract ---------------------------------------------

/// `o` must be `raw` with only its scalar slots renumbered: the same
/// instructions in order, every raw slot mapped, and every root and
/// variable binding carried through the remap.
void expectKeepsEveryInstruction(const Tape& raw, const expr::OptimizedTape& o,
                                 const std::string& where) {
  const Tape& t = *o.tape;
  EXPECT_FALSE(expr::verifyTape(t).hasErrors()) << where;
  ASSERT_EQ(t.code().size(), raw.code().size()) << where;
  for (std::size_t i = 0; i < raw.code().size(); ++i) {
    const expr::TapeInstr& a = raw.code()[i];
    const expr::TapeInstr& b = t.code()[i];
    EXPECT_TRUE(a.op == b.op && a.type == b.type &&
                a.arrayResult == b.arrayResult)
        << where << " instr " << i;
  }
  for (std::size_t s = 0; s < raw.scalarSlotCount(); ++s) {
    EXPECT_GE(o.remap({static_cast<std::int32_t>(s), false}).slot, 0)
        << where << " scalar slot " << s;
  }
  for (std::size_t s = 0; s < raw.arraySlotCount(); ++s) {
    EXPECT_GE(o.remap({static_cast<std::int32_t>(s), true}).slot, 0)
        << where << " array slot " << s;
  }
  ASSERT_EQ(t.rootSlots().size(), raw.rootSlots().size()) << where;
  for (std::size_t i = 0; i < raw.rootSlots().size(); ++i) {
    const SlotRef want = o.remap(raw.rootSlots()[i]);
    EXPECT_TRUE(t.rootSlots()[i].slot == want.slot &&
                t.rootSlots()[i].isArray == want.isArray)
        << where << " root " << i;
  }
  ASSERT_EQ(t.varBindings().size(), raw.varBindings().size()) << where;
  for (std::size_t i = 0; i < raw.varBindings().size(); ++i) {
    const auto& a = raw.varBindings()[i];
    const auto& b = t.varBindings()[i];
    EXPECT_TRUE(a.var == b.var && a.type == b.type &&
                o.remap({a.slot, false}).slot == b.slot)
        << where << " binding " << i;
  }
  ASSERT_EQ(t.arrayBindings().size(), raw.arrayBindings().size()) << where;
  for (std::size_t i = 0; i < raw.arrayBindings().size(); ++i) {
    const auto& a = raw.arrayBindings()[i];
    const auto& b = t.arrayBindings()[i];
    EXPECT_TRUE(a.var == b.var && o.remap({a.slot, true}).slot == b.slot)
        << where << " array binding " << i;
  }
}

TEST(TapePasses, OptimizedTapeKeepsEveryInstruction) {
  for (const std::uint64_t seed : {7u, 20260807u, 88002u}) {
    Rng rng(seed);
    for (int trial = 0; trial < 20; ++trial) {
      const bool withArrays = trial % 2 == 0;
      const fuzz::FuzzDag d = fuzz::makeFuzzDag(rng, withArrays);
      std::vector<ExprPtr> roots;
      for (const auto* pool : {&d.bools, &d.ints, &d.reals}) {
        for (int i = 0; i < 2; ++i) {
          roots.push_back((*pool)[rng.index(pool->size())]);
        }
      }
      if (withArrays) {
        roots.push_back(d.realArrays[rng.index(d.realArrays.size())]);
        roots.push_back(d.intArrays[rng.index(d.intArrays.size())]);
      }
      expr::TapeBuilder b;
      for (const auto& r : roots) (void)b.addRoot(r);
      const std::shared_ptr<const Tape> raw = b.finish();
      expectKeepsEveryInstruction(*raw, expr::optimizeTape(raw),
                                  "seed " + std::to_string(seed) + " trial " +
                                      std::to_string(trial));
    }
  }

  for (const auto& info : bench::allBenchModels()) {
    const auto cm = compile::compile(bench::buildBenchModel(info.name));
    const compile::ModelTape mt = compile::buildModelTape(cm);
    expectKeepsEveryInstruction(*mt.rawTape, expr::optimizeTape(mt.rawTape),
                                info.name + " sim");

    if (!cm.states.empty()) {
      std::vector<ExprPtr> nextRoots;
      for (const auto& sv : cm.states) nextRoots.push_back(sv.next);
      const auto built = analysis::buildIntervalTape(nextRoots);
      expectKeepsEveryInstruction(*built.rawTape,
                                  expr::optimizeTape(built.rawTape),
                                  info.name + " interval");
    }

    for (const auto& br : cm.branches) {
      const ExprPtr& goal = br.pathConstraint;
      if (goal->type != Type::kBool || goal->isArray()) continue;
      // The producer's build, with the overlay taps as extraLive.
      expr::TapeBuilder b;
      const solver::DistanceProgram prog =
          solver::buildDistanceProgram(goal, b);
      const std::shared_ptr<const Tape> raw = b.finish();
      std::vector<SlotRef> taps;
      for (const auto& in : prog.code) {
        if (in.va >= 0) taps.push_back({in.va, false});
        if (in.vb >= 0) taps.push_back({in.vb, false});
      }
      expectKeepsEveryInstruction(*raw, expr::optimizeTape(raw, taps),
                                  info.name + " distance:" + br.label);
    }
  }
}

// ----- Allocator unit tests -------------------------------------------------

TEST(TapePasses, AlgebraicIdentitiesPropagateTheSource) {
  const auto x = expr::mkVar({0, "x", Type::kInt, -10, 10});
  // The expression builder folds x + 0 and x * 1 to x itself, so both
  // roots land on x's own slot and no code reaches the tape.
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
    }
  }
  EXPECT_GE(shrank, 4) << "slot reuse must shrink at least half the models";
}

}  // namespace
}  // namespace stcg
