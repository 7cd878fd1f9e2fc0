// Tape-engine tests: the bit-identity contract between the compiled
// instruction tape and the tree walkers it replaces.
//
//   - differential fuzz over random expression DAGs (every Op kind):
//     concrete tape vs tree Evaluator (also across single-variable
//     rebinds), interval tape vs IntervalEvaluator,
//   - DistanceTape vs the recursive branch distance (bitwise costs),
//   - tape-vs-tree Simulator runs across all eight bench models
//     (outputs, snapshots, coverage events),
//   - batched interval verdicts vs per-constraint tree walks under the
//     computed state invariant,
//   - StcgGenerator producing identical results on either engine,
//   - the satellite regressions: pinned-root dedup in both evaluators and
//     Env::reserve semantics.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "analysis/interval_eval.h"
#include "analysis/interval_tape.h"
#include "analysis/reachability.h"
#include "benchmodels/benchmodels.h"
#include "compile/compiler.h"
#include "coverage/coverage.h"
#include "expr/builder.h"
#include "expr/eval.h"
#include "expr/tape.h"
#include "expr/tape_passes.h"
#include "expr/tape_verify.h"
#include "interval/interval.h"
#include "model/model.h"
#include "sim/simulator.h"
#include "solver/distance_tape.h"
#include "solver/solver.h"
#include "stcg/stcg_generator.h"
#include "util/rng.h"

#include "distance_oracle.h"
#include "fuzz_dag.h"

namespace stcg {
namespace {

using fuzz::clampInt;
using fuzz::clampReal;
using fuzz::FuzzDag;
using fuzz::kIntArrId;
using fuzz::kRealArrId;
using fuzz::makeFuzzDag;
using fuzz::randomEnv;
using fuzz::randomScalarFor;
using fuzz::sameBits;
using fuzz::sameScalar;

using expr::Env;
using expr::ExprPtr;
using expr::Scalar;
using expr::SlotRef;
using expr::Type;
using expr::VarInfo;
using interval::Interval;

// Bitwise comparison helpers live in fuzz_dag.h (shared with the batch
// executor's differential tests); the interval flavour is only used here.
bool sameInterval(const Interval& a, const Interval& b) {
  if (a.isEmpty() || b.isEmpty()) return a.isEmpty() == b.isEmpty();
  return sameBits(a.lo(), b.lo()) && sameBits(a.hi(), b.hi());
}

// ----- Tape basics ---------------------------------------------------------

TEST(TapeBasics, ConstantRootsNeedNoInstructions) {
  expr::TapeBuilder b;
  const auto c = expr::cReal(2.5);
  const SlotRef s1 = b.addRoot(c);
  const SlotRef s2 = b.addRoot(expr::cReal(2.5));  // distinct node, same bits
  const auto arr =
      expr::cArray(Type::kInt, {Scalar::i(1), Scalar::i(2)});
  const SlotRef sa = b.addRoot(arr);
  expr::TapeExecutor ex(b.finish());
  EXPECT_TRUE(ex.tape().code().empty());
  EXPECT_EQ(s1.slot, s2.slot) << "equal constants must share one slot";
  ex.run();  // no variables, no instructions: a no-op
  EXPECT_TRUE(sameScalar(ex.scalar(s1), Scalar::r(2.5)));
  ASSERT_TRUE(sa.isArray);
  ASSERT_EQ(ex.array(sa).size(), 2u);
  EXPECT_TRUE(sameScalar(ex.array(sa)[1], Scalar::i(2)));
}

TEST(TapeBasics, CseSharesSubtermsWithinAndAcrossRoots) {
  const VarInfo xi{0, "x", Type::kInt, -10, 10};
  const VarInfo yi{1, "y", Type::kInt, -10, 10};
  const auto x = expr::mkVar(xi);
  const auto y = expr::mkVar(yi);
  const auto common = expr::addE(x, y);
  expr::TapeBuilder b;
  (void)b.addRoot(expr::mulE(common, x));
  (void)b.addRoot(expr::subE(common, y));
  // A structurally identical add built from fresh nodes: value numbering
  // must fold it onto the existing instruction, not emit a new one.
  const SlotRef again = b.addRoot(expr::addE(expr::mkVar(xi), expr::mkVar(yi)));
  const SlotRef first = b.slotOf(common.get());
  EXPECT_EQ(again.slot, first.slot);
  expr::TapeExecutor ex(b.finish());
  // Exactly {add, mul, sub}: the shared add is emitted once.
  EXPECT_EQ(ex.tape().code().size(), 3u);
  ex.setVar(0, Scalar::i(4));
  ex.setVar(1, Scalar::i(7));
  ex.run();
  EXPECT_TRUE(sameScalar(ex.scalar(first), Scalar::i(11)));
}

TEST(TapeBasics, SlotOfUnknownNodeThrows) {
  expr::TapeBuilder b;
  (void)b.addRoot(expr::cInt(1));
  const auto stranger = expr::cInt(99);
  EXPECT_THROW((void)b.slotOf(stranger.get()), expr::EvalError);
}

TEST(TapeBasics, RunNamesTheFirstUnboundVariable) {
  const auto x = expr::mkVar({0, "x", Type::kInt, -10, 10});
  const auto y = expr::mkVar({1, "lonely_y", Type::kInt, -10, 10});
  expr::TapeBuilder b;
  const SlotRef root = b.addRoot(expr::addE(x, y));
  expr::TapeExecutor ex(b.finish());
  ex.setVar(0, Scalar::i(1));
  try {
    ex.run();
    FAIL() << "expected EvalError for the unbound variable";
  } catch (const expr::EvalError& e) {
    EXPECT_NE(std::string(e.what()).find("lonely_y"), std::string::npos)
        << e.what();
  }
  ex.setVar(1, Scalar::i(2));
  ex.run();
  EXPECT_TRUE(sameScalar(ex.scalar(root), Scalar::i(3)));
}

// ----- Differential fuzz: concrete tape vs tree Evaluator ------------------

TEST(TapeFuzz, ScalarTapeMatchesTreeEvaluatorBitwise) {
  Rng rng(20260805);
  for (int trial = 0; trial < 25; ++trial) {
    FuzzDag d = makeFuzzDag(rng, /*withArrays=*/true);
    expr::TapeBuilder b;
    std::vector<ExprPtr> roots;
    std::vector<SlotRef> slots;
    const auto addRootFrom = [&](const std::vector<ExprPtr>& pool) {
      const auto& e = pool[rng.index(pool.size())];
      roots.push_back(e);
      slots.push_back(b.addRoot(e));
    };
    for (int i = 0; i < 3; ++i) addRootFrom(d.bools);
    for (int i = 0; i < 2; ++i) {
      addRootFrom(d.ints);
      addRootFrom(d.reals);
    }
    addRootFrom(d.realArrays);
    addRootFrom(d.intArrays);

    expr::TapeExecutor ex(b.finish());
    Env env = randomEnv(rng, d);
    ex.bindEnv(env);
    ex.run();

    const auto checkAll = [&](const Env& cur, const char* what) {
      expr::Evaluator ev(cur);
      for (std::size_t i = 0; i < roots.size(); ++i) {
        if (roots[i]->isArray()) {
          const auto tree = ev.evalArray(roots[i]);
          const auto& tape = ex.array(slots[i]);
          ASSERT_EQ(tree.size(), tape.size())
              << what << " trial " << trial << " root " << i;
          for (std::size_t j = 0; j < tree.size(); ++j) {
            EXPECT_TRUE(sameScalar(tree[j], tape[j]))
                << what << " trial " << trial << " root " << i << " [" << j
                << "]";
          }
        } else {
          EXPECT_TRUE(sameScalar(ev.evalScalar(roots[i]), ex.scalar(slots[i])))
              << what << " trial " << trial << " root " << i;
        }
      }
    };
    checkAll(env, "full");

    // Rebinding: mutate one variable at a time on the live executor and
    // re-run; every root must match a fresh tree evaluation.
    for (int m = 0; m < 6; ++m) {
      const auto& v = d.vars[rng.index(d.vars.size())];
      const Scalar nv = randomScalarFor(rng, v);
      env.set(v.id, nv);
      ex.setVar(v.id, nv);
      ex.run();
      checkAll(env, "rebind");
    }
    // One array variable as well.
    std::vector<Scalar> ar;
    for (int i = 0; i < 4; ++i) {
      ar.push_back(Scalar::r(rng.uniformReal(-50.0, 50.0)));
    }
    env.setArray(kRealArrId, ar);
    ex.setArrayVar(kRealArrId, ar);
    ex.run();
    checkAll(env, "array-rebind");
  }
}

// ----- Differential fuzz: interval tape vs IntervalEvaluator ---------------

TEST(TapeFuzz, IntervalTapeMatchesTreeIntervalEvaluator) {
  Rng rng(77001);
  for (int trial = 0; trial < 20; ++trial) {
    FuzzDag d = makeFuzzDag(rng, /*withArrays=*/true);
    expr::TapeBuilder b;
    std::vector<ExprPtr> roots;
    std::vector<SlotRef> slots;
    const auto addRootFrom = [&](const std::vector<ExprPtr>& pool) {
      const auto& e = pool[rng.index(pool.size())];
      roots.push_back(e);
      slots.push_back(b.addRoot(e));
    };
    for (int i = 0; i < 3; ++i) addRootFrom(d.bools);
    for (int i = 0; i < 2; ++i) {
      addRootFrom(d.ints);
      addRootFrom(d.reals);
    }
    addRootFrom(d.realArrays);
    addRootFrom(d.intArrays);

    // Bind a random subset; unbound variables must fall back to their
    // declared domains identically in both engines.
    analysis::IntervalEnv env;
    for (const auto& v : d.vars) {
      if (!rng.chance(0.6)) continue;
      if (v.type == Type::kReal) {
        double a = rng.uniformReal(v.lo, v.hi);
        double c = rng.uniformReal(v.lo, v.hi);
        if (a > c) std::swap(a, c);
        env.set(v.id, Interval(a, c));
      } else {
        std::int64_t a = rng.uniformInt(static_cast<std::int64_t>(v.lo),
                                        static_cast<std::int64_t>(v.hi));
        std::int64_t c = rng.uniformInt(static_cast<std::int64_t>(v.lo),
                                        static_cast<std::int64_t>(v.hi));
        if (a > c) std::swap(a, c);
        env.set(v.id, Interval(static_cast<double>(a),
                               static_cast<double>(c)));
      }
    }
    if (rng.chance(0.5)) {
      std::vector<Interval> elems;
      for (int i = 0; i < 4; ++i) {
        const double m = rng.uniformReal(-50.0, 50.0);
        elems.push_back(Interval(m, m + rng.uniformReal(0.0, 10.0)));
      }
      env.setArray(kRealArrId, std::move(elems));
    }
    if (rng.chance(0.5)) {
      std::vector<Interval> elems;
      for (int i = 0; i < 3; ++i) {
        const auto m = static_cast<double>(rng.uniformInt(-20, 20));
        elems.push_back(Interval(m, m + 3.0));
      }
      env.setArray(kIntArrId, std::move(elems));
    }

    analysis::IntervalTapeExecutor ex(b.finish());
    ex.bind(env);
    ex.run();
    analysis::IntervalEvaluator ev(env);
    for (std::size_t i = 0; i < roots.size(); ++i) {
      if (roots[i]->isArray()) {
        const auto tree = ev.evalArray(roots[i]);
        const auto& tape = ex.array(slots[i]);
        ASSERT_EQ(tree.size(), tape.size()) << "trial " << trial;
        for (std::size_t j = 0; j < tree.size(); ++j) {
          EXPECT_TRUE(sameInterval(tree[j], tape[j]))
              << "trial " << trial << " root " << i << " [" << j << "]: ["
              << tree[j].lo() << "," << tree[j].hi() << "] vs ["
              << tape[j].lo() << "," << tape[j].hi() << "]";
        }
      } else {
        const Interval tree = ev.evalScalar(roots[i]);
        const Interval& tape = ex.scalar(slots[i]);
        EXPECT_TRUE(sameInterval(tree, tape))
            << "trial " << trial << " root " << i << ": [" << tree.lo() << ","
            << tree.hi() << "] vs [" << tape.lo() << "," << tape.hi() << "]";
      }
    }
  }
}

// ----- Differential fuzz: DistanceTape vs branchDistance -------------------

TEST(TapeFuzz, DistanceTapeMatchesBranchDistanceBitwise) {
  Rng rng(5150);
  for (int trial = 0; trial < 20; ++trial) {
    // Scalar-only DAG: the hill climber's goals range over input scalars.
    FuzzDag d = makeFuzzDag(rng, /*withArrays=*/false);
    ExprPtr goal = d.bools[rng.index(d.bools.size())];
    goal = expr::andE(std::move(goal), d.bools[rng.index(d.bools.size())]);
    goal = expr::orE(std::move(goal), d.bools[rng.index(d.bools.size())]);

    solver::DistanceTape dt(goal, d.vars);
    EXPECT_GT(dt.overlayInstrCount() + 1, 0u);  // touch the diagnostics

    const auto toEnv = [&](const std::vector<double>& p) {
      Env env;
      for (std::size_t i = 0; i < d.vars.size(); ++i) {
        env.set(d.vars[i].id, solver::scalarForVar(d.vars[i], p[i]));
      }
      return env;
    };
    const auto randomCoord = [&](const VarInfo& v) -> double {
      if (v.type == Type::kReal) return rng.uniformReal(v.lo, v.hi);
      return static_cast<double>(
          rng.uniformInt(static_cast<std::int64_t>(v.lo),
                         static_cast<std::int64_t>(v.hi)));
    };

    std::vector<double> point(d.vars.size());
    for (std::size_t i = 0; i < point.size(); ++i) {
      point[i] = randomCoord(d.vars[i]);
    }
    EXPECT_EQ(dt.rebind(point),
              testref::branchDistance(goal, toEnv(point), true))
        << "trial " << trial << " initial rebind";

    // The climber's pattern: single-coordinate moves, each scored by a
    // rebind of the whole point. Every cost must equal the tree walk.
    for (int m = 0; m < 25; ++m) {
      const std::size_t i = rng.index(d.vars.size());
      point[i] = randomCoord(d.vars[i]);
      EXPECT_EQ(dt.rebind(point),
                testref::branchDistance(goal, toEnv(point), true))
          << "trial " << trial << " move " << m;
    }
  }
}

// ----- Differential fuzz: slot-allocated tape vs raw tape ------------------

TEST(TapePassFuzz, OptimizedTapeMatchesRawConcreteAndConeExecution) {
  Rng rng(20260807);
  for (int trial = 0; trial < 25; ++trial) {
    FuzzDag d = makeFuzzDag(rng, /*withArrays=*/true);
    std::vector<ExprPtr> roots;
    const auto addRootFrom = [&](const std::vector<ExprPtr>& pool) {
      roots.push_back(pool[rng.index(pool.size())]);
    };
    for (int i = 0; i < 3; ++i) addRootFrom(d.bools);
    for (int i = 0; i < 2; ++i) {
      addRootFrom(d.ints);
      addRootFrom(d.reals);
    }
    addRootFrom(d.realArrays);
    addRootFrom(d.intArrays);

    const fuzz::TapePair p = fuzz::buildTapePair(roots);
    ASSERT_FALSE(expr::verifyTape(*p.raw).hasErrors()) << "trial " << trial;
    ASSERT_FALSE(expr::verifyTape(*p.optimized).hasErrors())
        << "trial " << trial
        << "\n" << expr::verifyTape(*p.optimized).render();

    expr::TapeExecutor raw(p.raw), opt(p.optimized);
    Env env = randomEnv(rng, d);
    raw.bindEnv(env);
    raw.run();
    opt.bindEnv(env);
    opt.run();

    const auto checkAll = [&](const char* what) {
      for (std::size_t i = 0; i < roots.size(); ++i) {
        if (roots[i]->isArray()) {
          const auto& a = raw.array(p.rawSlots[i]);
          const auto& b = opt.array(p.optSlots[i]);
          ASSERT_EQ(a.size(), b.size())
              << what << " trial " << trial << " root " << i;
          for (std::size_t j = 0; j < a.size(); ++j) {
            EXPECT_TRUE(sameScalar(a[j], b[j]))
                << what << " trial " << trial << " root " << i << " [" << j
                << "]";
          }
        } else {
          EXPECT_TRUE(
              sameScalar(raw.scalar(p.rawSlots[i]), opt.scalar(p.optSlots[i])))
              << what << " trial " << trial << " root " << i;
        }
      }
    };
    checkAll("full");

    // Re-execution after single-variable rebinds must stay exact on the
    // slot-shared tape: a shared slot's stale value from the previous run
    // must never be read.
    for (int m = 0; m < 6; ++m) {
      const auto& v = d.vars[rng.index(d.vars.size())];
      const Scalar nv = randomScalarFor(rng, v);
      raw.setVar(v.id, nv);
      raw.run();
      opt.setVar(v.id, nv);
      opt.run();
      checkAll("rebind");
    }
    std::vector<Scalar> ar;
    for (int i = 0; i < 4; ++i) {
      ar.push_back(Scalar::r(rng.uniformReal(-50.0, 50.0)));
    }
    raw.setArrayVar(kRealArrId, ar);
    raw.run();
    opt.setArrayVar(kRealArrId, ar);
    opt.run();
    checkAll("array-rebind");
  }
}

TEST(TapePassFuzz, IntervalSafeOptimizationMatchesRawIntervalExecution) {
  Rng rng(88002);
  for (int trial = 0; trial < 20; ++trial) {
    FuzzDag d = makeFuzzDag(rng, /*withArrays=*/true);
    std::vector<ExprPtr> roots;
    const auto addRootFrom = [&](const std::vector<ExprPtr>& pool) {
      roots.push_back(pool[rng.index(pool.size())]);
    };
    for (int i = 0; i < 3; ++i) addRootFrom(d.bools);
    for (int i = 0; i < 2; ++i) {
      addRootFrom(d.ints);
      addRootFrom(d.reals);
    }
    addRootFrom(d.realArrays);
    addRootFrom(d.intArrays);

    const fuzz::TapePair p = fuzz::buildTapePair(roots);
    ASSERT_FALSE(expr::verifyTape(*p.optimized).hasErrors())
        << "trial " << trial;

    // Random partial binding, as in the interval-vs-tree fuzz above.
    analysis::IntervalEnv env;
    for (const auto& v : d.vars) {
      if (!rng.chance(0.6)) continue;
      double a = rng.uniformReal(v.lo, v.hi);
      double c = rng.uniformReal(v.lo, v.hi);
      if (a > c) std::swap(a, c);
      Interval iv(a, c);
      if (v.type != Type::kReal) iv = iv.integralHull();
      env.set(v.id, iv);
    }
    if (rng.chance(0.5)) {
      std::vector<Interval> elems;
      for (int i = 0; i < 4; ++i) {
        const double m = rng.uniformReal(-50.0, 50.0);
        elems.push_back(Interval(m, m + rng.uniformReal(0.0, 10.0)));
      }
      env.setArray(kRealArrId, std::move(elems));
    }

    analysis::IntervalTapeExecutor raw(p.raw), opt(p.optimized);
    raw.bind(env);
    raw.run();
    opt.bind(env);
    opt.run();
    for (std::size_t i = 0; i < roots.size(); ++i) {
      if (roots[i]->isArray()) {
        const auto& a = raw.array(p.rawSlots[i]);
        const auto& b = opt.array(p.optSlots[i]);
        ASSERT_EQ(a.size(), b.size()) << "trial " << trial << " root " << i;
        for (std::size_t j = 0; j < a.size(); ++j) {
          EXPECT_TRUE(sameInterval(a[j], b[j]))
              << "trial " << trial << " root " << i << " [" << j << "]: ["
              << a[j].lo() << "," << a[j].hi() << "] vs [" << b[j].lo() << ","
              << b[j].hi() << "]";
        }
      } else {
        const Interval& a = raw.scalar(p.rawSlots[i]);
        const Interval& b = opt.scalar(p.optSlots[i]);
        EXPECT_TRUE(sameInterval(a, b))
            << "trial " << trial << " root " << i << ": [" << a.lo() << ","
            << a.hi() << "] vs [" << b.lo() << "," << b.hi() << "]";
      }
    }
  }
}

TEST(TapePassFuzz, DistanceOverlayTapsMatchRawAfterOptimization) {
  Rng rng(314159);
  for (int trial = 0; trial < 15; ++trial) {
    FuzzDag d = makeFuzzDag(rng, /*withArrays=*/false);
    ExprPtr goal = d.bools[rng.index(d.bools.size())];
    goal = expr::andE(std::move(goal), d.bools[rng.index(d.bools.size())]);

    // The producer's build: value tape + overlay, interior value taps
    // (va/vb) pinned live through the optimizer.
    expr::TapeBuilder b;
    const solver::DistanceProgram prog = solver::buildDistanceProgram(goal, b);
    const std::shared_ptr<const expr::Tape> raw = b.finish();
    std::vector<SlotRef> taps;
    for (const auto& in : prog.code) {
      if (in.va >= 0) taps.push_back({in.va, false});
      if (in.vb >= 0) taps.push_back({in.vb, false});
    }
    const expr::OptimizedTape o = expr::optimizeTape(raw, taps);
    ASSERT_FALSE(expr::verifyTape(*o.tape).hasErrors()) << "trial " << trial;

    // Every overlay tap must read the same bits from either tape — the
    // overlay is a pure function of the taps, so the distances agree too.
    expr::TapeExecutor rawEx(raw), optEx(o.tape);
    for (int probe = 0; probe < 5; ++probe) {
      const Env env = randomEnv(rng, d);
      rawEx.bindEnv(env);
      rawEx.run();
      optEx.bindEnv(env);
      optEx.run();
      for (std::size_t i = 0; i < taps.size(); ++i) {
        const SlotRef mapped = o.remap(taps[i]);
        ASSERT_TRUE(mapped.valid()) << "trial " << trial << " tap " << i;
        EXPECT_TRUE(sameScalar(rawEx.scalar(taps[i]), optEx.scalar(mapped)))
            << "trial " << trial << " probe " << probe << " tap " << i;
      }
    }
  }
}

// ----- Simulator: tape engine vs tree engine on the bench suite ------------

class TapeSimSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(TapeSimSweep, TapeAndTreeEnginesAgreeStepForStep) {
  const auto cm = compile::compile(bench::buildBenchModel(GetParam()));
  sim::Simulator tape(cm);  // kTape is the default
  sim::Simulator tree(cm, sim::EvalEngine::kTree);
  EXPECT_EQ(tape.engine(), sim::EvalEngine::kTape);
  EXPECT_EQ(tree.engine(), sim::EvalEngine::kTree);
  coverage::CoverageTracker covTape(cm);
  coverage::CoverageTracker covTree(cm);

  Rng rng(2026);
  sim::StateSnapshot mark = tape.snapshot();
  for (int stepNo = 0; stepNo < 250; ++stepNo) {
    if (stepNo == 100) mark = tape.snapshot();
    if (stepNo == 200) {  // exercise the restore path under both engines
      tape.restore(mark);
      tree.restore(mark);
    }
    const auto in = sim::randomInput(cm, rng);
    const auto ra = tape.step(in, &covTape);
    const auto rb = tree.step(in, &covTree);
    EXPECT_EQ(ra.newlyCovered, rb.newlyCovered) << "step " << stepNo;
    EXPECT_EQ(ra.newConditionObservation, rb.newConditionObservation)
        << "step " << stepNo;
    const auto& outA = tape.lastOutputs();
    const auto& outB = tree.lastOutputs();
    ASSERT_EQ(outA.size(), outB.size());
    for (std::size_t i = 0; i < outA.size(); ++i) {
      EXPECT_TRUE(sameScalar(outA[i], outB[i]))
          << "step " << stepNo << " output " << i;
    }
    EXPECT_TRUE(tape.state() == tree.state()) << "step " << stepNo;
    EXPECT_EQ(sim::snapshotHash(tape.state()), sim::snapshotHash(tree.state()))
        << "step " << stepNo;
  }
  EXPECT_EQ(covTape.coveredBranchCount(), covTree.coveredBranchCount());
  EXPECT_EQ(covTape.decisionCoverage(), covTree.decisionCoverage());
  EXPECT_EQ(covTape.conditionCoverage(), covTree.conditionCoverage());
  EXPECT_EQ(covTape.mcdcCoverage(), covTree.mcdcCoverage());
}

INSTANTIATE_TEST_SUITE_P(AllModels, TapeSimSweep,
                         ::testing::Values("CPUTask", "AFC", "TWC",
                                           "NICProtocol", "UTPC", "LANSwitch",
                                           "LEDLC", "TCP"));

// ----- Batched interval verdicts under the real state invariants -----------

TEST(IntervalTape, BatchVerdictsMatchTreeWalkUnderModelInvariants) {
  for (const auto& info : bench::allBenchModels()) {
    const auto cm = compile::compile(info.build());
    const auto inv = analysis::computeStateInvariant(cm);
    std::vector<ExprPtr> roots;
    for (const auto& br : cm.branches) roots.push_back(br.pathConstraint);
    for (const auto& obj : cm.objectives) {
      roots.push_back(expr::andE(obj.activation, obj.cond));
    }
    if (roots.empty()) continue;
    const auto batch = analysis::intervalVerdicts(roots, inv.env);
    ASSERT_EQ(batch.size(), roots.size()) << info.name;
    analysis::IntervalEvaluator ev(inv.env);
    for (std::size_t i = 0; i < roots.size(); ++i) {
      const Interval tree = ev.evalScalar(roots[i]);
      EXPECT_TRUE(sameInterval(tree, batch[i]))
          << info.name << " constraint " << i << ": [" << tree.lo() << ","
          << tree.hi() << "] vs [" << batch[i].lo() << "," << batch[i].hi()
          << "]";
    }
  }
}

// ----- End-to-end: StcgGenerator result pinned across sim engines ----------

// The latch model from the parallel-determinism tests: deep state, full
// branch coverage reachable, so runs terminate on coverage (not the wall
// clock) and the whole GenResult is comparable.
model::Model makeLatchModel() {
  model::Model m("Latch");
  auto code = m.addInport("code", Type::kInt, 0, 100000);
  auto arm = m.addInport("arm", Type::kBool, 0, 1);
  auto latch = m.addUnitDelayHole("latched", Scalar::i(-1));
  auto latchNext = m.addSwitch("latch_next", code, arm, latch,
                               model::SwitchCriteria::kNotZero, 0.0);
  m.bindDelayInput(latch, latchNext);
  auto match = m.addRelational("match", model::RelOp::kEq, code, latch);
  auto valid = m.addCompareToConst("valid", latch, model::RelOp::kGe, 0.0);
  auto unlock = m.addLogical("unlock", model::LogicOp::kAnd, {match, valid});
  auto one = m.addConstant("one", Scalar::i(1));
  auto zero = m.addConstant("zero", Scalar::i(0));
  m.addOutport("y", m.addSwitch("out", one, unlock, zero,
                                model::SwitchCriteria::kNotZero, 0.0));
  return m;
}

void expectIdenticalGen(const gen::GenResult& a, const gen::GenResult& b,
                        const std::string& what) {
  ASSERT_EQ(a.tests.size(), b.tests.size()) << what;
  for (std::size_t i = 0; i < a.tests.size(); ++i) {
    EXPECT_EQ(a.tests[i].steps, b.tests[i].steps) << what << " test " << i;
    EXPECT_EQ(a.tests[i].origin, b.tests[i].origin) << what << " test " << i;
    EXPECT_EQ(a.tests[i].goalLabel, b.tests[i].goalLabel)
        << what << " test " << i;
  }
  EXPECT_EQ(a.coverage.decision, b.coverage.decision) << what;
  EXPECT_EQ(a.coverage.condition, b.coverage.condition) << what;
  EXPECT_EQ(a.coverage.mcdc, b.coverage.mcdc) << what;
  EXPECT_EQ(a.coverage.coveredBranches, b.coverage.coveredBranches) << what;
  EXPECT_EQ(a.stats.solveCalls, b.stats.solveCalls) << what;
  EXPECT_EQ(a.stats.solveSat, b.stats.solveSat) << what;
  EXPECT_EQ(a.stats.stepsExecuted, b.stats.stepsExecuted) << what;
  EXPECT_EQ(a.stats.treeNodes, b.stats.treeNodes) << what;
  EXPECT_EQ(a.stats.randomSequences, b.stats.randomSequences) << what;
}

TEST(StcgEngines, GenResultIdenticalAcrossSimEngines) {
  const auto cm = compile::compile(makeLatchModel());
  const auto runWith = [&](sim::EvalEngine engine) {
    gen::GenOptions opt;
    opt.budgetMillis = 30000;  // non-binding: the run stops on coverage
    opt.seed = 77;
    opt.solver.timeBudgetMillis = 1000;
    opt.includeConditionGoals = false;  // see test_parallel_gen.cpp
    opt.simEngine = engine;
    gen::StcgGenerator g;
    return g.generate(cm, opt);
  };
  const auto tape = runWith(sim::EvalEngine::kTape);
  EXPECT_EQ(tape.coverage.decision, 1.0)
      << "latch must reach full coverage for the comparison to be stable";
  expectIdenticalGen(tape, runWith(sim::EvalEngine::kTree), "latch engines");
}

TEST(StcgEngines, SimEngineDefaultsToTape) {
  const gen::GenOptions opt;
  EXPECT_EQ(opt.simEngine, sim::EvalEngine::kTape);
}

// ----- Satellite regressions ----------------------------------------------

TEST(EvaluatorRegression, PinnedRootsDoNotGrowOnRepeatedEval) {
  const auto v = expr::mkVar({0, "v", Type::kInt, -10, 10});
  const auto root = expr::addE(v, expr::cInt(1));
  Env env;
  env.set(0, Scalar::i(41));
  expr::Evaluator ev(env);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(sameScalar(ev.evalScalar(root), Scalar::i(42)));
  }
  EXPECT_EQ(ev.pinnedRootCount(), 1u)
      << "re-evaluating one root must pin it exactly once";
  const auto root2 = expr::subE(v, expr::cInt(1));
  (void)ev.evalScalar(root2);
  (void)ev.evalScalar(root2);
  EXPECT_EQ(ev.pinnedRootCount(), 2u);

  // Array roots go through the same dedup.
  const auto arr = expr::mkVarArray(1, "a", Type::kInt, 2);
  env.setArray(1, {Scalar::i(1), Scalar::i(2)});
  expr::Evaluator ev2(env);
  for (int i = 0; i < 50; ++i) (void)ev2.evalArray(arr);
  EXPECT_EQ(ev2.pinnedRootCount(), 1u);
}

TEST(IntervalEvaluatorRegression, PinnedRootsDoNotGrowOnRepeatedEval) {
  const auto v = expr::mkVar({0, "v", Type::kReal, -5, 5});
  const auto root = expr::mulE(v, v);
  analysis::IntervalEnv env;
  env.set(0, Interval(1.0, 2.0));
  analysis::IntervalEvaluator ev(env);
  for (int i = 0; i < 100; ++i) (void)ev.evalScalar(root);
  EXPECT_EQ(ev.pinnedRootCount(), 1u);
  const auto arr = expr::mkVarArray(1, "a", Type::kReal, 3);
  for (int i = 0; i < 50; ++i) (void)ev.evalArray(arr);
  EXPECT_EQ(ev.pinnedRootCount(), 2u);
}

TEST(EnvReserve, ReserveKeepsSetGetSemantics) {
  Env env;
  env.reserve(4);
  env.set(0, Scalar::i(10));
  env.set(3, Scalar::r(2.5));
  EXPECT_TRUE(env.has(0));
  EXPECT_TRUE(env.has(3));
  EXPECT_FALSE(env.has(2));
  EXPECT_TRUE(sameScalar(env.get(3), Scalar::r(2.5)));
  // Setting past the reserved range still grows.
  env.set(10, Scalar::b(true));
  EXPECT_TRUE(env.has(10));
  EXPECT_TRUE(env.get(10).toBool());
  EXPECT_EQ(env.size(), 3u);
  // A smaller reserve never shrinks or drops bindings.
  env.reserve(1);
  EXPECT_TRUE(env.has(10));
  EXPECT_TRUE(sameScalar(env.get(0), Scalar::i(10)));
}

TEST(EnvReserve, CompiledModelVarCountCoversAllIds) {
  for (const auto& info : bench::allBenchModels()) {
    const auto cm = compile::compile(info.build());
    const std::size_t n = cm.varCount();
    for (const auto& in : cm.inputs) {
      EXPECT_LT(static_cast<std::size_t>(in.info.id), n) << info.name;
    }
    for (const auto& sv : cm.states) {
      EXPECT_LT(static_cast<std::size_t>(sv.id), n) << info.name;
    }
  }
}

}  // namespace
}  // namespace stcg
