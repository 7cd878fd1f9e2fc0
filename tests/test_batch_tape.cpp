// Batched-lane tests: the lane-for-lane bit-identity contract between
// expr::BatchTapeExecutor and the scalar TapeExecutor, and everything
// built on top of it.
//
//   - differential fuzz over random expression DAGs (every Op kind,
//     arrays included): each lane of an 8-wide batch vs its own scalar
//     executor, across repeated runs with re-bound variables,
//   - targeted per-lane semantics: division/modulo by zero in one lane
//     only, out-of-range select/store indices clamped per lane,
//   - the unbound-variable error naming both the variable and the lane,
//   - BatchDistanceTape lane distances vs scalar DistanceTape rebinds,
//   - BatchSimulator vs scalar Simulator across all eight bench models
//     (observations, outputs, states, coverage; restore mid-run),
//   - a decision with no satisfied arm: SimError from every scalar engine
//     and from recordObservation, never from a speculative stepBatch;
//     and every coverage reader (tree, tape, JIT, batch lane) leaving a
//     byte-identical serialized tracker,
//   - replaySuite batched vs scalar tracker equality,
//   - end-to-end: StcgGenerator results pinned across batch x jobs,
//     including a local-search-solver run.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "benchmodels/benchmodels.h"
#include "compile/compiler.h"
#include "coverage/coverage.h"
#include "expr/batch_tape.h"
#include "expr/builder.h"
#include "expr/eval.h"
#include "expr/tape.h"
#include "model/model.h"
#include "sim/batch_simulator.h"
#include "sim/simulator.h"
#include "solver/distance_tape.h"
#include "solver/local_search.h"
#include "solver/solver.h"
#include "stcg/stcg_generator.h"
#include "util/rng.h"

#include "fuzz_dag.h"

namespace stcg {
namespace {

using fuzz::FuzzDag;
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

constexpr int kLanes = 8;

// ----- Differential fuzz: every lane vs its own scalar executor ------------

TEST(BatchTapeFuzz, LanesMatchScalarTapeBitwise) {
  Rng rng(986);
  for (int trial = 0; trial < 15; ++trial) {
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

    const auto tape = b.finish();
    expr::BatchTapeExecutor bx(tape, kLanes);
    ASSERT_EQ(bx.lanes(), kLanes);
    std::vector<std::unique_ptr<expr::TapeExecutor>> refs;
    std::vector<Env> envs;
    for (int l = 0; l < kLanes; ++l) {
      envs.push_back(randomEnv(rng, d));
      refs.push_back(std::make_unique<expr::TapeExecutor>(tape));
      refs.back()->bindEnv(envs.back());
      bx.bindEnv(l, envs.back());
    }
    const auto runAndCheck = [&](const char* what) {
      bx.run();
      for (int l = 0; l < kLanes; ++l) {
        refs[static_cast<std::size_t>(l)]->run();
        const auto& ref = *refs[static_cast<std::size_t>(l)];
        for (std::size_t i = 0; i < roots.size(); ++i) {
          if (roots[i]->isArray()) {
            const auto& a = ref.array(slots[i]);
            const auto& bt = bx.array(slots[i], l);
            ASSERT_EQ(a.size(), bt.size())
                << what << " trial " << trial << " lane " << l << " root " << i;
            for (std::size_t j = 0; j < a.size(); ++j) {
              EXPECT_TRUE(sameScalar(a[j], bt[j]))
                  << what << " trial " << trial << " lane " << l << " root "
                  << i << " [" << j << "]";
            }
          } else {
            EXPECT_TRUE(sameScalar(ref.scalar(slots[i]), bx.scalar(slots[i], l)))
                << what << " trial " << trial << " lane " << l << " root " << i;
            EXPECT_TRUE(sameBits(ref.scalar(slots[i]).toReal(),
                                 bx.scalarToReal(slots[i], l)))
                << what << " trial " << trial << " lane " << l << " root " << i;
            EXPECT_EQ(ref.scalar(slots[i]).toBool(),
                      bx.scalarToBool(slots[i], l))
                << what << " trial " << trial << " lane " << l << " root " << i;
          }
        }
      }
    };
    runAndCheck("initial");

    // Re-bind a few variables per lane and run the live executors again:
    // stale lane payloads from the previous pass must never leak.
    for (int round = 0; round < 3; ++round) {
      for (int l = 0; l < kLanes; ++l) {
        for (int m = 0; m < 2; ++m) {
          const auto& v = d.vars[rng.index(d.vars.size())];
          const Scalar nv = randomScalarFor(rng, v);
          refs[static_cast<std::size_t>(l)]->setVar(v.id, nv);
          bx.setVar(l, v.id, nv);
        }
        if (rng.chance(0.5)) {
          std::vector<Scalar> ar;
          for (int i = 0; i < 4; ++i) {
            ar.push_back(Scalar::r(rng.uniformReal(-50.0, 50.0)));
          }
          refs[static_cast<std::size_t>(l)]->setArrayVar(kRealArrId, ar);
          bx.setArrayVar(l, kRealArrId, ar);
        }
      }
      runAndCheck("rebound");
    }
  }
}

// ----- Differential fuzz: batch lanes on the optimized tape ----------------

TEST(BatchTapeFuzz, LanesOnOptimizedTapeMatchScalarRawBitwise) {
  Rng rng(44203);
  for (int trial = 0; trial < 12; ++trial) {
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

    // Batch lanes execute the optimized tape (slot sharing shrinks the
    // B-wide SoA frame); the oracle is a scalar executor per lane on the
    // RAW tape, so this differential crosses both the pass pipeline and
    // the lane kernels at once.
    const fuzz::TapePair p = fuzz::buildTapePair(roots);
    expr::BatchTapeExecutor bx(p.optimized, kLanes);
    std::vector<std::unique_ptr<expr::TapeExecutor>> refs;
    for (int l = 0; l < kLanes; ++l) {
      const Env env = randomEnv(rng, d);
      refs.push_back(std::make_unique<expr::TapeExecutor>(p.raw));
      refs.back()->bindEnv(env);
      bx.bindEnv(l, env);
    }
    bx.run();
    for (int l = 0; l < kLanes; ++l) {
      auto& ref = *refs[static_cast<std::size_t>(l)];
      ref.run();
      for (std::size_t i = 0; i < roots.size(); ++i) {
        if (roots[i]->isArray()) {
          const auto& a = ref.array(p.rawSlots[i]);
          const auto& bt = bx.array(p.optSlots[i], l);
          ASSERT_EQ(a.size(), bt.size())
              << "trial " << trial << " lane " << l << " root " << i;
          for (std::size_t j = 0; j < a.size(); ++j) {
            EXPECT_TRUE(sameScalar(a[j], bt[j]))
                << "trial " << trial << " lane " << l << " root " << i << " ["
                << j << "]";
          }
        } else {
          EXPECT_TRUE(
              sameScalar(ref.scalar(p.rawSlots[i]), bx.scalar(p.optSlots[i], l)))
              << "trial " << trial << " lane " << l << " root " << i;
        }
      }
    }
  }
}

// ----- Targeted per-lane guards and clamps ---------------------------------

TEST(BatchTape, PerLaneDivModGuardsAndIndexClampsMatchScalar) {
  const VarInfo i0{0, "i0", Type::kInt, -100, 100};
  const VarInfo i1{1, "i1", Type::kInt, -100, 100};
  const VarInfo r0{2, "r0", Type::kReal, -100, 100};
  const VarInfo r1{3, "r1", Type::kReal, -100, 100};
  const VarInfo ix{4, "ix", Type::kInt, -10, 10};
  const auto arr = expr::mkVarArray(5, "arr", Type::kReal, 3);

  expr::TapeBuilder b;
  std::vector<SlotRef> slots;
  slots.push_back(b.addRoot(expr::divE(expr::mkVar(i0), expr::mkVar(i1))));
  slots.push_back(b.addRoot(expr::modE(expr::mkVar(i0), expr::mkVar(i1))));
  slots.push_back(b.addRoot(expr::divE(expr::mkVar(r0), expr::mkVar(r1))));
  slots.push_back(b.addRoot(expr::modE(expr::mkVar(r0), expr::mkVar(r1))));
  slots.push_back(b.addRoot(expr::selectE(arr, expr::mkVar(ix))));
  slots.push_back(
      b.addRoot(expr::storeE(arr, expr::mkVar(ix), expr::mkVar(r0))));

  // One misbehaving lane at a time: int zero divisor, real zero divisor,
  // index below range, index past the end, plus two ordinary lanes.
  struct LaneEnv {
    std::int64_t i0v, i1v;
    double r0v, r1v;
    std::int64_t ixv;
  };
  const std::vector<LaneEnv> laneEnvs = {
      {7, 3, 5.5, 2.0, 1},    {7, 0, 5.5, 2.0, 0},  {-9, -4, 5.5, 0.0, 2},
      {-9, 2, -3.25, 1.5, -5}, {4, -1, 8.0, -2.0, 9}, {0, 0, 0.0, 0.0, 0},
  };
  const int B = static_cast<int>(laneEnvs.size());

  const auto tape = b.finish();
  expr::BatchTapeExecutor bx(tape, B);
  std::vector<std::unique_ptr<expr::TapeExecutor>> refs;
  for (int l = 0; l < B; ++l) {
    const LaneEnv& le = laneEnvs[static_cast<std::size_t>(l)];
    Env env;
    env.set(i0.id, Scalar::i(le.i0v));
    env.set(i1.id, Scalar::i(le.i1v));
    env.set(r0.id, Scalar::r(le.r0v));
    env.set(r1.id, Scalar::r(le.r1v));
    env.set(ix.id, Scalar::i(le.ixv));
    env.setArray(5, {Scalar::r(1.5), Scalar::r(-2.5), Scalar::r(4.0)});
    refs.push_back(std::make_unique<expr::TapeExecutor>(tape));
    refs.back()->bindEnv(env);
    bx.bindEnv(l, env);
  }
  bx.run();
  for (int l = 0; l < B; ++l) {
    refs[static_cast<std::size_t>(l)]->run();
    const auto& ref = *refs[static_cast<std::size_t>(l)];
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].isArray) {
        const auto& a = ref.array(slots[i]);
        const auto& bt = bx.array(slots[i], l);
        ASSERT_EQ(a.size(), bt.size()) << "lane " << l << " root " << i;
        for (std::size_t j = 0; j < a.size(); ++j) {
          EXPECT_TRUE(sameScalar(a[j], bt[j]))
              << "lane " << l << " root " << i << " [" << j << "]";
        }
      } else {
        EXPECT_TRUE(sameScalar(ref.scalar(slots[i]), bx.scalar(slots[i], l)))
            << "lane " << l << " root " << i;
      }
    }
  }
  // Spot-check the guards really fired: lane 1 divides by int zero.
  EXPECT_TRUE(sameScalar(bx.scalar(slots[0], 1), Scalar::i(0)));
  EXPECT_TRUE(sameScalar(bx.scalar(slots[1], 1), Scalar::i(0)));
}

TEST(BatchTape, UnboundVariableNamesLaneAndVariable) {
  const VarInfo x{0, "x", Type::kInt, -10, 10};
  const VarInfo y{1, "lonely_y", Type::kInt, -10, 10};
  expr::TapeBuilder b;
  const SlotRef root = b.addRoot(expr::addE(expr::mkVar(x), expr::mkVar(y)));
  expr::BatchTapeExecutor bx(b.finish(), 2);
  bx.setVar(0, x.id, Scalar::i(1));
  bx.setVar(0, y.id, Scalar::i(2));
  bx.setVar(1, x.id, Scalar::i(3));
  try {
    bx.run();
    FAIL() << "expected EvalError for the unbound (variable, lane) pair";
  } catch (const expr::EvalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("lonely_y"), std::string::npos) << what;
    EXPECT_NE(what.find("lane 1"), std::string::npos) << what;
  }
  bx.setVar(1, y.id, Scalar::i(4));
  bx.run();
  EXPECT_TRUE(sameScalar(bx.scalar(root, 0), Scalar::i(3)));
  EXPECT_TRUE(sameScalar(bx.scalar(root, 1), Scalar::i(7)));
}

// ----- BatchDistanceTape vs scalar DistanceTape ----------------------------

TEST(BatchDistance, LaneDistancesMatchScalarRebindBitwise) {
  Rng rng(31337);
  for (int trial = 0; trial < 12; ++trial) {
    FuzzDag d = makeFuzzDag(rng, /*withArrays=*/false);
    ExprPtr goal = d.bools[rng.index(d.bools.size())];
    goal = expr::andE(std::move(goal), d.bools[rng.index(d.bools.size())]);
    goal = expr::orE(std::move(goal), d.bools[rng.index(d.bools.size())]);

    solver::DistanceTape dt(goal, d.vars);
    solver::BatchDistanceTape bdt(goal, d.vars, kLanes);
    ASSERT_EQ(bdt.lanes(), kLanes);

    const auto randomCoord = [&](const VarInfo& v) -> double {
      if (v.type == Type::kReal) return rng.uniformReal(v.lo, v.hi);
      return static_cast<double>(
          rng.uniformInt(static_cast<std::int64_t>(v.lo),
                         static_cast<std::int64_t>(v.hi)));
    };
    for (int round = 0; round < 3; ++round) {
      std::vector<std::vector<double>> points;
      for (int l = 0; l < kLanes; ++l) {
        std::vector<double> p(d.vars.size());
        for (std::size_t i = 0; i < p.size(); ++i) {
          p[i] = randomCoord(d.vars[i]);
        }
        bdt.setPoint(l, p);
        points.push_back(std::move(p));
      }
      bdt.run();
      for (int l = 0; l < kLanes; ++l) {
        EXPECT_TRUE(sameBits(bdt.distance(l),
                             dt.rebind(points[static_cast<std::size_t>(l)])))
            << "trial " << trial << " round " << round << " lane " << l;
      }
    }
  }
}

// ----- BatchSimulator vs scalar Simulator on the bench suite ---------------

class BatchSimSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(BatchSimSweep, LanesAgreeWithScalarSimulatorsStepForStep) {
  const auto cm = compile::compile(bench::buildBenchModel(GetParam()));
  constexpr int B = 4;
  sim::BatchSimulator bsim(cm, B);
  ASSERT_EQ(bsim.lanes(), B);
  std::vector<std::unique_ptr<sim::Simulator>> sims;
  std::vector<std::unique_ptr<coverage::CoverageTracker>> covScalar;
  std::vector<std::unique_ptr<coverage::CoverageTracker>> covBatch;
  for (int l = 0; l < B; ++l) {
    sims.push_back(std::make_unique<sim::Simulator>(cm));
    covScalar.push_back(std::make_unique<coverage::CoverageTracker>(cm));
    covBatch.push_back(std::make_unique<coverage::CoverageTracker>(cm));
  }

  Rng rng(60299);
  std::vector<sim::StateSnapshot> marks(B);
  std::vector<sim::InputVector> ins(B);
  std::vector<const sim::InputVector*> inPtrs(B);
  sim::StepObservationBatch obs;
  for (int stepNo = 0; stepNo < 150; ++stepNo) {
    if (stepNo == 60) {
      for (int l = 0; l < B; ++l) marks[l] = bsim.state(l);
    }
    if (stepNo == 120) {  // exercise restore on every lane
      for (int l = 0; l < B; ++l) {
        bsim.restore(l, marks[l]);
        sims[static_cast<std::size_t>(l)]->restore(marks[l]);
      }
    }
    for (int l = 0; l < B; ++l) {
      ins[static_cast<std::size_t>(l)] = sim::randomInput(cm, rng);
      inPtrs[static_cast<std::size_t>(l)] = &ins[static_cast<std::size_t>(l)];
    }
    bsim.stepBatch(inPtrs, obs);
    for (int l = 0; l < B; ++l) {
      auto& scalarSim = *sims[static_cast<std::size_t>(l)];
      const auto rs =
          scalarSim.step(ins[static_cast<std::size_t>(l)],
                         covScalar[static_cast<std::size_t>(l)].get());
      const auto rb = sim::recordObservation(
          cm, obs, l, *covBatch[static_cast<std::size_t>(l)]);
      EXPECT_EQ(rs.newlyCovered, rb.newlyCovered)
          << "step " << stepNo << " lane " << l;
      EXPECT_EQ(rs.newConditionObservation, rb.newConditionObservation)
          << "step " << stepNo << " lane " << l;
      const auto& outS = scalarSim.lastOutputs();
      ASSERT_EQ(outS.size(), obs.outputCount());
      for (std::size_t i = 0; i < outS.size(); ++i) {
        EXPECT_TRUE(sameScalar(outS[i], obs.output(l, i)))
            << "step " << stepNo << " lane " << l << " output " << i;
      }
      EXPECT_TRUE(scalarSim.state() == bsim.state(l))
          << "step " << stepNo << " lane " << l;
      EXPECT_EQ(sim::snapshotHash(scalarSim.state()),
                sim::snapshotHash(bsim.state(l)))
          << "step " << stepNo << " lane " << l;
    }
  }
  for (int l = 0; l < B; ++l) {
    const auto& cs = *covScalar[static_cast<std::size_t>(l)];
    const auto& cb = *covBatch[static_cast<std::size_t>(l)];
    EXPECT_EQ(cs.coveredBranchCount(), cb.coveredBranchCount()) << l;
    EXPECT_EQ(cs.decisionCoverage(), cb.decisionCoverage()) << l;
    EXPECT_EQ(cs.conditionCoverage(), cb.conditionCoverage()) << l;
    EXPECT_EQ(cs.mcdcCoverage(), cb.mcdcCoverage()) << l;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, BatchSimSweep,
                         ::testing::Values("CPUTask", "AFC", "TWC",
                                           "NICProtocol", "UTPC", "LANSwitch",
                                           "LEDLC", "TCP"));

// ----- Malformed decision: active, but no arm satisfied --------------------

TEST(RecordStep, DecisionWithNoSatisfiedArmThrowsOnEveryEngine) {
  // Regions.MergeSelectsActiveArmOrFallback's switch-case model with the
  // default arm of its decision erased: input 4 keeps the decision active
  // but satisfies none of the remaining arms.
  model::Model m("t");
  auto sel = m.addInport("sel", Type::kInt, 0, 5);
  const auto regions = m.addSwitchCase("sc", sel, {{0}, {1}}, false);
  std::vector<std::pair<model::RegionId, model::PortRef>> arms;
  {
    model::RegionScope r0(m, regions[0]);
    arms.emplace_back(regions[0], m.addConstant("a", Scalar::i(10)));
  }
  {
    model::RegionScope r1(m, regions[1]);
    arms.emplace_back(regions[1], m.addConstant("b", Scalar::i(20)));
  }
  m.addOutport("y", m.addMerge("mg", arms, Scalar::i(-1)));
  auto cm = compile::compile(m);
  ASSERT_EQ(cm.decisions.size(), 1u);
  auto& d = cm.decisions[0];
  ASSERT_EQ(d.armConds.size(), 3u);  // case 0, case 1, default
  d.armConds.pop_back();
  d.armLabels.pop_back();

  const sim::InputVector ok{Scalar::i(0)};
  const sim::InputVector noArm{Scalar::i(4)};
  for (const auto engine : {sim::EvalEngine::kTree, sim::EvalEngine::kTape,
                            sim::EvalEngine::kJit}) {
    sim::Simulator s(cm, engine);
    if (!s.jitFallbackReason().empty()) continue;  // no JIT toolchain
    coverage::CoverageTracker cov(cm);
    EXPECT_NO_THROW((void)s.step(ok, &cov)) << static_cast<int>(engine);
    EXPECT_THROW((void)s.step(noArm, &cov), sim::SimError)
        << static_cast<int>(engine);
  }

  // Batched lanes are speculative: the malformed lane records its
  // observation silently, and only replaying it into a tracker throws.
  sim::BatchSimulator bsim(cm, 2);
  sim::StepObservationBatch obs;
  EXPECT_NO_THROW(bsim.stepBatch({&ok, &noArm}, obs));
  coverage::CoverageTracker cov(cm);
  EXPECT_NO_THROW((void)sim::recordObservation(cm, obs, 0, cov));
  EXPECT_THROW((void)sim::recordObservation(cm, obs, 1, cov), sim::SimError);
}

TEST(RecordStep, EveryReaderLeavesIdenticalTrackerState) {
  // The step sweeps compare coverage counts, which a reader that
  // consistently flips a condition's polarity would preserve; the
  // serialized tracker (polarities, the ordered MCDC log, objectives)
  // pins every recorded bit for the tree, tape, JIT and batch-lane
  // readers alike.
  for (const auto& info : bench::allBenchModels()) {
    const auto cm = compile::compile(info.build());
    std::vector<std::unique_ptr<sim::Simulator>> sims;
    for (const auto engine : {sim::EvalEngine::kTree, sim::EvalEngine::kTape,
                              sim::EvalEngine::kJit}) {
      sims.push_back(std::make_unique<sim::Simulator>(cm, engine));
      if (!sims.back()->jitFallbackReason().empty()) sims.pop_back();
    }
    std::vector<std::unique_ptr<coverage::CoverageTracker>> covs;
    for (std::size_t i = 0; i <= sims.size(); ++i) {
      covs.push_back(std::make_unique<coverage::CoverageTracker>(cm));
    }
    sim::BatchSimulator bsim(cm, 1);
    sim::StepObservationBatch obs;
    Rng rng(4242);
    for (int stepNo = 0; stepNo < 150; ++stepNo) {
      const auto in = sim::randomInput(cm, rng);
      for (std::size_t i = 0; i < sims.size(); ++i) {
        (void)sims[i]->step(in, covs[i].get());
      }
      bsim.stepBatch({&in}, obs);
      (void)sim::recordObservation(cm, obs, 0, *covs.back());
    }
    std::ostringstream tree;
    covs[0]->serializeState(tree);
    for (std::size_t i = 1; i < covs.size(); ++i) {
      std::ostringstream other;
      covs[i]->serializeState(other);
      EXPECT_EQ(other.str(), tree.str()) << info.name << " reader " << i;
    }
  }
}

// ----- replaySuite: batched lanes equal the scalar replay ------------------

TEST(ReplaySuiteBatch, BatchedReplayMatchesScalarTrackerOnEveryModel) {
  for (const auto& info : bench::allBenchModels()) {
    const auto cm = compile::compile(info.build());
    Rng rng(777);
    std::vector<gen::TestCase> tests;
    // Uneven lengths (including an empty test) so lanes drift out of
    // phase and the work queue reassigns lanes mid-run.
    for (const int len : {5, 0, 3, 11, 1, 7, 2, 4, 9}) {
      gen::TestCase tc;
      for (int i = 0; i < len; ++i) {
        tc.steps.push_back(sim::randomInput(cm, rng));
      }
      tests.push_back(std::move(tc));
    }
    const auto scalar = gen::replaySuite(cm, tests, {}, 1);
    for (const int batch : {3, 8, 32}) {
      const auto batched = gen::replaySuite(cm, tests, {}, batch);
      EXPECT_EQ(scalar.coveredBranchCount(), batched.coveredBranchCount())
          << info.name << " batch " << batch;
      EXPECT_EQ(scalar.decisionCoverage(), batched.decisionCoverage())
          << info.name << " batch " << batch;
      EXPECT_EQ(scalar.conditionCoverage(), batched.conditionCoverage())
          << info.name << " batch " << batch;
      EXPECT_EQ(scalar.mcdcCoverage(), batched.mcdcCoverage())
          << info.name << " batch " << batch;
    }
  }
}

// ----- End-to-end: GenResult pinned across batch x jobs --------------------

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

model::Model makeAnd2Model() {
  model::Model m("and2");
  auto a = m.addInport("a", Type::kBool, 0, 1);
  auto b = m.addInport("b", Type::kBool, 0, 1);
  auto cond = m.addLogical("ab", model::LogicOp::kAnd, {a, b});
  auto one = m.addConstant("one", Scalar::i(1));
  auto zero = m.addConstant("zero", Scalar::i(0));
  m.addOutport("y", m.addSwitch("sw", one, cond, zero,
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
  ASSERT_EQ(a.events.size(), b.events.size()) << what;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].decisionCoverage, b.events[i].decisionCoverage)
        << what << " event " << i;
    EXPECT_EQ(a.events[i].origin, b.events[i].origin)
        << what << " event " << i;
  }
  EXPECT_EQ(a.coverage.decision, b.coverage.decision) << what;
  EXPECT_EQ(a.coverage.condition, b.coverage.condition) << what;
  EXPECT_EQ(a.coverage.mcdc, b.coverage.mcdc) << what;
  EXPECT_EQ(a.coverage.coveredBranches, b.coverage.coveredBranches) << what;
  EXPECT_EQ(a.stats.solveCalls, b.stats.solveCalls) << what;
  EXPECT_EQ(a.stats.solveSat, b.stats.solveSat) << what;
  EXPECT_EQ(a.stats.solveUnsat, b.stats.solveUnsat) << what;
  EXPECT_EQ(a.stats.solveUnknown, b.stats.solveUnknown) << what;
  EXPECT_EQ(a.stats.stepsExecuted, b.stats.stepsExecuted) << what;
  EXPECT_EQ(a.stats.treeNodes, b.stats.treeNodes) << what;
  EXPECT_EQ(a.stats.randomSequences, b.stats.randomSequences) << what;
}

gen::GenResult runLatch(int batch, int jobs) {
  const auto cm = compile::compile(makeLatchModel());
  gen::GenOptions opt;
  // Budgets generous enough that runs stop on full coverage, never on
  // the wall clock — the determinism contract assumes non-binding
  // budgets. Branch goals only: see test_parallel_gen.cpp.
  opt.budgetMillis = 30000;
  opt.seed = 77;
  opt.solver.timeBudgetMillis = 1000;
  opt.includeConditionGoals = false;
  opt.batch = batch;
  opt.jobs = jobs;
  gen::StcgGenerator g;
  return g.generate(cm, opt);
}

gen::GenResult runAnd2(int batch, int jobs, solver::SolverKind solverKind) {
  const auto cm = compile::compile(makeAnd2Model());
  gen::GenOptions opt;
  opt.budgetMillis = 30000;
  opt.seed = 9;
  opt.solver.timeBudgetMillis = 1000;
  opt.solverKind = solverKind;
  opt.batch = batch;
  opt.jobs = jobs;
  gen::StcgGenerator g;
  return g.generate(cm, opt);
}

TEST(StcgBatch, LatchSuiteIdenticalAcrossBatchAndJobs) {
  const auto base = runLatch(/*batch=*/1, /*jobs=*/1);
  EXPECT_EQ(base.coverage.decision, 1.0)
      << "latch must reach full coverage for the comparison to be stable";
  expectIdenticalGen(base, runLatch(8, 1), "batch=8 jobs=1");
  expectIdenticalGen(base, runLatch(1, 4), "batch=1 jobs=4");
  expectIdenticalGen(base, runLatch(8, 4), "batch=8 jobs=4");
}

TEST(StcgBatch, FullGoalSetIdenticalAcrossBatchAndJobs) {
  const auto base = runAnd2(1, 1, solver::SolverKind::kBox);
  EXPECT_EQ(base.coverage.decision, 1.0);
  EXPECT_EQ(base.coverage.mcdc, 1.0)
      << "every and2 goal is satisfiable; the run must stop on coverage";
  expectIdenticalGen(base, runAnd2(8, 1, solver::SolverKind::kBox),
                     "and2 batch=8 jobs=1");
  expectIdenticalGen(base, runAnd2(8, 4, solver::SolverKind::kBox),
                     "and2 batch=8 jobs=4");
}

TEST(StcgBatch, LocalSearchSolverRunsBatchIndependent) {
  // End-to-end with the local-search engine, whose neighbor scorer is
  // batched whatever opt.batch is: the replay lane width still must not
  // change the suite.
  const auto base = runAnd2(1, 1, solver::SolverKind::kLocalSearch);
  expectIdenticalGen(base, runAnd2(8, 1, solver::SolverKind::kLocalSearch),
                     "and2 local batch=8");
}

TEST(StcgBatch, BatchDefaultsOnAndReplayParamDefaultsScalar) {
  const gen::GenOptions opt;
  EXPECT_EQ(opt.batch, 8) << "batched lockstep execution is the default";
}

}  // namespace
}  // namespace stcg
