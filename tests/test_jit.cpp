// Tape-JIT tests: the native-code backend must be bit-identical to the
// interpreted TapeExecutor (which itself is pinned to the tree walker),
// and must degrade gracefully — never crash, never silently diverge —
// when the environment has no C compiler or a corrupt module cache.
//
//   - differential fuzz over random expression DAGs (every Op kind,
//     arrays included): JIT vs interpreter on both the raw and the
//     pass-pipeline-optimized tape,
//   - batch lanes: runBatch vs per-lane scalar interpreter runs,
//   - Simulator sweep across all eight bench models (outputs, snapshots,
//     coverage events) under kJit vs kTape,
//   - StcgGenerator result pinned across {tree, tape, jit},
//   - the saturating real->int cast edge cases pinned bitwise across all
//     engines (satellite regression for the shared helper),
//   - environment-failure paths: bad STCG_JIT_CC falls back with a
//     diagnostic, a corrupted cached .so is discarded and rebuilt,
//   - option validation: out-of-range jobs/batch rejected with a typed
//     EvalError at the library boundary.
//
// Every test that needs a working toolchain first probes availability and
// GTEST_SKIPs when the environment cannot JIT at all, mirroring the
// library's own fallback.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "benchmodels/benchmodels.h"
#include "compile/compiler.h"
#include "coverage/coverage.h"
#include "expr/builder.h"
#include "expr/eval.h"
#include "expr/jit.h"
#include "expr/tape.h"
#include "model/model.h"
#include "sim/simulator.h"
#include "solver/solver.h"
#include "stcg/stcg_generator.h"
#include "util/rng.h"

#include "fuzz_dag.h"

namespace stcg {
namespace {

namespace fs = std::filesystem;

using expr::Scalar;
using expr::Type;
using expr::VarInfo;
using fuzz::makeFuzzDag;
using fuzz::makeJitArm;
using fuzz::randomEnv;
using fuzz::sameBits;
using fuzz::sameScalar;

/// One-time probe: can this environment JIT at all? (compiler + dlopen)
bool jitAvailable() {
  static const bool ok = [] {
    expr::TapeBuilder b;
    const VarInfo v{0, "x", Type::kReal, -10, 10};
    (void)b.addRoot(expr::addE(expr::mkVar(v), expr::cReal(1.0)));
    std::string why;
    return expr::TapeJit::compile(b.finish(), &why) != nullptr;
  }();
  return ok;
}

#define REQUIRE_JIT()                                                     \
  do {                                                                    \
    if (!jitAvailable()) GTEST_SKIP() << "no JIT toolchain available";    \
  } while (0)

// ----- Differential fuzz: JIT vs interpreter over every Op kind ------------

TEST(JitFuzz, MatchesInterpreterOnRawAndOptimizedTapes) {
  REQUIRE_JIT();
  Rng rng(20260807);
  for (int trial = 0; trial < 25; ++trial) {
    Rng dagRng = rng.fork(trial);
    auto dag = makeFuzzDag(dagRng, /*withArrays=*/true);
    std::vector<expr::ExprPtr> roots;
    for (const auto& p : {&dag.bools, &dag.ints, &dag.reals}) {
      for (const auto& e : *p) roots.push_back(e);
    }
    const auto pair = fuzz::buildTapePair(roots);

    for (const bool optimized : {false, true}) {
      const auto& tape = optimized ? pair.optimized : pair.raw;
      const auto& slots = optimized ? pair.optSlots : pair.rawSlots;
      std::string why;
      auto jit = makeJitArm(tape, &why);
      ASSERT_NE(jit, nullptr) << "trial " << trial << ": " << why;
      expr::TapeExecutor interp(tape);

      for (int probe = 0; probe < 4; ++probe) {
        const expr::Env env = randomEnv(dagRng, dag);
        interp.bindEnv(env);
        jit->bindEnv(env);
        interp.run();
        jit->run();
        for (std::size_t i = 0; i < slots.size(); ++i) {
          if (!slots[i].valid()) continue;
          ASSERT_TRUE(sameScalar(interp.scalar(slots[i]), jit->scalar(slots[i])))
              << "trial " << trial << (optimized ? " opt" : " raw")
              << " probe " << probe << " root " << i << ": interp="
              << interp.scalar(slots[i]).toString()
              << " jit=" << jit->scalar(slots[i]).toString();
        }
      }
    }
  }
}

// ----- Batch lanes ---------------------------------------------------------

TEST(JitLanes, RunBatchMatchesScalarInterpreterPerLane) {
  REQUIRE_JIT();
  Rng rng(90210);
  for (int trial = 0; trial < 8; ++trial) {
    Rng dagRng = rng.fork(trial);
    auto dag = makeFuzzDag(dagRng, /*withArrays=*/true);
    std::vector<expr::ExprPtr> roots;
    for (const auto& e : dag.reals) roots.push_back(e);
    for (const auto& e : dag.bools) roots.push_back(e);
    const auto pair = fuzz::buildTapePair(roots);

    constexpr int kLanes = 5;
    std::string why;
    auto jit = expr::TapeJit::compile(pair.optimized, &why);
    ASSERT_NE(jit, nullptr) << why;
    expr::JitTapeExecutor lanes(pair.optimized, jit, kLanes);
    expr::TapeExecutor interp(pair.optimized);

    std::vector<expr::Env> envs;
    for (int l = 0; l < kLanes; ++l) {
      envs.push_back(randomEnv(dagRng, dag));
      for (const auto& v : dag.vars) {
        lanes.setVarLane(l, v.id, envs[static_cast<std::size_t>(l)].get(v.id));
      }
      lanes.setArrayVarLane(
          l, fuzz::kRealArrId,
          envs[static_cast<std::size_t>(l)].getArray(fuzz::kRealArrId));
      lanes.setArrayVarLane(
          l, fuzz::kIntArrId,
          envs[static_cast<std::size_t>(l)].getArray(fuzz::kIntArrId));
    }
    lanes.runBatch(kLanes);
    for (int l = 0; l < kLanes; ++l) {
      interp.bindEnv(envs[static_cast<std::size_t>(l)]);
      interp.run();
      for (const auto& slot : pair.optSlots) {
        if (!slot.valid()) continue;
        ASSERT_TRUE(sameScalar(interp.scalar(slot), lanes.scalarLane(l, slot)))
            << "trial " << trial << " lane " << l;
      }
    }
  }
}

// ----- Simulator: kJit vs kTape across the bench suite ---------------------

class JitSimSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(JitSimSweep, JitAndTapeEnginesAgreeStepForStep) {
  REQUIRE_JIT();
  const auto cm = compile::compile(bench::buildBenchModel(GetParam()));
  sim::Simulator jitSim(cm, sim::EvalEngine::kJit);
  sim::Simulator tape(cm, sim::EvalEngine::kTape);
  ASSERT_EQ(jitSim.engine(), sim::EvalEngine::kJit)
      << jitSim.jitFallbackReason();
  coverage::CoverageTracker covJit(cm);
  coverage::CoverageTracker covTape(cm);

  Rng rng(2026);
  sim::StateSnapshot mark = jitSim.snapshot();
  for (int stepNo = 0; stepNo < 250; ++stepNo) {
    if (stepNo == 100) mark = jitSim.snapshot();
    if (stepNo == 200) {
      jitSim.restore(mark);
      tape.restore(mark);
    }
    const auto in = sim::randomInput(cm, rng);
    const auto ra = jitSim.step(in, &covJit);
    const auto rb = tape.step(in, &covTape);
    EXPECT_EQ(ra.newlyCovered, rb.newlyCovered) << "step " << stepNo;
    EXPECT_EQ(ra.newConditionObservation, rb.newConditionObservation)
        << "step " << stepNo;
    const auto& outA = jitSim.lastOutputs();
    const auto& outB = tape.lastOutputs();
    ASSERT_EQ(outA.size(), outB.size());
    for (std::size_t i = 0; i < outA.size(); ++i) {
      EXPECT_TRUE(sameScalar(outA[i], outB[i]))
          << "step " << stepNo << " output " << i;
    }
    EXPECT_TRUE(jitSim.state() == tape.state()) << "step " << stepNo;
    EXPECT_EQ(sim::snapshotHash(jitSim.state()),
              sim::snapshotHash(tape.state()))
        << "step " << stepNo;
  }
  EXPECT_EQ(covJit.coveredBranchCount(), covTape.coveredBranchCount());
  EXPECT_EQ(covJit.decisionCoverage(), covTape.decisionCoverage());
  EXPECT_EQ(covJit.conditionCoverage(), covTape.conditionCoverage());
  EXPECT_EQ(covJit.mcdcCoverage(), covTape.mcdcCoverage());
}

INSTANTIATE_TEST_SUITE_P(AllModels, JitSimSweep,
                         ::testing::Values("CPUTask", "AFC", "TWC",
                                           "NICProtocol", "UTPC", "LANSwitch",
                                           "LEDLC", "TCP"));

// ----- End-to-end: GenResult pinned across {tree, tape, jit} ---------------

// The latch model from test_tape.cpp's engine pin: full coverage is
// reachable, so runs stop on coverage and the whole result is comparable.
model::Model makeJitLatchModel() {
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

TEST(JitEngines, GenResultIdenticalAcrossTreeTapeAndJit) {
  REQUIRE_JIT();
  const auto cm = compile::compile(makeJitLatchModel());
  const auto runWith = [&](sim::EvalEngine engine) {
    gen::GenOptions opt;
    opt.budgetMillis = 30000;  // non-binding: the run stops on coverage
    opt.seed = 77;
    opt.solver.timeBudgetMillis = 1000;
    opt.includeConditionGoals = false;
    opt.simEngine = engine;
    gen::StcgGenerator g;
    return g.generate(cm, opt);
  };
  const auto jit = runWith(sim::EvalEngine::kJit);
  const auto tape = runWith(sim::EvalEngine::kTape);
  const auto tree = runWith(sim::EvalEngine::kTree);
  EXPECT_EQ(tape.coverage.decision, 1.0);

  const auto expectSame = [](const gen::GenResult& a, const gen::GenResult& b,
                             const std::string& what) {
    ASSERT_EQ(a.tests.size(), b.tests.size()) << what;
    for (std::size_t i = 0; i < a.tests.size(); ++i) {
      EXPECT_EQ(a.tests[i].steps, b.tests[i].steps) << what << " test " << i;
      EXPECT_EQ(a.tests[i].goalLabel, b.tests[i].goalLabel)
          << what << " test " << i;
    }
    EXPECT_EQ(a.coverage.decision, b.coverage.decision) << what;
    EXPECT_EQ(a.coverage.condition, b.coverage.condition) << what;
    EXPECT_EQ(a.coverage.mcdc, b.coverage.mcdc) << what;
    EXPECT_EQ(a.stats.solveCalls, b.stats.solveCalls) << what;
    EXPECT_EQ(a.stats.solveSat, b.stats.solveSat) << what;
    EXPECT_EQ(a.stats.stepsExecuted, b.stats.stepsExecuted) << what;
    EXPECT_EQ(a.stats.treeNodes, b.stats.treeNodes) << what;
  };
  expectSame(jit, tape, "jit-vs-tape");
  expectSame(jit, tree, "jit-vs-tree");
}

// ----- Saturating real->int cast: edges pinned across all engines ----------

TEST(JitCast, SaturatingRealToIntEdgesBitIdenticalAcrossEngines) {
  REQUIRE_JIT();
  const VarInfo r{0, "r", Type::kReal, -1e300, 1e300};
  const auto root = expr::castE(expr::mkVar(r), Type::kInt);
  expr::TapeBuilder b;
  const auto slot = b.addRoot(root);
  const auto tape = b.finish();

  std::string why;
  auto jit = makeJitArm(tape, &why);
  ASSERT_NE(jit, nullptr) << why;
  expr::TapeExecutor interp(tape);
  expr::BatchTapeExecutor batch(tape, 2);

  const double edges[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      9.2e18,
      -9.2e18,
      9.3e18,
      -9.3e18,
      static_cast<double>(std::numeric_limits<std::int64_t>::max()),
      static_cast<double>(std::numeric_limits<std::int64_t>::min()),
      -0.0,
      0.5,
      -123456.75,
  };
  for (const double v : edges) {
    const std::int64_t want = expr::saturatingRealToInt(v);

    expr::Env env;
    env.set(r.id, Scalar::r(v));
    EXPECT_EQ(expr::evaluate(root, env).toInt(), want) << v;

    interp.setVar(r.id, Scalar::r(v));
    interp.run();
    EXPECT_EQ(interp.scalar(slot).toInt(), want) << v;

    batch.setVar(0, r.id, Scalar::r(v));
    batch.setVarReal(1, r.id, v);
    batch.run();
    EXPECT_EQ(batch.scalar(slot, 0).toInt(), want) << v;
    EXPECT_EQ(batch.scalar(slot, 1).toInt(), want) << v;

    jit->setVar(r.id, Scalar::r(v));
    jit->run();
    EXPECT_EQ(jit->scalar(slot).toInt(), want) << v;
  }
  // Helper spot checks, pinning the documented mapping itself.
  EXPECT_EQ(expr::saturatingRealToInt(
                std::numeric_limits<double>::quiet_NaN()), 0);
  EXPECT_EQ(expr::saturatingRealToInt(1e19),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(expr::saturatingRealToInt(-1e19),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(expr::saturatingRealToInt(-2.75), -2);
}

// ----- Environment-failure paths -------------------------------------------

/// Scoped env-var override (tests only; restores the old value).
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ~EnvGuard() {
    if (old_.has_value()) {
      ::setenv(name_.c_str(), old_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::optional<std::string> old_;
};

/// A tape no other test compiles (unique constant), so nothing is memoized
/// or disk-cached for it outside the given cache dir.
std::shared_ptr<const expr::Tape> uniqueTape(double salt) {
  expr::TapeBuilder b;
  const VarInfo v{0, "x", Type::kReal, -10, 10};
  (void)b.addRoot(expr::mulE(expr::mkVar(v), expr::cReal(salt)));
  return b.finish();
}

TEST(JitFallback, BadCompilerFallsBackWithDiagnosticNotCrash) {
  REQUIRE_JIT();
  const fs::path dir =
      fs::temp_directory_path() /
      ("stcg-jit-test-badcc-" + std::to_string(::getpid()));
  fs::create_directories(dir);
  {
    EnvGuard cc("STCG_JIT_CC", "/nonexistent/definitely-not-a-compiler");
    EnvGuard cache("STCG_JIT_CACHE", dir.c_str());
    expr::jitClearCache();
    expr::clearJitDiagnostics();

    std::string why;
    auto jit = expr::TapeJit::compile(uniqueTape(1.25), &why);
    EXPECT_EQ(jit, nullptr);
    EXPECT_NE(why.find("/nonexistent/definitely-not-a-compiler"),
              std::string::npos)
        << why;
    const auto diags = expr::jitDiagnostics();
    ASSERT_FALSE(diags.empty());
    EXPECT_EQ(diags.back().severity, "warning");
    EXPECT_EQ(diags.back().check, "jit-unavailable");

    // A kJit Simulator degrades to the interpreted tape and still steps.
    const auto cm = compile::compile(makeJitLatchModel());
    sim::Simulator s(cm, sim::EvalEngine::kJit);
    EXPECT_EQ(s.engine(), sim::EvalEngine::kTape);
    EXPECT_FALSE(s.jitFallbackReason().empty());
    Rng rng(1);
    coverage::CoverageTracker cov(cm);
    for (int i = 0; i < 10; ++i) {
      (void)s.step(sim::randomInput(cm, rng), &cov);
    }
  }
  expr::jitClearCache();  // drop modules memoized under the temp cache dir
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(JitFallback, CorruptCachedModuleIsDiscardedAndRebuilt) {
  REQUIRE_JIT();
  const fs::path dir =
      fs::temp_directory_path() /
      ("stcg-jit-test-stale-" + std::to_string(::getpid()));
  fs::create_directories(dir);
  {
    EnvGuard cache("STCG_JIT_CACHE", dir.c_str());
    expr::jitClearCache();

    const auto tape = uniqueTape(2.5);
    std::string why;
    auto first = expr::TapeJit::compile(tape, &why);
    ASSERT_NE(first, nullptr) << why;
    const fs::path so = dir / ("stcg_jit_" + first->sourceHash() + ".so");
    ASSERT_TRUE(fs::exists(so));

    // Corrupt the cached object, drop the in-process memo, recompile:
    // the stale module must be detected, discarded and rebuilt — and the
    // rebuilt module must still execute correctly.
    first.reset();
    expr::jitClearCache();
    { std::ofstream(so, std::ios::trunc) << "not an ELF object"; }
    expr::clearJitDiagnostics();
    auto second = expr::TapeJit::compile(tape, &why);
    ASSERT_NE(second, nullptr) << why;
    bool sawCacheNote = false;
    for (const auto& d : expr::jitDiagnostics()) {
      if (d.check == "jit-cache") sawCacheNote = true;
    }
    EXPECT_TRUE(sawCacheNote);

    expr::JitTapeExecutor ex(tape, second);
    ex.setVar(0, Scalar::r(4.0));
    ex.run();
    EXPECT_TRUE(
        sameBits(ex.scalar(tape->rootSlots()[0]).toReal(), 4.0 * 2.5));
  }
  expr::jitClearCache();
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(JitFallback, UnboundVariableThrowsInterpreterIdenticalError) {
  REQUIRE_JIT();
  const auto tape = uniqueTape(3.75);
  std::string why;
  auto jit = expr::TapeJit::compile(tape, &why);
  ASSERT_NE(jit, nullptr) << why;
  expr::JitTapeExecutor ex(tape, jit);
  expr::TapeExecutor interp(tape);
  std::string jitMsg, interpMsg;
  try {
    ex.run();
  } catch (const expr::EvalError& e) {
    jitMsg = e.what();
  }
  try {
    interp.run();
  } catch (const expr::EvalError& e) {
    interpMsg = e.what();
  }
  EXPECT_FALSE(jitMsg.empty());
  EXPECT_EQ(jitMsg, interpMsg);
}

// ----- Option validation at the library boundary ---------------------------

TEST(OptionValidation, OutOfRangeJobsAndBatchRejectedWithTypedError) {
  const auto cm = compile::compile(makeJitLatchModel());
  gen::StcgGenerator g;

  gen::GenOptions bad;
  bad.jobs = -1;
  EXPECT_THROW((void)g.generate(cm, bad), expr::EvalError);
  bad = {};
  bad.jobs = 5000;
  EXPECT_THROW((void)g.generate(cm, bad), expr::EvalError);
  bad = {};
  bad.batch = -1;
  EXPECT_THROW((void)g.generate(cm, bad), expr::EvalError);
  bad = {};
  bad.randomSeqLen = -1;
  EXPECT_THROW((void)g.generate(cm, bad), expr::EvalError);
  bad = {};
  bad.maxTreeNodes = -1;
  EXPECT_THROW((void)g.generate(cm, bad), expr::EvalError);
  for (const double p : {-0.1, 1.5, std::nan("")}) {
    bad = {};
    bad.freshRandomProbability = p;
    EXPECT_THROW((void)g.generate(cm, bad), expr::EvalError) << p;
  }
}

}  // namespace
}  // namespace stcg
