// Parallel generation tests: the determinism contract of the threaded
// state-aware solve loop (same seed => byte-identical suite for any
// --jobs value), the cursor-and-barrier pool itself, counter-based RNG
// streams, snapshot-hash dedup, and the typed errors that replaced
// assert-only validity checks (NDEBUG safety).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "benchmodels/benchmodels.h"
#include "compile/compiler.h"
#include "expr/builder.h"
#include "model/model.h"
#include "solver/local_search.h"
#include "solver/solver.h"
#include "stcg/campaign.h"
#include "stcg/state_tree.h"
#include "stcg/stcg_generator.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace stcg::gen {
namespace {

using expr::Scalar;
using expr::Type;
using model::Model;

// The same latch model the sequential determinism test uses: its deep
// branch needs a remembered secret, full coverage is reachable, so runs
// terminate on goal completion rather than on the wall clock.
Model makeLatchModel() {
  Model m("Latch");
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

// ----- ThreadPool ---------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallelFor(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, SingleLaneRunsInlineAndInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threadCount(), 1);
  std::vector<std::size_t> order;
  pool.parallelFor(16, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ZeroTasksIsANoop) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallelFor(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, RethrowsTheLowestIndexException) {
  ThreadPool pool(4);
  try {
    pool.parallelFor(64, [&](std::size_t i) {
      if (i == 5 || i == 20) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 5");
  }
}

TEST(ThreadPool, ReusableAfterAnException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallelFor(8, [](std::size_t) { throw std::runtime_error("x"); }),
      std::runtime_error);
  std::atomic<int> sum{0};
  pool.parallelFor(100, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, SurvivesManyBatches) {
  // Back-to-back batches of uneven size with a slow index 0: the other
  // lanes drain the rest of a batch early and are still on their way out
  // of it when the caller finishes index 0 and starts the next one. Every
  // index of every batch must run exactly once, and no batch may hang at
  // that handover.
  ThreadPool pool(4);
  constexpr int kBatches = 100000;
  constexpr std::size_t kMaxN = 23;
  std::vector<std::atomic<int>> hits(kMaxN);
  std::atomic<unsigned> spin{0};
  for (int batch = 0; batch < kBatches; ++batch) {
    const std::size_t n = 1 + static_cast<std::size_t>(batch) * 7 % kMaxN;
    pool.parallelFor(n, [&](std::size_t i) {
      if (i == 0) {
        for (int k = 0; k < 200; ++k) {
          spin.fetch_add(1, std::memory_order_relaxed);
        }
      }
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kMaxN; ++i) {
      ASSERT_EQ(hits[i].exchange(0), i < n ? 1 : 0)
          << "batch " << batch << " index " << i;
    }
  }
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardwareThreads(), 1);
}

// ----- Counter-based RNG streams ------------------------------------------

TEST(Rng, CounterForkIgnoresEnginePosition) {
  Rng a(42);
  Rng b(42);
  // Advance `a` arbitrarily; the counter-based fork must not care.
  for (int i = 0; i < 13; ++i) (void)a.uniformInt(0, 9);
  Rng childA = a.fork(std::uint64_t{7});
  Rng childB = b.fork(std::uint64_t{7});
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(childA.uniformInt(0, 1 << 30), childB.uniformInt(0, 1 << 30));
  }
}

TEST(Rng, DistinctStreamsDiverge) {
  const Rng root(42);
  Rng s1 = root.fork(std::uint64_t{1});
  Rng s2 = root.fork(std::uint64_t{2});
  bool anyDiff = false;
  for (int i = 0; i < 8; ++i) {
    anyDiff |= s1.uniformInt(0, 1 << 30) != s2.uniformInt(0, 1 << 30);
  }
  EXPECT_TRUE(anyDiff);
}

TEST(Rng, ThrowsOnInvalidArgumentsInsteadOfUb) {
  Rng rng(1);
  EXPECT_THROW((void)rng.uniformInt(3, 2), std::invalid_argument);
  EXPECT_THROW((void)rng.index(0), std::invalid_argument);
}

// ----- Saturating integer endpoints (solver NDEBUG fix) -------------------

TEST(Solver, IntegerEndpointsSaturateUnboundedDomains) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto [lo, hi] = solver::integerEndpoints(1.0, kInf);
  EXPECT_EQ(lo, 1);
  EXPECT_GT(hi, std::int64_t{1} << 60);  // saturated, not INT64_MIN garbage
  const auto [l2, h2] = solver::integerEndpoints(-kInf, -3.5);
  EXPECT_LT(l2, -(std::int64_t{1} << 60));
  EXPECT_EQ(h2, -4);
}

TEST(Solver, IntegerEndpointsDetectEmptyIntegerInterval) {
  const auto [lo, hi] = solver::integerEndpoints(0.2, 0.8);
  EXPECT_GT(lo, hi);  // no integer in (0.2, 0.8)
}

TEST(Solver, SolvesOverHalfUnboundedIntegerDomain) {
  // Regression: sampling an integer var whose domain includes +inf used
  // to cast inf to int64 (UB) and feed an empty range to the RNG.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const expr::VarInfo v{910001, "n", Type::kInt, 1.0, kInf};
  const auto goal = expr::geE(expr::mkVar(v), expr::cInt(5));
  solver::SolveOptions so;
  so.timeBudgetMillis = 200;
  solver::BoxSolver s(so);
  const auto res = s.solve(goal, {v});
  ASSERT_TRUE(res.sat());
  EXPECT_GE(res.model.get(v.id).toReal(), 5.0);
}

TEST(Solver, NonBooleanGoalThrowsTypedError) {
  solver::BoxSolver box;
  EXPECT_THROW((void)box.solve(expr::cInt(3), {}), expr::EvalError);
  solver::LocalSearchSolver ls;
  EXPECT_THROW((void)ls.solve(expr::cInt(3), {}), expr::EvalError);
}

TEST(Stcg, MissingModelBindingThrowsTypedError) {
  const auto cm = compile::compile(makeLatchModel());
  const expr::Env empty;
  try {
    (void)inputsFromEnv(cm, empty);
    FAIL() << "expected EvalError";
  } catch (const expr::EvalError& e) {
    // Must name the missing input so the failure is debuggable in
    // release builds too.
    EXPECT_NE(std::string(e.what()).find("code"), std::string::npos)
        << e.what();
  }
}

// ----- Snapshot-hash dedup -------------------------------------------------

TEST(StateTree, GlobalDedupSkipsSameStateUnderDifferentNodeId) {
  const sim::StateSnapshot s{expr::Value(Scalar::i(7))};
  StateTree tree(s);
  // A second node with the same state value (the generator normally
  // dedups via findByState, but the cap path can still create one).
  const int dup = tree.addChild(0, {}, s);
  tree.markAttempted(0, 3);
  EXPECT_TRUE(tree.isAttempted(0, 3));
  EXPECT_TRUE(tree.isAttempted(dup, 3))
      << "same state value must share attempt marks";
  EXPECT_FALSE(tree.isAttempted(dup, 4));
  EXPECT_EQ(tree.attemptedPairCount(), 1u);
  tree.markAttempted(dup, 3);  // no-op: the pair is already recorded
  EXPECT_EQ(tree.attemptedPairCount(), 1u);
}

TEST(StateTree, DistinctStatesKeepDistinctAttemptSets) {
  StateTree tree({expr::Value(Scalar::i(1))});
  const int other = tree.addChild(0, {}, {expr::Value(Scalar::i(2))});
  tree.markAttempted(0, 9);
  EXPECT_FALSE(tree.isAttempted(other, 9));
  EXPECT_EQ(tree.attemptedPairCount(), 1u);
}

TEST(SnapshotHash, MatchesOnEqualValueOnly) {
  const sim::StateSnapshot a{expr::Value(Scalar::i(1)),
                             expr::Value(Scalar::i(2))};
  const sim::StateSnapshot b{expr::Value(Scalar::i(1)),
                             expr::Value(Scalar::i(2))};
  const sim::StateSnapshot swapped{expr::Value(Scalar::i(2)),
                                   expr::Value(Scalar::i(1))};
  EXPECT_EQ(sim::snapshotHash(a), sim::snapshotHash(b));
  EXPECT_NE(sim::snapshotHash(a), sim::snapshotHash(swapped));
}

// ----- Determinism across jobs --------------------------------------------

GenResult runLatch(int jobs) {
  const auto cm = compile::compile(makeLatchModel());
  GenOptions opt;
  // Budgets generous enough that runs stop on full coverage, never on the
  // wall clock — the determinism contract assumes non-binding budgets.
  opt.budgetMillis = 30000;
  opt.seed = 77;
  opt.solver.timeBudgetMillis = 1000;
  // Branch goals only: the latch has provably unsatisfiable MCDC pairs
  // (valid=F forces latched=-1 while match needs code==latched, outside
  // code's domain), and a run holding unsatisfiable goals is budget-bound
  // — its iteration counts depend on the wall clock, which the contract
  // excludes.
  opt.includeConditionGoals = false;
  opt.jobs = jobs;
  StcgGenerator g;
  return g.generate(cm, opt);
}

// (a && b) over free boolean inputs: every branch, condition polarity,
// and MCDC pair is satisfiable, so the full-goal run also terminates on
// coverage and the whole GenResult must be reproducible.
GenResult runAndModel(int jobs) {
  model::Model m("and2");
  auto a = m.addInport("a", Type::kBool, 0, 1);
  auto b = m.addInport("b", Type::kBool, 0, 1);
  auto cond = m.addLogical("ab", model::LogicOp::kAnd, {a, b});
  auto one = m.addConstant("one", Scalar::i(1));
  auto zero = m.addConstant("zero", Scalar::i(0));
  m.addOutport("y", m.addSwitch("sw", one, cond, zero,
                                model::SwitchCriteria::kNotZero, 0.0));
  const auto cm = compile::compile(m);
  GenOptions opt;
  opt.budgetMillis = 30000;
  opt.seed = 9;
  opt.solver.timeBudgetMillis = 1000;
  opt.jobs = jobs;
  StcgGenerator g;
  return g.generate(cm, opt);
}

void expectIdentical(const GenResult& a, const GenResult& b,
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

TEST(ParallelGen, SameSuiteForAnyJobsValue) {
  const auto seq = runLatch(1);
  EXPECT_EQ(seq.coverage.decision, 1.0)
      << "latch must reach full coverage for the comparison to be stable";
  expectIdentical(seq, runLatch(2), "jobs=2");
  expectIdentical(seq, runLatch(8), "jobs=8");
}

TEST(ParallelGen, JobsZeroMeansHardwareConcurrencyAndStaysDeterministic) {
  expectIdentical(runLatch(1), runLatch(0), "jobs=0");
}

TEST(ParallelGen, RepeatedThreadedRunsAreIdentical) {
  expectIdentical(runLatch(8), runLatch(8), "jobs=8 repeat");
}

TEST(ParallelGen, FullGoalSetDeterministicAcrossJobs) {
  const auto seq = runAndModel(1);
  EXPECT_EQ(seq.coverage.decision, 1.0);
  EXPECT_EQ(seq.coverage.mcdc, 1.0)
      << "every and2 goal is satisfiable; the run must stop on coverage";
  expectIdentical(seq, runAndModel(2), "and2 jobs=2");
  expectIdentical(seq, runAndModel(8), "and2 jobs=8");
}

// ----- Lazy solve-grid scan vs the materialised grid -----------------------

/// The next solve round's full (uncovered goal × unattempted node) grid,
/// enumerated by brute force from public campaign state in the paper's
/// scan order: goals by ascending depth (stable), then nodes by id.
std::vector<std::pair<int, int>> materialisedGrid(const Campaign& c) {
  const std::vector<Goal>& goals = c.goals();
  std::vector<int> order(goals.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return goals[static_cast<std::size_t>(a)].depth <
           goals[static_cast<std::size_t>(b)].depth;
  });
  const CampaignState& cs = c.state();
  std::vector<std::pair<int, int>> grid;
  for (const int g : order) {
    if (goalCovered(cs.tracker, goals[static_cast<std::size_t>(g)])) continue;
    for (std::size_t n = 0; n < cs.tree.size(); ++n) {
      if (!cs.tree.isAttempted(static_cast<int>(n), g)) {
        grid.emplace_back(g, static_cast<int>(n));
      }
    }
  }
  return grid;
}

/// What one campaign's rounds committed, for the non-vacuity checks.
struct PrefixStats {
  int dryRounds = 0;  // rounds that committed a whole non-empty grid
  std::size_t longestPrefix = 0;  // most cells one round committed
};

/// Every round must commit exactly a non-empty prefix of the grid the
/// materialised scan would have built: the whole grid when no cell is
/// SAT (no solveSat), and one solver call per committed cell (plus at
/// most one MCDC-pair attempt after a hit). The jobs-invariance tests
/// cannot catch a scan bug every jobs value shares; this pins the lazy
/// scan to the grid itself.
PrefixStats expectRoundsCommitGridPrefixes(const std::string& model,
                                           int jobs) {
  const auto cm = compile::compile(bench::buildBenchModel(model));
  GenOptions opt;
  opt.seed = 5;
  opt.jobs = jobs;
  opt.budgetMillis = -1;  // budgets never bind: every scanned cell runs
  opt.solver.timeBudgetMillis = -1;
  opt.solver.maxBoxes = 4096;
  opt.maxRounds = 150;
  EXPECT_TRUE(opt.sortGoalsByDepth && opt.solveOnAllNodes);
  Campaign c(cm, opt);
  PrefixStats st;
  int rounds = 0;
  while (!c.finished()) {
    const auto grid = materialisedGrid(c);
    const GenStats before = c.state().stats;
    c.runRound();
    ++rounds;
    const GenStats& after = c.state().stats;
    const bool hit = after.solveSat > before.solveSat;
    const StateTree& tree = c.state().tree;
    std::size_t k = 0;
    while (k < grid.size() &&
           tree.isAttempted(grid[k].second, grid[k].first)) {
      ++k;
    }
    for (std::size_t i = k; i < grid.size(); ++i) {
      EXPECT_FALSE(tree.isAttempted(grid[i].second, grid[i].first))
          << model << " jobs " << jobs << " round " << rounds << ": cell "
          << i << " (goal " << grid[i].first << ", node " << grid[i].second
          << ") committed past the prefix of length " << k;
    }
    if (!grid.empty()) {
      EXPECT_GE(k, 1u) << model << " jobs " << jobs << " round " << rounds;
    }
    if (!hit) {
      EXPECT_EQ(k, grid.size())
          << model << " jobs " << jobs << " round " << rounds
          << ": a round without a SAT cell must commit the whole grid";
    }
    const auto calls =
        static_cast<std::size_t>(after.solveCalls - before.solveCalls);
    EXPECT_GE(calls, k) << model << " jobs " << jobs << " round " << rounds;
    EXPECT_LE(calls, k + (hit ? 1u : 0u))
        << model << " jobs " << jobs << " round " << rounds;
    if (!grid.empty() && k == grid.size()) ++st.dryRounds;
    st.longestPrefix = std::max(st.longestPrefix, k);
  }
  return st;
}

/// NICProtocol grows a deep tree and finds a SAT cell every round;
/// LEDLC reaches full coverage within 150 rounds, many of them dry
/// rounds handing over to the random expansion — the case where the
/// attempted-prefix cursors skip most of the grid.
void expectLazyScanMatchesGrid(int jobs) {
  const PrefixStats deep = expectRoundsCommitGridPrefixes("NICProtocol",
                                                          jobs);
  const PrefixStats dry = expectRoundsCommitGridPrefixes("LEDLC", jobs);
  // Non-vacuous: dry rounds occurred, and commits spanned more than one
  // scan chunk (16 cells per lane) at up to four lanes.
  EXPECT_GT(dry.dryRounds, 0);
  EXPECT_GT(deep.longestPrefix, 16u * 4u);
  EXPECT_GT(dry.longestPrefix, 16u * 4u);
}

TEST(ParallelGen, LazyScanCommitsMaterialisedGridPrefixSequential) {
  expectLazyScanMatchesGrid(1);
}

TEST(ParallelGen, LazyScanCommitsMaterialisedGridPrefixFourLanes) {
  expectLazyScanMatchesGrid(4);
}

// The proven-UNSAT memo under threads: lanes probe it during the scan
// while only the coordinator inserts (after the scan's barrier). The
// committed cells, and so the memo's contents and hit count, must not
// depend on the lane count.
TEST(ParallelGen, UnsatMemoHitsIdenticalAcrossJobs) {
  const auto cm = compile::compile(bench::buildBenchModel("NICProtocol"));
  const auto run = [&](int jobs, long long* hits) {
    GenOptions opt;
    opt.seed = 3;
    opt.jobs = jobs;
    opt.maxRounds = 120;
    opt.budgetMillis = -1;
    opt.solver.timeBudgetMillis = -1;
    Campaign c(cm, opt);
    while (!c.finished()) c.runRound();
    *hits = c.memoHits();
    return c.finish();
  };
  long long seqHits = 0, parHits = 0;
  const GenResult seq = run(1, &seqHits);
  expectIdentical(seq, run(4, &parHits), "NICProtocol jobs=4");
  EXPECT_GT(seqHits, 0);
  EXPECT_EQ(seqHits, parHits);
}

// The one-step query cache answers solve cells in the parallel scan and
// MCDC pair attempts on the coordinator; both only read it, and the commit
// loop and the pair attempt file what they found. The campaign and every
// replay count must not depend on the lane count.
TEST(ParallelGen, CacheReplaysIdenticalAcrossJobs) {
  const auto cm = compile::compile(bench::buildBenchModel("NICProtocol"));
  const auto run = [&](int jobs, std::vector<long long>* counts) {
    GenOptions opt;
    opt.seed = 3;
    opt.jobs = jobs;
    opt.batch = 8;
    opt.simEngine = sim::EvalEngine::kTape;
    opt.maxRounds = 300;
    opt.budgetMillis = -1;
    opt.solver.timeBudgetMillis = -1;
    Campaign c(cm, opt);
    while (!c.finished()) c.runRound();
    *counts = {c.memoHits(), c.satReplays(), c.mcdcPairReplays()};
    return c.finish();
  };
  std::vector<long long> seq, par;
  const GenResult a = run(1, &seq);
  expectIdentical(a, run(4, &par), "NICProtocol jobs=4");
  EXPECT_EQ(seq, par);
  EXPECT_GT(seq[1], 0) << "no SAT cell replayed";
  EXPECT_GT(seq[2], 0) << "no pair attempt replayed";
}

}  // namespace
}  // namespace stcg::gen
