// The one-step query cache: the solver's seed-free flag, and the cache's
// SAT and MCDC-pair entries. Every entry holds an outcome that is a pure
// function of the query. (The infeasible-cell entries are pinned by the
// UnsatMemo tests in test_trajectory.cpp.)
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "benchmodels/benchmodels.h"
#include "compile/compiler.h"
#include "expr/builder.h"
#include "fuzz_dag.h"
#include "sim/simulator.h"
#include "solver/solver.h"
#include "stcg/query_cache.h"

namespace stcg {
namespace {

using expr::cInt;
using expr::ExprPtr;
using expr::mkVar;
using expr::Type;
using expr::VarInfo;
using solver::BoxSolver;
using solver::SolveOptions;
using solver::SolveResult;
using solver::SolveStatus;

SolveOptions searchOptions(int maxBoxes, int samplesPerBox,
                           std::uint64_t seed) {
  SolveOptions opt;
  opt.timeBudgetMillis = -1;
  opt.maxBoxes = maxBoxes;
  opt.samplesPerBox = samplesPerBox;
  opt.seed = seed;
  return opt;
}

// ----- SolveResult::seedFree -----------------------------------------------

TEST(SolverSeedFree, FalseWhenOnlyPointsAwayFromTheCornersSatisfy) {
  // HC4 cannot narrow v % 5 == 2, and 0, 20 and their midpoint 10 are all
  // multiples of 5: no corner of any box this search visits first holds,
  // so whichever model it finds is a random draw.
  const VarInfo v{0, "v", Type::kInt, 0, 20};
  const ExprPtr goal = expr::eqE(expr::modE(mkVar(v), cInt(5)), cInt(2));
  int sat = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const SolveResult r =
        BoxSolver(searchOptions(4096, 6, seed)).solve(goal, {v});
    ASSERT_EQ(r.status, SolveStatus::kSat) << seed;
    EXPECT_FALSE(r.seedFree) << seed;
    ++sat;
  }
  EXPECT_EQ(sat, 8);
}

TEST(SolverSeedFree, TrueForCornerModelsProofsAndConstants) {
  const VarInfo v{0, "v", Type::kInt, -10, 10};
  BoxSolver s(searchOptions(4096, 6, 3));
  // The upper corner of the root box holds (10 % 3 == 1).
  const SolveResult corner =
      s.solve(expr::eqE(expr::modE(mkVar(v), cInt(3)), cInt(1)), {v});
  ASSERT_EQ(corner.status, SolveStatus::kSat);
  EXPECT_TRUE(corner.seedFree);
  const SolveResult unsat = s.solve(
      expr::andE(expr::gtE(mkVar(v), cInt(3)), expr::ltE(mkVar(v), cInt(2))),
      {v});
  ASSERT_EQ(unsat.status, SolveStatus::kUnsat);
  EXPECT_TRUE(unsat.seedFree);
  EXPECT_TRUE(s.solve(expr::cBool(true), {v}).seedFree);
  // A seed-free model is the same under every seed.
  for (std::uint64_t seed : {5ULL, 77ULL}) {
    const SolveResult again =
        BoxSolver(searchOptions(4096, 6, seed))
            .solve(expr::eqE(expr::modE(mkVar(v), cInt(3)), cInt(1)), {v});
    EXPECT_TRUE(fuzz::sameScalar(again.model.get(0), corner.model.get(0)));
  }
}

// ----- Cache entries -------------------------------------------------------

struct CacheFixture {
  compile::CompiledModel cm;
  std::vector<gen::Goal> goals;
  sim::StateSnapshot s0;
};

CacheFixture makeCacheFixture() {
  CacheFixture f{compile::compile(bench::buildBenchModel("NICProtocol")),
                 {}, {}};
  f.goals = gen::buildGoals(f.cm, true, true);
  f.s0 = sim::Simulator(f.cm, sim::EvalEngine::kTape).snapshot();
  return f;
}

TEST(OneStepCache, SatEntriesReplayTheirInputBitForBit) {
  const CacheFixture f = makeCacheFixture();
  gen::OneStepCache cache(f.cm, f.goals);
  sim::InputVector in;
  for (int k = 0; k < 70; ++k) {  // past one 32-value tag word
    in.push_back(k % 3 == 0   ? expr::Scalar::r(k == 0 ? -0.0 : 0.5 * k)
                 : k % 3 == 1 ? expr::Scalar::i(-k)
                              : expr::Scalar::b(k % 2 == 0));
  }
  in.push_back(expr::Scalar::r(std::nan("")));
  cache.insertCell(0, f.s0, gen::CachedOutcome::kSat, &in);
  EXPECT_FALSE(cache.findCell(0, f.s0).has_value())
      << "a SAT cell is filed on its second offer";
  cache.insertCell(0, f.s0, gen::CachedOutcome::kSat, &in);
  const auto hit = cache.findCell(0, f.s0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->outcome, gen::CachedOutcome::kSat);
  ASSERT_EQ(hit->input.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_TRUE(fuzz::sameScalar(hit->input[i], in[i])) << i;
  }
  EXPECT_FALSE(cache.findCell(1, f.s0).has_value());
}

TEST(OneStepCache, PairEntriesKeyOnConditionBitsAndTarget) {
  const CacheFixture f = makeCacheFixture();
  int decision = -1;
  for (std::size_t d = 0; d < f.cm.decisions.size(); ++d) {
    if (f.cm.decisions[d].conditions.size() >= 2) {
      decision = static_cast<int>(d);
      break;
    }
  }
  ASSERT_GE(decision, 0);
  gen::OneStepCache cache(f.cm, f.goals);
  const std::vector<bool> bits = {true, false};
  const std::vector<bool> flipped = {false, false};
  const gen::PairQuery q{decision, 0, &bits};
  EXPECT_FALSE(cache.findPair(q, f.s0).has_value());
  cache.insertPair(q, f.s0, gen::CachedOutcome::kUnsat);
  EXPECT_FALSE(cache.findPair(q, f.s0).has_value())
      << "a pair outcome is filed on its second offer";
  cache.insertPair(q, f.s0, gen::CachedOutcome::kUnsat);
  ASSERT_TRUE(cache.findPair(q, f.s0).has_value());
  EXPECT_EQ(cache.findPair(q, f.s0)->outcome, gen::CachedOutcome::kUnsat);
  EXPECT_FALSE(cache.findPair({decision, 1, &bits}, f.s0).has_value());
  EXPECT_FALSE(cache.findPair({decision, 0, &flipped}, f.s0).has_value());
  // Pair entries and solve-cell entries never answer for each other.
  EXPECT_FALSE(cache.findCell(0, f.s0).has_value());
  cache.insertCell(0, f.s0, gen::CachedOutcome::kFolded);
  EXPECT_EQ(cache.findCell(0, f.s0)->outcome, gen::CachedOutcome::kFolded)
      << "folded and UNSAT cells are filed on their first offer";
  EXPECT_EQ(cache.findPair(q, f.s0)->outcome, gen::CachedOutcome::kUnsat);
  EXPECT_EQ(cache.size(), 2U);
}

}  // namespace
}  // namespace stcg
