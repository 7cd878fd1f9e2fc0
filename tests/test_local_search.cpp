// Tests for the search-based solver (branch distance), the portfolio
// dispatcher, and their integration with STCG. The production solver,
// which scores every candidate through the batched distance tape, is
// compared against the one-candidate-at-a-time reference climber
// (distance_oracle.h) over random goals.
#include <gtest/gtest.h>

#include "compile/compiler.h"
#include "expr/builder.h"
#include "model/model.h"
#include "solver/local_search.h"
#include "stcg/stcg_generator.h"
#include "util/rng.h"

#include "distance_oracle.h"
#include "fuzz_dag.h"

namespace stcg::solver {
namespace {

using expr::cInt;
using expr::cReal;
using expr::Env;
using expr::mkVar;
using expr::Scalar;
using expr::Type;
using expr::VarInfo;
using testref::branchDistance;

const VarInfo kX{0, "x", Type::kInt, -1000, 1000};
const VarInfo kY{1, "y", Type::kInt, -1000, 1000};

// Sanitized builds slow the solver several-fold; scale the time budgets
// of the end-to-end search tests so they measure behaviour, not ASan
// overhead.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr std::int64_t kBudgetScale = 4;
#else
constexpr std::int64_t kBudgetScale = 1;
#endif

Env envOf(std::int64_t x, std::int64_t y) {
  Env env;
  env.set(0, Scalar::i(x));
  env.set(1, Scalar::i(y));
  return env;
}

TEST(BranchDistance, ZeroIffSatisfied) {
  const auto goal = expr::eqE(mkVar(kX), cInt(7));
  EXPECT_EQ(branchDistance(goal, envOf(7, 0), true), 0.0);
  EXPECT_EQ(branchDistance(goal, envOf(9, 0), true), 2.0);
  EXPECT_EQ(branchDistance(goal, envOf(7, 0), false), 1.0);
  EXPECT_EQ(branchDistance(goal, envOf(9, 0), false), 0.0);
}

TEST(BranchDistance, GradientTowardInequality) {
  const auto goal = expr::ltE(mkVar(kX), cInt(0));
  const double far = branchDistance(goal, envOf(100, 0), true);
  const double near = branchDistance(goal, envOf(1, 0), true);
  EXPECT_GT(far, near);
  EXPECT_EQ(branchDistance(goal, envOf(-1, 0), true), 0.0);
}

TEST(BranchDistance, ConjunctionAddsDisjunctionMins) {
  const auto x = mkVar(kX);
  const auto y = mkVar(kY);
  const auto both =
      expr::andE(expr::eqE(x, cInt(5)), expr::eqE(y, cInt(3)));
  EXPECT_EQ(branchDistance(both, envOf(4, 1), true), 1.0 + 2.0);
  const auto either =
      expr::orE(expr::eqE(x, cInt(5)), expr::eqE(y, cInt(3)));
  EXPECT_EQ(branchDistance(either, envOf(4, 1), true), 1.0);
}

TEST(BranchDistance, NegationFlipsPolarity) {
  const auto goal = expr::notE(expr::leE(mkVar(kX), cInt(10)));
  EXPECT_EQ(branchDistance(goal, envOf(11, 0), true), 0.0);
  EXPECT_GT(branchDistance(goal, envOf(5, 0), true), 0.0);
}

TEST(LocalSearch, SolvesNonlinearSumOfSquares) {
  // x*x + y*y == 1000000 (e.g. 600^2 + 800^2): interval contraction is
  // nearly useless here, but the distance gradient homes right in.
  const auto x = mkVar(kX);
  const auto y = mkVar(kY);
  const auto goal = expr::eqE(
      expr::addE(expr::mulE(x, x), expr::mulE(y, y)), cInt(1000000));
  SolveOptions opt;
  opt.timeBudgetMillis = 2000;
  opt.seed = 11;
  LocalSearchSolver s(opt);
  const auto res = s.solve(goal, {kX, kY});
  ASSERT_EQ(res.status, SolveStatus::kSat);
  EXPECT_TRUE(expr::evaluate(goal, res.model).toBool());
}

TEST(LocalSearch, NeverClaimsUnsat) {
  const auto x = mkVar(kX);
  const auto goal =
      expr::andE(expr::gtE(x, cInt(5)), expr::ltE(x, cInt(5)));
  SolveOptions opt;
  opt.timeBudgetMillis = 30;
  LocalSearchSolver s(opt);
  EXPECT_EQ(s.solve(goal, {kX}).status, SolveStatus::kUnknown);
}

// ----- Production solver vs the sequential reference climber -------------

/// Solve `goal` with both climbers; when both finish before the deadline,
/// require equal status, model bits and samplesTried. Returns whether the
/// pair was compared.
bool expectMatchesReference(const expr::ExprPtr& goal,
                            const std::vector<VarInfo>& vars,
                            std::uint64_t seed, const std::string& what) {
  SolveOptions opt;
  opt.seed = seed;
  opt.timeBudgetMillis = 150 * kBudgetScale;
  const SolveResult got = LocalSearchSolver(opt).solve(goal, vars);
  const SolveResult want = testref::referenceLocalSearch(goal, vars, opt);
  if (got.status == SolveStatus::kUnknown ||
      want.status == SolveStatus::kUnknown) {
    return false;  // a deadline cut one of them short: not comparable
  }
  EXPECT_EQ(got.status, want.status) << what;
  EXPECT_EQ(got.stats.samplesTried, want.stats.samplesTried) << what;
  for (const auto& v : vars) {
    if (!want.model.has(v.id)) continue;
    EXPECT_TRUE(got.model.has(v.id)) << what << " var " << v.name;
    if (!got.model.has(v.id)) continue;
    EXPECT_TRUE(fuzz::sameScalar(got.model.get(v.id), want.model.get(v.id)))
        << what << " var " << v.name << ": "
        << got.model.get(v.id).toString() << " vs "
        << want.model.get(v.id).toString();
  }
  return true;
}

TEST(LocalSearchReference, MatchesSequentialClimberOnFuzzGoals) {
  // Fuzz DAGs over bool, int and real variables; goals conjoin one random
  // boolean with a comparison the climber has to walk toward.
  Rng rng(6021);
  int compared = 0;
  for (int trial = 0; trial < 24; ++trial) {
    fuzz::FuzzDag d = fuzz::makeFuzzDag(rng, /*withArrays=*/false);
    const auto& v = d.vars[2 + rng.index(d.vars.size() - 2)];  // int/real
    const expr::ExprPtr target = expr::geE(
        mkVar(v), cReal(rng.uniformReal(v.lo, v.hi) * 0.5));
    const expr::ExprPtr goal =
        rng.chance(0.5)
            ? expr::andE(target, d.bools[rng.index(d.bools.size())])
            : expr::orE(target, d.bools[rng.index(d.bools.size())]);
    for (const std::uint64_t seed : {3ULL, 17ULL}) {
      compared += expectMatchesReference(
                      goal, d.vars, seed,
                      "trial " + std::to_string(trial) + " seed " +
                          std::to_string(seed))
                      ? 1
                      : 0;
    }
  }
  EXPECT_GE(compared, 24) << "too few goals solved by both climbers";
}

TEST(LocalSearchReference, MatchesSequentialClimberOnFixedGoals) {
  // The sum of squares (two real variables, many restarts and moves), a
  // mixed int/bool goal, and a goal over no variables at all.
  const VarInfo x{201, "x", Type::kReal, -10, 10};
  const VarInfo y{202, "y", Type::kReal, -10, 10};
  const auto dx = expr::subE(mkVar(x), cReal(3.0));
  const auto dy = expr::addE(mkVar(y), cReal(2.0));
  const auto shell = expr::leE(
      expr::addE(expr::mulE(dx, dx), expr::mulE(dy, dy)), cReal(0.5));
  EXPECT_TRUE(expectMatchesReference(shell, {x, y}, 5, "shell"));

  const VarInfo b{203, "b", Type::kBool, 0, 1};
  const auto mixed = expr::andE(
      mkVar(b), expr::eqE(expr::addE(mkVar(kX), mkVar(kY)), cInt(77)));
  EXPECT_TRUE(expectMatchesReference(mixed, {kX, kY, b}, 9, "mixed"));

  EXPECT_TRUE(expectMatchesReference(expr::cBool(true), {}, 1, "no vars"));
  SolveOptions opt;
  const SolveResult none = LocalSearchSolver(opt).solve(expr::cBool(true), {});
  EXPECT_EQ(none.stats.samplesTried, 1);
}

TEST(Portfolio, FallsThroughToSearchOnUnknown) {
  const auto x = mkVar(kX);
  const auto y = mkVar(kY);
  const auto goal = expr::eqE(
      expr::addE(expr::mulE(x, x), expr::mulE(y, y)), cInt(1000000));
  SolveOptions opt;
  opt.timeBudgetMillis = 2000;
  opt.seed = 3;
  opt.maxBoxes = 64;  // cripple the box engine so it reports UNKNOWN
  const auto res = solveWith(SolverKind::kPortfolio, goal, {kX, kY}, opt);
  ASSERT_EQ(res.status, SolveStatus::kSat);
  EXPECT_TRUE(expr::evaluate(goal, res.model).toBool());
}

TEST(Portfolio, KeepsBoxUnsatProofs) {
  const auto x = mkVar(kX);
  const auto goal =
      expr::andE(expr::gtE(x, cInt(5)), expr::ltE(x, cInt(5)));
  SolveOptions opt;
  opt.timeBudgetMillis = 500;
  EXPECT_EQ(solveWith(SolverKind::kPortfolio, goal, {kX}, opt).status,
            SolveStatus::kUnsat);
}

TEST(Portfolio, StcgRunsWithPortfolioEngine) {
  // A model whose interesting branch is a nonlinear equation on inputs:
  // trigger when x*x + y*y is within a thin shell, latched thereafter.
  model::Model m("Shell");
  auto x = m.addInport("x", Type::kInt, -1000, 1000);
  auto y = m.addInport("y", Type::kInt, -1000, 1000);
  auto xx = m.addProduct("xx", {x, x}, "**");
  auto yy = m.addProduct("yy", {y, y}, "**");
  auto sum = m.addSum("sum", {xx, yy}, "++");
  auto inShell =
      m.addCompareToConst("in_shell", sum, model::RelOp::kEq, 1000000.0);
  auto latch = m.addUnitDelayHole("hit", Scalar::b(false));
  auto latched = m.addLogical("latched", model::LogicOp::kOr,
                              {latch, inShell});
  m.bindDelayInput(latch, latched);
  auto one = m.addConstant("one", Scalar::i(1));
  auto zero = m.addConstant("zero", Scalar::i(0));
  m.addOutport("out", m.addSwitch("sw", one, latch, zero,
                                  model::SwitchCriteria::kNotZero, 0.0));

  const auto cm = compile::compile(m);
  gen::GenOptions opt;
  opt.budgetMillis = 4000 * kBudgetScale;
  opt.seed = 21;
  opt.solver.timeBudgetMillis = 150 * kBudgetScale;
  opt.solverKind = SolverKind::kPortfolio;
  gen::StcgGenerator g;
  const auto res = g.generate(cm, opt);
  EXPECT_EQ(res.coverage.decision, 1.0)
      << res.coverage.coveredBranches << "/" << res.coverage.totalBranches;
}

TEST(Portfolio, KindNames) {
  EXPECT_STREQ(solverKindName(SolverKind::kBox), "box");
  EXPECT_STREQ(solverKindName(SolverKind::kLocalSearch), "local-search");
  EXPECT_STREQ(solverKindName(SolverKind::kPortfolio), "portfolio");
}

}  // namespace
}  // namespace stcg::solver
