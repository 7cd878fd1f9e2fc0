// Unit and property tests for the branch-and-prune box solver, plus the
// differential check of its lane certification against the solver it
// replaced, which certified candidates one at a time with the tree
// Evaluator.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <deque>
#include <optional>

#include "expr/builder.h"
#include "expr/eval.h"
#include "expr/simd.h"
#include "interval/box.h"
#include "interval/hc4.h"
#include "expr/subst.h"
#include "fuzz_dag.h"
#include "solver/solver.h"
#include "util/rng.h"

namespace stcg::solver {
namespace {

using expr::cBool;
using expr::cInt;
using expr::cReal;
using expr::ExprPtr;
using expr::mkVar;
using expr::Scalar;
using expr::Type;
using expr::VarInfo;

const VarInfo kX{0, "x", Type::kInt, -1000, 1000};
const VarInfo kY{1, "y", Type::kInt, -1000, 1000};
const VarInfo kR{2, "r", Type::kReal, -10.0, 10.0};
const VarInfo kB{3, "b", Type::kBool, 0, 1};

SolveResult solveOne(const ExprPtr& goal, std::vector<VarInfo> vars,
                     std::int64_t budgetMs = 500) {
  SolveOptions opt;
  opt.timeBudgetMillis = budgetMs;
  opt.seed = 99;
  BoxSolver s(opt);
  return s.solve(goal, vars);
}

TEST(Solver, TrivialTrueAssignsAllVariables) {
  const auto res = solveOne(cBool(true), {kX, kR, kB});
  ASSERT_EQ(res.status, SolveStatus::kSat);
  EXPECT_TRUE(res.model.has(0));
  EXPECT_TRUE(res.model.has(2));
  EXPECT_TRUE(res.model.has(3));
}

TEST(Solver, TrivialFalseIsUnsat) {
  EXPECT_EQ(solveOne(cBool(false), {kX}).status, SolveStatus::kUnsat);
}

TEST(Solver, WideIntegerEqualitySolvesInstantly) {
  // The STCG workhorse: id == 123456 over a 2-million-wide domain.
  const VarInfo wide{0, "id", Type::kInt, 0, 2000000};
  const auto goal = expr::eqE(mkVar(wide), cInt(123456));
  const auto res = solveOne(goal, {wide}, 50);
  ASSERT_EQ(res.status, SolveStatus::kSat);
  EXPECT_EQ(res.model.get(0), Scalar::i(123456));
  EXPECT_LE(res.stats.boxesProcessed, 3);
}

TEST(Solver, ConjunctionOfBoundsIsUnsatWhenEmpty) {
  const auto x = mkVar(kX);
  const auto res = solveOne(
      expr::andE(expr::gtE(x, cInt(5)), expr::ltE(x, cInt(5))), {kX});
  EXPECT_EQ(res.status, SolveStatus::kUnsat);
}

TEST(Solver, DisjunctionPicksAFeasibleArm) {
  const auto x = mkVar(kX);
  const auto goal = expr::orE(expr::eqE(x, cInt(-777)),
                              expr::eqE(x, cInt(2000)));  // 2000 out? no: in
  const auto res = solveOne(goal, {kX});
  ASSERT_EQ(res.status, SolveStatus::kSat);
  const auto v = res.model.get(0).asInt();
  EXPECT_TRUE(v == -777 || v == 2000);
}

TEST(Solver, MixedTypesWithBoolean) {
  // b && r > 2.5 && x == 7
  const auto goal = expr::andE(
      expr::andE(expr::castE(mkVar(kB), Type::kBool),
                 expr::gtE(mkVar(kR), cReal(2.5))),
      expr::eqE(mkVar(kX), cInt(7)));
  const auto res = solveOne(goal, {kX, kR, kB});
  ASSERT_EQ(res.status, SolveStatus::kSat);
  EXPECT_TRUE(res.model.get(3).asBool());
  EXPECT_GT(res.model.get(2).asReal(), 2.5);
  EXPECT_EQ(res.model.get(0).asInt(), 7);
}

TEST(Solver, NonlinearProductConstraint) {
  // x * x == 49 with x in [-1000, 1000].
  const auto x = mkVar(kX);
  const auto res = solveOne(expr::eqE(expr::mulE(x, x), cInt(49)), {kX});
  ASSERT_EQ(res.status, SolveStatus::kSat);
  const auto v = res.model.get(0).asInt();
  EXPECT_TRUE(v == 7 || v == -7);
}

TEST(Solver, SelectOverConstantArray) {
  // a[i] == 30 where a = [10, 20, 30, 40] -> i == 2.
  const auto arr = expr::cArray(
      Type::kInt,
      {Scalar::i(10), Scalar::i(20), Scalar::i(30), Scalar::i(40)});
  const VarInfo idx{0, "i", Type::kInt, 0, 3};
  const auto goal = expr::eqE(expr::selectE(arr, mkVar(idx)), cInt(30));
  const auto res = solveOne(goal, {idx});
  ASSERT_EQ(res.status, SolveStatus::kSat);
  EXPECT_EQ(res.model.get(0), Scalar::i(2));
}

TEST(Solver, SymbolicStoreThenSelect) {
  // store(a, i, v); a'[2] == 99 with a[2] == 30 initially: either i==2 and
  // v==99, or contradiction — the solver must find i=2, v=99.
  const auto arr = expr::cArray(
      Type::kInt,
      {Scalar::i(10), Scalar::i(20), Scalar::i(30), Scalar::i(40)});
  const VarInfo idx{0, "i", Type::kInt, 0, 3};
  const VarInfo val{1, "v", Type::kInt, 0, 100};
  const auto stored = expr::storeE(arr, mkVar(idx), mkVar(val));
  const auto goal = expr::eqE(expr::selectE(stored, cInt(2)), cInt(99));
  const auto res = solveOne(goal, {idx, val});
  ASSERT_EQ(res.status, SolveStatus::kSat);
  EXPECT_EQ(res.model.get(0), Scalar::i(2));
  EXPECT_EQ(res.model.get(1), Scalar::i(99));
}

TEST(Solver, GuardedDivisionTarget) {
  // 100 / x == 25 -> x == 4 (division guarded, x != 0 implied by value).
  const auto x = mkVar(kX);
  const auto res =
      solveOne(expr::eqE(expr::divE(cInt(100), x), cInt(25)), {kX});
  ASSERT_EQ(res.status, SolveStatus::kSat);
  EXPECT_EQ(res.model.get(0), Scalar::i(4));
}

TEST(Solver, BudgetExhaustionReportsUnknown) {
  // A needle that interval reasoning cannot prune: sum of products equal
  // to a specific awkward value, under an absurdly small budget.
  const auto x = mkVar(kX);
  const auto y = mkVar(kY);
  const auto goal =
      expr::eqE(expr::addE(expr::mulE(x, x), expr::mulE(y, y)), cInt(999983));
  SolveOptions opt;
  opt.timeBudgetMillis = 1;
  opt.maxBoxes = 4;
  opt.samplesPerBox = 1;
  BoxSolver s(opt);
  const auto res = s.solve(goal, {kX, kY});
  EXPECT_NE(res.status, SolveStatus::kSat);  // kUnsat impossible that fast
}

TEST(Solver, ModelsAreAlwaysCertified) {
  // Every SAT answer must actually evaluate to true — checked across a
  // batch of random linear/relational goals.
  Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    const auto x = mkVar(kX);
    const auto y = mkVar(kY);
    const auto a = cInt(rng.uniformInt(-5, 5));
    const auto b = cInt(rng.uniformInt(-5, 5));
    const auto t = cInt(rng.uniformInt(-100, 100));
    const auto goal = expr::leE(
        expr::addE(expr::mulE(a, x), expr::mulE(b, y)), t);
    const auto res = solveOne(goal, {kX, kY}, 100);
    if (res.status != SolveStatus::kSat) continue;
    EXPECT_TRUE(expr::evaluate(goal, res.model).toBool())
        << goal->toString();
  }
}

// Exhaustive cross-check on small domains: the solver's SAT/UNSAT verdicts
// must agree with brute force.
class SolverExhaustiveSweep : public ::testing::TestWithParam<int> {};

TEST_P(SolverExhaustiveSweep, AgreesWithBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7907 + 3);
  const VarInfo a{0, "a", Type::kInt, -4, 4};
  const VarInfo b{1, "b", Type::kInt, -4, 4};
  const auto va = mkVar(a), vb = mkVar(b);

  // Random goal from a small grammar.
  const auto num = [&]() {
    switch (rng.index(4)) {
      case 0: return va;
      case 1: return vb;
      case 2: return expr::addE(va, vb);
      default: return expr::mulE(va, vb);
    }
  };
  const auto relOf = [&](ExprPtr l, ExprPtr r) {
    switch (rng.index(3)) {
      case 0: return expr::eqE(l, r);
      case 1: return expr::ltE(l, r);
      default: return expr::geE(l, r);
    }
  };
  const auto goal = expr::andE(relOf(num(), cInt(rng.uniformInt(-6, 6))),
                               relOf(num(), cInt(rng.uniformInt(-6, 6))));

  bool bruteSat = false;
  for (std::int64_t i = -4; i <= 4 && !bruteSat; ++i) {
    for (std::int64_t j = -4; j <= 4 && !bruteSat; ++j) {
      expr::Env env;
      env.set(0, Scalar::i(i));
      env.set(1, Scalar::i(j));
      bruteSat = expr::evaluate(goal, env).toBool();
    }
  }
  const auto res = solveOne(goal, {a, b}, 2000);
  if (bruteSat) {
    ASSERT_EQ(res.status, SolveStatus::kSat) << goal->toString();
    EXPECT_TRUE(expr::evaluate(goal, res.model).toBool());
  } else {
    EXPECT_EQ(res.status, SolveStatus::kUnsat) << goal->toString();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGoals, SolverExhaustiveSweep,
                         ::testing::Range(0, 40));

TEST(Solver, StatusNames) {
  EXPECT_STREQ(solveStatusName(SolveStatus::kSat), "SAT");
  EXPECT_STREQ(solveStatusName(SolveStatus::kUnsat), "UNSAT");
  EXPECT_STREQ(solveStatusName(SolveStatus::kUnknown), "UNKNOWN");
}


// ----- Lane certification vs the evaluate()-per-candidate solver ----------

// The box solver as it was before candidates became tape lanes: the same
// worklist, HC4 contraction and splits, but each candidate is drawn and
// then certified with the tree Evaluator, one at a time, returning at the
// first true one. It is the differential oracle for the lane certifier,
// independent of how solve() now assembles and certifies candidates.
void referenceSample(const interval::Box& box, Rng& rng, bool corners,
                     int cornerKind, expr::Env& env) {
  for (const auto& v : box.vars()) {
    const interval::Interval d = box.domain(v.id);
    double x;
    if (d.isPoint()) {
      x = d.lo();
    } else if (corners) {
      switch (cornerKind) {
        case 0: x = d.lo(); break;
        case 1: x = d.hi(); break;
        default: x = d.mid(); break;
      }
    } else if (v.type == Type::kReal) {
      x = rng.uniformReal(d.lo(), d.hi());
    } else {
      const auto [lo, hi] = integerEndpoints(d.lo(), d.hi());
      x = lo <= hi ? static_cast<double>(rng.uniformInt(lo, hi)) : d.mid();
    }
    if (v.type != Type::kReal) x = std::round(x);
    env.set(v.id, scalarForVar(v, x));
  }
}

SolveResult referenceSolve(const ExprPtr& goal,
                           const std::vector<VarInfo>& vars,
                           const SolveOptions& opt) {
  SolveResult result;
  Rng rng(opt.seed);
  const auto finish = [&](SolveStatus status) {
    result.status = status;
    return result;
  };
  if (goal->op == expr::Op::kConst) {
    if (!goal->constVal.toBool()) return finish(SolveStatus::kUnsat);
    for (const auto& v : vars) {
      const interval::Interval d =
          v.type == Type::kReal
              ? interval::Interval(v.lo, v.hi)
              : interval::Interval(v.lo, v.hi).integralHull();
      result.model.set(v.id, scalarForVar(v, d.isEmpty() ? v.lo : d.mid()));
    }
    return finish(SolveStatus::kSat);
  }
  interval::Hc4Contractor contractor(goal);
  std::deque<interval::Box> work;
  work.emplace_back(vars);
  bool exhaustive = true;
  while (!work.empty()) {
    if (result.stats.boxesProcessed >= opt.maxBoxes) {
      return finish(SolveStatus::kUnknown);
    }
    interval::Box box = std::move(work.front());
    work.pop_front();
    ++result.stats.boxesProcessed;
    if (contractor.contract(box, opt.contractPasses) ==
            interval::ContractOutcome::kEmpty ||
        box.isEmpty()) {
      ++result.stats.boxesRefuted;
      continue;
    }
    expr::Env env;
    for (int k = 0; k < 3 + opt.samplesPerBox; ++k) {
      env.clear();
      referenceSample(box, rng, /*corners=*/k < 3, k, env);
      ++result.stats.samplesTried;
      if (expr::evaluate(goal, env).toBool()) {
        result.model = std::move(env);
        return finish(SolveStatus::kSat);
      }
    }
    const int dim = box.splitDimension();
    if (dim < 0) {
      exhaustive = false;
      continue;
    }
    const VarInfo& v = box.vars()[static_cast<std::size_t>(dim)];
    const interval::Interval d = box.domain(v.id);
    double cut = d.mid();
    interval::Box left = box, right = box;
    if (v.type == Type::kReal) {
      left.setDomain(v.id, interval::Interval(d.lo(), cut));
      right.setDomain(v.id, interval::Interval(cut, d.hi()));
    } else {
      cut = std::floor(cut);
      left.setDomain(v.id, interval::Interval(d.lo(), cut));
      right.setDomain(v.id, interval::Interval(cut + 1.0, d.hi()));
    }
    work.push_front(std::move(left));
    work.push_back(std::move(right));
  }
  return finish(exhaustive ? SolveStatus::kUnsat : SolveStatus::kUnknown);
}

/// What a differential sweep exercised, so a sweep that degenerates into
/// trivial goals fails instead of passing vacuously.
struct SweepTally {
  int sat = 0, unsat = 0, unknown = 0;
  int satPastRootBox = 0;  // SAT found after at least one split
  int satOnRandomDraw = 0;  // winner was a random draw, not a corner
};

void expectSameSolve(const ExprPtr& goal, const std::vector<VarInfo>& vars,
                     const SolveOptions& opt, const std::string& what,
                     SweepTally* tally = nullptr) {
  BoxSolver lanes(opt);
  const SolveResult got = lanes.solve(goal, vars);
  const SolveResult want = referenceSolve(goal, vars, opt);
  if (tally != nullptr) {
    const int perBox = 3 + opt.samplesPerBox;
    switch (want.status) {
      case SolveStatus::kSat:
        ++tally->sat;
        tally->satPastRootBox += want.stats.boxesProcessed > 1 ? 1 : 0;
        tally->satOnRandomDraw +=
            (want.stats.samplesTried - 1) % perBox >= 3 ? 1 : 0;
        break;
      case SolveStatus::kUnsat: ++tally->unsat; break;
      case SolveStatus::kUnknown: ++tally->unknown; break;
    }
  }
  ASSERT_EQ(got.status, want.status) << what;
  EXPECT_EQ(got.stats.boxesProcessed, want.stats.boxesProcessed) << what;
  EXPECT_EQ(got.stats.boxesRefuted, want.stats.boxesRefuted) << what;
  EXPECT_EQ(got.stats.samplesTried, want.stats.samplesTried) << what;
  if (!want.sat()) return;
  for (const auto& v : vars) {
    ASSERT_TRUE(got.model.has(v.id)) << what << " var " << v.name;
    EXPECT_TRUE(fuzz::sameScalar(got.model.get(v.id), want.model.get(v.id)))
        << what << " var " << v.name << ": "
        << got.model.get(v.id).toString() << " vs "
        << want.model.get(v.id).toString();
  }
  EXPECT_TRUE(expr::evaluate(goal, got.model).toBool()) << what;
}

/// Random fuzz-DAG goals with the array variables bound to constants —
/// the shape a state-substituted residual has. Conjunctions of two pool
/// members keep a share of the goals UNSAT or needle-like, so refutation,
/// splitting, random draws and the per-box winner all get exercised.
SweepTally runLaneCertifyFuzz(bool withArrays, std::uint64_t seed,
                              int dags) {
  SweepTally tally;
  Rng rng(seed);
  for (int n = 0; n < dags; ++n) {
    const fuzz::FuzzDag d = fuzz::makeFuzzDag(rng, withArrays);
    expr::Env arrays;
    if (withArrays) {
      const expr::Env full = fuzz::randomEnv(rng, d);
      arrays.setArray(fuzz::kRealArrId, full.getArray(fuzz::kRealArrId));
      arrays.setArray(fuzz::kIntArrId, full.getArray(fuzz::kIntArrId));
    }
    for (int g = 0; g < 12; ++g) {
      ExprPtr goal = d.bools[rng.index(d.bools.size())];
      if (rng.chance(0.5)) {
        goal = expr::andE(goal, d.bools[rng.index(d.bools.size())]);
      }
      if (withArrays) goal = expr::substitute(goal, arrays);
      SolveOptions opt;
      opt.timeBudgetMillis = -1;
      opt.maxBoxes = 64;
      opt.samplesPerBox = static_cast<int>(rng.uniformInt(0, 8));
      opt.seed = static_cast<std::uint64_t>(rng.uniformInt(1, 1000000));
      expectSameSolve(goal, d.vars, opt,
                      "dag " + std::to_string(n) + " goal " +
                          std::to_string(g) + ": " + goal->toString(),
                      &tally);
      if (::testing::Test::HasFatalFailure()) return tally;
    }
  }
  return tally;
}

void expectExercised(const SweepTally& t) {
  EXPECT_GT(t.sat, 0);
  EXPECT_GT(t.unsat + t.unknown, 0);
  EXPECT_GT(t.satPastRootBox, 0);
  EXPECT_GT(t.satOnRandomDraw, 0);
}

/// Run `body` under every SIMD level this host can execute.
template <class F>
void forEachSimdLevel(F&& body) {
  for (const expr::SimdLevel lvl :
       {expr::SimdLevel::kScalar, expr::SimdLevel::kAvx2,
        expr::SimdLevel::kNeon}) {
    if (!expr::simdLevelAvailable(lvl)) continue;
    SCOPED_TRACE(expr::simdLevelName(lvl));
    expr::forceSimdLevel(lvl);
    body();
    expr::forceSimdLevel(std::nullopt);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SolverLaneCertify, MatchesTreeOracleOnScalarFuzzGoals) {
  forEachSimdLevel(
      [] { expectExercised(runLaneCertifyFuzz(false, 0x5eed1, 20)); });
}

TEST(SolverLaneCertify, MatchesTreeOracleOnArrayFuzzGoals) {
  forEachSimdLevel(
      [] { expectExercised(runLaneCertifyFuzz(true, 0x5eed2, 20)); });
}

TEST(SolverLaneCertify, MatchesTreeOracleOnGuardedDivisionGoals) {
  // x / y and x % y are guarded (== 0 when y == 0), so y = 0 corners and
  // draws must certify exactly as the tree evaluator decides them.
  const VarInfo xi{0, "x", Type::kInt, -50, 50};
  const VarInfo yi{1, "y", Type::kInt, -6, 6};
  const VarInfo r{2, "r", Type::kReal, -20.0, 20.0};
  const auto x = mkVar(xi), y = mkVar(yi), rr = mkVar(r);
  const std::vector<ExprPtr> goals = {
      expr::eqE(expr::divE(x, y), cInt(0)),
      expr::eqE(expr::divE(x, y), cInt(7)),
      expr::andE(expr::eqE(expr::modE(x, y), cInt(3)),
                 expr::gtE(y, cInt(0))),
      expr::ltE(expr::divE(rr, expr::castE(y, Type::kReal)), cReal(-3.5)),
      expr::eqE(expr::modE(x, cInt(0)), cInt(1)),  // UNSAT: x % 0 == 0
      expr::andE(expr::eqE(expr::divE(cInt(100), y), cInt(25)),
                 expr::neE(y, cInt(4))),  // UNSAT
  };
  forEachSimdLevel([&] {
    for (std::size_t i = 0; i < goals.size(); ++i) {
      for (std::uint64_t seed : {1ULL, 7ULL, 99ULL}) {
        SolveOptions opt;
        opt.timeBudgetMillis = -1;
        opt.maxBoxes = 256;
        opt.seed = seed;
        expectSameSolve(goals[i], {xi, yi, r}, opt,
                        "goal " + std::to_string(i) + " seed " +
                            std::to_string(seed));
      }
    }
  });
}

TEST(SolverLaneCertify, SamplesTriedCountsUpToTheWinner) {
  // HC4 cannot narrow v % 3 == 1, so the root box keeps [-10, 10]: its
  // lower corner fails (-10 % 3 == -1) and its upper corner holds. The
  // winner's lane counts; the lanes after it do not.
  const VarInfo v{0, "v", Type::kInt, -10, 10};
  const auto res =
      solveOne(expr::eqE(expr::modE(mkVar(v), cInt(3)), cInt(1)), {v});
  ASSERT_EQ(res.status, SolveStatus::kSat);
  EXPECT_EQ(res.model.get(0), Scalar::i(10));
  EXPECT_EQ(res.stats.boxesProcessed, 1);
  EXPECT_EQ(res.stats.samplesTried, 2);
}

TEST(SolverLaneCertify, UndeclaredVariableThrowsUpFront) {
  // `z` sits only in the else-arm of an ite whose condition every
  // candidate makes true: a lazy tree walk never reaches it, but the
  // contract is to refuse the query before any search.
  const VarInfo zi{7, "z", Type::kInt, 0, 9};
  const auto goal = expr::iteE(expr::geE(mkVar(kX), cInt(-1000)),
                               expr::geE(mkVar(kX), cInt(0)),
                               expr::eqE(mkVar(zi), cInt(3)));
  SolveOptions opt;
  opt.timeBudgetMillis = -1;
  BoxSolver s(opt);
  EXPECT_THROW((void)s.solve(goal, {kX}), expr::EvalError);
  // The evaluate()-per-candidate solver answered it without touching z.
  EXPECT_EQ(referenceSolve(goal, {kX}, opt).status, SolveStatus::kSat);
  // Up front means before HC4 too: a goal refuted at the root box, where
  // nothing is ever compiled or evaluated, is refused all the same.
  const auto refuted = expr::andE(expr::gtE(mkVar(kX), cInt(5000)),
                                  expr::eqE(mkVar(zi), cInt(3)));
  EXPECT_EQ(referenceSolve(refuted, {kX}, opt).status, SolveStatus::kUnsat);
  EXPECT_THROW((void)s.solve(refuted, {kX}), expr::EvalError);
  // Declaring z makes the same query solvable.
  EXPECT_EQ(s.solve(goal, {kX, zi}).status, SolveStatus::kSat);
  // An array variable can never be declared in the scalar `vars`.
  const auto arr = expr::mkVarArray(8, "a", Type::kInt, 3);
  EXPECT_THROW((void)s.solve(expr::eqE(expr::selectE(arr, mkVar(kX)),
                                       cInt(1)),
                             {kX}),
               expr::EvalError);
}

}  // namespace
}  // namespace stcg::solver
