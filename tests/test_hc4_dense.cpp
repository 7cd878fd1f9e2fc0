// Dense-slot HC4 against the pointer-map contractor it replaced
// (map_oracles.h): over random shared DAGs — ite, select, store and
// guarded division included — every contraction must end in the same
// outcome with bit-identical domains, and every forward evaluation must
// agree bitwise. One dense contractor is reused across many boxes, so a
// slot that survived from an earlier sweep (a stale epoch stamp) would
// show as a difference, in particular on ite goals whose condition flips
// between calls; the epoch wrap-around is driven through the test seam.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "expr/builder.h"
#include "fuzz_dag.h"
#include "interval/box.h"
#include "interval/hc4.h"
#include "map_oracles.h"
#include "solver/solver.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace stcg {
namespace {

using expr::ExprPtr;
using expr::Type;
using expr::VarInfo;
using interval::Box;
using interval::ContractOutcome;
using interval::Hc4Contractor;
using interval::Interval;

bool sameInterval(const Interval& a, const Interval& b) {
  return fuzz::sameBits(a.lo(), b.lo()) && fuzz::sameBits(a.hi(), b.hi());
}

// A random sub-box of the declared domains: each dimension is kept whole,
// pinned to a point, or cut to a random sub-interval.
Box randomSubBox(Rng& rng, const std::vector<VarInfo>& vars) {
  Box box(vars);
  for (const auto& v : vars) {
    const double a = rng.uniformReal(v.lo, v.hi);
    const double b = rng.uniformReal(v.lo, v.hi);
    switch (rng.index(3)) {
      case 0: break;
      case 1: box.setDomain(v.id, Interval::point(std::round(a))); break;
      default:
        box.setDomain(v.id, Interval(std::min(a, b), std::max(a, b)));
        break;
    }
  }
  return box;
}

// Contract the same box with both contractors; report the first
// difference (empty string when identical).
std::string contractDiff(Hc4Contractor& dense, testref::MapHc4Contractor& ref,
                         const Box& start, int passes) {
  Box a = start, b = start;
  const ContractOutcome oa = dense.contract(a, passes);
  const ContractOutcome ob = ref.contract(b, passes);
  if (oa != ob) {
    return "outcome " + std::to_string(static_cast<int>(oa)) + " vs " +
           std::to_string(static_cast<int>(ob)) + " from " + start.toString();
  }
  for (const auto& v : start.vars()) {
    if (!sameInterval(a.domain(v.id), b.domain(v.id))) {
      return "domain of " + v.name + ": " + a.toString() + " vs " +
             b.toString() + " from " + start.toString();
    }
  }
  return {};
}

std::string forwardDiff(Hc4Contractor& dense, testref::MapHc4Contractor& ref,
                        const Box& box) {
  const Interval a = dense.forwardEval(box);
  const Interval b = ref.forwardEval(box);
  if (sameInterval(a, b)) return {};
  return "forwardEval [" + std::to_string(a.lo()) + ", " +
         std::to_string(a.hi()) + "] vs [" + std::to_string(b.lo()) + ", " +
         std::to_string(b.hi()) + "] on " + box.toString();
}

// Goals drawn from a fuzz DAG's boolean pool, plus a few built on top of
// it so guarded division, select and ite are always present.
std::vector<ExprPtr> fuzzGoals(Rng& rng, const fuzz::FuzzDag& d) {
  std::vector<ExprPtr> goals;
  for (int k = 0; k < 6; ++k) {
    goals.push_back(d.bools[rng.index(d.bools.size())]);
  }
  goals.push_back(d.bools.back());
  const auto& i0 = d.ints[rng.index(d.ints.size())];
  const auto& i1 = d.ints[rng.index(d.ints.size())];
  const auto& r0 = d.reals[rng.index(d.reals.size())];
  const auto& c = d.bools[rng.index(d.bools.size())];
  goals.push_back(expr::eqE(expr::divE(i0, i1), expr::cInt(2)));  // x/0 == 0
  goals.push_back(expr::ltE(expr::divE(r0, expr::castE(i1, Type::kReal)),
                            expr::cReal(1.5)));
  goals.push_back(expr::andE(c, expr::geE(expr::iteE(c, i0, i1), i1)));
  if (d.withArrays) {
    const auto& ar = d.realArrays[rng.index(d.realArrays.size())];
    const auto& ai = d.intArrays[rng.index(d.intArrays.size())];
    goals.push_back(expr::gtE(expr::selectE(ar, i0), r0));
    goals.push_back(expr::eqE(
        expr::selectE(expr::storeE(ai, i1, i0), i0), expr::cInt(3)));
    goals.push_back(expr::eqE(
        expr::selectE(expr::iteE(c, ai, expr::storeE(ai, i0, i1)), i1),
        i0));
  }
  return goals;
}

TEST(Hc4DenseSlots, MatchesMapOracleOnFuzzDags) {
  int compared = 0, empties = 0, shrunk = 0;
  for (int dagSeed = 0; dagSeed < 24; ++dagSeed) {
    Rng rng(static_cast<std::uint64_t>(dagSeed) * 7919 + 3);
    const auto d = fuzz::makeFuzzDag(rng, /*withArrays=*/dagSeed % 2 == 1);
    for (const auto& goal : fuzzGoals(rng, d)) {
      if (goal->op == expr::Op::kConst) continue;
      Hc4Contractor dense(goal);  // reused across every box below
      testref::MapHc4Contractor ref(goal);
      for (int b = 0; b < 12; ++b) {
        const Box start = randomSubBox(rng, d.vars);
        const int passes = 1 + static_cast<int>(rng.index(6));
        const std::string diff = contractDiff(dense, ref, start, passes);
        ASSERT_TRUE(diff.empty()) << diff << "\ngoal " << goal->toString();
        const std::string fdiff = forwardDiff(dense, ref, start);
        ASSERT_TRUE(fdiff.empty()) << fdiff << "\ngoal " << goal->toString();
        Box probe = start;
        const auto out = dense.contract(probe, passes);
        empties += out == ContractOutcome::kEmpty ? 1 : 0;
        shrunk += out == ContractOutcome::kShrunk ? 1 : 0;
        ++compared;
      }
    }
  }
  // The corpus must exercise all three outcomes, or it proves little.
  EXPECT_GT(compared, 2000);
  EXPECT_GT(empties, 50);
  EXPECT_GT(shrunk, 50);
}

// An ite whose condition is decided differently on consecutive calls:
// the taken arm of one call is the untaken (never evaluated) arm of the
// next, and a shared subterm sits under both arms. A slot stamped by an
// earlier sweep must never be read as this sweep's domain.
TEST(Hc4DenseSlots, ReusedContractorTracksFlippingIteCondition) {
  const VarInfo vb{0, "b", Type::kBool, 0, 1};
  const VarInfo vx{1, "x", Type::kInt, -20, 20};
  const VarInfo vy{2, "y", Type::kInt, -20, 20};
  const VarInfo vr{3, "r", Type::kReal, -50, 50};
  const std::vector<VarInfo> vars = {vb, vx, vy, vr};
  const auto b = expr::mkVar(vb);
  const auto x = expr::mkVar(vx);
  const auto y = expr::mkVar(vy);
  const auto r = expr::mkVar(vr);
  const auto shared = expr::addE(x, y);
  const auto goal = expr::andE(
      expr::eqE(expr::iteE(b, expr::mulE(shared, expr::cInt(2)),
                           expr::subE(shared, expr::cInt(3))),
                expr::cInt(8)),
      expr::orE(expr::ltE(expr::castE(shared, Type::kReal), r),
                expr::notE(b)));
  Hc4Contractor dense(goal);
  testref::MapHc4Contractor ref(goal);
  Rng rng(2024);
  const Interval conds[] = {Interval::boolTrue(), Interval::boolFalse(),
                            Interval::boolUnknown()};
  for (int call = 0; call < 300; ++call) {
    Box start = randomSubBox(rng, vars);
    start.setDomain(0, conds[call % 3]);
    const std::string diff = contractDiff(dense, ref, start, 1 + call % 4);
    ASSERT_TRUE(diff.empty()) << "call " << call << ": " << diff;
    const std::string fdiff = forwardDiff(dense, ref, start);
    ASSERT_TRUE(fdiff.empty()) << "call " << call << ": " << fdiff;
  }
}

// The epoch counter wrapping to 0 must not let a never-stamped slot (stamp
// 0) or a stamp of the sweeps just before the wrap read as current. From
// kMax the very first sweep wraps; from kMax - 3 a few sweeps stamp slots
// first.
TEST(Hc4DenseSlots, EpochWrapClearsStamps) {
  constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
  Rng rng(99);
  const auto d = fuzz::makeFuzzDag(rng, /*withArrays=*/true);
  for (const auto& goal : fuzzGoals(rng, d)) {
    if (goal->op == expr::Op::kConst) continue;
    for (const std::uint64_t start : {kMax, kMax - 3}) {
      Hc4Contractor dense(goal);
      testref::MapHc4Contractor ref(goal);
      dense.setEpochForTesting(start);
      for (int call = 0; call < 8; ++call) {
        const Box box = randomSubBox(rng, d.vars);
        const std::string fdiff = forwardDiff(dense, ref, box);
        ASSERT_TRUE(fdiff.empty()) << "call " << call << ": " << fdiff;
        const std::string diff = contractDiff(dense, ref, box, 3);
        ASSERT_TRUE(diff.empty()) << "call " << call << ": " << diff;
      }
      // The counter went through the wrap and restarted above zero.
      EXPECT_GE(dense.epochForTesting(), 1U);
      EXPECT_LT(dense.epochForTesting(), 64U);
    }
  }
}

// ----- Backward sweep over shared nodes -----------------------------------

ExprPtr doublingTower(const ExprPtr& base, int depth) {
  ExprPtr s = base;
  for (int k = 0; k < depth; ++k) s = expr::addE(s, s);
  return s;
}

ExprPtr towerQuery(const std::vector<VarInfo>& v, int depth) {
  const auto shared = expr::addE(
      doublingTower(expr::addE(expr::mkVar(v[0]), expr::mkVar(v[2])), depth),
      expr::mkVar(v[1]));
  return expr::andE(expr::ltE(shared, expr::cReal(5.0)),
                    expr::gtE(shared, expr::cReal(-5.0)));
}

// Both arguments of `s + s` are one node reached with one target, so a
// backward sweep that narrows each (node, target) once per sweep does
// linear work on a k-deep tower where a per-path walk does 2^k.
TEST(Hc4Backward, DeepSharedTowerSolvesInLinearTime) {
  const std::vector<VarInfo> vars = {{0, "x", Type::kReal, -1, 1},
                                     {1, "y", Type::kReal, -1, 1},
                                     {2, "z", Type::kReal, -1, 1}};
  solver::SolveOptions opt;
  opt.timeBudgetMillis = -1;
  Stopwatch watch;
  const auto res = solver::BoxSolver(opt).solve(towerQuery(vars, 40), vars);
  EXPECT_EQ(res.status, solver::SolveStatus::kSat);
  EXPECT_LT(watch.elapsedMillis(), 1000);
}

// Skipping a repeated (node, target) changes no box: on a tower shallow
// enough for the per-path map oracle, every contraction matches it.
TEST(Hc4Backward, SkippedRepeatsLeaveContractionsUnchanged) {
  const std::vector<VarInfo> vars = {{0, "x", Type::kInt, -50, 50},
                                     {1, "y", Type::kReal, -1, 1},
                                     {2, "z", Type::kInt, -3, 9}};
  Rng rng(11);
  for (const int depth : {1, 4, 10}) {
    const ExprPtr goal = towerQuery(vars, depth);
    Hc4Contractor dense(goal);
    testref::MapHc4Contractor ref(goal);
    for (int b = 0; b < 20; ++b) {
      const Box start = randomSubBox(rng, vars);
      const std::string diff = contractDiff(dense, ref, start, 3);
      ASSERT_TRUE(diff.empty()) << "depth " << depth << ": " << diff;
    }
  }
}

}  // namespace
}  // namespace stcg
