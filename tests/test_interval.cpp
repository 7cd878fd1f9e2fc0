// Unit and property tests for interval arithmetic, boxes, and the HC4
// contractor — including the soundness property the solver's UNSAT answers
// depend on (contraction never removes a satisfying point).
#include <gtest/gtest.h>

#include "expr/builder.h"
#include "expr/eval.h"
#include "interval/box.h"
#include "interval/hc4.h"
#include "util/rng.h"

namespace stcg::interval {
namespace {

using expr::cInt;
using expr::cReal;
using expr::ExprPtr;
using expr::mkVar;
using expr::Scalar;
using expr::Type;
using expr::VarInfo;

// ---------- Interval arithmetic ----------

TEST(Interval, BasicsAndEmptiness) {
  EXPECT_TRUE(Interval::empty().isEmpty());
  EXPECT_FALSE(Interval(1, 2).isEmpty());
  EXPECT_TRUE(Interval(1, 2).contains(1.5));
  EXPECT_FALSE(Interval(1, 2).contains(2.5));
  EXPECT_TRUE(Interval(1, 2).intersect(Interval(3, 4)).isEmpty());
  EXPECT_EQ(Interval(1, 2).hull(Interval(4, 5)), Interval(1, 5));
}

TEST(Interval, IntegralHull) {
  EXPECT_EQ(Interval(0.3, 2.7).integralHull(), Interval(1, 2));
  EXPECT_TRUE(Interval(0.3, 0.7).integralHull().isEmpty());
  EXPECT_EQ(Interval(-2.5, -0.5).integralHull(), Interval(-2, -1));
  EXPECT_EQ(Interval(1, 4).integerCount(), 4.0);
}

TEST(Interval, Arithmetic) {
  EXPECT_EQ(addI({1, 2}, {3, 4}), Interval(4, 6));
  EXPECT_EQ(subI({1, 2}, {3, 4}), Interval(-3, -1));
  EXPECT_EQ(mulI({-1, 2}, {3, 4}), Interval(-4, 8));
  EXPECT_EQ(negI({1, 2}), Interval(-2, -1));
  EXPECT_EQ(absI({-3, 2}), Interval(0, 3));
  EXPECT_EQ(minI({1, 5}, {3, 4}), Interval(1, 4));
  EXPECT_EQ(maxI({1, 5}, {3, 4}), Interval(3, 5));
}

TEST(Interval, DivisionRespectsGuard) {
  EXPECT_EQ(divI({6, 8}, {2, 4}), Interval(1.5, 4));
  // Denominator containing 0: result must contain the guard value 0.
  EXPECT_TRUE(divI({6, 8}, {-1, 1}).containsZero());
  EXPECT_EQ(divI({6, 8}, Interval::point(0.0)), Interval::point(0.0));
}

TEST(Interval, BooleanLattice) {
  EXPECT_TRUE(Interval::boolTrue().isTrue());
  EXPECT_TRUE(Interval::boolFalse().isFalse());
  EXPECT_TRUE(Interval::boolUnknown().canBeTrue());
  EXPECT_TRUE(Interval::boolUnknown().canBeFalse());
  EXPECT_TRUE(andI(Interval::boolTrue(), Interval::boolUnknown())
                  .canBeFalse());
  EXPECT_TRUE(andI(Interval::boolTrue(), Interval::boolTrue()).isTrue());
  EXPECT_TRUE(orI(Interval::boolFalse(), Interval::boolFalse()).isFalse());
  EXPECT_TRUE(notI(Interval::boolTrue()).isFalse());
  EXPECT_TRUE(xorI(Interval::boolTrue(), Interval::boolFalse()).isTrue());
}

TEST(Interval, Relations) {
  EXPECT_TRUE(ltI({1, 2}, {3, 4}).isTrue());
  EXPECT_TRUE(ltI({5, 6}, {3, 4}).isFalse());
  EXPECT_TRUE(ltI({1, 4}, {3, 6}).canBeTrue());
  EXPECT_TRUE(ltI({1, 4}, {3, 6}).canBeFalse());
  EXPECT_TRUE(eqI(Interval::point(2), Interval::point(2)).isTrue());
  EXPECT_TRUE(eqI({1, 2}, {3, 4}).isFalse());
  EXPECT_TRUE(leI({1, 3}, {3, 4}).canBeTrue());
}

// ---------- Box ----------

std::vector<VarInfo> twoVars() {
  return {{0, "x", Type::kInt, 0, 10}, {1, "y", Type::kReal, -1, 1}};
}

TEST(BoxTest, InitialDomainsFromVarInfo) {
  Box box(twoVars());
  EXPECT_EQ(box.domain(0), Interval(0, 10));
  EXPECT_EQ(box.domain(1), Interval(-1, 1));
  EXPECT_FALSE(box.isEmpty());
}

TEST(BoxTest, NarrowRoundsDiscreteDomains) {
  Box box(twoVars());
  EXPECT_TRUE(box.narrow(0, Interval(1.2, 3.8)));
  EXPECT_EQ(box.domain(0), Interval(2, 3));
  EXPECT_FALSE(box.narrow(0, Interval(2.1, 2.9)));  // no integer left
  EXPECT_TRUE(box.isEmpty());
}

TEST(BoxTest, SplitPrefersWidestDimension) {
  Box box(twoVars());
  // x has 11 integers, y has width 2: integer count dominates.
  EXPECT_EQ(box.splitDimension(), 0);
  box.setDomain(0, Interval::point(5));
  EXPECT_EQ(box.splitDimension(), 1);
  box.setDomain(1, Interval::point(0.5));
  EXPECT_EQ(box.splitDimension(), -1);
}

TEST(BoxTest, MovedFromBoxIsZeroDimensional) {
  Box box(twoVars());
  Box taken(std::move(box));
  Box assigned;
  assigned = std::move(taken);
  // NOLINTBEGIN(bugprone-use-after-move): the moved-from state is the test.
  for (Box* b : {&box, &taken}) {
    EXPECT_TRUE(b->vars().empty());
    EXPECT_EQ(b->dims(), 0U);
    EXPECT_EQ(b->domain(0), Interval::whole());
    EXPECT_TRUE(b->narrow(0, Interval(1, 2)));
    EXPECT_EQ(b->splitDimension(), -1);
  }
  // NOLINTEND(bugprone-use-after-move)
  EXPECT_EQ(assigned.domain(0), Interval(0, 10));
}

// ---------- HC4 ----------

TEST(Hc4, ContractsLinearEquality) {
  // x + 3 == 7 narrows x to exactly 4.
  const auto x = mkVar({0, "x", Type::kInt, -100, 100});
  Hc4Contractor c(expr::eqE(expr::addE(x, cInt(3)), cInt(7)));
  Box box({{0, "x", Type::kInt, -100, 100}});
  EXPECT_NE(c.contract(box), ContractOutcome::kEmpty);
  EXPECT_EQ(box.domain(0), Interval(4, 4));
}

TEST(Hc4, RefutesContradiction) {
  const auto x = mkVar({0, "x", Type::kInt, 0, 10});
  Hc4Contractor c(expr::andE(expr::gtE(x, cInt(7)), expr::ltE(x, cInt(3))));
  Box box({{0, "x", Type::kInt, 0, 10}});
  EXPECT_EQ(c.contract(box), ContractOutcome::kEmpty);
}

TEST(Hc4, StrictInequalityIsIntegerTight) {
  const auto x = mkVar({0, "x", Type::kInt, 0, 10});
  Hc4Contractor c(expr::ltE(x, cInt(4)));
  Box box({{0, "x", Type::kInt, 0, 10}});
  (void)c.contract(box);
  EXPECT_EQ(box.domain(0), Interval(0, 3));
}

TEST(Hc4, ConjunctionNarrowsBothSides) {
  const auto x = mkVar({0, "x", Type::kReal, -10, 10});
  const auto y = mkVar({1, "y", Type::kReal, -10, 10});
  // x >= 2 && y <= -1 && x + y == 2 -> x in [3,10]... then y == 2 - x.
  Hc4Contractor c(expr::andE(
      expr::andE(expr::geE(x, cReal(2.0)), expr::leE(y, cReal(-1.0))),
      expr::eqE(expr::addE(x, y), cReal(2.0))));
  Box box({{0, "x", Type::kReal, -10, 10}, {1, "y", Type::kReal, -10, 10}});
  EXPECT_NE(c.contract(box, 6), ContractOutcome::kEmpty);
  EXPECT_GE(box.domain(0).lo(), 3.0);
  EXPECT_LE(box.domain(1).hi(), -1.0);
}

TEST(Hc4, SelectNarrowsIndexToMatchingElements) {
  // a = [10, 20, 30, 20]; select(a, i) == 20 keeps i in hull [1, 3].
  const auto arr = expr::cArray(
      Type::kInt, {Scalar::i(10), Scalar::i(20), Scalar::i(30), Scalar::i(20)});
  const auto i = mkVar({0, "i", Type::kInt, 0, 3});
  Hc4Contractor c(expr::eqE(expr::selectE(arr, i), cInt(20)));
  Box box({{0, "i", Type::kInt, 0, 3}});
  EXPECT_NE(c.contract(box), ContractOutcome::kEmpty);
  EXPECT_EQ(box.domain(0), Interval(1, 3));
}

TEST(Hc4, SelectRefutesMissingElement) {
  const auto arr =
      expr::cArray(Type::kInt, {Scalar::i(1), Scalar::i(2), Scalar::i(3)});
  const auto i = mkVar({0, "i", Type::kInt, 0, 2});
  Hc4Contractor c(expr::eqE(expr::selectE(arr, i), cInt(99)));
  Box box({{0, "i", Type::kInt, 0, 2}});
  EXPECT_EQ(c.contract(box), ContractOutcome::kEmpty);
}

TEST(Hc4, IteContractsConditionWhenBranchInfeasible) {
  // ite(c, 1, 2) == 2 forces c false.
  const auto c = mkVar({0, "c", Type::kBool, 0, 1});
  Hc4Contractor h(expr::eqE(expr::iteE(c, cInt(1), cInt(2)), cInt(2)));
  Box box({{0, "c", Type::kBool, 0, 1}});
  EXPECT_NE(h.contract(box), ContractOutcome::kEmpty);
  EXPECT_TRUE(box.domain(0).isFalse());
}

TEST(Hc4, ForwardEvalDetectsTautologyAndContradiction) {
  const auto x = mkVar({0, "x", Type::kInt, 5, 10});
  Box box({{0, "x", Type::kInt, 5, 10}});
  Hc4Contractor taut(expr::geE(x, cInt(0)));
  EXPECT_TRUE(taut.forwardEval(box).isTrue());
  Hc4Contractor contra(expr::ltE(x, cInt(0)));
  EXPECT_TRUE(contra.forwardEval(box).isFalse());
}

// ---------- Soundness property sweep ----------

// Random expression generator over three bounded int vars and two reals.
ExprPtr randomBoolExpr(Rng& rng, const std::vector<ExprPtr>& leaves,
                       int depth) {
  const auto numeric = [&](auto&& self, int d) -> ExprPtr {
    if (d <= 0 || rng.chance(0.3)) {
      if (rng.chance(0.5)) return leaves[rng.index(leaves.size())];
      return rng.chance(0.5) ? cInt(rng.uniformInt(-5, 5))
                             : cReal(rng.uniformReal(-5, 5));
    }
    const auto a = self(self, d - 1);
    const auto b = self(self, d - 1);
    switch (rng.index(6)) {
      case 0: return expr::addE(a, b);
      case 1: return expr::subE(a, b);
      case 2: return expr::mulE(a, b);
      case 3: return expr::minE(a, b);
      case 4: return expr::maxE(a, b);
      default: return expr::absE(a);
    }
  };
  const auto rel = [&](int d) {
    const auto a = numeric(numeric, d);
    const auto b = numeric(numeric, d);
    switch (rng.index(4)) {
      case 0: return expr::ltE(a, b);
      case 1: return expr::leE(a, b);
      case 2: return expr::eqE(a, b);
      default: return expr::neE(a, b);
    }
  };
  if (depth <= 0 || rng.chance(0.4)) return rel(1);
  const auto a = randomBoolExpr(rng, leaves, depth - 1);
  const auto b = randomBoolExpr(rng, leaves, depth - 1);
  switch (rng.index(3)) {
    case 0: return expr::andE(a, b);
    case 1: return expr::orE(a, b);
    default: return expr::notE(a);
  }
}

class Hc4SoundnessSweep : public ::testing::TestWithParam<int> {};

TEST_P(Hc4SoundnessSweep, ContractionNeverRemovesWitnesses) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1299709 + 17);
  const std::vector<VarInfo> vars = {{0, "a", Type::kInt, -6, 6},
                                     {1, "b", Type::kInt, -6, 6},
                                     {2, "c", Type::kInt, 0, 12}};
  std::vector<ExprPtr> leaves;
  for (const auto& v : vars) leaves.push_back(mkVar(v));

  const auto goal = randomBoolExpr(rng, leaves, 3);
  // Collect all satisfying integer points by brute force.
  std::vector<std::array<std::int64_t, 3>> witnesses;
  for (std::int64_t a = -6; a <= 6; ++a) {
    for (std::int64_t b = -6; b <= 6; ++b) {
      for (std::int64_t c = 0; c <= 12; ++c) {
        expr::Env env;
        env.set(0, Scalar::i(a));
        env.set(1, Scalar::i(b));
        env.set(2, Scalar::i(c));
        if (expr::evaluate(goal, env).toBool()) witnesses.push_back({a, b, c});
      }
    }
  }
  Hc4Contractor contractor(goal);
  Box box(vars);
  const auto out = contractor.contract(box, 4);
  if (out == ContractOutcome::kEmpty) {
    // Soundness: an empty contraction must mean no witness exists.
    EXPECT_TRUE(witnesses.empty())
        << "HC4 refuted a satisfiable constraint: " << goal->toString();
  } else {
    for (const auto& w : witnesses) {
      for (int d = 0; d < 3; ++d) {
        EXPECT_TRUE(box.domain(d).contains(static_cast<double>(w[d])))
            << "witness dropped from dim " << d << " of "
            << goal->toString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomConstraints, Hc4SoundnessSweep,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace stcg::interval
