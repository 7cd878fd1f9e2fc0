// The forward interval semantics is one set of per-op rules
// (interval/transfer.h) behind four evaluations: HC4's forward sweep,
// the interval tree evaluator, and the interval tape executor at one and
// at eight lanes. Under the same box they must give bit-identical root
// intervals, and those intervals must contain the concrete value
// (expr::evaluate) at points of the box.
//
// Hc4StoreClamp.* pins the store rule on an index whose whole interval
// lies outside the array. Concrete store clamps such an index to the
// nearest end; a forward rule that dropped the write instead made HC4
// refute a goal that holds at every point of its box, and BoxSolver
// report UNSAT for it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/interval_eval.h"
#include "analysis/interval_tape.h"
#include "expr/builder.h"
#include "expr/eval.h"
#include "fuzz_dag.h"
#include "interval/box.h"
#include "interval/hc4.h"
#include "solver/solver.h"
#include "util/rng.h"

namespace stcg {
namespace {

using expr::ExprPtr;
using expr::Scalar;
using expr::Type;
using expr::VarInfo;
using interval::Box;
using interval::Hc4Contractor;
using interval::Interval;

// Bitwise equality, except that every empty interval is the same value:
// a box with an empty dimension is stored as whatever lo > hi its
// integral hull produced, and HC4 reads it through an intersection that
// returns the canonical empty, so the two spellings reach the root.
bool sameInterval(const Interval& a, const Interval& b) {
  if (a.isEmpty() || b.isEmpty()) return a.isEmpty() && b.isEmpty();
  return fuzz::sameBits(a.lo(), b.lo()) && fuzz::sameBits(a.hi(), b.hi());
}

std::string show(const Interval& iv) {
  return "[" + std::to_string(iv.lo()) + ", " + std::to_string(iv.hi()) + "]";
}

analysis::IntervalEnv envOf(const Box& box) {
  analysis::IntervalEnv env;
  for (const auto& v : box.vars()) env.set(v.id, box.domain(v.id));
  return env;
}

// ----- Store with an out-of-range index ------------------------------------

// select(store([0, 0, 0, 0, 0], i, 7), read) == 7 over i: int in [lo, hi].
struct StoreCase {
  double lo, hi;
  int read;
  Interval expected;  // the goal's interval over the whole box
};

void checkStoreCase(const StoreCase& c) {
  const VarInfo vi{0, "i", Type::kInt, c.lo, c.hi};
  const ExprPtr zeros = expr::cArray(
      Type::kInt, std::vector<Scalar>(5, Scalar::i(0)));
  const ExprPtr goal = expr::eqE(
      expr::selectE(expr::storeE(zeros, expr::mkVar(vi), expr::cInt(7)),
                    expr::cInt(c.read)),
      expr::cInt(7));
  const std::string where = "i in " + show(Interval(c.lo, c.hi)) +
                            ", read " + std::to_string(c.read);

  const Box box({vi});
  Hc4Contractor hc4(goal);
  const Interval fwd = hc4.forwardEval(box);
  const analysis::IntervalEnv env = envOf(box);
  analysis::IntervalEvaluator ev(env);
  const Interval tree = ev.evalScalar(goal);
  const Interval tape = analysis::intervalVerdicts({goal}, env)[0];
  EXPECT_TRUE(sameInterval(fwd, c.expected)) << where << ": " << show(fwd);
  EXPECT_TRUE(sameInterval(tree, c.expected)) << where << ": " << show(tree);
  EXPECT_TRUE(sameInterval(tape, c.expected)) << where << ": " << show(tape);

  // Every point's concrete truth lies in the interval, and at least one
  // point satisfies the goal.
  bool anyTrue = false;
  for (auto i = static_cast<std::int64_t>(c.lo);
       i <= static_cast<std::int64_t>(c.hi); ++i) {
    expr::Env point;
    point.set(vi.id, Scalar::i(i));
    const bool v = expr::evaluate(goal, point).toBool();
    EXPECT_TRUE(c.expected.contains(v ? 1.0 : 0.0)) << where << ", i=" << i;
    anyTrue = anyTrue || v;
  }
  ASSERT_TRUE(anyTrue) << where;

  solver::SolveOptions opt;
  opt.timeBudgetMillis = -1;
  const auto res = solver::BoxSolver(opt).solve(goal, {vi});
  ASSERT_EQ(res.status, solver::SolveStatus::kSat) << where;
  EXPECT_TRUE(expr::evaluate(goal, res.model).toBool()) << where;
}

TEST(Hc4StoreClamp, IndexAboveRangeWritesTheLastElement) {
  checkStoreCase({5, 9, 4, Interval::boolTrue()});
}

TEST(Hc4StoreClamp, IndexBelowRangeWritesTheFirstElement) {
  checkStoreCase({-9, -5, 0, Interval::boolTrue()});
}

// The straddling index may write element 3 (the read misses) or, at 4
// and clamped above, element 4 (the read hits).
TEST(Hc4StoreClamp, StraddlingIndexHullsTheElementsItReaches) {
  checkStoreCase({3, 7, 4, Interval::boolUnknown()});
}

// ----- Four evaluations, one semantics ---------------------------------------

// Goals with select and store at variable indices: int variables range
// over [-10, 10] and the arrays hold 3 or 4 elements, so random boxes put
// an index out of range, across a boundary, or inside.
std::vector<ExprPtr> arrayGoals(Rng& rng, const fuzz::FuzzDag& d) {
  const auto& vi0 = d.ints[0];  // the variable i0
  const auto& vi1 = d.ints[1];  // i1
  const auto& vi2 = d.ints[2];  // i2
  const auto& r0 = d.reals[0];
  const auto pick = [&](const std::vector<ExprPtr>& pool) {
    return pool[rng.index(pool.size())];
  };
  const ExprPtr ai = pick(d.intArrays);
  const ExprPtr ar = pick(d.realArrays);
  const ExprPtr zeros =
      expr::cArray(Type::kInt, std::vector<Scalar>(3, Scalar::i(0)));
  std::vector<ExprPtr> goals = {
      expr::eqE(expr::selectE(expr::storeE(zeros, vi0, expr::cInt(7)),
                              expr::cInt(2)),
                expr::cInt(7)),
      expr::eqE(expr::selectE(expr::storeE(zeros, vi0, expr::cInt(7)),
                              expr::cInt(0)),
                expr::cInt(7)),
      expr::eqE(expr::selectE(expr::storeE(ai, vi0, vi1), vi2), vi1),
      expr::gtE(expr::selectE(expr::storeE(ar, vi0, r0), vi1), r0),
      expr::leE(expr::selectE(
                    expr::storeE(expr::storeE(zeros, vi0, vi1), vi1, vi2),
                    vi0),
                expr::cInt(0)),
      expr::eqE(expr::selectE(expr::iteE(pick(d.bools), ai,
                                         expr::storeE(ai, vi0, vi2)),
                              vi1),
                vi2),
  };
  for (int k = 0; k < 6; ++k) goals.push_back(pick(d.bools));
  return goals;
}

// A random sub-box: each dimension kept whole, pinned to a point, or cut
// to a random sub-interval (discrete dimensions integral-hulled by Box).
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

// A concrete point of a non-empty box, arrays drawn at random.
expr::Env samplePoint(Rng& rng, const Box& box, const fuzz::FuzzDag& d) {
  expr::Env env = fuzz::randomEnv(rng, d);
  for (const auto& v : box.vars()) {
    const Interval dom = box.domain(v.id);
    if (v.type == Type::kReal) {
      env.set(v.id, Scalar::r(rng.uniformReal(dom.lo(), dom.hi())));
      continue;
    }
    const auto n = rng.uniformInt(static_cast<std::int64_t>(dom.lo()),
                                  static_cast<std::int64_t>(dom.hi()));
    env.set(v.id, v.type == Type::kBool ? Scalar::b(n != 0) : Scalar::i(n));
  }
  return env;
}

TEST(Hc4TransferAgreement, FourEvaluationsAgreeBitwiseAndContainConcrete) {
  constexpr int kLanes = 8;
  int compared = 0, concrete = 0, decided = 0;
  int indexOutside = 0, indexStraddles = 0, indexInside = 0;
  for (int dagSeed = 0; dagSeed < 16; ++dagSeed) {
    Rng rng(static_cast<std::uint64_t>(dagSeed) * 104729 + 11);
    const auto d = fuzz::makeFuzzDag(rng, /*withArrays=*/true);
    std::vector<ExprPtr> goals;
    for (const auto& g : arrayGoals(rng, d)) {
      if (g->op != expr::Op::kConst) goals.push_back(g);
    }
    std::vector<Hc4Contractor> hc4;
    hc4.reserve(goals.size());
    for (const auto& g : goals) hc4.emplace_back(g);
    const analysis::IntervalTapeBuild built =
        analysis::buildIntervalTape(goals);
    analysis::IntervalTapeExecutor one(built.tape);
    analysis::IntervalTapeExecutor wide(built.tape, kLanes);

    for (int group = 0; group < 6; ++group) {
      std::vector<Box> boxes;
      for (int l = 0; l < kLanes; ++l) {
        boxes.push_back(randomSubBox(rng, d.vars));
        wide.bind(envOf(boxes.back()), l);
      }
      wide.run();
      for (int l = 0; l < kLanes; ++l) {
        const Box& box = boxes[static_cast<std::size_t>(l)];
        const analysis::IntervalEnv env = envOf(box);
        analysis::IntervalEvaluator ev(env);
        one.bind(env);
        one.run();
        // i0 (variable id 2) indexes every store above; the int array
        // holds 3 elements.
        const Interval idx = box.domain(2);
        if (!idx.isEmpty()) {
          if (idx.hi() < 0.0 || idx.lo() > 2.0) {
            ++indexOutside;
          } else if (idx.lo() < 0.0 || idx.hi() > 2.0) {
            ++indexStraddles;
          } else {
            ++indexInside;
          }
        }
        std::vector<expr::Env> points;
        if (!box.isEmpty()) {
          for (int p = 0; p < 4; ++p) {
            points.push_back(samplePoint(rng, box, d));
          }
        }
        for (std::size_t g = 0; g < goals.size(); ++g) {
          const Interval fwd = hc4[g].forwardEval(box);
          const Interval tree = ev.evalScalar(goals[g]);
          const Interval lane1 = one.scalar(built.rootSlots[g]);
          const Interval laneL = wide.scalar(built.rootSlots[g], l);
          const std::string where = "dag " + std::to_string(dagSeed) +
                                    " goal " + goals[g]->toString() +
                                    " box " + box.toString();
          ASSERT_TRUE(sameInterval(fwd, tree))
              << "hc4 " << show(fwd) << " vs evaluator " << show(tree)
              << ", " << where;
          ASSERT_TRUE(sameInterval(fwd, lane1))
              << "hc4 " << show(fwd) << " vs tape " << show(lane1) << ", "
              << where;
          ASSERT_TRUE(sameInterval(fwd, laneL))
              << "hc4 " << show(fwd) << " vs tape lane " << l << " "
              << show(laneL) << ", " << where;
          ++compared;
          decided += fwd.isTrue() || fwd.isFalse() ? 1 : 0;
          for (const auto& point : points) {
            const double v = expr::evaluate(goals[g], point).toReal();
            ASSERT_TRUE(fwd.contains(v))
                << "concrete " << v << " outside " << show(fwd) << ", "
                << where;
            ++concrete;
          }
        }
      }
    }
  }
  // The corpus must reach every index placement and both kinds of
  // verdict, or the agreement proves little.
  EXPECT_GT(compared, 5000);
  EXPECT_GT(concrete, 10000);
  EXPECT_GT(decided, 500);
  EXPECT_GT(indexOutside, 40);
  EXPECT_GT(indexStraddles, 100);
  EXPECT_GT(indexInside, 40);
}

}  // namespace
}  // namespace stcg
