// The dense node-index memos: NodeIndex itself, expr::substitute /
// substituteExprs against the pointer-map implementation they replaced
// (map_oracles.h), and the solver's declared-variable walk, whose visited
// set is a NodeIndex.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "expr/builder.h"
#include "expr/node_index.h"
#include "expr/sexpr.h"
#include "expr/subst.h"
#include "fuzz_dag.h"
#include "map_oracles.h"
#include "solver/solver.h"
#include "util/rng.h"

namespace stcg {
namespace {

using expr::ExprPtr;
using expr::NodeIndex;
using expr::Type;
using expr::VarInfo;

TEST(SubstNodeIndex, NumbersDistinctNodesDenselyAcrossGrowth) {
  std::vector<ExprPtr> nodes;
  for (int i = 0; i < 1500; ++i) nodes.push_back(expr::cInt(i));
  NodeIndex index;
  EXPECT_EQ(index.find(nodes[0].get()), NodeIndex::kAbsent);
  for (int i = 0; i < 1500; ++i) {
    const auto [k, fresh] =
        index.insert(nodes[static_cast<std::size_t>(i)].get());
    ASSERT_TRUE(fresh);
    ASSERT_EQ(k, i);
  }
  EXPECT_EQ(index.size(), 1500U);
  for (int i = 0; i < 1500; ++i) {
    const auto* e = nodes[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(index.find(e), i);
    const auto [k, fresh] = index.insert(e);
    ASSERT_FALSE(fresh);
    ASSERT_EQ(k, i);
  }
  const auto other = expr::cInt(-1);
  EXPECT_EQ(index.find(other.get()), NodeIndex::kAbsent);
  NodeIndex presized(1000);
  EXPECT_EQ(presized.find(other.get()), NodeIndex::kAbsent);
  EXPECT_EQ(presized.insert(other.get()).first, 0);
}

// A random partial binding: each scalar var bound with probability 1/2,
// each array var with probability 1/2.
expr::Env partialEnv(Rng& rng, const fuzz::FuzzDag& d) {
  const expr::Env full = fuzz::randomEnv(rng, d);
  expr::Env env;
  for (const auto& v : d.vars) {
    if (rng.chance(0.5)) env.set(v.id, full.get(v.id));
  }
  if (d.withArrays) {
    if (rng.chance(0.5)) {
      env.setArray(fuzz::kRealArrId, full.getArray(fuzz::kRealArrId));
    }
    if (rng.chance(0.5)) {
      env.setArray(fuzz::kIntArrId, full.getArray(fuzz::kIntArrId));
    }
  }
  return env;
}

TEST(SubstNodeIndex, SubstituteMatchesMapMemoOnSharedFuzzDags) {
  int folded = 0, compared = 0;
  for (int dagSeed = 0; dagSeed < 30; ++dagSeed) {
    Rng rng(static_cast<std::uint64_t>(dagSeed) * 104729 + 11);
    const auto d = fuzz::makeFuzzDag(rng, /*withArrays=*/dagSeed % 2 == 0);
    std::vector<ExprPtr> roots = {d.bools.back(), d.ints.back(),
                                  d.reals.back()};
    for (int k = 0; k < 5; ++k) {
      roots.push_back(d.bools[rng.index(d.bools.size())]);
    }
    // One root over everything, so sharing across pools is exercised.
    roots.push_back(expr::andE(
        d.bools.back(),
        expr::ltE(d.ints.back(), expr::castE(d.reals.back(), Type::kInt))));
    for (const auto& root : roots) {
      for (int b = 0; b < 6; ++b) {
        const expr::Env env = partialEnv(rng, d);
        const ExprPtr got = expr::substitute(root, env);
        const ExprPtr want = testref::mapSubstitute(root, env);
        ASSERT_EQ(expr::toSexpr(got), expr::toSexpr(want));
        // Equal DAG sizes: shared input nodes stay shared in the output.
        ASSERT_EQ(expr::dagSize(got), expr::dagSize(want));
        folded += got->isConst() ? 1 : 0;
        ++compared;
      }
    }
  }
  EXPECT_GT(folded, 20);
  EXPECT_GT(compared - folded, 200);
}

TEST(SubstNodeIndex, SubstituteExprsMatchesMapMemoOnSharedFuzzDags) {
  for (int dagSeed = 0; dagSeed < 20; ++dagSeed) {
    Rng rng(static_cast<std::uint64_t>(dagSeed) * 15485863 + 5);
    const auto d = fuzz::makeFuzzDag(rng, /*withArrays=*/dagSeed % 2 == 1);
    // Map some scalar vars to expressions over the others (as the SLDV
    // unroller maps state leaves to next-state expressions).
    std::unordered_map<expr::VarId, ExprPtr> mapping;
    mapping[2] = expr::addE(expr::mkVar(d.vars[3]), expr::cInt(1));
    mapping[5] = expr::mulE(expr::mkVar(d.vars[6]), expr::cReal(0.5));
    mapping[0] = expr::notE(expr::mkVar(d.vars[1]));
    if (d.withArrays) {
      mapping[fuzz::kIntArrId] =
          expr::storeE(d.intArrays.front(), expr::cInt(1), expr::cInt(4));
    }
    for (int k = 0; k < 8; ++k) {
      const ExprPtr root = d.bools[rng.index(d.bools.size())];
      const ExprPtr got = expr::substituteExprs(root, mapping);
      const ExprPtr want = testref::mapSubstituteExprs(root, mapping);
      ASSERT_EQ(expr::toSexpr(got), expr::toSexpr(want));
      ASSERT_EQ(expr::dagSize(got), expr::dagSize(want));
    }
  }
}

// s_{k+1} = s_k + s_k: a DAG of `depth` + 3 nodes whose tree unfolding has
// 2^depth leaves, so only a memoizing walk finishes.
ExprPtr doublingTower(const ExprPtr& base, int depth) {
  ExprPtr s = base;
  for (int k = 0; k < depth; ++k) s = expr::addE(s, s);
  return s;
}

TEST(SubstNodeIndex, SubstituteKeepsDoublingTowerShared) {
  const VarInfo vx{0, "x", Type::kReal, -1, 1};
  const VarInfo vy{1, "y", Type::kReal, -1, 1};
  const auto tower =
      doublingTower(expr::addE(expr::mkVar(vx), expr::mkVar(vy)), 50);
  expr::Env env;
  env.set(0, expr::Scalar::r(0.25));
  const ExprPtr got = expr::substitute(tower, env);
  EXPECT_EQ(expr::dagSize(got), expr::dagSize(tower));
  EXPECT_EQ(expr::dagSize(testref::mapSubstitute(tower, env)),
            expr::dagSize(tower));
  // (No toSexpr here: it renders the tree, 2^50 leaves.)
}

// The solver's undeclared-variable check scans the nodes HC4's
// constructor numbers through a NodeIndex: it must still find an
// undeclared variable reached only through shared nodes, and must not
// unfold a shared tower (the 40-deep one below has 2^40 paths). The
// satisfiable queries use a shallow tower: HC4's backward pass walks
// paths, not nodes.
TEST(SubstNodeIndex, SolverRejectsUndeclaredVariableBehindSharedNodes) {
  const VarInfo vx{0, "x", Type::kReal, -1, 1};
  const VarInfo vy{1, "y", Type::kReal, -1, 1};
  const VarInfo vz{2, "z", Type::kReal, -1, 1};
  solver::SolveOptions opt;
  opt.timeBudgetMillis = -1;
  solver::BoxSolver s(opt);
  const auto query = [&](int depth) {
    const auto withZ =
        doublingTower(expr::addE(expr::mkVar(vx), expr::mkVar(vz)), depth);
    const auto shared = expr::addE(withZ, expr::mkVar(vy));
    return expr::andE(expr::ltE(shared, expr::cReal(5.0)),
                      expr::gtE(shared, expr::cReal(-5.0)));
  };
  EXPECT_THROW((void)s.solve(query(40), {vx, vy}), expr::EvalError);
  EXPECT_THROW((void)s.solve(query(8), {vx, vy}), expr::EvalError);
  EXPECT_EQ(s.solve(query(8), {vx, vy, vz}).status, solver::SolveStatus::kSat);
}

}  // namespace
}  // namespace stcg
