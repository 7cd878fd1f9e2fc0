// Unit tests for the state tree (paper Definitions 3/4) and snapshot
// hashing.
#include <gtest/gtest.h>

#include "stcg/state_tree.h"

namespace stcg::gen {
namespace {

using expr::Scalar;
using expr::Value;

sim::StateSnapshot snap(std::initializer_list<std::int64_t> vals) {
  sim::StateSnapshot s;
  for (const auto v : vals) s.emplace_back(Scalar::i(v));
  return s;
}

sim::InputVector in(std::int64_t v) { return {Scalar::i(v)}; }

TEST(StateTree, RootOnlyAtConstruction) {
  StateTree t(snap({0, 0}));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.node(0).parent, -1);
  EXPECT_TRUE(t.pathInputs(0).empty());
  EXPECT_EQ(t.depth(0), 0);
}

TEST(StateTree, AddChildLinksParentAndChildren) {
  StateTree t(snap({0}));
  const int a = t.addChild(0, in(1), snap({1}));
  const int b = t.addChild(a, in(2), snap({2}));
  EXPECT_EQ(t.node(a).parent, 0);
  EXPECT_EQ(t.node(b).parent, a);
  ASSERT_EQ(t.node(0).children.size(), 1u);
  EXPECT_EQ(t.node(0).children[0], a);
  EXPECT_EQ(t.depth(b), 2);
}

TEST(StateTree, PathInputsIsRootToNodeOrder) {
  StateTree t(snap({0}));
  const int a = t.addChild(0, in(10), snap({1}));
  const int b = t.addChild(a, in(20), snap({2}));
  const int c = t.addChild(b, in(30), snap({3}));
  const auto path = t.pathInputs(c);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0][0], Scalar::i(10));
  EXPECT_EQ(path[1][0], Scalar::i(20));
  EXPECT_EQ(path[2][0], Scalar::i(30));
}

TEST(StateTree, FindByStateMatchesExactValues) {
  StateTree t(snap({0, 5}));
  const int a = t.addChild(0, in(1), snap({1, 5}));
  EXPECT_EQ(t.findByState(snap({1, 5})), a);
  EXPECT_EQ(t.findByState(snap({0, 5})), 0);
  EXPECT_EQ(t.findByState(snap({2, 5})), -1);
}

TEST(StateTree, AttemptedGoalsPerNode) {
  StateTree t(snap({0}));
  const int a = t.addChild(0, in(1), snap({1}));
  EXPECT_FALSE(t.isAttempted(0, 7));
  t.markAttempted(0, 7);
  EXPECT_TRUE(t.isAttempted(0, 7));
  EXPECT_FALSE(t.isAttempted(a, 7));  // per node, not global
}

// Brute-force definition of the attempted-prefix cursor: the largest k
// with isAttempted(n, goal) for every n < k.
int bruteForcePrefix(const StateTree& t, int goal) {
  int k = 0;
  while (static_cast<std::size_t>(k) < t.size() && t.isAttempted(k, goal)) {
    ++k;
  }
  return k;
}

TEST(StateTree, AttemptedPrefixTracksBruteForce) {
  constexpr int kGoals = 3;
  StateTree t(snap({0}));
  const auto check = [&](const char* step) {
    for (int g = 0; g < kGoals; ++g) {
      EXPECT_EQ(t.attemptedPrefix(g), bruteForcePrefix(t, g))
          << "goal " << g << " after " << step;
    }
  };
  check("construction");
  const std::uint64_t shared = 0xfeedULL;
  // Nodes 1 and 3 carry distinct states forced onto one hash, so a mark
  // on one of them marks the other through the (state-hash, goal) set.
  (void)t.addChild(0, in(1), snap({1}), shared);
  (void)t.addChild(0, in(2), snap({2}));
  (void)t.addChild(1, in(3), snap({3}), shared);
  (void)t.addChild(2, in(4), snap({4}));
  check("adding nodes");

  // Out of order: the cursor waits for the gap at node 0.
  t.markAttempted(2, 0);
  check("mark (2, 0)");
  EXPECT_EQ(t.attemptedPrefix(0), 0);
  t.markAttempted(3, 0);  // also marks node 1 through the shared hash
  check("mark (3, 0)");
  EXPECT_TRUE(t.isAttempted(1, 0));
  t.markAttempted(0, 0);
  check("mark (0, 0)");
  EXPECT_EQ(t.attemptedPrefix(0), 4);
  t.markAttempted(4, 0);
  check("mark (4, 0)");
  EXPECT_EQ(t.attemptedPrefix(0), 5);

  // Another goal moves independently.
  t.markAttempted(0, 2);
  check("mark (0, 2)");
  EXPECT_EQ(t.attemptedPrefix(2), 1);
  EXPECT_EQ(t.attemptedPrefix(1), 0);

  // Appended nodes: a fresh state stops a complete goal's cursor at the
  // new node; a node whose hash already carries the goal's mark does not.
  (void)t.addChild(4, in(5), snap({5}));
  check("appending a fresh node");
  EXPECT_EQ(t.attemptedPrefix(0), 5);
  t.markAttempted(5, 0);
  check("mark (5, 0)");
  EXPECT_EQ(t.attemptedPrefix(0), 6);
  (void)t.addChild(5, in(6), snap({6}), shared);
  check("appending a colliding node");
  EXPECT_EQ(t.attemptedPrefix(0), 7);

  // Filling goal 2's gaps moves its cursor over every node at once.
  for (const int n : {6, 5, 4, 3, 2}) {
    t.markAttempted(n, 2);
    check("filling goal 2");
  }
  EXPECT_EQ(t.attemptedPrefix(2), 7);
  EXPECT_EQ(t.attemptedPrefix(1), 0);
}

TEST(StateTree, HashDistinguishesValueAndOrder) {
  EXPECT_EQ(hashSnapshot(snap({1, 2})), hashSnapshot(snap({1, 2})));
  EXPECT_NE(hashSnapshot(snap({1, 2})), hashSnapshot(snap({2, 1})));
  EXPECT_NE(hashSnapshot(snap({1, 2})), hashSnapshot(snap({1, 3})));
  // Types matter: int 1 vs real 1.0 are different states.
  sim::StateSnapshot intState{Value(Scalar::i(1))};
  sim::StateSnapshot realState{Value(Scalar::r(1.0))};
  EXPECT_NE(hashSnapshot(intState), hashSnapshot(realState));
}

TEST(StateTree, ArrayStatesHashElementwise) {
  sim::StateSnapshot a{Value(expr::Type::kInt,
                             {Scalar::i(1), Scalar::i(2), Scalar::i(3)})};
  sim::StateSnapshot b{Value(expr::Type::kInt,
                             {Scalar::i(1), Scalar::i(2), Scalar::i(4)})};
  EXPECT_NE(hashSnapshot(a), hashSnapshot(b));
}

TEST(StateTree, RandomNodeStaysInRange) {
  StateTree t(snap({0}));
  for (int i = 0; i < 5; ++i) {
    (void)t.addChild(0, in(i), snap({i + 1}));
  }
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const int n = t.randomNode(rng);
    EXPECT_GE(n, 0);
    EXPECT_LT(n, static_cast<int>(t.size()));
  }
}

}  // namespace
}  // namespace stcg::gen
