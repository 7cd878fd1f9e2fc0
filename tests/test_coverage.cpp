// Unit tests for the coverage tracker: decision, condition, and MCDC
// accounting, including unique-cause pair detection.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "compile/compiler.h"
#include "coverage/coverage.h"
#include "expr/eval.h"
#include "model/model.h"

namespace stcg::coverage {
namespace {

using expr::Scalar;
using expr::Type;

// A model with one boolean 2-condition decision: switch on (a && b).
compile::CompiledModel twoCondModel() {
  model::Model m("cov");
  auto a = m.addInport("a", Type::kBool, 0, 1);
  auto b = m.addInport("b", Type::kBool, 0, 1);
  auto cond = m.addLogical("ab", model::LogicOp::kAnd, {a, b});
  auto one = m.addConstant("one", Scalar::i(1));
  auto zero = m.addConstant("zero", Scalar::i(0));
  m.addOutport("y", m.addSwitch("sw", one, cond, zero,
                                model::SwitchCriteria::kNotZero, 0.0));
  return compile::compile(m);
}

// Condition vectors {c0, c1} of that decision, as the 0/1 bytes
// recordConditions reads.
constexpr std::uint8_t kTT[] = {1, 1};
constexpr std::uint8_t kTF[] = {1, 0};
constexpr std::uint8_t kFT[] = {0, 1};
constexpr std::uint8_t kFF[] = {0, 0};

TEST(Coverage, StartsEmpty) {
  const auto cm = twoCondModel();
  CoverageTracker cov(cm);
  EXPECT_EQ(cov.coveredBranchCount(), 0);
  EXPECT_EQ(cov.decisionCoverage(), 0.0);
  EXPECT_EQ(cov.conditionCoverage(), 0.0);
  EXPECT_EQ(cov.mcdcCoverage(), 0.0);
  EXPECT_EQ(cov.uncoveredBranches().size(), cm.branches.size());
}

TEST(Coverage, RecordDecisionReportsNewBranchOnce) {
  const auto cm = twoCondModel();
  CoverageTracker cov(cm);
  const int d = cm.decisions[0].id;
  EXPECT_GE(cov.recordDecision(d, 0), 0);   // new
  EXPECT_EQ(cov.recordDecision(d, 0), -1);  // repeat
  EXPECT_GE(cov.recordDecision(d, 1), 0);   // other arm new
  EXPECT_EQ(cov.decisionCoverage(), 1.0);
}

TEST(Coverage, ConditionPolaritiesTrackedSeparately) {
  const auto cm = twoCondModel();
  CoverageTracker cov(cm);
  const int d = cm.decisions[0].id;
  EXPECT_TRUE(cov.recordConditions(d, kTF, 2, false));
  EXPECT_TRUE(cov.conditionSeen(d, 0, true));
  EXPECT_FALSE(cov.conditionSeen(d, 0, false));
  EXPECT_TRUE(cov.conditionSeen(d, 1, false));
  const auto [seen, total] = cov.conditionCounts();
  EXPECT_EQ(seen, 2);
  EXPECT_EQ(total, 4);
  // Re-recording the same vector adds nothing new.
  EXPECT_FALSE(cov.recordConditions(d, kTF, 2, false));
}

TEST(Coverage, WrongConditionCountRejectedWithTrackerUnchanged) {
  const auto cm = twoCondModel();
  CoverageTracker cov(cm);
  const int d = cm.decisions[0].id;
  (void)cov.recordConditions(d, kTF, 2, false);
  std::ostringstream before;
  cov.serializeState(before);

  const std::uint8_t three[] = {0, 1, 1};
  EXPECT_THROW((void)cov.recordConditions(d, three, 3, true),
               expr::EvalError);
  EXPECT_THROW((void)cov.recordConditions(d, kFT, 1, true), expr::EvalError);

  std::ostringstream after;
  cov.serializeState(after);
  EXPECT_EQ(after.str(), before.str());
  EXPECT_FALSE(cov.conditionSeen(d, 0, false));
  EXPECT_FALSE(cov.conditionSeen(d, 1, true));
}

TEST(Coverage, McdcUniqueCausePairDetection) {
  const auto cm = twoCondModel();
  CoverageTracker cov(cm);
  const int d = cm.decisions[0].id;
  // (T,T)->true and (F,T)->false differ only in condition 0: pair for c0.
  (void)cov.recordConditions(d, kTT, 2, true);
  (void)cov.recordConditions(d, kFT, 2, false);
  EXPECT_TRUE(cov.mcdcDemonstrated(d, 0));
  EXPECT_FALSE(cov.mcdcDemonstrated(d, 1));
  const auto [ms, mt] = cov.mcdcCounts();
  EXPECT_EQ(ms, 1);
  EXPECT_EQ(mt, 2);
  // (T,F)->false completes condition 1 against (T,T)->true.
  (void)cov.recordConditions(d, kTF, 2, false);
  EXPECT_TRUE(cov.mcdcDemonstrated(d, 1));
  EXPECT_EQ(cov.mcdcCoverage(), 1.0);
}

TEST(Coverage, McdcRequiresOutcomeChange) {
  const auto cm = twoCondModel();
  CoverageTracker cov(cm);
  const int d = cm.decisions[0].id;
  // Same outcome on both vectors: no pair even though only c0 flips.
  (void)cov.recordConditions(d, kTF, 2, false);
  (void)cov.recordConditions(d, kFF, 2, false);
  EXPECT_FALSE(cov.mcdcDemonstrated(d, 0));
}

TEST(Coverage, McdcRequiresSingleConditionDifference) {
  const auto cm = twoCondModel();
  CoverageTracker cov(cm);
  const int d = cm.decisions[0].id;
  // Both conditions flip: no unique cause.
  (void)cov.recordConditions(d, kTT, 2, true);
  (void)cov.recordConditions(d, kFF, 2, false);
  EXPECT_FALSE(cov.mcdcDemonstrated(d, 0));
  EXPECT_FALSE(cov.mcdcDemonstrated(d, 1));
}

TEST(Coverage, ExcludedGoalCoveredAnywayNeverInflatesTheRatio) {
  // Regression: an excluded branch that is covered anyway (an unsound
  // exclusion, or exclusions applied after coverage was recorded) used to
  // be counted in the exclusion-inclusive numerator over the
  // exclusion-exclusive denominator — a goal double-counted as both
  // pruned and covered, pushing reports past 100%.
  const auto cm = twoCondModel();
  CoverageTracker cov(cm);
  const int d = cm.decisions[0].id;
  Exclusions excl;
  for (const auto& br : cm.branches) {
    if (br.decision == d && br.arm == 0) excl.branches.push_back(br.id);
  }
  ASSERT_EQ(excl.branches.size(), 1u);
  cov.applyExclusions(excl);
  (void)cov.recordDecision(d, 0);  // covered despite the exclusion
  (void)cov.recordDecision(d, 1);

  const auto [covered, total] = cov.branchCounts();
  EXPECT_LE(covered, total);
  EXPECT_EQ(covered, 1);
  EXPECT_EQ(total, 1);
  EXPECT_EQ(cov.decisionCoverage(), 1.0);
  // The raw counters still expose the unsound-proof signal, distinct
  // from the reporting pair.
  EXPECT_EQ(cov.coveredBranchCount(), 2);
  // And the human-readable report agrees with branchCounts().
  EXPECT_NE(cov.report().find("(1/1 branches)"), std::string::npos)
      << cov.report();
}

TEST(Coverage, ReportMentionsUncoveredBranches) {
  const auto cm = twoCondModel();
  CoverageTracker cov(cm);
  const auto report = cov.report();
  EXPECT_NE(report.find("Uncovered branches"), std::string::npos);
  EXPECT_NE(report.find("cov/sw"), std::string::npos);
}

}  // namespace
}  // namespace stcg::coverage
