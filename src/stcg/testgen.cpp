#include "stcg/testgen.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <tuple>

#include "expr/builder.h"
#include "expr/eval.h"
#include "lint/lint.h"
#include "sim/batch_simulator.h"

namespace stcg::gen {

void validateGenOptions(const GenOptions& options) {
  const auto check = [](const char* name, int value) {
    if (value < 0 || value > 4096) {
      throw expr::EvalError(std::string("GenOptions: ") + name +
                            " must be in [0, 4096], got " +
                            std::to_string(value));
    }
  };
  check("jobs", options.jobs);
  check("batch", options.batch);
  check("solver.batch", options.solver.batch);
  if (options.checkpointEveryRounds < 1 ||
      options.checkpointEveryRounds > 1'000'000) {
    throw expr::EvalError(
        "GenOptions: checkpointEveryRounds must be in [1, 1000000], got " +
        std::to_string(options.checkpointEveryRounds));
  }
  const auto nonNegative = [](const char* name, int value) {
    if (value < 0) {
      throw expr::EvalError(std::string("GenOptions: ") + name +
                            " must be >= 0, got " + std::to_string(value));
    }
  };
  nonNegative("maxRounds", options.maxRounds);
  nonNegative("randomSeqLen", options.randomSeqLen);
  nonNegative("maxTreeNodes", options.maxTreeNodes);
  // Negated so NaN fails too: it is a std::bernoulli_distribution
  // probability, which must lie in [0, 1].
  if (!(options.freshRandomProbability >= 0.0 &&
        options.freshRandomProbability <= 1.0)) {
    throw expr::EvalError(
        "GenOptions: freshRandomProbability must be in [0, 1], got " +
        std::to_string(options.freshRandomProbability));
  }
  if (options.resume && options.checkpointPath.empty()) {
    throw expr::EvalError(
        "GenOptions: resume requires a non-empty checkpointPath");
  }
  if (!options.checkpointPath.empty()) {
    // Probe writability now (append mode: never clobbers an existing
    // checkpoint) so a doomed path fails before the campaign burns its
    // budget, with a typed error instead of a mid-run save failure. If
    // the probe had to create the file, remove it again — an empty file
    // left behind would make a later `resume-if-exists` caller try to
    // load a zero-byte checkpoint.
    const bool existed =
        static_cast<bool>(std::ifstream(options.checkpointPath));
    std::ofstream probe(options.checkpointPath,
                        std::ios::binary | std::ios::app);
    const bool writable = static_cast<bool>(probe);
    probe.close();
    if (!existed && writable) std::remove(options.checkpointPath.c_str());
    if (!writable) {
      throw expr::EvalError("GenOptions: checkpointPath '" +
                            options.checkpointPath + "' is not writable");
    }
  }
}

std::vector<Goal> buildGoals(const compile::CompiledModel& cm,
                             bool includeConditionGoals,
                             bool includeMcdcGoals) {
  std::vector<Goal> goals;
  for (const auto& br : cm.branches) {
    Goal g;
    g.id = static_cast<int>(goals.size());
    g.kind = GoalKind::kBranch;
    g.branchId = br.id;
    g.depth = br.depth;
    g.pathConstraint = br.pathConstraint;
    const auto& d = cm.decisions[static_cast<std::size_t>(br.decision)];
    g.label = d.name + ":" + br.label;
    goals.push_back(std::move(g));
  }
  if (includeConditionGoals) {
    for (const auto& d : cm.decisions) {
      for (std::size_t c = 0; c < d.conditions.size(); ++c) {
        for (const bool polarity : {true, false}) {
          Goal g;
          g.id = static_cast<int>(goals.size());
          g.kind = GoalKind::kCondition;
          g.decisionId = d.id;
          g.condIndex = static_cast<int>(c);
          g.polarity = polarity;
          g.depth = d.depth;
          const expr::ExprPtr lit =
              polarity ? d.conditions[c] : expr::notE(d.conditions[c]);
          g.pathConstraint = expr::andE(d.activation, lit);
          g.label = d.name + ":cond" + std::to_string(c) +
                    (polarity ? "=T" : "=F");
          goals.push_back(std::move(g));
        }
      }
    }
  }
  for (const auto& obj : cm.objectives) {
    Goal g;
    g.id = static_cast<int>(goals.size());
    g.kind = GoalKind::kObjective;
    g.objectiveId = obj.id;
    g.depth = 0;
    g.pathConstraint = expr::andE(obj.activation, obj.cond);
    g.label = obj.name + ":objective";
    goals.push_back(std::move(g));
  }
  if (includeMcdcGoals) {
    for (const auto& d : cm.decisions) {
      if (!d.isBooleanDecision()) continue;
      const std::size_t nc = std::min<std::size_t>(d.conditions.size(), 64);
      for (std::size_t c = 0; c < nc; ++c) {
        Goal g;
        g.id = static_cast<int>(goals.size());
        g.kind = GoalKind::kMcdcPair;
        g.decisionId = d.id;
        g.condIndex = static_cast<int>(c);
        g.depth = d.depth;
        // Reaching the condition true while the decision is active is the
        // anchor; the generator then flips the condition with siblings
        // pinned (unique-cause partner).
        g.pathConstraint = expr::andE(d.activation, d.conditions[c]);
        g.label = d.name + ":mcdc" + std::to_string(c);
        goals.push_back(std::move(g));
      }
    }
  }
  return goals;
}

sim::InputVector inputsFromEnv(const compile::CompiledModel& cm,
                               const expr::Env& model) {
  sim::InputVector in;
  in.reserve(cm.inputs.size());
  for (const auto& iv : cm.inputs) {
    if (!model.has(iv.info.id)) {
      throw expr::EvalError("solver model for '" + cm.name +
                            "' is missing a binding for input '" +
                            iv.info.name + "'");
    }
    in.push_back(model.get(iv.info.id).castTo(iv.info.type));
  }
  return in;
}

bool goalCovered(const coverage::CoverageTracker& cov, const Goal& goal) {
  switch (goal.kind) {
    case GoalKind::kBranch:
      return cov.branchCovered(goal.branchId);
    case GoalKind::kCondition:
      return cov.conditionSeen(goal.decisionId, goal.condIndex,
                               goal.polarity);
    case GoalKind::kMcdcPair:
      return cov.mcdcDemonstrated(goal.decisionId, goal.condIndex);
    case GoalKind::kObjective:
      return cov.objectiveCovered(goal.objectiveId);
  }
  return false;
}

PruneResult pruneUnreachableGoals(const compile::CompiledModel& cm,
                                  std::vector<Goal>& goals,
                                  coverage::CoverageTracker& tracker) {
  PruneResult result;
  result.exclusions = lint::findUnreachableGoals(cm);
  if (result.exclusions.empty()) return result;
  tracker.applyExclusions(result.exclusions);

  const std::set<int> deadBranches(result.exclusions.branches.begin(),
                                   result.exclusions.branches.end());
  const std::set<int> deadObjectives(result.exclusions.objectives.begin(),
                                     result.exclusions.objectives.end());
  std::set<std::tuple<int, int, bool>> deadPolarities;
  for (const auto& s : result.exclusions.conditionSlots) {
    deadPolarities.emplace(s.decision, s.cond, s.polarity);
  }
  std::set<std::pair<int, int>> deadMcdc;
  for (const auto& s : result.exclusions.mcdcSlots) {
    deadMcdc.emplace(s.decision, s.cond);
  }

  const auto isDead = [&](const Goal& g) {
    switch (g.kind) {
      case GoalKind::kBranch:
        return deadBranches.count(g.branchId) > 0;
      case GoalKind::kCondition:
        return deadPolarities.count(
                   {g.decisionId, g.condIndex, g.polarity}) > 0;
      case GoalKind::kMcdcPair:
        return deadMcdc.count({g.decisionId, g.condIndex}) > 0;
      case GoalKind::kObjective:
        return deadObjectives.count(g.objectiveId) > 0;
    }
    return false;
  };

  std::vector<Goal> kept;
  kept.reserve(goals.size());
  for (auto& g : goals) {
    if (isDead(g)) {
      result.prunedLabels.push_back(g.label);
      ++result.removed;
    } else {
      g.id = static_cast<int>(kept.size());
      kept.push_back(std::move(g));
    }
  }
  goals = std::move(kept);
  return result;
}

CoverageSummary summarize(const coverage::CoverageTracker& cov) {
  CoverageSummary s;
  s.decision = cov.decisionCoverage();
  s.condition = cov.conditionCoverage();
  s.mcdc = cov.mcdcCoverage();
  // branchCounts() is exclusion-consistent: the pair always reduces to
  // s.decision, even when an excluded branch was covered anyway.
  std::tie(s.coveredBranches, s.totalBranches) = cov.branchCounts();
  return s;
}

coverage::CoverageTracker replaySuite(const compile::CompiledModel& cm,
                                      const std::vector<TestCase>& tests,
                                      const coverage::Exclusions& excl,
                                      int batch) {
  coverage::CoverageTracker cov(cm);
  if (!excl.empty()) cov.applyExclusions(excl);
  const std::size_t lanes =
      std::min<std::size_t>(batch > 1 ? static_cast<std::size_t>(batch) : 1,
                            tests.size());
  if (lanes <= 1) {
    sim::Simulator simulator(cm);
    for (const auto& t : tests) {
      simulator.reset();
      for (const auto& step : t.steps) {
        (void)simulator.step(step, &cov);
      }
    }
    return cov;
  }

  // Batched path: a work queue of tests over B lockstep lanes. Each lane
  // replays one test from reset and picks up the next when it finishes;
  // lanes with nothing left are fed a zero input vector and simply not
  // recorded. Tests drift out of phase as lengths differ, but every
  // tracker call is a set union, so the result matches the scalar loop.
  const int B = static_cast<int>(lanes);
  sim::BatchSimulator bsim(cm, B);
  constexpr std::size_t kIdle = static_cast<std::size_t>(-1);
  const sim::InputVector idleInput(cm.inputs.size(), expr::Scalar::i(0));
  std::vector<std::size_t> laneTest(lanes, kIdle);
  std::vector<std::size_t> laneStep(lanes, 0);
  std::size_t next = 0;
  int active = 0;
  auto feed = [&](int l) {
    // Zero-step tests record nothing under the scalar loop; skip them.
    while (next < tests.size() && tests[next].steps.empty()) ++next;
    if (next >= tests.size()) {
      laneTest[static_cast<std::size_t>(l)] = kIdle;
      return false;
    }
    laneTest[static_cast<std::size_t>(l)] = next++;
    laneStep[static_cast<std::size_t>(l)] = 0;
    bsim.reset(l);
    return true;
  };
  for (int l = 0; l < B; ++l) active += feed(l) ? 1 : 0;
  std::vector<const sim::InputVector*> in(lanes);
  sim::StepObservationBatch obs;  // pooled: shaped once, reused per step
  while (active > 0) {
    for (int l = 0; l < B; ++l) {
      const std::size_t t = laneTest[static_cast<std::size_t>(l)];
      in[static_cast<std::size_t>(l)] =
          t == kIdle ? &idleInput
                     : &tests[t].steps[laneStep[static_cast<std::size_t>(l)]];
    }
    bsim.stepBatch(in, obs);
    for (int l = 0; l < B; ++l) {
      const std::size_t t = laneTest[static_cast<std::size_t>(l)];
      if (t == kIdle) continue;
      (void)sim::recordObservation(cm, obs, l, cov);
      if (++laneStep[static_cast<std::size_t>(l)] >= tests[t].steps.size()) {
        if (!feed(l)) --active;
      }
    }
  }
  return cov;
}

}  // namespace stcg::gen
