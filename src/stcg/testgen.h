// Common test-generation vocabulary shared by STCG and the baselines:
// goals, options, test cases, events, results, and the Generator interface.
//
// A "goal" generalizes the paper's BranchList entry: branch goals are the
// paper's model branches (Def. 1); condition goals additionally target each
// atomic condition's two polarities (SLDV derives the same objectives for
// Condition/MCDC criteria), letting every generator chase Condition
// Coverage explicitly. Goal path constraints are solver-ready expressions
// over (inputs, state leaves).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "compile/compiled_model.h"
#include "coverage/coverage.h"
#include "sim/simulator.h"
#include "solver/local_search.h"
#include "solver/solver.h"
#include "util/rng.h"

namespace stcg::gen {

enum class GoalKind { kBranch, kCondition, kMcdcPair, kObjective };

struct Goal {
  int id = -1;
  GoalKind kind = GoalKind::kBranch;
  int branchId = -1;    // kBranch
  int decisionId = -1;  // kCondition / kMcdcPair
  int condIndex = -1;   // kCondition / kMcdcPair
  int objectiveId = -1; // kObjective
  bool polarity = false;
  int depth = 0;
  expr::ExprPtr pathConstraint;
  std::string label;
};

/// Build the goal list for a model: one goal per branch, plus (optionally)
/// one per condition polarity, plus (optionally) one MCDC-pair obligation
/// per condition of each boolean decision.
[[nodiscard]] std::vector<Goal> buildGoals(const compile::CompiledModel& cm,
                                           bool includeConditionGoals,
                                           bool includeMcdcGoals = false);

/// Whether `goal` is already satisfied according to `cov`.
[[nodiscard]] bool goalCovered(const coverage::CoverageTracker& cov,
                               const Goal& goal);

/// Extract the input vector from a solver model (one scalar per declared
/// input, cast to its declared type). Throws expr::EvalError naming the
/// missing input when the model lacks a binding — solver models are
/// supposed to cover all variables, but a typed error beats NDEBUG UB
/// when an engine breaks that contract.
[[nodiscard]] sim::InputVector inputsFromEnv(const compile::CompiledModel& cm,
                                             const expr::Env& model);

/// Result of the dead-goal pre-verification pass (lint reachability).
struct PruneResult {
  coverage::Exclusions exclusions;
  std::vector<std::string> prunedLabels;  // label per removed goal
  int removed = 0;
};

/// Prove coverage goals statically unreachable (via the lint subsystem's
/// three-layer proof), remove them from `goals` (ids renumbered to stay
/// equal to the index), and exclude them from `tracker`'s coverage
/// denominators. The returned exclusions must also be applied to any
/// replay tracker so reported percentages match (see replaySuite).
[[nodiscard]] PruneResult pruneUnreachableGoals(
    const compile::CompiledModel& cm, std::vector<Goal>& goals,
    coverage::CoverageTracker& tracker);

struct GenOptions {
  std::int64_t budgetMillis = 3000;  // total generation budget
  std::uint64_t seed = 1;
  /// Parallelism of the state-aware solve loop (STCG only): the
  /// goal × state-tree-node grid of each round fans out across this many
  /// lanes. 1 = sequential (no threads spawned); 0 = hardware
  /// concurrency. Output is bit-identical for a fixed seed regardless of
  /// the value, provided the time budgets do not bind (see DESIGN.md,
  /// "Parallel state-aware solving").
  int jobs = 1;
  solver::SolveOptions solver{};     // per-query solver budget
  /// Engine for state-aware queries (paper future work: "incorporating
  /// more constraint solvers"). kPortfolio adds branch-distance local
  /// search behind the box solver for nonlinear residuals.
  solver::SolverKind solverKind = solver::SolverKind::kBox;
  /// Simulation engine for dynamic execution. kTape (default) runs the
  /// flattened instruction tape; kTree keeps the recursive Evaluator as a
  /// semantic oracle. Results are bit-identical either way.
  sim::EvalEngine simEngine = sim::EvalEngine::kTape;
  /// Lane width for batched lockstep tape execution (SoA lanes, see
  /// DESIGN.md §5f): the random-replay expansion and final suite replay
  /// run this many trajectories per tape pass (tape engine only). Output
  /// is bit-identical for any value; <= 1 disables batching.
  int batch = 8;
  int randomSeqLen = 24;             // N of Algorithm 2
  int maxTreeNodes = 4096;
  int maxUnrollDepth = 3;            // SLDV-like unrolling bound
  int randomMaxSeqLen = 40;          // SimCoTest-like sequence length cap

  // Ablation switches (STCG only).
  bool sortGoalsByDepth = true;
  bool useRandomFallback = true;
  bool solveOnAllNodes = true;  // false: solve on the root state only
  bool includeConditionGoals = true;
  /// Probability that a step of a random fallback sequence draws a fresh
  /// domain-random input instead of a solved-library input. The paper's
  /// Discussion section proposes exactly this compensation ("constructing
  /// a random input sequence using only previously solved inputs may not
  /// reach some branches, which can be compensated by attaching random
  /// methods"); 0.0 reproduces Algorithm 2 verbatim.
  double freshRandomProbability = 0.5;
  /// Run the lint reachability pass up front and drop goals whose path
  /// constraints are provably unreachable — the paper's Discussion
  /// suggestion for the "perpetually false" branches it kept re-solving.
  /// Pruned goals are skipped by the solve loop AND excluded from the
  /// coverage denominators (a suite cannot be blamed for logic no input
  /// sequence can reach), so reported percentages reflect satisfiable
  /// goals only.
  bool pruneProvablyDead = false;

  // Campaign checkpointing (STCG only; see stcg/campaign.h).
  /// When non-empty, the campaign state is periodically serialized here
  /// (atomic write: temp file + rename). Empty disables checkpointing.
  std::string checkpointPath;
  /// Save a checkpoint every this many completed rounds (>= 1). Only
  /// meaningful with a non-empty checkpointPath.
  int checkpointEveryRounds = 1;
  /// Resume from checkpointPath instead of starting fresh. The file must
  /// have been saved for the same model and the same trajectory-relevant
  /// options (seed, solver budgets, sequence length, tree cap, ablation
  /// switches) — jobs/batch/simEngine/budgetMillis/maxRounds may differ.
  /// A missing/corrupt/stale file throws expr::EvalError.
  bool resume = false;
  /// Stop after this many rounds (0 = unlimited). Unlike budgetMillis,
  /// the round cap is deterministic: two runs with the same seed and the
  /// same maxRounds produce bit-identical results even on a loaded
  /// machine, which is what the kill-and-resume fuzz harness compares.
  int maxRounds = 0;
};

/// Validate the user-settable numeric knobs at the library boundary:
/// `jobs` and `batch` must lie in [0, 4096]. Throws expr::EvalError
/// naming the offending option and its value — every Generator::generate
/// implementation calls this first, so out-of-range values from a CLI or
/// embedding fail with a typed error instead of a thread explosion or a
/// negative-size allocation.
void validateGenOptions(const GenOptions& options);

enum class TestOrigin { kSolved, kRandom };

struct TestCase {
  std::vector<sim::InputVector> steps;
  double timestampSec = 0.0;  // when it was produced, since run start
  TestOrigin origin = TestOrigin::kSolved;
  std::string goalLabel;
};

struct CoverageSummary {
  double decision = 0.0;
  double condition = 0.0;
  double mcdc = 0.0;
  int coveredBranches = 0;
  int totalBranches = 0;
};

[[nodiscard]] CoverageSummary summarize(const coverage::CoverageTracker& cov);

/// One coverage-progress sample, for Fig. 4-style curves.
struct GenEvent {
  double timeSec = 0.0;
  double decisionCoverage = 0.0;
  TestOrigin origin = TestOrigin::kSolved;
};

struct GenStats {
  int solveCalls = 0;
  int solveSat = 0;
  int solveUnsat = 0;
  int solveUnknown = 0;
  int stepsExecuted = 0;
  int treeNodes = 0;
  int randomSequences = 0;
  int goalsPruned = 0;  // goals skipped by dead-branch pre-verification
};

struct GenResult {
  std::string toolName;
  std::vector<TestCase> tests;
  CoverageSummary coverage;  // from replaying the produced suite from reset
  std::vector<GenEvent> events;
  GenStats stats;
};

class Generator {
 public:
  virtual ~Generator() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual GenResult generate(const compile::CompiledModel& cm,
                                           const GenOptions& options) = 0;
};

/// Replay a test suite from reset and return the resulting tracker (the
/// paper's "fair comparison via Signal Builder" measurement). Exclusions
/// from the pruning pass are applied to the fresh tracker so replayed
/// percentages use the same denominators as generation. `batch` > 1
/// replays up to that many tests in lockstep lanes through the batched
/// tape executor; the tracker is identical either way because every
/// recording call is a set union (DESIGN.md §5f).
[[nodiscard]] coverage::CoverageTracker replaySuite(
    const compile::CompiledModel& cm, const std::vector<TestCase>& tests,
    const coverage::Exclusions& excl = {}, int batch = 1);

}  // namespace stcg::gen
