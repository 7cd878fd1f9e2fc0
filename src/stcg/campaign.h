// The resumable campaign core: the STCG generation loop restructured into
// round-granular phases over an explicit, serializable CampaignState.
//
// StcgGenerator::generate() used to be one run-to-completion loop whose
// state (state tree, coverage, solved-input library, RNG engines, stats)
// lived in scattered members and stack locals, so a campaign could only
// exist for the lifetime of one process. Campaign splits that loop into
//   solveRound()        — Algorithm 1: one goal × tree-node solve round
//   randomExpandRound() — Algorithm 2 fallback: random replay expansion
// and gathers every piece of stochastic or coverage-relevant data into
// CampaignState, a plain value that checkpoint.h can serialize. The
// invariant that makes kill-and-resume bit-identical: nothing consumed by
// a future round lives outside CampaignState. Everything else the runner
// holds (compiled model, goal list, simulators, thread pool, solver
// scratch) is deterministically reconstructible from (model, options).
//
// All campaign-lifetime randomness flows through counter-based
// CounterStream cursors (util/rng.h), so "the RNG position" is a pair of
// integers per stream — an mt19937 engine position, by contrast, could
// not be persisted. Solve-task seeds were already counter-keyed by
// (round, goal, node); the MCDC-pair stream is cursor-indexed the same
// way, so a resumed process replays the exact seed sequence.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/batch_simulator.h"
#include "stcg/query_cache.h"
#include "stcg/state_tree.h"
#include "stcg/testgen.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace stcg::gen {

/// Per-step trace hook (human-readable lines; see StcgGenerator::setTrace).
using TraceFn = void (*)(const std::string& line, void* user);

/// Everything a campaign carries from one round to the next — the value a
/// checkpoint persists. No stochastic or coverage-relevant data may live
/// outside this struct between rounds (the resume-equivalence tests in
/// tests/test_campaign.cpp enforce the observable consequences).
struct CampaignState {
  CampaignState(const compile::CompiledModel& cm, sim::StateSnapshot root)
      : tree(std::move(root)), tracker(cm) {}

  /// Solve rounds completed. Keys the counter-based per-task solver seed
  /// streams, so it must survive a resume exactly.
  int round = 0;
  /// Cursor of the random-fallback sequence stream: sequence s draws its
  /// start node and per-step inputs from child s, independent of lane
  /// width and of how much earlier sequences consumed.
  CounterStream randomStream;
  /// Cursor of the MCDC-pair solver-seed stream (one child per pair
  /// attempt that reaches the solver).
  CounterStream mcdcStream;
  /// Wall-clock milliseconds consumed by previous processes of this
  /// campaign; added to event/test timestamps and subtracted from the
  /// remaining budget on resume.
  std::int64_t elapsedMillisBefore = 0;
  /// True once a solve round came up dry with the random fallback
  /// disabled — the campaign is over even though goals remain.
  bool fallbackExhausted = false;

  StateTree tree;
  coverage::CoverageTracker tracker;
  coverage::Exclusions exclusions;  // proven-unreachable goals
  std::vector<sim::InputVector> library;  // the solved-input library
  std::vector<TestCase> tests;
  std::vector<GenEvent> events;
  GenStats stats;
};

/// One campaign of the STCG generator, advanced round by round. The
/// driving loop is:
///
///   Campaign c(cm, opt);
///   if (resuming) c.restore(opt.checkpointPath);
///   while (!c.finished()) {
///     c.runRound();
///     if (c.checkpointDue()) c.saveCheckpoint(opt.checkpointPath);
///   }
///   GenResult r = c.finish();
///
/// restore() throws expr::EvalError on a missing, corrupt, truncated or
/// stale (different model / trajectory-relevant options) checkpoint;
/// state is unchanged on throw.
class Campaign {
 public:
  Campaign(const compile::CompiledModel& cm, const GenOptions& opt,
           TraceFn trace = nullptr, void* traceUser = nullptr);

  /// Budget exhausted, all goals covered, round cap reached, or the solve
  /// grid ran dry with the random fallback disabled.
  [[nodiscard]] bool finished() const;

  /// One round: a state-aware solve round, then dynamic execution of the
  /// solved input (plus MCDC-pair completion) or a random-fallback
  /// expansion when nothing solved.
  void runRound();

  /// Replay the produced suite and assemble the final GenResult. Moves
  /// the tests/events out of the campaign state; call once, at the end.
  [[nodiscard]] GenResult finish();

  /// Whether `opt.checkpointEveryRounds` rounds have completed since the
  /// last saveCheckpoint() (always false without a checkpoint path).
  [[nodiscard]] bool checkpointDue() const;

  /// Atomically (write-temp + rename) persist the campaign state.
  /// Throws expr::EvalError on I/O failure.
  void saveCheckpoint(const std::string& path);

  /// Replace the campaign state with a checkpoint previously saved for
  /// the same model and trajectory-relevant options, and rebase the
  /// budget/timestamps by the recorded elapsed time.
  void restore(const std::string& path);

  [[nodiscard]] const CampaignState& state() const { return cs_; }
  [[nodiscard]] CampaignState& mutableState() { return cs_; }
  [[nodiscard]] const std::vector<Goal>& goals() const { return goals_; }
  /// Committed solve cells answered as infeasible (folded or UNSAT) from
  /// the one-step query cache — each one a `substitute` (and, unless it
  /// folded, a solver call) not made.
  [[nodiscard]] long long memoHits() const { return memoHits_; }
  /// Committed solve cells answered SAT from the cache (a seed-free model).
  [[nodiscard]] long long satReplays() const { return satReplays_; }
  /// MCDC pair attempts answered from the cache, whatever the outcome.
  [[nodiscard]] long long mcdcPairReplays() const { return mcdcPairReplays_; }

 private:
  struct SolveHit {
    int nodeId = -1;
    int goalIdx = -1;
    sim::InputVector input;
  };
  /// One cell of the goal × node solve grid of a round.
  struct SolveTask {
    int goalIdx = -1;
    int nodeId = -1;
  };
  /// What one one-step query came to (see solveOneStep()).
  struct OneStep {
    solver::SolveStatus status = solver::SolveStatus::kUnknown;
    bool folded = false;     // residual folded to const false; no solver call
    bool seedFree = false;   // SolveResult::seedFree of the solver call
    sim::InputVector input;  // populated on SAT
  };
  /// What a worker found for one cell (see solveRound()).
  struct TaskOutcome {
    bool ran = false;
    bool cached = false;  // outcome replayed from cache_
    OneStep step;
    std::string traceLine;
  };

  void trace(const std::string& line);
  [[nodiscard]] bool allGoalsCovered() const;
  [[nodiscard]] double now() const;

  /// The one-step query of a solve cell and of an MCDC pair: substitute
  /// `state` into `query`; a residual that folds to false is UNSAT with
  /// no solver call; otherwise solve it over the inputs, seeded from the
  /// Rng `seedRng()` returns (called only then), and turn a model into
  /// an input vector. Thread-safe when `seedRng` is.
  template <class SeedRng>
  [[nodiscard]] OneStep solveOneStep(const expr::ExprPtr& query,
                                     const expr::Env& state,
                                     SeedRng&& seedRng) const;

  // Algorithm 1: one solve round over the (uncovered goal × node) grid.
  [[nodiscard]] std::optional<SolveHit> solveRound();
  void runSolveTask(const SolveTask& t, TaskOutcome& out);

  // Algorithm 2: dynamic execution.
  void executeSequence(int startNode, const std::vector<sim::InputVector>& seq,
                       TestOrigin origin, const std::string& goalLabel);
  /// Algorithm 2's per-step commit, the one routine every executor's
  /// steps go through (executeSequence and each lane of
  /// randomExecutionBatch): count the step, append `input` to `executed`,
  /// move `cur` to the tree node holding `nextState` — adding it as a
  /// child of `cur` while the tree is below maxTreeNodes — and, when
  /// `stepResult` found new coverage, emit a test (the path to
  /// `startNode` + `executed`) and its GenEvent. Returns true when the
  /// tree grew.
  bool commitStep(int startNode, int& cur, const sim::InputVector& input,
                  const sim::StateSnapshot& nextState,
                  const sim::StepResult& stepResult,
                  std::vector<sim::InputVector>& executed, TestOrigin origin,
                  const std::string& label);
  void tryMcdcPair(const SolveHit& hit, const Goal& goal);

  struct ReplayPlan {
    int start = -1;
    std::vector<sim::InputVector> seq;
  };
  [[nodiscard]] ReplayPlan drawReplayPlan(std::uint64_t seqIndex);
  /// Start the random sequence `plan` drawn at the stream cursor: count
  /// it, advance the cursor, trace it.
  void beginRandomSequence(const ReplayPlan& plan);
  void randomExpandRound();
  // One random sequence through executeSequence (the scalar engines, and
  // the reference the batched expansion must reproduce).
  void randomExecution();
  // opt_.batch random sequences stepped in lockstep lanes, then committed
  // lane by lane through the same recorder and commitStep as
  // randomExecution, so the result is the same as that many scalar calls.
  void randomExecutionBatch();

  const compile::CompiledModel& cm_;
  const GenOptions& opt_;
  Rng rngRoot_;  // never drawn from directly; streams fork below
  std::vector<expr::VarInfo> inputInfos_;
  sim::Simulator sim_;
  /// Lockstep lanes for the batched replay expansion; constructed on the
  /// first randomExecutionBatch() call (never when opt_.batch <= 1).
  std::optional<sim::BatchSimulator> bsim_;
  // Pooled per-step observation batches for randomExecutionBatch():
  // obsPool_[i] holds step i of every lane, reused across calls. Each
  // committed lane step is recorded from here by sim::recordObservation
  // (the recorder every engine shares) and committed by commitStep.
  std::vector<sim::StepObservationBatch> obsPool_;
  Deadline deadline_;
  Stopwatch watch_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<Goal> goals_;
  std::vector<int> order_;
  OneStepCache cache_;
  long long memoHits_ = 0;
  long long satReplays_ = 0;
  long long mcdcPairReplays_ = 0;
  int lastCheckpointRound_ = 0;
  CampaignState cs_;
  TraceFn trace_;
  void* traceUser_;
};

}  // namespace stcg::gen
