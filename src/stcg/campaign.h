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

/// Solve cells proven infeasible, keyed by (goal, the state projected onto
/// the state slots the goal's path constraint reads). Such a cell's
/// outcome is a fact about the model, not about the search: the residual
/// `substitute` builds depends only on the projected state, state folding
/// is deterministic, and BoxSolver reports UNSAT only when sound HC4
/// refuted every box of a box tree that does not depend on the sampling
/// seed (LocalSearchSolver's one UNSAT is a constant-false goal). So a
/// cell whose key matches a recorded one has the recorded outcome, and
/// the solve round replays it without substituting or solving.
///
/// Keys compare by type and payload bits (-0.0 and 0.0 differ; NaN
/// matches itself) and live as flat 64-bit words in one arena. Campaign
/// inserts only from its single-threaded commit loop, so lookups from
/// the parallel scan only read. The memo is a cache: it is not
/// checkpointed (a resumed process starts with it empty) and it changes
/// no campaign output.
class UnsatMemo {
 public:
  UnsatMemo(const compile::CompiledModel& cm, const std::vector<Goal>& goals)
      : cm_(&cm), goals_(&goals) {}

  /// The recorded outcome of cell (goal, state): true if the residual
  /// folded to false, false if the solver proved it UNSAT; nullopt if no
  /// such cell was recorded. Const and safe from many threads while no
  /// insert() runs.
  [[nodiscard]] std::optional<bool> find(int goalIdx,
                                         const sim::StateSnapshot& s) const;

  /// Record cell (goal, state) as infeasible (no-op when present).
  void insert(int goalIdx, const sim::StateSnapshot& s, bool folded);

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  /// Encode the key of (goal, s) into `key`; returns its hash. Requires
  /// reads_[goalIdx] to be computed.
  std::uint64_t encode(int goalIdx, const sim::StateSnapshot& s,
                       std::vector<std::uint64_t>& key) const;
  /// table_ position holding `key`, or the empty position it would take.
  [[nodiscard]] std::size_t probe(const std::vector<std::uint64_t>& key,
                                  std::uint64_t hash) const;

  const compile::CompiledModel* cm_;
  const std::vector<Goal>* goals_;
  /// Per goal: ascending state indices its path constraint reads, filled
  /// by the first insert() for that goal (find() misses until then).
  std::vector<std::vector<std::uint32_t>> reads_;
  std::vector<std::uint8_t> readsReady_;
  /// Every key, back to back; a key's first word holds its length.
  std::vector<std::uint64_t> arena_;
  /// Open addressing: 0 = empty, else (arena offset + 1) | folded << 31.
  std::vector<std::uint32_t> table_;
  std::size_t size_ = 0;
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
  /// Committed solve cells answered from the proven-UNSAT memo — each one
  /// a `substitute` (and, unless it folded, a solver call) not made.
  [[nodiscard]] long long memoHits() const { return memoHits_; }

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
  /// What a worker found for one cell (see solveRound()).
  struct TaskOutcome {
    bool ran = false;
    bool folded = false;  // residual folded to const false; no solver call
    bool memoHit = false;  // outcome replayed from memo_
    solver::SolveStatus status = solver::SolveStatus::kUnknown;
    sim::InputVector input;  // populated on SAT
    std::string traceLine;
  };

  /// What one one-step query came to (see solveOneStep()).
  struct OneStep {
    solver::SolveStatus status = solver::SolveStatus::kUnknown;
    bool folded = false;     // residual folded to const false; no solver call
    sim::InputVector input;  // populated on SAT
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
  UnsatMemo memo_;
  long long memoHits_ = 0;
  int lastCheckpointRound_ = 0;
  CampaignState cs_;
  TraceFn trace_;
  void* traceUser_;
};

}  // namespace stcg::gen
