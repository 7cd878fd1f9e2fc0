#include "stcg/campaign.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "expr/builder.h"
#include "expr/subst.h"
#include "stcg/checkpoint.h"

namespace stcg::gen {

namespace {

/// Bind a state snapshot into an Env keyed by the compiled state leaves.
expr::Env stateEnv(const compile::CompiledModel& cm,
                   const sim::StateSnapshot& s) {
  expr::Env env;
  env.reserve(cm.varCount());
  for (std::size_t i = 0; i < cm.states.size(); ++i) {
    const auto& sv = cm.states[i];
    if (sv.width == 1) {
      env.set(sv.id, s[i].scalar());
    } else {
      env.setArray(sv.id, s[i].elems());
    }
  }
  return env;
}

/// Named RNG streams forked off the run seed. Every stochastic phase owns
/// a stream: draws in one phase can never shift another phase's sequence,
/// so ablations and repetitions stay independently seeded — and every
/// stream's position is a plain counter (CampaignState), so a checkpoint
/// restores all of them from integers.
enum RngStream : std::uint64_t {
  kSolveStream = 1,   // per-task solver seeds (counter-based per cell)
  kMcdcStream = 2,    // MCDC-pair completion solver seeds
  kRandomStream = 3,  // random-fallback node/input/library draws
};

/// Counter-based stream id for one cell of one solve round. Depends only
/// on the cell coordinates, never on thread count or execution order.
std::uint64_t taskStream(int round, int goalIdx, int nodeId) {
  std::uint64_t h = splitmix64(static_cast<std::uint64_t>(round));
  h = splitmix64(h ^ static_cast<std::uint64_t>(goalIdx));
  return splitmix64(h ^ static_cast<std::uint64_t>(nodeId));
}

/// Cells per pool lane in one chunk of the solve-round scan: enough per
/// parallelFor to amortise its barrier, few enough that a round whose
/// winner sits near the front of the grid solves little past it.
constexpr std::size_t kScanCellsPerLane = 16;

}  // namespace

Campaign::Campaign(const compile::CompiledModel& cm, const GenOptions& opt,
                   TraceFn trace, void* traceUser)
    : cm_(cm),
      opt_(opt),
      rngRoot_(opt.seed),
      inputInfos_(cm.inputInfos()),
      sim_(cm, opt.simEngine),
      deadline_(Deadline::afterMillis(opt.budgetMillis)),
      pool_(std::make_unique<ThreadPool>(
          opt.jobs <= 0 ? ThreadPool::hardwareThreads() : opt.jobs)),
      cache_(cm, goals_),
      cs_(cm, sim_.snapshot()),
      trace_(trace),
      traceUser_(traceUser) {
  cs_.randomStream = CounterStream(rngRoot_.fork(kRandomStream));
  cs_.mcdcStream = CounterStream(rngRoot_.fork(kMcdcStream));
  goals_ = buildGoals(cm, opt.includeConditionGoals,
                      /*includeMcdcGoals=*/opt.includeConditionGoals);
  if (opt.pruneProvablyDead) {
    // Dead-goal pre-verification (paper Discussion): the lint
    // reachability pass proves goals unreachable from every reachable
    // state; they are removed from the goal list and excluded from the
    // coverage denominators.
    PruneResult pr = pruneUnreachableGoals(cm, goals_, cs_.tracker);
    cs_.exclusions = std::move(pr.exclusions);
    cs_.stats.goalsPruned = pr.removed;
    for (const auto& label : pr.prunedLabels) {
      this->trace("pruned provably-dead goal " + label);
    }
  }
  order_.resize(goals_.size());
  for (std::size_t i = 0; i < order_.size(); ++i) {
    order_[i] = static_cast<int>(i);
  }
  if (opt.sortGoalsByDepth) {
    std::stable_sort(order_.begin(), order_.end(), [&](int a, int b) {
      return goals_[static_cast<std::size_t>(a)].depth <
             goals_[static_cast<std::size_t>(b)].depth;
    });
  }
}

void Campaign::trace(const std::string& line) {
  if (trace_ != nullptr) trace_(line, traceUser_);
}

double Campaign::now() const {
  return watch_.elapsedSeconds() +
         static_cast<double>(cs_.elapsedMillisBefore) / 1000.0;
}

bool Campaign::allGoalsCovered() const {
  for (const auto& g : goals_) {
    if (!goalCovered(cs_.tracker, g)) return false;
  }
  return true;
}

bool Campaign::finished() const {
  if (deadline_.expired() || cs_.fallbackExhausted) return true;
  if (opt_.maxRounds > 0 && cs_.round >= opt_.maxRounds) return true;
  return allGoalsCovered();
}

void Campaign::runRound() {
  // One iteration of the paper's main loop: Algorithm 1, then Algorithm 2.
  const auto hit = solveRound();
  if (hit.has_value()) {
    const Goal& goal = goals_[static_cast<std::size_t>(hit->goalIdx)];
    cs_.library.push_back(hit->input);
    executeSequence(hit->nodeId, {hit->input}, TestOrigin::kSolved,
                    goal.label);
    if (goal.kind == GoalKind::kCondition ||
        goal.kind == GoalKind::kMcdcPair) {
      tryMcdcPair(*hit, goal);
    }
  } else if (!opt_.useRandomFallback) {
    cs_.fallbackExhausted = true;
  } else {
    randomExpandRound();
  }
}

GenResult Campaign::finish() {
  GenResult result;
  result.toolName = "STCG";
  result.tests = std::move(cs_.tests);
  result.events = std::move(cs_.events);
  result.stats = cs_.stats;
  result.stats.treeNodes = static_cast<int>(cs_.tree.size());
  const auto replay =
      replaySuite(cm_, result.tests, cs_.exclusions, opt_.batch);
  result.coverage = summarize(replay);
  return result;
}

bool Campaign::checkpointDue() const {
  return !opt_.checkpointPath.empty() && opt_.checkpointEveryRounds > 0 &&
         cs_.round - lastCheckpointRound_ >= opt_.checkpointEveryRounds;
}

void Campaign::saveCheckpoint(const std::string& path) {
  // The serialized elapsed time folds this process's wall clock into the
  // total, so a resume rebases timestamps and the remaining budget; the
  // in-memory value stays untouched (this process keeps running).
  saveCampaignCheckpoint(path, cm_, opt_, cs_,
                         cs_.elapsedMillisBefore + watch_.elapsedMillis());
  lastCheckpointRound_ = cs_.round;
}

void Campaign::restore(const std::string& path) {
  CampaignState fresh(cm_, cs_.tree.node(0).state);
  fresh.randomStream = CounterStream(rngRoot_.fork(kRandomStream));
  fresh.mcdcStream = CounterStream(rngRoot_.fork(kMcdcStream));
  loadCampaignCheckpoint(path, cm_, opt_, goals_.size(), fresh);
  cs_ = std::move(fresh);
  lastCheckpointRound_ = cs_.round;
  watch_.reset();
  deadline_ = Deadline::afterMillis(
      opt_.budgetMillis < 0
          ? opt_.budgetMillis
          : std::max<std::int64_t>(0, opt_.budgetMillis -
                                          cs_.elapsedMillisBefore));
}

// ----- Algorithm 1: state-aware solving ------------------------------------
//
// Each round scans the grid of (uncovered goal × tree node) cells not
// yet attempted, in the order the paper's sequential scan visits them,
// and stops at the first SAT cell. The scan is lazy: each goal's node
// loop starts at the tree's attempted-prefix cursor for that goal, and
// cells are emitted in grid order in chunks of kScanCellsPerLane cells
// per pool lane. Each chunk fans across the pool; the scan stops after
// the first chunk that holds a SAT cell or a cell the deadline kept from
// running, so a round's cost tracks the cells solved, not the tree size.
//
// Every cell is hermetic: it reads only immutable round state (compiled
// model, node snapshots, goal expressions) and draws its solver seed
// from a counter-based stream keyed by (round, goal, node). After the
// scan the coordinator commits, in grid order, exactly the prefix the
// sequential scan would have visited: every cell before the lowest SAT
// cell, plus that cell. Speculative results past the winner are
// discarded — never marked attempted, never counted — so tree, tracker,
// stats, and trace are bit-identical for any jobs value. Marks are not
// committed between chunks: marking a cell also marks its (state-hash,
// goal) pair, which could drop a later cell the grid still holds.
std::optional<Campaign::SolveHit> Campaign::solveRound() {
  ++cs_.round;
  const std::size_t nodeCount = opt_.solveOnAllNodes ? cs_.tree.size() : 1;
  // Lazy grid cursor: the next goal in order_, and the current goal's
  // next node (nodeCount once the goal is exhausted).
  std::size_t nextGoal = 0;
  int goalIdx = -1;
  std::size_t nodeId = nodeCount;
  std::vector<SolveTask> tasks;
  const auto emit = [&](std::size_t want) {
    while (want > 0) {
      if (nodeId >= nodeCount) {
        while (nextGoal < order_.size() &&
               goalCovered(cs_.tracker,
                           goals_[static_cast<std::size_t>(
                               order_[nextGoal])])) {
          ++nextGoal;
        }
        if (nextGoal == order_.size()) return;
        goalIdx = order_[nextGoal++];
        nodeId = static_cast<std::size_t>(cs_.tree.attemptedPrefix(goalIdx));
        continue;
      }
      const int nid = static_cast<int>(nodeId++);
      if (cs_.tree.isAttempted(nid, goalIdx)) continue;
      tasks.push_back(SolveTask{goalIdx, nid});
      --want;
    }
  };

  const std::size_t chunk =
      kScanCellsPerLane * static_cast<std::size_t>(pool_->threadCount());
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<TaskOutcome> outcomes;
  // Lowest grid index that solved SAT so far; cells past it are skipped
  // (their work would be discarded by the commit rule anyway).
  std::atomic<std::size_t> winner{kNone};
  for (;;) {
    const std::size_t begin = tasks.size();
    emit(chunk);
    if (tasks.size() == begin) break;
    outcomes.resize(tasks.size());
    pool_->parallelFor(tasks.size() - begin, [&](std::size_t k) {
      const std::size_t i = begin + k;
      if (i > winner.load(std::memory_order_acquire)) return;
      if (deadline_.expired()) return;
      runSolveTask(tasks[i], outcomes[i]);
      if (!outcomes[i].step.folded &&
          outcomes[i].step.status == solver::SolveStatus::kSat) {
        std::size_t cur = winner.load(std::memory_order_acquire);
        while (i < cur && !winner.compare_exchange_weak(
                              cur, i, std::memory_order_acq_rel,
                              std::memory_order_acquire)) {
        }
      }
    });
    if (winner.load(std::memory_order_acquire) != kNone) break;
    if (std::any_of(outcomes.begin() + static_cast<std::ptrdiff_t>(begin),
                    outcomes.end(),
                    [](const TaskOutcome& o) { return !o.ran; })) {
      break;  // the deadline expired mid-chunk
    }
  }

  const std::size_t w = winner.load(std::memory_order_acquire);
  const std::size_t limit = w == kNone ? tasks.size() : w + 1;
  std::optional<SolveHit> hit;
  for (std::size_t i = 0; i < limit; ++i) {
    TaskOutcome& out = outcomes[i];
    if (!out.ran) break;  // deadline expired before this cell ran
    const SolveTask& t = tasks[i];
    cs_.tree.markAttempted(t.nodeId, t.goalIdx);
    ++cs_.stats.solveCalls;
    const sim::StateSnapshot& state = cs_.tree.node(t.nodeId).state;
    OneStep& r = out.step;
    if (r.folded || r.status == solver::SolveStatus::kUnsat) {
      ++cs_.stats.solveUnsat;
      if (out.cached) {
        ++memoHits_;
      } else {
        cache_.insertCell(t.goalIdx, state,
                          r.folded ? CachedOutcome::kFolded
                                   : CachedOutcome::kUnsat);
      }
    } else if (r.status == solver::SolveStatus::kUnknown) {
      ++cs_.stats.solveUnknown;
    } else {
      ++cs_.stats.solveSat;
      // Running a winning input covers its goal, except an MCDC pair's
      // anchor, which can leave the pair undemonstrated: only those cells
      // come back, so only their models are worth keeping.
      if (out.cached) {
        ++satReplays_;
      } else if (r.seedFree && goals_[static_cast<std::size_t>(t.goalIdx)]
                                       .kind == GoalKind::kMcdcPair) {
        cache_.insertCell(t.goalIdx, state, CachedOutcome::kSat, &r.input);
      }
    }
    if (!out.traceLine.empty()) trace(out.traceLine);
    if (i == w) {
      hit = SolveHit{t.nodeId, t.goalIdx, std::move(r.input)};
    }
  }
  return hit;
}

template <class SeedRng>
Campaign::OneStep Campaign::solveOneStep(const expr::ExprPtr& query,
                                         const expr::Env& state,
                                         SeedRng&& seedRng) const {
  OneStep out;
  // "Bring the model state value as constants into the model."
  const expr::ExprPtr residual = expr::substitute(query, state);
  if (residual->op == expr::Op::kConst && !residual->constVal.toBool()) {
    // Folded to false: this state provably cannot reach the goal in
    // one step.
    out.status = solver::SolveStatus::kUnsat;
    out.folded = true;
    return out;
  }
  solver::SolveOptions so = opt_.solver;
  so.batch = opt_.batch;
  Rng rng = seedRng();
  so.seed = static_cast<std::uint64_t>(rng.uniformInt(1, 1'000'000'000));
  const auto res =
      solver::solveWith(opt_.solverKind, residual, inputInfos_, so);
  out.status = res.status;
  out.seedFree = res.seedFree;
  if (res.sat()) out.input = inputsFromEnv(cm_, res.model);
  return out;
}

/// Solve one grid cell. Hermetic: reads only round-immutable state and
/// writes only `out` — safe to run from any pool lane.
void Campaign::runSolveTask(const SolveTask& t, TaskOutcome& out) {
  out.ran = true;
  const Goal& goal = goals_[static_cast<std::size_t>(t.goalIdx)];
  const bool wantTrace = trace_ != nullptr;
  const sim::StateSnapshot& state = cs_.tree.node(t.nodeId).state;
  OneStep& r = out.step;
  const auto traceAs = [&](const char* verdict) {
    if (wantTrace) {
      out.traceLine =
          "solve " + goal.label + " on S" + std::to_string(t.nodeId) + verdict;
    }
  };

  if (std::optional<CacheHit> known = cache_.findCell(t.goalIdx, state)) {
    out.cached = true;
    r.folded = known->outcome == CachedOutcome::kFolded;
    r.status = known->outcome == CachedOutcome::kSat
                   ? solver::SolveStatus::kSat
                   : solver::SolveStatus::kUnsat;
    r.input = std::move(known->input);
  } else {
    r = solveOneStep(goal.pathConstraint, stateEnv(cm_, state), [&] {
      return rngRoot_.fork(kSolveStream)
          .fork(taskStream(cs_.round, t.goalIdx, t.nodeId));
    });
  }
  switch (r.status) {
    case solver::SolveStatus::kSat:
      traceAs(": SAT");
      break;
    case solver::SolveStatus::kUnsat:
      traceAs(r.folded ? ": infeasible (state-folded)" : ": UNSAT");
      break;
    case solver::SolveStatus::kUnknown:
      traceAs(": UNKNOWN (budget)");
      break;
  }
}

// ----- Algorithm 2: dynamic execution --------------------------------------
void Campaign::executeSequence(int startNode,
                               const std::vector<sim::InputVector>& seq,
                               TestOrigin origin,
                               const std::string& goalLabel) {
  sim_.restore(cs_.tree.node(startNode).state);
  int cur = startNode;
  std::vector<sim::InputVector> executed;
  executed.reserve(seq.size());
  for (const auto& input : seq) {
    const auto res = sim_.step(input, &cs_.tracker);
    commitStep(startNode, cur, input, sim_.state(), res, executed, origin,
               goalLabel);
    if (deadline_.expired()) break;
  }
}

bool Campaign::commitStep(int startNode, int& cur,
                          const sim::InputVector& input,
                          const sim::StateSnapshot& nextState,
                          const sim::StepResult& stepResult,
                          std::vector<sim::InputVector>& executed,
                          TestOrigin origin, const std::string& label) {
  ++cs_.stats.stepsExecuted;
  executed.push_back(input);
  bool grew = false;
  const int existing = cs_.tree.findByState(nextState);
  if (existing >= 0) {
    cur = existing;
  } else if (cs_.tree.size() < static_cast<std::size_t>(opt_.maxTreeNodes)) {
    cur = cs_.tree.addChild(cur, input, nextState);
    grew = true;
    trace("new state S" + std::to_string(cur));
  }
  if (stepResult.foundNewCoverage()) {
    TestCase tc;
    tc.steps = cs_.tree.pathInputs(startNode);
    tc.steps.insert(tc.steps.end(), executed.begin(), executed.end());
    tc.timestampSec = now();
    tc.origin = origin;
    tc.goalLabel = label;
    cs_.tests.push_back(std::move(tc));
    cs_.events.push_back(
        GenEvent{now(), cs_.tracker.decisionCoverage(), origin});
    trace("test case emitted (" +
          std::string(origin == TestOrigin::kSolved ? "solved" : "random") +
          "), DC=" + std::to_string(cs_.tracker.decisionCoverage()));
  }
  return grew;
}

// ----- MCDC pair completion ------------------------------------------------
// After satisfying a condition-polarity goal, immediately look for the
// unique-cause partner on the same state: flip the target condition while
// pinning every sibling condition to the value it just took. Executing
// both inputs from one state records two MCDC vectors differing only in
// the target condition — the same "derived test objectives" SLDV builds
// for the MCDC criterion.
void Campaign::tryMcdcPair(const SolveHit& hit, const Goal& goal) {
  const auto& d = cm_.decisions[static_cast<std::size_t>(goal.decisionId)];
  if (!d.isBooleanDecision() || d.conditions.size() < 2) return;
  if (deadline_.expired()) return;

  // Observed condition values under the solved input. One evaluator for
  // all conditions, so subterms they share evaluate once.
  const sim::StateSnapshot& snapshot = cs_.tree.node(hit.nodeId).state;
  const expr::Env state = stateEnv(cm_, snapshot);
  expr::Env env = state;
  for (std::size_t i = 0; i < cm_.inputs.size(); ++i) {
    env.set(cm_.inputs[i].info.id, hit.input[i]);
  }
  expr::Evaluator ev(env);
  std::vector<bool> bits(d.conditions.size());
  for (std::size_t c = 0; c < d.conditions.size(); ++c) {
    bits[c] = ev.evalScalar(d.conditions[c]).toBool();
  }
  const PairQuery query{goal.decisionId, goal.condIndex, &bits};
  ++cs_.stats.solveCalls;
  // One cursor child per attempt that reaches the solver: the stream
  // position is the attempt ordinal, which the checkpoint persists. A
  // cached outcome that did not fold advances it exactly as the solve
  // would have.
  OneStep r;
  if (std::optional<CacheHit> known = cache_.findPair(query, snapshot)) {
    ++mcdcPairReplays_;
    r.folded = known->outcome == CachedOutcome::kFolded;
    if (!r.folded) (void)cs_.mcdcStream.next();
    r.status = known->outcome == CachedOutcome::kSat
                   ? solver::SolveStatus::kSat
                   : solver::SolveStatus::kUnsat;
    r.input = std::move(known->input);
  } else {
    // Pin every sibling condition to the value it just took and flip the
    // target one.
    std::vector<expr::ExprPtr> pins;
    pins.push_back(d.activation);
    for (std::size_t c = 0; c < d.conditions.size(); ++c) {
      const bool pinTrue =
          static_cast<int>(c) == goal.condIndex ? !bits[c] : bits[c];
      pins.push_back(pinTrue ? d.conditions[c]
                             : expr::notE(d.conditions[c]));
    }
    r = solveOneStep(expr::andAll(pins), state,
                     [&] { return cs_.mcdcStream.next(); });
    if (r.folded || r.status == solver::SolveStatus::kUnsat) {
      cache_.insertPair(query, snapshot,
                        r.folded ? CachedOutcome::kFolded
                                 : CachedOutcome::kUnsat);
    } else if (r.status == solver::SolveStatus::kSat && r.seedFree) {
      cache_.insertPair(query, snapshot, CachedOutcome::kSat, &r.input);
    }
  }
  if (r.status != solver::SolveStatus::kSat) {
    r.status == solver::SolveStatus::kUnsat ? ++cs_.stats.solveUnsat
                                            : ++cs_.stats.solveUnknown;
    return;
  }
  ++cs_.stats.solveSat;
  cs_.library.push_back(r.input);
  executeSequence(hit.nodeId, {std::move(r.input)}, TestOrigin::kSolved,
                  goal.label + "-mcdc-pair");
}

/// Draw sequence number `seqIndex` of the random-fallback stream. Pure
/// in (seqIndex, tree size, library): both the scalar and the batched
/// expansion call this, so a sequence's draws never depend on lane
/// width or on how many draws its predecessors consumed.
Campaign::ReplayPlan Campaign::drawReplayPlan(std::uint64_t seqIndex) {
  Rng seqRng = cs_.randomStream.at(seqIndex);
  ReplayPlan plan;
  plan.start = cs_.tree.randomNode(seqRng);
  plan.seq.reserve(static_cast<std::size_t>(opt_.randomSeqLen));
  for (int i = 0; i < opt_.randomSeqLen; ++i) {
    if (!cs_.library.empty() &&
        !seqRng.chance(opt_.freshRandomProbability)) {
      plan.seq.push_back(cs_.library[seqRng.index(cs_.library.size())]);
    } else {
      // Fresh domain-random draw: covers input values no solved goal
      // ever produced (also the bootstrap before anything was solved).
      plan.seq.push_back(sim::randomInput(cm_, seqRng));
    }
  }
  return plan;
}

void Campaign::randomExpandRound() {
  if (opt_.batch > 1 && opt_.simEngine == sim::EvalEngine::kTape) {
    randomExecutionBatch();
  } else {
    randomExecution();
  }
}

void Campaign::beginRandomSequence(const ReplayPlan& plan) {
  ++cs_.stats.randomSequences;
  cs_.randomStream.skip();
  trace("random execution on S" + std::to_string(plan.start) + " (" +
        std::to_string(plan.seq.size()) + " steps)");
}

void Campaign::randomExecution() {
  const ReplayPlan plan = drawReplayPlan(cs_.randomStream.position());
  beginRandomSequence(plan);
  executeSequence(plan.start, plan.seq, TestOrigin::kRandom, "");
}

/// Batched replay expansion: run opt_.batch random sequences in
/// lockstep lanes through one BatchSimulator, then commit their
/// coverage/tree/test effects lane by lane in sequence order — exactly
/// what opt_.batch consecutive randomExecution() calls (interleaved
/// with the empty solve rounds the main loop would run between them)
/// produce. Lanes whose pre-drawn plans are invalidated by an earlier
/// lane's commit (the tree grew, so the next sequence's node draw and
/// the next solve round's grid both change), or that fall past the
/// deadline / full coverage / round cap, are discarded uncommitted;
/// their cursor children recompute identically on the next call.
void Campaign::randomExecutionBatch() {
  const int B = opt_.batch;
  if (!bsim_) bsim_.emplace(cm_, B);
  std::vector<ReplayPlan> plans;
  plans.reserve(static_cast<std::size_t>(B));
  for (int k = 0; k < B; ++k) {
    plans.push_back(drawReplayPlan(cs_.randomStream.position() +
                                   static_cast<std::uint64_t>(k)));
  }
  for (int k = 0; k < B; ++k) {
    bsim_->restore(k, cs_.tree.node(plans[static_cast<std::size_t>(k)].start)
                          .state);
  }
  const std::size_t steps = static_cast<std::size_t>(opt_.randomSeqLen);
  // obsPool_[i]: what every lane observed at step i. All lanes run the
  // full horizon up front; commit decides below what actually happened.
  if (obsPool_.size() < steps) obsPool_.resize(steps);
  std::vector<const sim::InputVector*> stepInputs(
      static_cast<std::size_t>(B));
  for (std::size_t i = 0; i < steps; ++i) {
    for (int l = 0; l < B; ++l) {
      stepInputs[static_cast<std::size_t>(l)] =
          &plans[static_cast<std::size_t>(l)].seq[i];
    }
    bsim_->stepBatch(stepInputs, obsPool_[i]);
  }

  for (int k = 0; k < B; ++k) {
    // The main loop runs a solve round between consecutive random
    // sequences; without tree growth its grid is empty (goals only get
    // covered, the attempted set is untouched), so its sole effect is
    // the round counter that keys solver-seed streams. Mirror it — and
    // mirror the driver's round-cap check, which in scalar mode would
    // stop the campaign before that solve round ran.
    if (k > 0) {
      if (opt_.maxRounds > 0 && cs_.round >= opt_.maxRounds) return;
      ++cs_.round;
    }
    const ReplayPlan& plan = plans[static_cast<std::size_t>(k)];
    beginRandomSequence(plan);
    bool grew = false;
    int cur = plan.start;
    std::vector<sim::InputVector> executed;
    executed.reserve(plan.seq.size());
    for (std::size_t i = 0; i < steps; ++i) {
      const sim::StepObservationBatch& o = obsPool_[i];
      const auto res = sim::recordObservation(cm_, o, k, cs_.tracker);
      if (commitStep(plan.start, cur, plan.seq[i], o.next(k), res, executed,
                     TestOrigin::kRandom, "")) {
        grew = true;
      }
      if (deadline_.expired()) break;
    }
    if (deadline_.expired() || allGoalsCovered() || grew) return;
  }
}

}  // namespace stcg::gen
