#include "stcg/campaign.h"

#include <algorithm>
#include <atomic>
#include <cstring>
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

/// Payload bits of a scalar (its type travels separately in the key).
std::uint64_t payloadWord(const expr::Scalar& v) {
  switch (v.type()) {
    case expr::Type::kBool: return v.asBool() ? 1 : 0;
    case expr::Type::kInt: return static_cast<std::uint64_t>(v.asInt());
    case expr::Type::kReal: {
      const double d = v.asReal();
      std::uint64_t w = 0;
      std::memcpy(&w, &d, sizeof w);
      return w;
    }
  }
  return 0;
}

}  // namespace

// ----- Proven-UNSAT memo ---------------------------------------------------
//
// Key layout for goal g: [g << 32 | key length, then per read state slot
// in ascending order its payload words — an array slot prefixed by its
// length — with the values' 2-bit type tags packed 32 to a word after
// every 32 values and once more at the end]. For a fixed goal the
// read-slot list is fixed, so the lengths make the layout decodable and
// equal keys mean bit-equal projected states.

namespace {

constexpr std::uint32_t kFoldedBit = 1U << 31;

std::uint64_t hashKey(const std::uint64_t* key, std::size_t n) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < n; ++i) h = splitmix64(h ^ key[i]);
  return h;
}

std::size_t keyLength(std::uint64_t header) { return header & 0xffffffffU; }

}  // namespace

std::uint64_t UnsatMemo::encode(int goalIdx, const sim::StateSnapshot& s,
                                std::vector<std::uint64_t>& key) const {
  key.assign(1, 0);
  std::uint64_t tags = 0;
  int nTags = 0;
  const auto value = [&](const expr::Scalar& v) {
    key.push_back(payloadWord(v));
    tags |= static_cast<std::uint64_t>(v.type()) << (2 * nTags);
    if (++nTags == 32) {
      key.push_back(tags);
      tags = 0;
      nTags = 0;
    }
  };
  for (const std::uint32_t i : reads_[static_cast<std::size_t>(goalIdx)]) {
    if (cm_->states[i].width == 1) {
      value(s[i].scalar());
    } else {
      key.push_back(s[i].elems().size());
      for (const auto& e : s[i].elems()) value(e);
    }
  }
  key.push_back(tags);
  key[0] = static_cast<std::uint64_t>(goalIdx) << 32 | key.size();
  return hashKey(key.data(), key.size());
}

std::size_t UnsatMemo::probe(const std::vector<std::uint64_t>& key,
                             std::uint64_t hash) const {
  const std::size_t mask = table_.size() - 1;
  for (std::size_t p = hash & mask;; p = (p + 1) & mask) {
    const std::uint32_t slot = table_[p];
    if (slot == 0) return p;
    const std::uint64_t* rec = arena_.data() + ((slot & ~kFoldedBit) - 1);
    if (rec[0] == key[0] && std::equal(key.begin(), key.end(), rec)) {
      return p;
    }
  }
}

std::optional<bool> UnsatMemo::find(int goalIdx,
                                    const sim::StateSnapshot& s) const {
  const auto g = static_cast<std::size_t>(goalIdx);
  if (g >= readsReady_.size() || readsReady_[g] == 0) return std::nullopt;
  std::vector<std::uint64_t> key;
  const std::uint64_t h = encode(goalIdx, s, key);
  const std::uint32_t slot = table_[probe(key, h)];
  if (slot == 0) return std::nullopt;
  return (slot & kFoldedBit) != 0;
}

void UnsatMemo::insert(int goalIdx, const sim::StateSnapshot& s,
                       bool folded) {
  const auto g = static_cast<std::size_t>(goalIdx);
  if (readsReady_.size() <= g) {
    readsReady_.resize(goals_->size());
    reads_.resize(goals_->size());
  }
  if (readsReady_[g] == 0) {
    const std::vector<expr::VarId> vars =
        expr::collectVars((*goals_)[g].pathConstraint);
    for (std::size_t i = 0; i < cm_->states.size(); ++i) {
      if (std::binary_search(vars.begin(), vars.end(), cm_->states[i].id)) {
        reads_[g].push_back(static_cast<std::uint32_t>(i));
      }
    }
    readsReady_[g] = 1;
  }
  // Keep the load factor at most 1/2 (the table starts at 64 slots).
  if (2 * (size_ + 1) > table_.size()) {
    std::vector<std::uint32_t> old = std::move(table_);
    table_.assign(std::max<std::size_t>(64, 2 * old.size()), 0);
    const std::size_t mask = table_.size() - 1;
    for (const std::uint32_t slot : old) {
      if (slot == 0) continue;
      const std::uint64_t* rec = arena_.data() + ((slot & ~kFoldedBit) - 1);
      std::size_t p = hashKey(rec, keyLength(rec[0])) & mask;
      while (table_[p] != 0) p = (p + 1) & mask;
      table_[p] = slot;
    }
  }
  std::vector<std::uint64_t> key;
  const std::uint64_t h = encode(goalIdx, s, key);
  const std::size_t p = probe(key, h);
  if (table_[p] != 0) return;
  if (arena_.size() + key.size() >= kFoldedBit) {
    return;  // a full memo just stops learning; it is only a cache
  }
  table_[p] = static_cast<std::uint32_t>(arena_.size() + 1) |
              (folded ? kFoldedBit : 0U);
  arena_.insert(arena_.end(), key.begin(), key.end());
  ++size_;
}

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
      memo_(cm, goals_),
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
      if (!outcomes[i].folded &&
          outcomes[i].status == solver::SolveStatus::kSat) {
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
    if (out.folded || out.status == solver::SolveStatus::kUnsat) {
      ++cs_.stats.solveUnsat;
      if (out.memoHit) {
        ++memoHits_;
      } else {
        memo_.insert(t.goalIdx, cs_.tree.node(t.nodeId).state, out.folded);
      }
    } else if (out.status == solver::SolveStatus::kUnknown) {
      ++cs_.stats.solveUnknown;
    } else {
      ++cs_.stats.solveSat;
    }
    if (!out.traceLine.empty()) trace(out.traceLine);
    if (i == w) {
      hit = SolveHit{t.nodeId, t.goalIdx, std::move(out.input)};
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
  const auto traceAs = [&](const char* verdict) {
    if (wantTrace) {
      out.traceLine =
          "solve " + goal.label + " on S" + std::to_string(t.nodeId) + verdict;
    }
  };
  const auto infeasible = [&](bool folded) {
    out.folded = folded;
    out.status = solver::SolveStatus::kUnsat;
    traceAs(folded ? ": infeasible (state-folded)" : ": UNSAT");
  };

  if (const std::optional<bool> known = memo_.find(t.goalIdx, state)) {
    out.memoHit = true;
    infeasible(*known);
    return;
  }
  OneStep r = solveOneStep(goal.pathConstraint, stateEnv(cm_, state), [&] {
    return rngRoot_.fork(kSolveStream)
        .fork(taskStream(cs_.round, t.goalIdx, t.nodeId));
  });
  out.status = r.status;
  switch (r.status) {
    case solver::SolveStatus::kSat:
      out.input = std::move(r.input);
      traceAs(": SAT");
      break;
    case solver::SolveStatus::kUnsat:
      infeasible(r.folded);
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

  // Observed sibling condition values under the solved input. One
  // evaluator for all conditions, so subterms they share evaluate once.
  const expr::Env state = stateEnv(cm_, cs_.tree.node(hit.nodeId).state);
  expr::Env env = state;
  for (std::size_t i = 0; i < cm_.inputs.size(); ++i) {
    env.set(cm_.inputs[i].info.id, hit.input[i]);
  }
  expr::Evaluator ev(env);
  std::vector<expr::ExprPtr> pins;
  pins.push_back(d.activation);
  for (std::size_t c = 0; c < d.conditions.size(); ++c) {
    const bool v = ev.evalScalar(d.conditions[c]).toBool();
    if (static_cast<int>(c) == goal.condIndex) {
      pins.push_back(v ? expr::notE(d.conditions[c]) : d.conditions[c]);
    } else {
      pins.push_back(v ? d.conditions[c] : expr::notE(d.conditions[c]));
    }
  }
  ++cs_.stats.solveCalls;
  // One cursor child per attempt that reaches the solver: the stream
  // position is the attempt ordinal, which the checkpoint persists.
  OneStep r = solveOneStep(expr::andAll(pins), state,
                           [&] { return cs_.mcdcStream.next(); });
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
