// Lockstep batched simulation: B independent trajectories of one compiled
// model advanced per tape pass.
//
// A BatchSimulator holds B lanes of model state and executes the shared
// model tape through expr::BatchTapeExecutor, so one instruction walk
// advances every lane by one step. Coverage is decoupled from execution:
// stepBatch() fills a pooled StepObservationBatch (which decision arm
// fired, the condition vector, objective hits, outputs, next state — per
// lane) and the caller replays lanes into a CoverageTracker with
// recordObservation() in whatever lane order its determinism contract
// requires. This split is what lets the STCG generator run B replay
// sequences in lockstep and still commit their coverage in the exact
// order the sequential engine would (DESIGN.md §5f).
//
// Pooling: the batch lays observations out as flat lane-major SoA rows
// (decision arms, condition bytes, objective flags, output scalars) plus
// one persistent StateSnapshot per lane, all sized once on first use and
// reused across steps — the replay hot loops (stepBatch + record) touch
// the allocator only while the pool grows, never per step. Lane state is
// likewise advanced in place (element-wise Scalar stores into the
// existing Value cells) instead of rebuilding a snapshot per step.
//
// Bit-identity: observation extraction reads the same ModelTape slots as
// the scalar tape engine, and recordObservation() feeds one lane to
// recordStep (sim/record_step.h), the recorder Simulator::step uses too —
// so the tracker calls, their order and the SimError for an active
// decision that satisfies no arm are the same by construction. That error
// is detected at execution and thrown at record time, so speculative
// lanes that are never committed also never throw, mirroring a
// sequential engine that never ran them.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "compile/model_tape.h"
#include "expr/batch_tape.h"
#include "sim/simulator.h"

namespace stcg::sim {

/// Pooled observations for every lane of one stepBatch() call. Flat
/// lane-major storage, shaped once per (model, lane-count) and reused —
/// keep one instance (or one per pipelined step) alive across the replay
/// loop to amortize all allocation.
class StepObservationBatch {
 public:
  [[nodiscard]] int lanes() const { return lanes_; }

  /// Arm index decision `di` took in `lane`: -1 = activation false,
  /// -2 = activation true but no arm satisfied (malformed compilation —
  /// recordObservation throws SimError, like Simulator::step).
  [[nodiscard]] int decisionTaken(int lane, std::size_t di) const {
    return taken_[static_cast<std::size_t>(lane) * decisions_ + di];
  }
  /// Condition truth values (0/1 bytes) of decision `di` in `lane`;
  /// meaningful only when the decision was active that step.
  [[nodiscard]] const std::uint8_t* conditionValues(int lane,
                                                   std::size_t di) const {
    return conds_.data() + static_cast<std::size_t>(lane) * condTotal_ +
           condOffset_[di];
  }
  [[nodiscard]] std::size_t conditionCount(std::size_t di) const {
    return condOffset_[di + 1] - condOffset_[di];
  }
  /// Objective `oi` fired (activation && condition) in `lane`.
  [[nodiscard]] bool objectiveFired(int lane, std::size_t oi) const {
    return objFired_[static_cast<std::size_t>(lane) * objectives_ + oi] != 0;
  }
  [[nodiscard]] const expr::Scalar& output(int lane, std::size_t oi) const {
    return outputs_[static_cast<std::size_t>(lane) * outputCount_ + oi];
  }
  [[nodiscard]] std::size_t outputCount() const { return outputCount_; }
  /// The state snapshot `lane` advanced to (persistent storage, valid
  /// until the next stepBatch into this pool).
  [[nodiscard]] const StateSnapshot& next(int lane) const {
    return next_[static_cast<std::size_t>(lane)];
  }

 private:
  friend class BatchSimulator;

  /// (Re)shape for `cm` across `lanes`; cheap no-op when already shaped.
  void ensureShape(const compile::CompiledModel& cm, int lanes);

  const compile::CompiledModel* cm_ = nullptr;
  int lanes_ = 0;
  std::size_t decisions_ = 0;
  std::size_t condTotal_ = 0;     // sum of per-decision condition counts
  std::size_t objectives_ = 0;
  std::size_t outputCount_ = 0;
  std::vector<std::size_t> condOffset_;   // [decisions_ + 1] prefix sums
  std::vector<int> taken_;                // [lane * decisions_ + di]
  std::vector<std::uint8_t> conds_;       // [lane * condTotal_ + off + ci]
  std::vector<std::uint8_t> objFired_;    // [lane * objectives_ + oi]
  std::vector<expr::Scalar> outputs_;     // [lane * outputCount_ + oi]
  std::vector<StateSnapshot> next_;       // per lane
};

class BatchSimulator {
 public:
  BatchSimulator(const compile::CompiledModel& cm, int lanes);

  [[nodiscard]] int lanes() const { return exec_->lanes(); }

  /// Return `lane` to the model's initial state.
  void reset(int lane);
  /// Restore a snapshot into `lane`; throws SimError on a size mismatch.
  void restore(int lane, const StateSnapshot& s);
  [[nodiscard]] const StateSnapshot& state(int lane) const {
    return state_[static_cast<std::size_t>(lane)];
  }

  /// Advance every lane one step: inputs[l] drives lane l (inputs.size()
  /// must equal lanes()). Observations are written into the pooled `out`
  /// (shaped on first use, storage reused afterwards). Throws SimError on
  /// an input-size mismatch, naming the model like Simulator::step.
  void stepBatch(const std::vector<const InputVector*>& inputs,
                 StepObservationBatch& out);

  [[nodiscard]] const compile::CompiledModel& compiled() const { return *cm_; }

  /// The underlying batch executor (e.g. for its array-path counters).
  [[nodiscard]] const expr::BatchTapeExecutor& executor() const {
    return *exec_;
  }

 private:
  const compile::CompiledModel* cm_;
  compile::ModelTape modelTape_;
  std::optional<expr::BatchTapeExecutor> exec_;
  std::vector<StateSnapshot> state_;  // per lane
  // 1 while the lane still holds the model's initial state (reset() and
  // never stepped/restored since) — when every lane is fresh, stepBatch
  // binds wide states once via setArrayVarBroadcast instead of per lane.
  std::vector<std::uint8_t> freshReset_;
  // 1 while the lane's state came from this simulator's own last
  // stepBatch readback (no reset()/restore() since) — when every lane is
  // clean, each wide state's next bind is exactly the previous run's
  // next-state plane cast to the state's type, so stepBatch rebinds it
  // with one plane copy (rebindArrayVarFromSlot) instead of B per-lane
  // Scalar binds. The executor falls back (returns false) whenever the
  // cast is not provably the identity at run time.
  std::vector<std::uint8_t> laneClean_;
  std::vector<std::uint8_t> boundWide_;  // per state: bound wide this step
};

/// Replay `lane`'s observation into `cov`, performing exactly the tracker
/// calls (and in the order) Simulator::step would have made, and
/// returning the same StepResult.
StepResult recordObservation(const compile::CompiledModel& cm,
                             const StepObservationBatch& obs, int lane,
                             coverage::CoverageTracker& cov);

}  // namespace stcg::sim
