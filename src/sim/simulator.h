// Discrete-step execution of a compiled model, with state snapshot/restore
// and coverage recording — the "Dynamic Execution" substrate of the paper.
//
// The paper's Model.setState / Model.run API (Algorithm 2) maps to
// restore() / step(). A snapshot is the full linear state vector the paper
// describes (Section IV: state values linearly arranged in memory, mapped
// to model elements by a name/attribute table — here CompiledModel.states).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "compile/compiled_model.h"
#include "compile/model_tape.h"
#include "coverage/coverage.h"
#include "expr/eval.h"
#include "expr/tape.h"
#include "util/rng.h"

namespace stcg::sim {

/// Thrown on simulator misuse that a correct harness can never trigger:
/// input/snapshot vectors whose size disagrees with the compiled model,
/// or a decision whose arms are not exhaustive. Carries the model
/// element and the observed/expected sizes in the message.
class SimError : public std::runtime_error {
 public:
  explicit SimError(const std::string& what) : std::runtime_error(what) {}
};

/// One step's external inputs, aligned with CompiledModel::inputs.
using InputVector = std::vector<expr::Scalar>;

/// The full internal state, aligned with CompiledModel::states.
using StateSnapshot = std::vector<expr::Value>;

/// Order-preserving 64-bit hash of a snapshot's values (type-sensitive:
/// int 1 and real 1.0 hash differently). Equal snapshots hash equal; the
/// state tree keys its node and attempted-goal dedup sets on this.
[[nodiscard]] std::uint64_t snapshotHash(const StateSnapshot& s);

struct StepResult {
  /// Branch ids newly covered during this step (empty without a tracker).
  std::vector<int> newlyCovered;
  /// True if a condition polarity or MCDC vector was observed for the
  /// first time this step.
  bool newConditionObservation = false;
  [[nodiscard]] bool foundNewCoverage() const {
    return !newlyCovered.empty() || newConditionObservation;
  }
  [[nodiscard]] bool foundNewBranch() const { return !newlyCovered.empty(); }
};

/// Which evaluation engine backs step(). kTape (default) executes the
/// model's flattened instruction tape — bit-identical to kTree, which
/// re-walks the expression DAG through the memoizing tree Evaluator and
/// is kept as the semantic oracle for differential tests. kJit compiles
/// the tape to native code via the system C compiler (expr::TapeJit);
/// when the toolchain or loader is unavailable the simulator degrades to
/// kTape and reports why through jitFallbackReason().
enum class EvalEngine { kTape, kTree, kJit };

class Simulator {
 public:
  explicit Simulator(const compile::CompiledModel& cm,
                     EvalEngine engine = EvalEngine::kTape);

  /// Return to the model's initial state.
  void reset();

  [[nodiscard]] const StateSnapshot& state() const { return state_; }
  [[nodiscard]] StateSnapshot snapshot() const { return state_; }

  /// Restore a snapshot taken from this compiled model. Throws SimError
  /// when the snapshot length disagrees with CompiledModel::states.
  void restore(const StateSnapshot& s);

  /// Execute one iteration: evaluate outputs, record coverage into `cov`
  /// (optional), commit next state. Throws SimError when the input
  /// vector length disagrees with CompiledModel::inputs.
  StepResult step(const InputVector& in, coverage::CoverageTracker* cov);

  /// Output values computed by the most recent step.
  [[nodiscard]] const std::vector<expr::Scalar>& lastOutputs() const {
    return lastOutputs_;
  }

  [[nodiscard]] const compile::CompiledModel& compiled() const { return *cm_; }

  /// The engine actually in effect: a kJit request that could not build a
  /// native module reports kTape here.
  [[nodiscard]] EvalEngine engine() const { return engine_; }

  /// Why a requested kJit engine fell back to kTape (empty otherwise).
  [[nodiscard]] const std::string& jitFallbackReason() const {
    return jitFallback_;
  }

 private:
  StepResult stepTree(const InputVector& in, coverage::CoverageTracker* cov);
  template <typename Executor>
  StepResult stepWith(Executor& ex, const InputVector& in,
                      coverage::CoverageTracker* cov);
  // Shared tail of every engine: recordStep (sim/record_step.h) when
  // `cov` is set, then output and next-state readback through `r`
  // (output(i), nextScalar(i), nextArray(i)).
  template <typename Reader>
  StepResult finishStep(Reader& r, coverage::CoverageTracker* cov);

  const compile::CompiledModel* cm_;
  EvalEngine engine_;
  // Tape engine state: the model tape is compiled once per simulator; the
  // executor persists across steps (slots are fully overwritten per run).
  compile::ModelTape modelTape_;
  std::optional<expr::TapeExecutor> exec_;
  std::optional<expr::JitTapeExecutor> jitExec_;
  std::string jitFallback_;
  StateSnapshot state_;
  std::vector<expr::Scalar> lastOutputs_;
};

/// Draw a uniformly random input vector within the declared input domains.
[[nodiscard]] InputVector randomInput(const compile::CompiledModel& cm,
                                      Rng& rng);

/// Render an input vector as "name=value, ..." (for test-case export).
[[nodiscard]] std::string formatInput(const compile::CompiledModel& cm,
                                      const InputVector& in);

}  // namespace stcg::sim
