// A compiled model's expression roots flattened onto one shared tape.
//
// Every root the simulator reads per step — decision activations, arm
// conditions, atomic conditions, objective activations/conditions, outputs
// and next-state expressions — is emitted into a single expr::Tape, so the
// global value-numbering CSE spans all of them (an activation shared by
// five decisions is computed once per step, not five times) and one
// non-recursive executor pass evaluates the whole model.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "compile/compiled_model.h"
#include "expr/jit.h"
#include "expr/tape.h"
#include "expr/tape_passes.h"

namespace stcg::compile {

/// Slot map for one CompiledModel. Indices parallel the model's own
/// decision/objective/output/state vectors.
///
/// `tape` is the slot-allocated tape all engines execute (the SlotRefs
/// below index it); `rawTape` keeps the unallocated build as the
/// differential oracle, and `passStats` reports the frame shrink.
struct ModelTape {
  std::shared_ptr<const expr::Tape> tape;
  std::shared_ptr<const expr::Tape> rawTape;
  expr::TapePassStats passStats;

  std::vector<expr::SlotRef> decisionActivations;
  std::vector<std::vector<expr::SlotRef>> decisionArms;
  std::vector<std::vector<expr::SlotRef>> decisionConditions;
  std::vector<expr::SlotRef> objectiveActivations;
  std::vector<expr::SlotRef> objectiveConds;
  std::vector<expr::SlotRef> outputs;
  std::vector<expr::SlotRef> stateNext;  // scalar or array per StateVar

  /// Native module for `tape` when requested and buildable; nullptr with
  /// `jitError` describing why otherwise (callers fall back to the
  /// interpreted tape).
  std::shared_ptr<const expr::TapeJit> jit;
  std::string jitError;
};

/// Compile all of `cm`'s roots into one tape. With `wantJit`, additionally
/// emit + load a native module for the final tape (best effort: an
/// unavailable toolchain leaves `jit` null and fills `jitError`).
[[nodiscard]] ModelTape buildModelTape(const CompiledModel& cm,
                                       bool wantJit = false);

}  // namespace stcg::compile
