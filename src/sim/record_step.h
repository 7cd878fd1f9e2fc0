// The one coverage-recording routine every simulation engine shares
// (sim-private: included only by src/sim/*.cpp).
//
// Algorithm 2 records decision, condition and MCDC coverage on every
// executed step. The tracker-call order is fixed here once — for each
// decision: activation, first true arm, SimError if no arm fires,
// recordDecision, then the condition vector; then every still-uncovered
// objective — and each engine supplies only a Reader over where its
// values live:
//
//   int arm(di)                       kArmInactive, kArmNone or the index
//                                     of the first arm that holds
//   const std::uint8_t* conditions(di) decision di's 0/1 condition bytes
//                                     (asked only when di is active)
//   bool objectiveFired(oi)           activation && condition (asked only
//                                     while the objective is uncovered)
//
// Readers: the tree Evaluator and the ModelTape slots (simulator.cpp),
// and one StepObservationBatch lane (batch_simulator.cpp). Because the
// tree reader evaluates lazily, the asked-only-when clauses above are
// also its evaluation order, which the tape and lane readers reproduce
// from precomputed values — so all engines record bit-identical coverage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "compile/compiled_model.h"
#include "coverage/coverage.h"
#include "sim/simulator.h"

namespace stcg::sim {

/// Reader::arm() results besides an arm index; the same encoding
/// StepObservationBatch::decisionTaken() stores.
inline constexpr int kArmInactive = -1;  // activation false
inline constexpr int kArmNone = -2;      // active, but no arm holds

template <class Reader>
StepResult recordStep(const compile::CompiledModel& cm, Reader& r,
                      coverage::CoverageTracker& cov) {
  StepResult result;
  for (std::size_t di = 0; di < cm.decisions.size(); ++di) {
    const auto& d = cm.decisions[di];
    const int taken = r.arm(di);
    if (taken == kArmInactive) continue;
    // Arms are exhaustive by construction (the compiler appends a
    // default arm); no arm firing means a malformed compilation.
    if (taken < 0) {
      throw SimError("step: no arm of decision '" + d.name +
                     "' satisfied although its activation holds");
    }
    const int newBranch = cov.recordDecision(d.id, taken);
    if (newBranch >= 0) result.newlyCovered.push_back(newBranch);
    if (!d.conditions.empty() &&
        cov.recordConditions(d.id, r.conditions(di), d.conditions.size(),
                             taken == 0)) {
      result.newConditionObservation = true;
    }
  }
  for (std::size_t oi = 0; oi < cm.objectives.size(); ++oi) {
    const int id = cm.objectives[oi].id;
    if (cov.objectiveCovered(id) || !r.objectiveFired(oi)) continue;
    if (cov.recordObjective(id)) result.newConditionObservation = true;
  }
  return result;
}

}  // namespace stcg::sim
