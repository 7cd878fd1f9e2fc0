#include "sim/batch_simulator.h"

#include <algorithm>

#include "sim/record_step.h"

namespace stcg::sim {

using expr::Scalar;
using expr::Value;

void StepObservationBatch::ensureShape(const compile::CompiledModel& cm,
                                       int lanes) {
  if (cm_ == &cm && lanes_ == lanes) return;
  cm_ = &cm;
  lanes_ = lanes;
  decisions_ = cm.decisions.size();
  objectives_ = cm.objectives.size();
  outputCount_ = cm.outputs.size();
  condOffset_.assign(decisions_ + 1, 0);
  for (std::size_t di = 0; di < decisions_; ++di) {
    condOffset_[di + 1] = condOffset_[di] + cm.decisions[di].conditions.size();
  }
  condTotal_ = condOffset_[decisions_];
  const auto B = static_cast<std::size_t>(lanes);
  taken_.assign(B * decisions_, -1);
  conds_.assign(B * condTotal_, 0);
  objFired_.assign(B * objectives_, 0);
  outputs_.assign(B * outputCount_, Scalar{});
  next_.assign(B, StateSnapshot{});
}

BatchSimulator::BatchSimulator(const compile::CompiledModel& cm, int lanes)
    : cm_(&cm), modelTape_(compile::buildModelTape(cm)) {
  exec_.emplace(modelTape_.tape, lanes);
  state_.resize(static_cast<std::size_t>(exec_->lanes()));
  freshReset_.assign(static_cast<std::size_t>(exec_->lanes()), 0);
  laneClean_.assign(static_cast<std::size_t>(exec_->lanes()), 0);
  for (int l = 0; l < exec_->lanes(); ++l) reset(l);
}

void BatchSimulator::reset(int lane) {
  auto& st = state_[static_cast<std::size_t>(lane)];
  st.clear();
  st.reserve(cm_->states.size());
  for (const auto& s : cm_->states) st.push_back(s.init);
  freshReset_[static_cast<std::size_t>(lane)] = 1;
  laneClean_[static_cast<std::size_t>(lane)] = 0;
}

void BatchSimulator::restore(int lane, const StateSnapshot& s) {
  if (s.size() != cm_->states.size()) {
    throw SimError("restore: snapshot has " + std::to_string(s.size()) +
                   " state(s), model '" + cm_->name + "' expects " +
                   std::to_string(cm_->states.size()));
  }
  state_[static_cast<std::size_t>(lane)] = s;
  freshReset_[static_cast<std::size_t>(lane)] = 0;
  laneClean_[static_cast<std::size_t>(lane)] = 0;
}

void BatchSimulator::stepBatch(const std::vector<const InputVector*>& inputs,
                               StepObservationBatch& out) {
  expr::BatchTapeExecutor& ex = *exec_;
  const int B = ex.lanes();
  // Freshly reset lanes all hold the model's initial state, so wide
  // states can be bound once for every lane with a broadcast fan-out
  // instead of B per-lane column writes — the common replay-reset case.
  // Lanes whose state came from our own last readback (no reset/restore
  // since) are even cheaper: the value about to be bound is exactly the
  // previous run's next-state plane, so one plane copy replaces B
  // per-lane Scalar binds — the steady-state replay path.
  bool allFresh = true;
  bool allClean = true;
  for (int lane = 0; lane < B; ++lane) {
    allFresh &= freshReset_[static_cast<std::size_t>(lane)] != 0;
    allClean &= laneClean_[static_cast<std::size_t>(lane)] != 0;
  }
  boundWide_.assign(cm_->states.size(), 0);
  if (allFresh) {
    for (std::size_t i = 0; i < cm_->states.size(); ++i) {
      const auto& sv = cm_->states[i];
      if (sv.width != 1) {
        ex.setArrayVarBroadcast(sv.id, sv.init.elems());
        boundWide_[i] = 1;
      }
    }
  } else if (allClean) {
    for (std::size_t i = 0; i < cm_->states.size(); ++i) {
      const auto& sv = cm_->states[i];
      if (sv.width != 1 &&
          ex.rebindArrayVarFromSlot(sv.id, modelTape_.stateNext[i],
                                    sv.type)) {
        boundWide_[i] = 1;
      }
    }
  }
  for (int lane = 0; lane < B; ++lane) {
    const InputVector& in = *inputs[static_cast<std::size_t>(lane)];
    if (in.size() != cm_->inputs.size()) {
      throw SimError("step: input vector has " + std::to_string(in.size()) +
                     " value(s), model '" + cm_->name + "' expects " +
                     std::to_string(cm_->inputs.size()));
    }
    const auto& st = state_[static_cast<std::size_t>(lane)];
    for (std::size_t i = 0; i < cm_->states.size(); ++i) {
      const auto& sv = cm_->states[i];
      if (sv.width == 1) {
        ex.setVar(lane, sv.id, st[i].scalar());
      } else if (!boundWide_[i]) {
        ex.setArrayVar(lane, sv.id, st[i].elems());
      }
    }
    for (std::size_t i = 0; i < cm_->inputs.size(); ++i) {
      // Same coercion chain as Simulator::step.
      ex.setVar(lane, cm_->inputs[i].info.id,
                in[i].castTo(cm_->inputs[i].info.type));
    }
  }
  ex.run();

  out.ensureShape(*cm_, B);
  for (int lane = 0; lane < B; ++lane) {
    const std::size_t L = static_cast<std::size_t>(lane);
    int* taken = out.taken_.data() + L * out.decisions_;
    std::uint8_t* condRow = out.conds_.data() + L * out.condTotal_;
    std::uint8_t* fired = out.objFired_.data() + L * out.objectives_;

    for (std::size_t di = 0; di < cm_->decisions.size(); ++di) {
      if (!ex.scalarToBool(modelTape_.decisionActivations[di], lane)) {
        taken[di] = kArmInactive;
        continue;
      }
      int t = kArmNone;  // recordObservation throws if no arm fires
      const auto& arms = modelTape_.decisionArms[di];
      for (std::size_t a = 0; a < arms.size(); ++a) {
        if (ex.scalarToBool(arms[a], lane)) {
          t = static_cast<int>(a);
          break;
        }
      }
      taken[di] = t;
      std::uint8_t* vals = condRow + out.condOffset_[di];
      const auto& condSlots = modelTape_.decisionConditions[di];
      for (std::size_t ci = 0; ci < condSlots.size(); ++ci) {
        vals[ci] = ex.scalarToBool(condSlots[ci], lane) ? 1 : 0;
      }
    }
    for (std::size_t oi = 0; oi < cm_->objectives.size(); ++oi) {
      fired[oi] =
          (ex.scalarToBool(modelTape_.objectiveActivations[oi], lane) &&
           ex.scalarToBool(modelTape_.objectiveConds[oi], lane))
              ? 1
              : 0;
    }

    for (std::size_t i = 0; i < modelTape_.outputs.size(); ++i) {
      out.outputs_[L * out.outputCount_ + i] =
          ex.scalar(modelTape_.outputs[i], lane);
    }

    // Advance the lane's state in place: element-wise Scalar stores into
    // the existing Value cells (Value::set casts to the cell's type, the
    // same castTo the snapshot-rebuilding path applied), falling back to
    // a full rebuild only if a restore() injected a mismatched cell.
    auto& st = state_[L];
    for (std::size_t i = 0; i < cm_->states.size(); ++i) {
      const auto& sv = cm_->states[i];
      const auto& slot = modelTape_.stateNext[i];
      Value& cell = st[i];
      if (sv.width == 1) {
        if (cell.type() == sv.type && cell.width() == 1) {
          cell.set(0, ex.scalar(slot, lane));
        } else {
          cell = Value(ex.scalar(slot, lane).castTo(sv.type));
        }
      } else {
        // Element reads straight off the payload plane — no vector<Scalar>
        // materialization on the hot path.
        const std::size_t n = ex.arrayLen(slot, lane);
        if (cell.type() == sv.type &&
            cell.width() == static_cast<int>(n)) {
          for (std::size_t j = 0; j < n; ++j) {
            cell.set(static_cast<int>(j), ex.arrayElem(slot, lane, j));
          }
        } else {
          cell = Value(sv.type, ex.array(slot, lane));
        }
      }
    }
    out.next_[L] = st;  // copy-assign: element storage reused after step 1
  }
  std::fill(freshReset_.begin(), freshReset_.end(), 0);
  std::fill(laneClean_.begin(), laneClean_.end(), 1);
}

namespace {

/// recordStep reader over one lane of a StepObservationBatch: the pooled
/// rows are read in place, condition bytes included.
struct LaneReader {
  const StepObservationBatch& obs;
  int lane;

  int arm(std::size_t di) const { return obs.decisionTaken(lane, di); }
  const std::uint8_t* conditions(std::size_t di) const {
    return obs.conditionValues(lane, di);
  }
  bool objectiveFired(std::size_t oi) const {
    return obs.objectiveFired(lane, oi);
  }
};

}  // namespace

StepResult recordObservation(const compile::CompiledModel& cm,
                             const StepObservationBatch& obs, int lane,
                             coverage::CoverageTracker& cov) {
  LaneReader r{obs, lane};
  return recordStep(cm, r, cov);
}

}  // namespace stcg::sim
