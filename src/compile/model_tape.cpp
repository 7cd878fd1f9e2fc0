#include "compile/model_tape.h"

#include "expr/tape_passes.h"
#include "expr/tape_verify.h"

namespace stcg::compile {

ModelTape buildModelTape(const CompiledModel& cm, bool wantJit) {
  expr::TapeBuilder b;
  ModelTape mt;

  mt.decisionActivations.reserve(cm.decisions.size());
  mt.decisionArms.reserve(cm.decisions.size());
  mt.decisionConditions.reserve(cm.decisions.size());
  for (const auto& d : cm.decisions) {
    mt.decisionActivations.push_back(b.addRoot(d.activation));
    auto& arms = mt.decisionArms.emplace_back();
    arms.reserve(d.armConds.size());
    for (const auto& c : d.armConds) arms.push_back(b.addRoot(c));
    auto& conds = mt.decisionConditions.emplace_back();
    conds.reserve(d.conditions.size());
    for (const auto& c : d.conditions) conds.push_back(b.addRoot(c));
  }

  mt.objectiveActivations.reserve(cm.objectives.size());
  mt.objectiveConds.reserve(cm.objectives.size());
  for (const auto& obj : cm.objectives) {
    mt.objectiveActivations.push_back(b.addRoot(obj.activation));
    mt.objectiveConds.push_back(b.addRoot(obj.cond));
  }

  mt.outputs.reserve(cm.outputs.size());
  for (const auto& [name, e] : cm.outputs) {
    (void)name;
    mt.outputs.push_back(b.addRoot(e));
  }

  mt.stateNext.reserve(cm.states.size());
  for (const auto& sv : cm.states) mt.stateNext.push_back(b.addRoot(sv.next));

  mt.rawTape = b.finish();
  expr::maybeRequireVerifiedTape(*mt.rawTape, "buildModelTape(raw)");

  expr::OptimizedTape opt = expr::optimizeTape(mt.rawTape);
  expr::maybeRequireVerifiedTape(*opt.tape, "buildModelTape(optimized)");
  mt.tape = std::move(opt.tape);
  mt.passStats = opt.stats;
  const auto remapAll = [&](std::vector<expr::SlotRef>& refs) {
    for (expr::SlotRef& r : refs) r = opt.remap(r);
  };
  remapAll(mt.decisionActivations);
  for (auto& arms : mt.decisionArms) remapAll(arms);
  for (auto& conds : mt.decisionConditions) remapAll(conds);
  remapAll(mt.objectiveActivations);
  remapAll(mt.objectiveConds);
  remapAll(mt.outputs);
  remapAll(mt.stateNext);

  if (wantJit) {
    mt.jit = expr::TapeJit::compile(mt.tape, &mt.jitError);
  }
  return mt;
}

}  // namespace stcg::compile
