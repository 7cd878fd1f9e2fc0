#include "sim/simulator.h"

#include <cmath>
#include <cstring>

#include "sim/record_step.h"
#include "util/strings.h"

namespace stcg::sim {

using expr::Env;
using expr::Evaluator;
using expr::Scalar;
using expr::Type;

namespace {

void hashCombine(std::uint64_t& h, std::uint64_t v) {
  // 64-bit variant of boost::hash_combine.
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 12) + (h >> 4);
}

std::uint64_t hashScalar(const Scalar& s) {
  switch (s.type()) {
    case Type::kBool:
      return s.asBool() ? 0x9e3779b9ULL : 0x85ebca6bULL;
    case Type::kInt:
      return static_cast<std::uint64_t>(s.asInt()) * 0xff51afd7ed558ccdULL;
    case Type::kReal: {
      const double d = s.asReal();
      std::uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(d));
      std::memcpy(&bits, &d, sizeof(bits));
      return bits * 0xc4ceb9fe1a85ec53ULL;
    }
  }
  return 0;
}

/// recordStep reader (record_step.h) over the memoizing tree Evaluator:
/// every root is evaluated on demand, so conditions are evaluated only
/// for active decisions and objectives only while uncovered.
struct TreeReader {
  const compile::CompiledModel& cm;
  Evaluator& ev;
  std::vector<std::uint8_t> conds;

  bool holds(const expr::ExprPtr& e) { return ev.evalScalar(e).toBool(); }
  int arm(std::size_t di) {
    const auto& d = cm.decisions[di];
    if (!holds(d.activation)) return kArmInactive;
    for (std::size_t a = 0; a < d.armConds.size(); ++a) {
      if (holds(d.armConds[a])) return static_cast<int>(a);
    }
    return kArmNone;
  }
  const std::uint8_t* conditions(std::size_t di) {
    const auto& cs = cm.decisions[di].conditions;
    conds.resize(cs.size());
    for (std::size_t c = 0; c < cs.size(); ++c) conds[c] = holds(cs[c]);
    return conds.data();
  }
  bool objectiveFired(std::size_t oi) {
    const auto& obj = cm.objectives[oi];
    return holds(obj.activation) && holds(obj.cond);
  }
  Scalar output(std::size_t i) { return ev.evalScalar(cm.outputs[i].second); }
  Scalar nextScalar(std::size_t i) { return ev.evalScalar(cm.states[i].next); }
  std::vector<Scalar> nextArray(std::size_t i) {
    return ev.evalArray(cm.states[i].next);
  }
};

/// recordStep reader over the slots of one executed ModelTape, shared by
/// the interpreted TapeExecutor and the native JitTapeExecutor.
template <typename Executor>
struct TapeReader {
  const compile::ModelTape& mt;
  const Executor& ex;
  std::vector<std::uint8_t> conds;

  bool holds(expr::SlotRef s) const { return ex.scalar(s).toBool(); }
  int arm(std::size_t di) const {
    if (!holds(mt.decisionActivations[di])) return kArmInactive;
    const auto& arms = mt.decisionArms[di];
    for (std::size_t a = 0; a < arms.size(); ++a) {
      if (holds(arms[a])) return static_cast<int>(a);
    }
    return kArmNone;
  }
  const std::uint8_t* conditions(std::size_t di) {
    const auto& slots = mt.decisionConditions[di];
    conds.resize(slots.size());
    for (std::size_t c = 0; c < slots.size(); ++c) conds[c] = holds(slots[c]);
    return conds.data();
  }
  bool objectiveFired(std::size_t oi) const {
    return holds(mt.objectiveActivations[oi]) && holds(mt.objectiveConds[oi]);
  }
  Scalar output(std::size_t i) const { return ex.scalar(mt.outputs[i]); }
  Scalar nextScalar(std::size_t i) const {
    return ex.scalar(mt.stateNext[i]);
  }
  std::vector<Scalar> nextArray(std::size_t i) const {
    return ex.array(mt.stateNext[i]);
  }
};

}  // namespace

std::uint64_t snapshotHash(const StateSnapshot& s) {
  std::uint64_t h = 0x517cc1b727220a95ULL;
  for (const auto& v : s) {
    for (const auto& e : v.elems()) hashCombine(h, hashScalar(e));
  }
  return h;
}

Simulator::Simulator(const compile::CompiledModel& cm, EvalEngine engine)
    : cm_(&cm), engine_(engine) {
  if (engine_ == EvalEngine::kJit) {
    modelTape_ = compile::buildModelTape(cm, /*wantJit=*/true);
    if (modelTape_.jit != nullptr) {
      jitExec_.emplace(modelTape_.tape, modelTape_.jit);
    } else {
      // Environment failure (no compiler, dlopen unavailable, ...): the
      // interpreted tape is bit-identical, so degrade rather than fail.
      engine_ = EvalEngine::kTape;
      jitFallback_ = modelTape_.jitError;
      exec_.emplace(modelTape_.tape);
    }
  } else if (engine_ == EvalEngine::kTape) {
    modelTape_ = compile::buildModelTape(cm);
    exec_.emplace(modelTape_.tape);
  }
  reset();
}

void Simulator::reset() {
  state_.clear();
  state_.reserve(cm_->states.size());
  for (const auto& s : cm_->states) state_.push_back(s.init);
  lastOutputs_.assign(cm_->outputs.size(), Scalar::i(0));
}

void Simulator::restore(const StateSnapshot& s) {
  // Invariant: snapshots are only valid for the model they were taken
  // from. Enforced by throwing (not assert) so release builds and the
  // lint-driven diagnostics see the same behaviour.
  if (s.size() != cm_->states.size()) {
    throw SimError("restore: snapshot has " + std::to_string(s.size()) +
                   " state(s), model '" + cm_->name + "' expects " +
                   std::to_string(cm_->states.size()));
  }
  state_ = s;
}

StepResult Simulator::step(const InputVector& in,
                           coverage::CoverageTracker* cov) {
  // Invariant: one scalar per declared input, in declaration order.
  if (in.size() != cm_->inputs.size()) {
    throw SimError("step: input vector has " + std::to_string(in.size()) +
                   " value(s), model '" + cm_->name + "' expects " +
                   std::to_string(cm_->inputs.size()));
  }
  switch (engine_) {
    case EvalEngine::kJit: return stepWith(*jitExec_, in, cov);
    case EvalEngine::kTape: return stepWith(*exec_, in, cov);
    case EvalEngine::kTree: break;
  }
  return stepTree(in, cov);
}

StepResult Simulator::stepTree(const InputVector& in,
                               coverage::CoverageTracker* cov) {
  Env env;
  env.reserve(cm_->varCount());
  for (std::size_t i = 0; i < cm_->states.size(); ++i) {
    const auto& sv = cm_->states[i];
    if (sv.width == 1) {
      env.set(sv.id, state_[i].scalar());
    } else {
      env.setArray(sv.id, state_[i].elems());
    }
  }
  for (std::size_t i = 0; i < cm_->inputs.size(); ++i) {
    env.set(cm_->inputs[i].info.id, in[i].castTo(cm_->inputs[i].info.type));
  }
  Evaluator ev(env);
  TreeReader r{*cm_, ev, {}};
  return finishStep(r, cov);
}

template <typename Executor>
StepResult Simulator::stepWith(Executor& ex, const InputVector& in,
                               coverage::CoverageTracker* cov) {
  // One linear pass computes every root; finishStep then reads the slots
  // in the order stepTree evaluates, so recorded coverage and committed
  // values are bit-identical to the tree. Instantiated for the
  // interpreted TapeExecutor and the native JitTapeExecutor — the
  // bind/read surface is identical.
  for (std::size_t i = 0; i < cm_->states.size(); ++i) {
    const auto& sv = cm_->states[i];
    if (sv.width == 1) {
      ex.setVar(sv.id, state_[i].scalar());
    } else {
      ex.setArrayVar(sv.id, state_[i].elems());
    }
  }
  for (std::size_t i = 0; i < cm_->inputs.size(); ++i) {
    // Same coercion chain as the tree path: the env stores
    // in[i].castTo(info.type), and each kVar slot casts to its node type.
    ex.setVar(cm_->inputs[i].info.id,
              in[i].castTo(cm_->inputs[i].info.type));
  }
  ex.run();
  TapeReader<Executor> r{modelTape_, ex, {}};
  return finishStep(r, cov);
}

template <typename Reader>
StepResult Simulator::finishStep(Reader& r, coverage::CoverageTracker* cov) {
  StepResult result;
  if (cov != nullptr) result = recordStep(*cm_, r, *cov);

  lastOutputs_.clear();
  lastOutputs_.reserve(cm_->outputs.size());
  for (std::size_t i = 0; i < cm_->outputs.size(); ++i) {
    lastOutputs_.push_back(r.output(i));
  }

  // Next state, computed fully before committing.
  StateSnapshot next;
  next.reserve(cm_->states.size());
  for (std::size_t i = 0; i < cm_->states.size(); ++i) {
    const auto& sv = cm_->states[i];
    if (sv.width == 1) {
      next.emplace_back(r.nextScalar(i).castTo(sv.type));
    } else {
      next.emplace_back(sv.type, r.nextArray(i));
    }
  }
  state_ = std::move(next);
  return result;
}

InputVector randomInput(const compile::CompiledModel& cm, Rng& rng) {
  InputVector out;
  out.reserve(cm.inputs.size());
  for (const auto& in : cm.inputs) {
    const auto& info = in.info;
    switch (info.type) {
      case Type::kBool:
        out.push_back(Scalar::b(rng.chance(0.5)));
        break;
      case Type::kInt:
        out.push_back(Scalar::i(rng.uniformInt(
            static_cast<std::int64_t>(std::ceil(info.lo)),
            static_cast<std::int64_t>(std::floor(info.hi)))));
        break;
      case Type::kReal:
        out.push_back(Scalar::r(rng.uniformReal(info.lo, info.hi)));
        break;
    }
  }
  return out;
}

std::string formatInput(const compile::CompiledModel& cm,
                        const InputVector& in) {
  std::vector<std::string> parts;
  parts.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    parts.push_back(cm.inputs[i].info.name + "=" + in[i].toString());
  }
  return join(parts, ", ");
}

}  // namespace stcg::sim
