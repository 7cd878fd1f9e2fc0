#include "solver/solver.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>

#include "expr/batch_tape.h"
#include "expr/tape_verify.h"
#include "interval/hc4.h"

namespace stcg::solver {

using expr::Env;
using expr::ExprPtr;
using expr::Scalar;
using expr::Type;
using expr::VarInfo;
using interval::Box;
using interval::ContractOutcome;
using interval::Hc4Contractor;
using interval::Interval;

const char* solveStatusName(SolveStatus s) {
  switch (s) {
    case SolveStatus::kSat: return "SAT";
    case SolveStatus::kUnsat: return "UNSAT";
    case SolveStatus::kUnknown: return "UNKNOWN";
  }
  return "?";
}

Scalar scalarForVar(const VarInfo& info, double v) {
  switch (info.type) {
    case Type::kBool:
      return Scalar::b(v >= 0.5);
    case Type::kInt:
      return Scalar::i(static_cast<std::int64_t>(std::llround(v)));
    case Type::kReal:
      return Scalar::r(v);
  }
  return Scalar::r(v);
}

namespace {

/// Throw EvalError naming a variable the goal mentions that `vars` does
/// not declare (every array variable counts: `vars` is scalar-only).
void requireDeclared(const Hc4Contractor& goal,
                     const std::vector<VarInfo>& vars) {
  for (int n = 0; n < goal.nodeCount(); ++n) {
    const expr::Expr& e = goal.node(n);
    if (e.op != expr::Op::kVar && e.op != expr::Op::kVarArray) continue;
    const bool declared =
        e.op == expr::Op::kVar &&
        std::any_of(vars.begin(), vars.end(),
                    [&](const VarInfo& v) { return v.id == e.var; });
    if (!declared) {
      throw expr::EvalError(
          "BoxSolver::solve: goal mentions variable '" + e.varName +
          "' (id " + std::to_string(e.var) + ") missing from vars");
    }
  }
}

/// Certifies candidate points as the lanes of one pass over the goal's
/// tape, compiled by the first call.
class LaneCertifier {
 public:
  LaneCertifier(const ExprPtr& goal, const std::vector<VarInfo>& vars,
                int lanes)
      : goal_(goal), vars_(vars), lanes_(lanes) {}

  /// Index of the first of the lanes() candidates at which the goal is
  /// true, or -1. Candidate k is row k of `points`: one raw draw per var
  /// (discrete dimensions already rounded).
  int firstTrue(const double* points) {
    if (lanes_ <= 0) return -1;
    if (!ex_) compile();
    for (int k = 0; k < lanes_; ++k) {
      binder_->bind(*ex_, k,
                    points + static_cast<std::size_t>(k) * vars_.size());
    }
    ex_->run();
    ex_->readBools(root_, truth_.data());
    for (int k = 0; k < lanes_; ++k) {
      if (truth_[static_cast<std::size_t>(k)] != 0) return k;
    }
    return -1;
  }

 private:
  void compile() {
    expr::TapeBuilder b;
    root_ = b.addRoot(goal_);
    std::shared_ptr<const expr::Tape> tape = b.finish();
    expr::maybeRequireVerifiedTape(*tape, "BoxSolver");
    ex_.emplace(std::move(tape), lanes_);
    binder_.emplace(*ex_, vars_);
    truth_.resize(static_cast<std::size_t>(lanes_));
  }

  const ExprPtr& goal_;
  const std::vector<VarInfo>& vars_;
  int lanes_;
  std::optional<expr::BatchTapeExecutor> ex_;
  std::optional<PointBinder> binder_;
  expr::SlotRef root_;
  std::vector<std::uint64_t> truth_;
};

}  // namespace

PointBinder::PointBinder(const expr::BatchTapeExecutor& ex,
                         const std::vector<VarInfo>& vars) {
  for (std::size_t d = 0; d < vars.size(); ++d) {
    const auto [first, last] = ex.varBindingRange(vars[d].id);
    for (int k = first; k < last; ++k) {
      binds_.push_back({d, k, vars[d].type});
    }
  }
}

void PointBinder::bind(expr::BatchTapeExecutor& ex, int lane,
                       const double* point) const {
  for (const Bind& b : binds_) {
    const double x = point[b.dim];
    switch (b.type) {
      case Type::kReal: ex.setBindingReal(lane, b.binding, x); break;
      case Type::kInt:
        ex.setBindingInt(lane, b.binding,
                         static_cast<std::int64_t>(std::llround(x)));
        break;
      case Type::kBool: ex.setBindingBool(lane, b.binding, x >= 0.5); break;
    }
  }
}

std::pair<std::int64_t, std::int64_t> integerEndpoints(double lo, double hi) {
  // 2^62 is exactly representable in double and round-trips through the
  // cast; it is far beyond any model domain, so saturation never distorts
  // finite bounds that matter.
  constexpr double kCap = 4611686018427387904.0;  // 2^62
  const double l = std::clamp(std::ceil(lo), -kCap, kCap);
  const double h = std::clamp(std::floor(hi), -kCap, kCap);
  return {static_cast<std::int64_t>(l), static_cast<std::int64_t>(h)};
}

void BoxSolver::samplePoint(const Box& box, Rng& rng, bool corners,
                            int cornerKind, double* row) const {
  for (const auto& v : box.vars()) {
    const Interval d = box.domain(v.id);
    double x;
    if (d.isPoint()) {
      x = d.lo();
    } else if (corners) {
      switch (cornerKind) {
        case 0: x = d.lo(); break;
        case 1: x = d.hi(); break;
        default: x = d.mid(); break;
      }
    } else if (v.type == Type::kReal) {
      x = rng.uniformReal(d.lo(), d.hi());
    } else {
      const auto [lo, hi] = integerEndpoints(d.lo(), d.hi());
      // lo > hi: the interval holds no integer. Probe the midpoint —
      // still inside the box, and certification rejects it if infeasible.
      x = lo <= hi ? static_cast<double>(rng.uniformInt(lo, hi)) : d.mid();
    }
    if (v.type != Type::kReal) x = std::round(x);
    *row++ = x;
  }
}

SolveResult BoxSolver::solve(const ExprPtr& goal,
                             const std::vector<VarInfo>& vars) {
  if (goal->type != Type::kBool || goal->isArray()) {
    throw expr::EvalError(
        "BoxSolver::solve: goal must be a scalar boolean expression");
  }
  Hc4Contractor contractor(goal);
  requireDeclared(contractor, vars);
  SolveResult result;
  Stopwatch watch;
  const Deadline deadline = Deadline::afterMillis(options_.timeBudgetMillis);
  Rng rng(options_.seed);

  const auto finish = [&](SolveStatus status) {
    result.status = status;
    result.stats.elapsedMillis = watch.elapsedMillis();
    return result;
  };

  // Constant goals decide immediately.
  if (goal->op == expr::Op::kConst) {
    result.seedFree = true;
    if (!goal->constVal.toBool()) return finish(SolveStatus::kUnsat);
    Env env;
    for (const auto& v : vars) {
      const Interval d = interval::declaredDomain(v.type, v.lo, v.hi);
      env.set(v.id, scalarForVar(v, d.isEmpty() ? v.lo : d.mid()));
    }
    result.model = std::move(env);
    return finish(SolveStatus::kSat);
  }

  const int candidates = std::max(0, 3 + options_.samplesPerBox);
  LaneCertifier certifier(goal, vars, candidates);
  std::vector<double> points(static_cast<std::size_t>(candidates) *
                             vars.size());
  std::deque<Box> work;
  work.emplace_back(vars);
  bool exhaustive = true;  // whether every refuted region was proven empty
  bool drew = false;       // whether a certified candidate was a random draw

  while (!work.empty()) {
    if (deadline.expired() ||
        result.stats.boxesProcessed >= options_.maxBoxes) {
      return finish(SolveStatus::kUnknown);
    }
    Box box = std::move(work.front());
    work.pop_front();
    ++result.stats.boxesProcessed;

    const ContractOutcome out = contractor.contract(box, options_.contractPasses);
    if (out == ContractOutcome::kEmpty || box.isEmpty()) {
      ++result.stats.boxesRefuted;
      continue;
    }

    // Candidate points: three deterministic corners then random draws,
    // certified together. On the root box the corners go first, alone:
    // most satisfiable residuals hold at its lower corner, and a solve
    // that returns there never draws from the RNG. Until the draws, the
    // lanes past the corners repeat the last corner, so the first true
    // lane is still the first true candidate.
    const auto row = [&](int k) {
      return points.data() + static_cast<std::size_t>(k) * vars.size();
    };
    int win = -1;
    int drawn = 0;
    if (result.stats.boxesProcessed == 1 && candidates > 3) {
      for (; drawn < 3; ++drawn) {
        samplePoint(box, rng, /*corners=*/true, drawn, row(drawn));
      }
      for (int k = 3; k < candidates; ++k) {
        std::copy(row(2), row(3), row(k));
      }
      win = certifier.firstTrue(points.data());
    }
    if (win < 0) {
      for (int k = drawn; k < candidates; ++k) {
        samplePoint(box, rng, /*corners=*/k < 3, k, row(k));
      }
      drew = drew || candidates > 3;
      win = certifier.firstTrue(points.data());
    }
    // samplesTried counts the candidates a one-at-a-time loop would have
    // evaluated: up to the winner.
    result.stats.samplesTried += win >= 0 ? win + 1 : candidates;
    if (win >= 0) {
      Env env;
      for (std::size_t d = 0; d < vars.size(); ++d) {
        env.set(vars[d].id, scalarForVar(vars[d], row(win)[d]));
      }
      result.model = std::move(env);
      result.seedFree = !drew;
      return finish(SolveStatus::kSat);
    }

    // Split and recurse.
    const int dim = box.splitDimension();
    if (dim < 0) {
      // Degenerate box with no satisfying sample: refuted up to sampling,
      // but not proven empty — remember we lost exhaustiveness.
      exhaustive = false;
      continue;
    }
    const VarInfo& v = box.vars()[static_cast<std::size_t>(dim)];
    const Interval d = box.domain(v.id);
    double cut = d.mid();
    Box left = box, right = box;
    if (v.type == Type::kReal) {
      left.setDomain(v.id, Interval(d.lo(), cut));
      right.setDomain(v.id, Interval(cut, d.hi()));
    } else {
      cut = std::floor(cut);
      left.setDomain(v.id, Interval(d.lo(), cut));
      right.setDomain(v.id, Interval(cut + 1.0, d.hi()));
    }
    // Depth-first on the left half keeps memory bounded and finds nearby
    // models fast; the right half goes to the back of the queue for
    // breadth across the space.
    work.push_front(std::move(left));
    work.push_back(std::move(right));
  }

  if (!exhaustive) return finish(SolveStatus::kUnknown);
  result.seedFree = true;
  return finish(SolveStatus::kUnsat);
}

}  // namespace stcg::solver
