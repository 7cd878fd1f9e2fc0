#include "distance_oracle.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"
#include "util/stopwatch.h"

namespace stcg::testref {

using expr::Env;
using expr::ExprPtr;
using expr::Op;
using expr::Type;
using expr::VarInfo;
using solver::SolveResult;
using solver::SolveStatus;

namespace {

constexpr double kEps = 1e-6;

double distanceRec(const ExprPtr& e, expr::Evaluator& ev, bool want);

double atomDistance(const ExprPtr& e, expr::Evaluator& ev, bool want) {
  const auto lhs = [&] { return ev.evalScalar(e->args[0]).toReal(); };
  const auto rhs = [&] { return ev.evalScalar(e->args[1]).toReal(); };
  switch (e->op) {
    case Op::kEq: {
      const double d = std::fabs(lhs() - rhs());
      return want ? d : (d == 0.0 ? 1.0 : 0.0);
    }
    case Op::kNe: {
      const double d = std::fabs(lhs() - rhs());
      return want ? (d == 0.0 ? 1.0 : 0.0) : d;
    }
    case Op::kLt: {
      const double d = lhs() - rhs();
      return want ? (d < 0.0 ? 0.0 : d + kEps)
                  : (d >= 0.0 ? 0.0 : kEps - d);
    }
    case Op::kLe: {
      const double d = lhs() - rhs();
      return want ? (d <= 0.0 ? 0.0 : d) : (d > 0.0 ? 0.0 : kEps - d);
    }
    case Op::kGt: {
      const double d = rhs() - lhs();
      return want ? (d < 0.0 ? 0.0 : d + kEps)
                  : (d >= 0.0 ? 0.0 : kEps - d);
    }
    case Op::kGe: {
      const double d = rhs() - lhs();
      return want ? (d <= 0.0 ? 0.0 : d) : (d > 0.0 ? 0.0 : kEps - d);
    }
    default: {
      // Boolean leaf (variable, cast, select of booleans, ...): use its
      // concrete truth value; distance 0/1.
      return ev.evalScalar(e).toBool() == want ? 0.0 : 1.0;
    }
  }
}

double distanceRec(const ExprPtr& e, expr::Evaluator& ev, bool want) {
  switch (e->op) {
    case Op::kConst:
      return e->constVal.toBool() == want ? 0.0 : 1.0;
    case Op::kNot:
      return distanceRec(e->args[0], ev, !want);
    case Op::kAnd: {
      const double a = distanceRec(e->args[0], ev, want);
      const double b = distanceRec(e->args[1], ev, want);
      return want ? a + b : std::min(a, b);
    }
    case Op::kOr: {
      const double a = distanceRec(e->args[0], ev, want);
      const double b = distanceRec(e->args[1], ev, want);
      return want ? std::min(a, b) : a + b;
    }
    case Op::kXor: {
      // xor(a,b) == (a && !b) || (!a && b); negation flips to equivalence.
      const double aT = distanceRec(e->args[0], ev, true);
      const double aF = distanceRec(e->args[0], ev, false);
      const double bT = distanceRec(e->args[1], ev, true);
      const double bF = distanceRec(e->args[1], ev, false);
      return want ? std::min(aT + bF, aF + bT) : std::min(aT + bT, aF + bF);
    }
    case Op::kIte: {
      if (e->type != Type::kBool) break;
      const double cT = distanceRec(e->args[0], ev, true);
      const double cF = distanceRec(e->args[0], ev, false);
      const double t = distanceRec(e->args[1], ev, want);
      const double f = distanceRec(e->args[2], ev, want);
      return std::min(cT + t, cF + f);
    }
    default:
      break;
  }
  return atomDistance(e, ev, want);
}

}  // namespace

double branchDistance(const ExprPtr& goal, const Env& env, bool want) {
  expr::Evaluator ev(env);
  return distanceRec(goal, ev, want);
}

SolveResult referenceLocalSearch(const ExprPtr& goal,
                                 const std::vector<VarInfo>& vars,
                                 const solver::SolveOptions& options) {
  SolveResult result;
  Stopwatch watch;
  const Deadline deadline = Deadline::afterMillis(options.timeBudgetMillis);
  Rng rng(options.seed);

  const auto finish = [&](SolveStatus status) {
    result.status = status;
    result.stats.elapsedMillis = watch.elapsedMillis();
    return result;
  };

  if (goal->op == Op::kConst && !goal->constVal.toBool()) {
    return finish(SolveStatus::kUnsat);
  }

  std::vector<double> point(vars.size());
  const auto randomize = [&] {
    for (std::size_t i = 0; i < vars.size(); ++i) {
      if (vars[i].type == Type::kReal) {
        point[i] = rng.uniformReal(vars[i].lo, vars[i].hi);
      } else {
        const auto [lo, hi] = solver::integerEndpoints(vars[i].lo, vars[i].hi);
        point[i] = lo <= hi ? static_cast<double>(rng.uniformInt(lo, hi))
                            : (vars[i].lo + vars[i].hi) * 0.5;
      }
    }
  };
  expr::VarId maxVarId = -1;
  for (const auto& v : vars) maxVarId = std::max(maxVarId, v.id);
  const auto toEnv = [&](const std::vector<double>& p) {
    Env env;
    env.reserve(static_cast<std::size_t>(maxVarId + 1));
    for (std::size_t i = 0; i < vars.size(); ++i) {
      env.set(vars[i].id, solver::scalarForVar(vars[i], p[i]));
    }
    return env;
  };
  const auto cost = [&](const std::vector<double>& p) {
    ++result.stats.samplesTried;
    return branchDistance(goal, toEnv(p), true);
  };

  randomize();
  double best = cost(point);

  while (!deadline.expired()) {
    if (best == 0.0) {
      result.model = toEnv(point);
      if (expr::evaluate(goal, result.model).toBool()) {
        return finish(SolveStatus::kSat);
      }
      best = 1.0;
    }
    bool improved = false;
    for (std::size_t i = 0; i < vars.size() && !deadline.expired(); ++i) {
      const double width = vars[i].hi - vars[i].lo;
      // Pattern moves with geometrically shrinking steps.
      for (double frac : {0.5, 0.1, 0.01, 0.001}) {
        double step = std::max(width * frac,
                               vars[i].type == Type::kReal ? 1e-9 : 1.0);
        for (const double dir : {+1.0, -1.0}) {
          auto candidate = point;
          candidate[i] = std::clamp(candidate[i] + dir * step, vars[i].lo,
                                    vars[i].hi);
          if (vars[i].type != Type::kReal) {
            candidate[i] = std::round(candidate[i]);
          }
          const double c = cost(candidate);
          if (c < best) {
            best = c;
            point = std::move(candidate);
            improved = true;
            break;
          }
        }
        if (improved) break;
      }
      if (improved) break;
    }
    if (!improved) {
      // Stagnation: random restart.
      randomize();
      best = cost(point);
    }
  }
  return finish(SolveStatus::kUnknown);
}

}  // namespace stcg::testref
