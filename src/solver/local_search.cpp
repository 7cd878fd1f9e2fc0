#include "solver/local_search.h"

#include <algorithm>
#include <cmath>

#include "expr/eval.h"
#include "solver/distance_tape.h"
#include "util/stopwatch.h"

namespace stcg::solver {

using expr::Env;
using expr::ExprPtr;
using expr::Op;
using expr::Type;
using expr::VarInfo;

const char* solverKindName(SolverKind k) {
  switch (k) {
    case SolverKind::kBox: return "box";
    case SolverKind::kLocalSearch: return "local-search";
    case SolverKind::kPortfolio: return "portfolio";
  }
  return "?";
}

SolveResult LocalSearchSolver::solve(const ExprPtr& goal,
                                     const std::vector<VarInfo>& vars) {
  if (goal->type != Type::kBool || goal->isArray()) {
    throw expr::EvalError(
        "LocalSearchSolver::solve: goal must be a scalar boolean expression");
  }
  SolveResult result;
  Stopwatch watch;
  const Deadline deadline = Deadline::afterMillis(options_.timeBudgetMillis);
  Rng rng(options_.seed);

  const auto finish = [&](SolveStatus status) {
    result.status = status;
    result.stats.elapsedMillis = watch.elapsedMillis();
    return result;
  };

  if (goal->op == Op::kConst && !goal->constVal.toBool()) {
    return finish(SolveStatus::kUnsat);  // the one provable case
  }

  // Current point, stored as raw reals per variable.
  std::vector<double> point(vars.size());
  const auto randomize = [&] {
    for (std::size_t i = 0; i < vars.size(); ++i) {
      if (vars[i].type == Type::kReal) {
        point[i] = rng.uniformReal(vars[i].lo, vars[i].hi);
      } else {
        const auto [lo, hi] = integerEndpoints(vars[i].lo, vars[i].hi);
        // lo > hi: no integer in the domain; start from the midpoint and
        // let the distance landscape (or the UNKNOWN verdict) handle it.
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
      env.set(vars[i].id, scalarForVar(vars[i], p[i]));
    }
    return env;
  };
  BatchDistanceTape bdt(goal, vars, kLanes);
  const auto cost = [&](const std::vector<double>& p) {
    ++result.stats.samplesTried;
    // All lanes get the point: lane 0 carries the answer, the rest keep
    // every (binding, lane) pair bound for later partial setPoint calls.
    for (int l = 0; l < kLanes; ++l) bdt.setPoint(l, p);
    bdt.run();
    return bdt.distance(0);
  };

  // Neighborhood work lists, hoisted out of the improvement loop.
  struct Candidate {
    std::size_t var;
    double val;
  };
  std::vector<Candidate> candidates;
  std::vector<double> scratch;

  randomize();
  double best = cost(point);

  while (!deadline.expired()) {
    if (best == 0.0) {
      result.model = toEnv(point);
      // Certify (distance and truth must agree, but belt-and-braces).
      if (expr::evaluate(goal, result.model).toBool()) {
        return finish(SolveStatus::kSat);
      }
      best = 1.0;  // fall through to keep searching
    }
    // Every pattern move depends only on the fixed current point, so the
    // whole neighborhood is known up front: per variable, geometrically
    // shrinking steps, each tried up then down.
    candidates.clear();
    for (std::size_t i = 0; i < vars.size(); ++i) {
      const double width = vars[i].hi - vars[i].lo;
      for (double frac : {0.5, 0.1, 0.01, 0.001}) {
        double step = std::max(width * frac,
                               vars[i].type == Type::kReal ? 1e-9 : 1.0);
        for (const double dir : {+1.0, -1.0}) {
          double v = std::clamp(point[i] + dir * step, vars[i].lo,
                                vars[i].hi);
          if (vars[i].type != Type::kReal) v = std::round(v);
          candidates.push_back({i, v});
        }
      }
    }
    bool improved = false;
    std::size_t ci = 0;
    while (ci < candidates.size() && !improved && !deadline.expired()) {
      const std::size_t n =
          std::min<std::size_t>(kLanes, candidates.size() - ci);
      for (std::size_t l = 0; l < n; ++l) {
        scratch = point;
        scratch[candidates[ci + l].var] = candidates[ci + l].val;
        bdt.setPoint(static_cast<int>(l), scratch);
      }
      // The scan below only consumes distances through `c < best`, which
      // is exactly the contract runBounded's early-exit masks preserve:
      // masked lanes report +inf and fail the test the same way their
      // true (>= best) distance would.
      bdt.runBounded(best);
      // Scan in candidate order and accept the first improvement. Lanes
      // past an accepted one were scored speculatively and are not
      // counted, so samplesTried matches the one-at-a-time count.
      for (std::size_t l = 0; l < n; ++l) {
        ++result.stats.samplesTried;
        const double c = bdt.distance(static_cast<int>(l));
        if (c < best) {
          best = c;
          point[candidates[ci + l].var] = candidates[ci + l].val;
          improved = true;
          break;
        }
      }
      ci += n;
    }
    if (!improved) {
      // Stagnation: random restart.
      randomize();
      best = cost(point);
    }
  }
  return finish(SolveStatus::kUnknown);
}

SolveResult solveWith(SolverKind kind, const ExprPtr& goal,
                      const std::vector<VarInfo>& vars,
                      const SolveOptions& options) {
  switch (kind) {
    case SolverKind::kBox: {
      BoxSolver s(options);
      return s.solve(goal, vars);
    }
    case SolverKind::kLocalSearch: {
      LocalSearchSolver s(options);
      return s.solve(goal, vars);
    }
    case SolverKind::kPortfolio: {
      // Box first (fast SAT/UNSAT on the common cases), then spend the
      // same budget again on search if the box engine gave up.
      SolveOptions half = options;
      half.timeBudgetMillis = std::max<std::int64_t>(
          1, options.timeBudgetMillis / 2);
      BoxSolver box(half);
      auto res = box.solve(goal, vars);
      if (res.status != SolveStatus::kUnknown) return res;
      SolveOptions rest = options;
      rest.timeBudgetMillis = half.timeBudgetMillis;
      LocalSearchSolver search(rest);
      auto res2 = search.solve(goal, vars);
      res2.stats.boxesProcessed += res.stats.boxesProcessed;
      res2.stats.samplesTried += res.stats.samplesTried;
      return res2;
    }
  }
  BoxSolver s(options);
  return s.solve(goal, vars);
}

}  // namespace stcg::solver
