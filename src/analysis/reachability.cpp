#include "analysis/reachability.h"

#include <algorithm>
#include <unordered_map>

#include "analysis/interval_tape.h"
#include "expr/tape.h"
#include "interval/box.h"
#include "interval/hc4.h"
#include "interval/transfer.h"
#include "solver/solver.h"
#include "util/strings.h"

namespace stcg::analysis {

using interval::Interval;

namespace {

/// Interval hull of the declared initial value of a state variable.
std::vector<Interval> initDomains(const compile::StateVar& sv) {
  std::vector<Interval> out;
  out.reserve(static_cast<std::size_t>(sv.width));
  for (const auto& e : sv.init.elems()) {
    out.push_back(interval::constI(e));
  }
  return out;
}

bool sameDomains(const std::vector<std::vector<Interval>>& a,
                 const std::vector<std::vector<Interval>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (std::size_t j = 0; j < a[i].size(); ++j) {
      if (!(a[i][j] == b[i][j])) return false;
    }
  }
  return true;
}

IntervalEnv toEnv(const compile::CompiledModel& cm,
                  const std::vector<std::vector<Interval>>& domains) {
  IntervalEnv env;
  for (std::size_t i = 0; i < cm.states.size(); ++i) {
    const auto& sv = cm.states[i];
    if (sv.width == 1) {
      env.set(sv.id, domains[i][0]);
    } else {
      env.setArray(sv.id, domains[i]);
    }
  }
  return env;
}

}  // namespace

StateInvariant computeStateInvariant(const compile::CompiledModel& cm,
                                     const ReachabilityOptions& opt) {
  // domains[i][j]: interval of element j of state variable i.
  std::vector<std::vector<Interval>> domains;
  domains.reserve(cm.states.size());
  for (const auto& sv : cm.states) domains.push_back(initDomains(sv));

  // The fixpoint re-evaluates the same next-state functions dozens of
  // times: compile them to one CSE-shared, slot-allocated tape up front
  // and rebind the interval environment per iteration.
  std::vector<expr::ExprPtr> nextRoots;
  nextRoots.reserve(cm.states.size());
  for (const auto& sv : cm.states) nextRoots.push_back(sv.next);
  const IntervalTapeBuild built = buildIntervalTape(nextRoots);
  const std::vector<expr::SlotRef>& nextSlots = built.rootSlots;
  IntervalTapeExecutor eval(built.tape);

  StateInvariant result;
  for (int iter = 0; iter < opt.maxIterations; ++iter) {
    eval.bind(toEnv(cm, domains));
    eval.run();

    auto next = domains;
    for (std::size_t i = 0; i < cm.states.size(); ++i) {
      const auto& sv = cm.states[i];
      if (sv.width == 1) {
        Interval stepped = eval.scalar(nextSlots[i]);
        if (sv.type != expr::Type::kReal) stepped = stepped.integralHull();
        next[i][0] = domains[i][0].hull(stepped);
      } else {
        const auto& stepped = eval.array(nextSlots[i]);
        for (std::size_t j = 0; j < next[i].size() && j < stepped.size();
             ++j) {
          Interval s = stepped[j];
          if (sv.type != expr::Type::kReal) s = s.integralHull();
          next[i][j] = domains[i][j].hull(s);
        }
      }
    }

    if (sameDomains(next, domains)) {
      result.converged = true;
      result.iterations = iter + 1;
      break;
    }

    if (iter >= opt.widenAfter) {
      // Widening: any still-growing dimension jumps to the finite whole
      // hull; clamping structure (saturations, table ends) usually pulls
      // it back at the next evaluation of the hull'ed input.
      for (std::size_t i = 0; i < next.size(); ++i) {
        for (std::size_t j = 0; j < next[i].size(); ++j) {
          if (!(next[i][j] == domains[i][j])) {
            next[i][j] = Interval::whole();
          }
        }
      }
    }
    domains = std::move(next);
    result.iterations = iter + 1;
  }

  if (result.converged) {
    // Narrowing: with Inv a post-fixpoint (step(Inv) ⊆ Inv), the refined
    // Inv' = init ∪ step(Inv) is still an invariant and is tighter —
    // it recovers bounds that widening overshot (a saturated counter
    // widened to ⊤ snaps back to its clamp range).
    for (int pass = 0; pass < 4; ++pass) {
      eval.bind(toEnv(cm, domains));
      eval.run();
      auto refined = domains;
      for (std::size_t i = 0; i < cm.states.size(); ++i) {
        const auto& sv = cm.states[i];
        const auto init = initDomains(sv);
        if (sv.width == 1) {
          Interval stepped = eval.scalar(nextSlots[i]);
          if (sv.type != expr::Type::kReal) stepped = stepped.integralHull();
          refined[i][0] = init[0].hull(stepped);
        } else {
          const auto& stepped = eval.array(nextSlots[i]);
          for (std::size_t j = 0; j < refined[i].size() && j < stepped.size();
               ++j) {
            Interval s = stepped[j];
            if (sv.type != expr::Type::kReal) s = s.integralHull();
            refined[i][j] = init[j].hull(s);
          }
        }
      }
      if (sameDomains(refined, domains)) break;
      domains = std::move(refined);
    }
  }

  result.env = toEnv(cm, domains);
  return result;
}

bool DeadBranchReport::isDead(int branchId) const {
  return std::binary_search(deadBranches.begin(), deadBranches.end(),
                            branchId);
}

namespace {

/// Variable table for the solver-backed proof: every input plus every
/// scalar state leaf, the latter bounded by the invariant. Returns false
/// when the constraint references array state (not solver-expressible).
bool proofVariables(const compile::CompiledModel& cm,
                    const StateInvariant& inv, const expr::ExprPtr& goal,
                    std::vector<expr::VarInfo>& out) {
  std::unordered_map<expr::VarId, const compile::StateVar*> stateById;
  for (const auto& sv : cm.states) stateById[sv.id] = &sv;

  for (const expr::VarId id : expr::collectVars(goal)) {
    const auto it = stateById.find(id);
    if (it == stateById.end()) continue;  // an input: added below
    const auto* sv = it->second;
    if (sv->width != 1) return false;  // array state: interval-only
    const Interval dom = inv.env.get(sv->id);
    expr::VarInfo vi;
    vi.id = sv->id;
    vi.name = sv->name;
    vi.type = sv->type;
    vi.lo = dom.lo();
    vi.hi = dom.hi();
    out.push_back(vi);
  }
  for (const auto& in : cm.inputs) out.push_back(in.info);
  return true;
}

/// Decompose the proof box spanned by `vars` into up to `lanes` sub-boxes
/// whose union covers it: greedy widest-dimension bisection, splitting
/// integer dimensions between integers (a width-k mode domain decomposes
/// into exact cases). Returns one environment per sub-box — a copy of
/// `base` (so array state stays bound) with the box variables overridden.
std::vector<IntervalEnv> splitProofBox(const std::vector<expr::VarInfo>& vars,
                                       const IntervalEnv& base, int lanes) {
  using Box = std::vector<Interval>;
  Box whole;
  whole.reserve(vars.size());
  for (const auto& v : vars) {
    whole.push_back(interval::declaredDomain(v.type, v.lo, v.hi));
  }
  std::vector<Box> boxes{std::move(whole)};
  while (static_cast<int>(boxes.size()) < lanes) {
    // Pick the (box, dim) pair with the widest splittable dimension.
    std::size_t bestB = boxes.size();
    std::size_t bestD = 0;
    double bestW = 0.0;
    for (std::size_t b = 0; b < boxes.size(); ++b) {
      for (std::size_t d = 0; d < vars.size(); ++d) {
        const Interval& iv = boxes[b][d];
        if (iv.isEmpty() || !std::isfinite(iv.lo()) ||
            !std::isfinite(iv.hi())) {
          continue;  // unbounded dims can't be midpoint-bisected
        }
        const bool integral = vars[d].type != expr::Type::kReal;
        const double w = iv.hi() - iv.lo();
        if (integral ? w < 1.0 : !(w > 0.0)) continue;  // atomic
        if (w > bestW) {
          bestW = w;
          bestB = b;
          bestD = d;
        }
      }
    }
    if (bestB == boxes.size()) break;  // nothing left to split
    Box right = boxes[bestB];
    Box& left = boxes[bestB];
    const Interval iv = left[bestD];
    if (vars[bestD].type != expr::Type::kReal) {
      const double m = std::floor(0.5 * (iv.lo() + iv.hi()));
      left[bestD] = Interval(iv.lo(), m);
      right[bestD] = Interval(m + 1.0, iv.hi());
    } else {
      const double m = 0.5 * (iv.lo() + iv.hi());
      left[bestD] = Interval(iv.lo(), m);
      right[bestD] = Interval(m, iv.hi());
    }
    boxes.push_back(std::move(right));
  }
  std::vector<IntervalEnv> envs;
  envs.reserve(boxes.size());
  for (const auto& box : boxes) {
    IntervalEnv env = base;
    for (std::size_t d = 0; d < vars.size(); ++d) env.set(vars[d].id, box[d]);
    envs.push_back(std::move(env));
  }
  return envs;
}

}  // namespace

bool proveConstraintDead(const compile::CompiledModel& cm,
                         const StateInvariant& inv,
                         const expr::ExprPtr& constraint,
                         const ReachabilityOptions& opt) {
  const Interval verdict = intervalVerdicts({constraint}, inv.env)[0];
  return proveConstraintDeadFrom(cm, inv, constraint, verdict, opt);
}

bool proveConstraintDeadFrom(const compile::CompiledModel& cm,
                             const StateInvariant& inv,
                             const expr::ExprPtr& constraint,
                             const Interval& verdict,
                             const ReachabilityOptions& opt) {
  if (verdict.isFalse()) return true;
  if (verdict.isTrue()) return false;

  std::vector<expr::VarInfo> vars;
  if (!proofVariables(cm, inv, constraint, vars)) {
    return false;  // array state: interval verdict is all we have
  }

  // HC4 contraction over the invariant-bounded box: an empty contraction
  // soundly refutes the constraint everywhere in the box, at a fraction of
  // a full solver query's cost.
  interval::Box box(vars);
  interval::Hc4Contractor contractor(constraint);
  if (contractor.contract(box, 8) == interval::ContractOutcome::kEmpty) {
    return true;
  }

  // Lane-parallel sub-box refutation: bisect the proof box into
  // opt.subBoxLanes sub-boxes and judge the constraint under all of them
  // in one batched interval pass. Their union covers the box, so
  // definitely-false on every lane refutes the constraint everywhere —
  // catching case splits (small integer mode domains) the whole-box
  // verdict hulls away.
  if (opt.subBoxLanes > 1 && !vars.empty()) {
    const auto envs = splitProofBox(vars, inv.env, opt.subBoxLanes);
    if (envs.size() > 1) {
      const auto lanes = intervalVerdictsBatch({constraint}, envs);
      bool allFalse = true;
      for (const auto& v : lanes) allFalse = allFalse && v[0].isFalse();
      if (allFalse) return true;
    }
  }

  if (!opt.solverBackedProofs) return false;
  // Exhaustive solver refutation: only a proven UNSAT counts.
  solver::SolveOptions so;
  so.timeBudgetMillis = opt.solverBudgetMillis;
  so.seed = 1;
  solver::BoxSolver proof(so);
  return proof.solve(constraint, vars).status == solver::SolveStatus::kUnsat;
}

DeadBranchReport findDeadBranches(const compile::CompiledModel& cm,
                                  const ReachabilityOptions& opt) {
  DeadBranchReport report;
  report.invariant = computeStateInvariant(cm, opt);
  // Layer (1) for every branch in one tape pass; survivors escalate.
  std::vector<expr::ExprPtr> constraints;
  constraints.reserve(cm.branches.size());
  for (const auto& br : cm.branches) constraints.push_back(br.pathConstraint);
  const auto verdicts = intervalVerdicts(constraints, report.invariant.env);
  for (std::size_t i = 0; i < cm.branches.size(); ++i) {
    const auto& br = cm.branches[i];
    if (proveConstraintDeadFrom(cm, report.invariant, br.pathConstraint,
                                verdicts[i], opt)) {
      report.deadBranches.push_back(br.id);
    }
  }
  std::sort(report.deadBranches.begin(), report.deadBranches.end());
  return report;
}

std::string renderInvariant(const compile::CompiledModel& cm,
                            const StateInvariant& inv) {
  std::string out = "State invariant (" +
                    std::string(inv.converged ? "converged" : "widened") +
                    " after " + std::to_string(inv.iterations) +
                    " iterations):\n";
  for (const auto& sv : cm.states) {
    out += "  " + sv.name + ": ";
    if (sv.width == 1) {
      out += inv.env.get(sv.id).toString();
    } else {
      const auto& arr = inv.env.getArray(sv.id);
      std::vector<std::string> parts;
      parts.reserve(arr.size());
      for (const auto& iv : arr) parts.push_back(iv.toString());
      out += "[" + join(parts, ", ") + "]";
    }
    out += "\n";
  }
  return out;
}

}  // namespace stcg::analysis
