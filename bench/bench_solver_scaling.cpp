// Solver-scaling microbenchmarks (google-benchmark).
//
// Quantifies the paper's core motivation ("solving for arrays is already
// very difficult, let alone twice, which makes the problem exponentially
// more complex"): the cost of solving CPUTask's delete-success branch
//   - one-step, STCG-style: state fixed as constants (after one Add),
//   - k-step unrolled, SLDV-style: symbolic store/select towers, k=1..4,
// plus the building-block costs (simulator step, partial evaluation, HC4
// contraction, the per-cell RNG fork chain).
#include <benchmark/benchmark.h>

#include <atomic>
#include <unordered_map>

#include "benchmodels/benchmodels.h"
#include "compile/compiler.h"
#include "expr/builder.h"
#include "expr/subst.h"
#include "interval/hc4.h"
#include "sim/simulator.h"
#include "solver/solver.h"
#include "stcg/stcg_generator.h"
#include "stcg/testgen.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace stcg;

const compile::CompiledModel& cpuTask() {
  static const compile::CompiledModel cm =
      compile::compile(bench::buildCpuTask());
  return cm;
}

// The delete-success branch: the paper's "add data first, then operate".
const compile::Branch& deleteSuccessBranch() {
  static const compile::Branch* branch = [] {
    const auto& cm = cpuTask();
    for (const auto& br : cm.branches) {
      const auto& d = cm.decisions[static_cast<std::size_t>(br.decision)];
      if (d.name.find("del_found") != std::string::npos &&
          br.label.find("then") != std::string::npos) {
        return &br;
      }
    }
    return static_cast<const compile::Branch*>(nullptr);
  }();
  return *branch;
}

// State after one successful Add of task id 42.
sim::StateSnapshot warmState() {
  const auto& cm = cpuTask();
  sim::Simulator s(cm);
  (void)s.step({expr::Scalar::i(0), expr::Scalar::i(42), expr::Scalar::i(7),
                expr::Scalar::i(1)},
               nullptr);
  return s.snapshot();
}

expr::Env stateEnvOf(const sim::StateSnapshot& snap) {
  const auto& cm = cpuTask();
  expr::Env env;
  for (std::size_t i = 0; i < cm.states.size(); ++i) {
    const auto& sv = cm.states[i];
    if (sv.width == 1) {
      env.set(sv.id, snap[i].scalar());
    } else {
      env.setArray(sv.id, snap[i].elems());
    }
  }
  return env;
}

void BM_StcgOneStepSolve(benchmark::State& state) {
  const auto& cm = cpuTask();
  const auto& br = deleteSuccessBranch();
  const auto env = stateEnvOf(warmState());
  solver::SolveOptions so;
  so.timeBudgetMillis = 1000;
  for (auto _ : state) {
    const auto residual = expr::substitute(br.pathConstraint, env);
    solver::BoxSolver solver(so);
    const auto res = solver.solve(residual, cm.inputInfos());
    benchmark::DoNotOptimize(res.status);
    if (res.status != solver::SolveStatus::kSat) {
      state.SkipWithError("one-step solve unexpectedly not SAT");
      return;
    }
  }
}
BENCHMARK(BM_StcgOneStepSolve)->Unit(benchmark::kMicrosecond);

void BM_SldvUnrolledSolve(benchmark::State& state) {
  const auto& cm = cpuTask();
  const auto& br = deleteSuccessBranch();
  const int depth = static_cast<int>(state.range(0));

  // Build the unrolled constraint once per iteration (construction is part
  // of what a bounded-model-checking loop pays).
  for (auto _ : state) {
    expr::VarId nextId = 100000;
    std::unordered_map<expr::VarId, expr::ExprPtr> entry;
    for (const auto& sv : cm.states) {
      entry[sv.id] = sv.width == 1
                         ? expr::cScalar(sv.init.scalar())
                         : expr::cArray(sv.type, sv.init.elems());
    }
    std::vector<expr::VarInfo> vars;
    std::unordered_map<expr::VarId, expr::ExprPtr> mapping;
    for (int k = 0; k < depth; ++k) {
      mapping = entry;
      for (const auto& iv : cm.inputs) {
        expr::VarInfo fresh = iv.info;
        fresh.id = nextId++;
        mapping[iv.info.id] = expr::mkVar(fresh);
        vars.push_back(fresh);
      }
      if (k + 1 < depth) {
        std::unordered_map<expr::VarId, expr::ExprPtr> next;
        for (const auto& sv : cm.states) {
          next[sv.id] = expr::substituteExprs(sv.next, mapping);
        }
        entry = std::move(next);
      }
    }
    const auto constraint = expr::substituteExprs(br.pathConstraint, mapping);
    solver::SolveOptions so;
    so.timeBudgetMillis = 250;  // per-query budget, as in the SLDV loop
    solver::BoxSolver solver(so);
    const auto res = solver.solve(constraint, vars);
    benchmark::DoNotOptimize(res.status);
    state.counters["dag_nodes"] =
        static_cast<double>(expr::dagSize(constraint));
    state.counters["sat"] =
        res.status == solver::SolveStatus::kSat ? 1.0 : 0.0;
  }
}
BENCHMARK(BM_SldvUnrolledSolve)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_SimulatorStep(benchmark::State& state) {
  const auto& cm = cpuTask();
  sim::Simulator s(cm);
  coverage::CoverageTracker cov(cm);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.step(sim::randomInput(cm, rng), &cov));
  }
}
BENCHMARK(BM_SimulatorStep)->Unit(benchmark::kMicrosecond);

void BM_PartialEval(benchmark::State& state) {
  const auto& br = deleteSuccessBranch();
  const auto env = stateEnvOf(warmState());
  for (auto _ : state) {
    benchmark::DoNotOptimize(expr::substitute(br.pathConstraint, env));
  }
}
BENCHMARK(BM_PartialEval)->Unit(benchmark::kMicrosecond);

// Engine comparison on a nonlinear goal (x^2 + y^2 == 10^6): interval
// contraction barely prunes it, branch distance walks straight to it —
// the rationale for the portfolio engine (paper future work).
void BM_SolverKindsNonlinear(benchmark::State& state) {
  const auto kind = static_cast<solver::SolverKind>(state.range(0));
  const expr::VarInfo vx{900001, "x", expr::Type::kInt, -1000, 1000};
  const expr::VarInfo vy{900002, "y", expr::Type::kInt, -1000, 1000};
  const auto x = expr::mkVar(vx);
  const auto y = expr::mkVar(vy);
  const auto goal = expr::eqE(
      expr::addE(expr::mulE(x, x), expr::mulE(y, y)), expr::cInt(1000000));
  std::uint64_t seed = 1;
  int sat = 0, total = 0;
  for (auto _ : state) {
    solver::SolveOptions so;
    so.timeBudgetMillis = 300;
    so.seed = seed++;
    const auto res = solver::solveWith(kind, goal, {vx, vy}, so);
    benchmark::DoNotOptimize(res.status);
    ++total;
    if (res.status == solver::SolveStatus::kSat) ++sat;
  }
  state.counters["sat_rate"] =
      total > 0 ? static_cast<double>(sat) / total : 0.0;
  state.SetLabel(solver::solverKindName(kind));
}
BENCHMARK(BM_SolverKindsNonlinear)
    ->Arg(static_cast<int>(solver::SolverKind::kBox))
    ->Arg(static_cast<int>(solver::SolverKind::kLocalSearch))
    ->Arg(static_cast<int>(solver::SolverKind::kPortfolio))
    ->Unit(benchmark::kMillisecond);

// One stateAwareSolve round's workload — a grid of per-branch residual
// solves against the warm state — fanned across the pool, whose lanes
// claim cells from one shared cursor.
// The argument is the lane count (GenOptions.jobs / stcg_cli --jobs).
// Real time should drop with lanes up to the core count; on a
// single-core host all lanes time-slice and the curve stays flat.
void BM_ParallelSolveGrid(benchmark::State& state) {
  const auto& cm = cpuTask();
  const auto env = stateEnvOf(warmState());
  const auto infos = cm.inputInfos();
  std::vector<expr::ExprPtr> residuals;
  for (const auto& br : cm.branches) {
    residuals.push_back(expr::substitute(br.pathConstraint, env));
  }
  ThreadPool pool(static_cast<int>(state.range(0)));
  const Rng root(7);
  for (auto _ : state) {
    std::atomic<int> sat{0};
    pool.parallelFor(residuals.size(), [&](std::size_t i) {
      solver::SolveOptions so;
      so.timeBudgetMillis = 50;
      Rng taskRng = root.fork(i);
      so.seed =
          static_cast<std::uint64_t>(taskRng.uniformInt(1, 1'000'000'000));
      solver::BoxSolver solver(so);
      if (solver.solve(residuals[i], infos).sat()) {
        sat.fetch_add(1, std::memory_order_relaxed);
      }
    });
    benchmark::DoNotOptimize(sat.load());
    state.counters["sat"] = static_cast<double>(sat.load());
  }
}
BENCHMARK(BM_ParallelSolveGrid)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// End-to-end STCG generation at different --jobs values. The 2 s budget
// binds here (CPUTask holds unsatisfiable MCDC goals), so this measures
// throughput under a fixed time budget — NOT the determinism contract,
// which assumes non-binding budgets and is pinned by
// tests/test_parallel_gen.cpp instead.
void BM_StcgGenerateJobs(benchmark::State& state) {
  const auto& cm = cpuTask();
  gen::GenOptions opt;
  opt.budgetMillis = 2000;
  opt.seed = 11;
  opt.jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    gen::StcgGenerator g;
    const auto res = g.generate(cm, opt);
    benchmark::DoNotOptimize(res.tests.size());
    state.counters["decision_cov"] = res.coverage.decision;
    state.counters["tests"] = static_cast<double>(res.tests.size());
  }
}
BENCHMARK(BM_StcgGenerateJobs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_Hc4Contract(benchmark::State& state) {
  const auto& cm = cpuTask();
  const auto& br = deleteSuccessBranch();
  const auto residual =
      expr::substitute(br.pathConstraint, stateEnvOf(warmState()));
  interval::Hc4Contractor contractor(residual);
  for (auto _ : state) {
    interval::Box box(cm.inputInfos());
    benchmark::DoNotOptimize(contractor.contract(box));
  }
}
BENCHMARK(BM_Hc4Contract)->Unit(benchmark::kMicrosecond);

void BM_Hc4Construct(benchmark::State& state) {
  const auto& br = deleteSuccessBranch();
  const auto residual =
      expr::substitute(br.pathConstraint, stateEnvOf(warmState()));
  state.counters["nodes"] = static_cast<double>(expr::dagSize(residual));
  for (auto _ : state) {
    interval::Hc4Contractor contractor(residual);
    benchmark::DoNotOptimize(&contractor);
  }
}
BENCHMARK(BM_Hc4Construct)->Unit(benchmark::kMicrosecond);

// The per-cell seed derivation of a solve round: two counter-based forks
// (neither drawn from) and one draw from the leaf, as Campaign does for
// every solve cell before the solver sees its seed.
void BM_RngFirstDraw(benchmark::State& state) {
  const Rng root(20240607);
  std::uint64_t cell = 0;
  for (auto _ : state) {
    Rng task = root.fork(1).fork(splitmix64(++cell));
    benchmark::DoNotOptimize(task.uniformInt(1, 1'000'000'000));
  }
}
BENCHMARK(BM_RngFirstDraw)->Unit(benchmark::kNanosecond);

}  // namespace

BENCHMARK_MAIN();
