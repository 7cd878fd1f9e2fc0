// Evaluation-engine microbenchmark: tree Evaluator vs compiled tape vs
// the native JIT.
//
// Two production hot loops, measured per bench model:
//   - simulation throughput (steps/sec): Simulator::step with a coverage
//     tracker, tree engine vs tape engine vs JIT engine, identical input
//     streams (JIT columns report 0 when no toolchain is available);
//   - solver scoring throughput (candidates/sec): the hill climber's
//     single-coordinate candidate scoring, the recursive branch distance
//     (the test oracle) vs a one-lane DistanceTape rebind; the batched
//     scorer local search runs is measured by bench_batch_eval.
// The scored goal is the disjunction of the model's non-constant branch
// residuals at the initial state — the same partial-evaluation product the
// STCG solve loop hands to the solver.
//
// Usage: bench_eval_tape [--quick] [--json PATH] [--seconds S]
//   --quick    short measurement windows and a pass/fail gate: exits 1 if
//              the tape engine is slower than the tree on any model (used
//              as the Release smoke stage of tools/check.sh);
//   --json     write the measured table as JSON (tools/bench.sh writes
//              BENCH_eval.json for EXPERIMENTS.md);
//   --seconds  measurement window per cell (default 0.25; 0.05 in quick).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_meta.h"
#include "benchmodels/benchmodels.h"
#include "compile/compiler.h"
#include "compile/model_tape.h"
#include "coverage/coverage.h"
#include "expr/builder.h"
#include "expr/subst.h"
#include "sim/simulator.h"
#include "solver/distance_tape.h"
#include "solver/solver.h"
#include "util/rng.h"

#include "distance_oracle.h"

namespace stcg {
namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Row {
  std::string name;
  double stepsTree = 0, stepsTape = 0, stepsJit = 0;
  double candTree = 0, candRebind = 0;
  std::size_t tapeInstrs = 0, overlayInstrs = 0;
  // Slot-reuse shrink of the simulation ModelTape's dense scalar frame
  // (raw build vs allocated); the instruction count is the same on both.
  std::size_t simInstrs = 0;
  std::size_t simSlotsRaw = 0, simSlotsOpt = 0;

  [[nodiscard]] double stepSpeedup() const {
    return stepsTree > 0 ? stepsTape / stepsTree : 0;
  }
  /// Native step throughput over the interpreted tape (0 = JIT unavailable).
  [[nodiscard]] double jitStepSpeedup() const {
    return stepsTape > 0 ? stepsJit / stepsTape : 0;
  }
  [[nodiscard]] double rebindSpeedup() const {
    return candTree > 0 ? candRebind / candTree : 0;
  }
  [[nodiscard]] double slotShrinkPct() const {
    return simSlotsRaw > 0
               ? 100.0 * (1.0 - static_cast<double>(simSlotsOpt) /
                                    static_cast<double>(simSlotsRaw))
               : 0;
  }
};

double measureStepsPerSec(const compile::CompiledModel& cm,
                          sim::EvalEngine engine,
                          const std::vector<sim::InputVector>& inputs,
                          double window) {
  sim::Simulator s(cm, engine);
  coverage::CoverageTracker cov(cm);
  std::size_t cursor = 0;
  const auto batch = [&](int n) {
    for (int i = 0; i < n; ++i) {
      (void)s.step(inputs[cursor], &cov);
      cursor = (cursor + 1) % inputs.size();
    }
  };
  batch(64);  // warmup
  std::size_t steps = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  do {
    batch(128);
    steps += 128;
    elapsed = secondsSince(t0);
  } while (elapsed < window);
  return static_cast<double>(steps) / elapsed;
}

// The residual goal the solver modes score. Empty when every branch folds
// to a constant at the initial state (then the caller synthesizes one).
expr::ExprPtr residualGoal(const compile::CompiledModel& cm) {
  const expr::Env state = cm.initialStateEnv();
  std::vector<expr::ExprPtr> parts;
  for (const auto& br : cm.branches) {
    if (parts.size() >= 6) break;
    auto r = expr::substitute(br.pathConstraint, state);
    if (r->op != expr::Op::kConst) parts.push_back(std::move(r));
  }
  expr::ExprPtr goal = expr::orAll(parts);
  if (goal->op != expr::Op::kConst) return goal;
  const auto& v = cm.inputs[0].info;
  return expr::geE(expr::mkVar(v), expr::cReal((v.lo + v.hi) * 0.5));
}

/// Can this environment run the JIT at all? Probed once with the first
/// model; when false (no compiler / dlopen) the JIT columns report 0 and
/// the quick gate skips them, mirroring the library's graceful fallback.
bool jitAvailable(const compile::CompiledModel& cm) {
  const sim::Simulator probe(cm, sim::EvalEngine::kJit);
  if (probe.engine() == sim::EvalEngine::kJit) return true;
  std::fprintf(stderr, "note: JIT unavailable (%s); jit columns report 0\n",
               probe.jitFallbackReason().c_str());
  return false;
}

double measureCandidatesPerSec(const expr::ExprPtr& goal,
                               const std::vector<expr::VarInfo>& vars,
                               bool tree, double window) {
  // The same deterministic mutation stream for every mode: start from the
  // domain midpoint, move one coordinate per candidate.
  Rng rng(4242);
  std::vector<double> point(vars.size());
  for (std::size_t i = 0; i < vars.size(); ++i) {
    point[i] = (vars[i].lo + vars[i].hi) * 0.5;
  }
  const auto mutate = [&] {
    const std::size_t i = rng.index(vars.size());
    point[i] = vars[i].type == expr::Type::kReal
                   ? rng.uniformReal(vars[i].lo, vars[i].hi)
                   : static_cast<double>(rng.uniformInt(
                         static_cast<std::int64_t>(vars[i].lo),
                         static_cast<std::int64_t>(vars[i].hi)));
  };
  const auto toEnv = [&] {
    expr::Env env;
    for (std::size_t i = 0; i < vars.size(); ++i) {
      env.set(vars[i].id, solver::scalarForVar(vars[i], point[i]));
    }
    return env;
  };

  solver::DistanceTape dt(goal, vars);
  (void)dt.rebind(point);
  double sink = 0;  // defeat dead-code elimination of the measured work
  std::size_t cands = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  do {
    for (int i = 0; i < 64; ++i) {
      mutate();
      sink += tree ? testref::branchDistance(goal, toEnv(), true)
                   : dt.rebind(point);
    }
    cands += 64;
    elapsed = secondsSince(t0);
  } while (elapsed < window);
  if (sink == -1.0) std::cerr << "";  // keep `sink` observable
  return static_cast<double>(cands) / elapsed;
}

void writeJson(const std::string& path, const std::vector<Row>& rows,
               const benchx::RunMeta& meta) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"eval_tape\",\n";
  benchx::writeJsonMeta(out, meta);
  out << "  \"models\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        "    {\"name\": \"%s\", \"steps_per_sec_tree\": %.0f, "
        "\"steps_per_sec_tape\": %.0f, \"step_speedup\": %.2f, "
        "\"steps_per_sec_jit\": %.0f, \"jit_step_speedup\": %.2f, "
        "\"cand_per_sec_tree\": %.0f, \"cand_per_sec_rebind\": %.0f, "
        "\"tape_instrs\": %zu, \"overlay_instrs\": %zu, "
        "\"sim_instrs_raw\": %zu, "
        "\"sim_slots_raw\": %zu, \"sim_slots_opt\": %zu, "
        "\"slot_shrink_pct\": %.1f}%s\n",
        r.name.c_str(), r.stepsTree, r.stepsTape, r.stepSpeedup(),
        r.stepsJit, r.jitStepSpeedup(), r.candTree, r.candRebind,
        r.tapeInstrs, r.overlayInstrs, r.simInstrs, r.simSlotsRaw,
        r.simSlotsOpt, r.slotShrinkPct(),
        i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

int run(int argc, char** argv) {
  bool quick = false;
  std::string jsonPath;
  double window = 0.25;
  int repeat = 1;
  benchx::RunMeta meta;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
      window = 0.05;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      jsonPath = argv[++i];
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      window = std::strtod(argv[++i], nullptr);
    } else if (benchx::parseMetaArg(argc, argv, i, meta)) {
      // consumed
    } else if (benchx::parseRepeatArg(argc, argv, i, repeat)) {
      if (repeat < 1) {
        std::cerr << "invalid value for --repeat (expected integer in "
                     "[1, 99])\n";
        return 2;
      }
    } else {
      std::cerr << "usage: bench_eval_tape [--quick] [--json PATH] "
                   "[--seconds S] [--repeat N] [--git SHA] "
                   "[--timestamp TS]\n";
      return 2;
    }
  }
  if (repeat > 1) {
    std::printf("reporting the median of %d repeats per cell\n", repeat);
  }

  std::vector<Row> rows;
  bool haveJit = false;
  bool jitProbed = false;
  for (const auto& info : bench::allBenchModels()) {
    const auto cm = compile::compile(info.build());
    if (!jitProbed) {
      haveJit = jitAvailable(cm);
      jitProbed = true;
    }
    Row row;
    row.name = info.name;

    const compile::ModelTape mt = compile::buildModelTape(cm);
    row.simInstrs = mt.passStats.instrs;
    row.simSlotsRaw = mt.passStats.scalarSlotsBefore;
    row.simSlotsOpt = mt.passStats.scalarSlotsAfter;

    Rng inputRng(42);
    std::vector<sim::InputVector> inputs;
    for (int i = 0; i < 256; ++i) inputs.push_back(sim::randomInput(cm, inputRng));
    row.stepsTree = benchx::medianOf(repeat, [&] {
      return measureStepsPerSec(cm, sim::EvalEngine::kTree, inputs, window);
    });
    row.stepsTape = benchx::medianOf(repeat, [&] {
      return measureStepsPerSec(cm, sim::EvalEngine::kTape, inputs, window);
    });
    if (haveJit) {
      row.stepsJit = benchx::medianOf(repeat, [&] {
        return measureStepsPerSec(cm, sim::EvalEngine::kJit, inputs, window);
      });
    }

    const auto goal = residualGoal(cm);
    const auto vars = cm.inputInfos();
    solver::DistanceTape probe(goal, vars);
    row.tapeInstrs = probe.valueInstrCount();
    row.overlayInstrs = probe.overlayInstrCount();
    row.candTree = benchx::medianOf(repeat, [&] {
      return measureCandidatesPerSec(goal, vars, /*tree=*/true, window);
    });
    row.candRebind = benchx::medianOf(repeat, [&] {
      return measureCandidatesPerSec(goal, vars, /*tree=*/false, window);
    });
    rows.push_back(std::move(row));
  }

  std::printf("%-12s %12s %12s %12s %8s %12s %12s %8s\n", "model",
              "steps/s tree", "steps/s tape", "steps/s jit", "jit/tape",
              "cand/s tree", "cand/s reb", "speedup");
  int stepWins = 0, jitWins = 0;
  for (const Row& r : rows) {
    std::printf("%-12s %12.0f %12.0f %12.0f %7.2fx %12.0f %12.0f %7.2fx\n",
                r.name.c_str(), r.stepsTree, r.stepsTape, r.stepsJit,
                r.jitStepSpeedup(), r.candTree, r.candRebind,
                r.rebindSpeedup());
    stepWins += r.stepSpeedup() >= 3.0 ? 1 : 0;
    jitWins += r.jitStepSpeedup() >= 1.5 ? 1 : 0;
  }
  std::printf("models with step speedup >= 3x: %d/%zu\n", stepWins,
              rows.size());
  if (haveJit) {
    std::printf("models with jit step speedup >= 1.5x over tape: %d/%zu\n",
                jitWins, rows.size());
  }

  std::printf("\n%-12s %10s %18s %8s\n", "model", "sim instrs",
              "sim scalar slots", "shrink");
  for (const Row& r : rows) {
    std::printf("%-12s %10zu %9zu -> %6zu %6.1f%%\n", r.name.c_str(),
                r.simInstrs, r.simSlotsRaw, r.simSlotsOpt, r.slotShrinkPct());
  }

  if (!jsonPath.empty()) {
    writeJson(jsonPath, rows, meta);
    std::printf("wrote %s\n", jsonPath.c_str());
  }

  if (quick) {
    for (const Row& r : rows) {
      if (r.stepsTape < r.stepsTree) {
        std::fprintf(stderr,
                     "FAIL: tape slower than tree on %s (%.0f vs %.0f "
                     "steps/s)\n",
                     r.name.c_str(), r.stepsTape, r.stepsTree);
        return 1;
      }
    }
    std::printf("quick gate passed: tape >= tree on every model\n");
  }
  return 0;
}

}  // namespace
}  // namespace stcg

int main(int argc, char** argv) { return stcg::run(argc, argv); }
