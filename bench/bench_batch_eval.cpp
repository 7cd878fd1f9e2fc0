// Batched-lane microbenchmark: scalar tape vs the SoA multi-lane
// BatchTapeExecutor, on the two production hot loops it accelerates.
//
// Per bench model and per lane width B in {1, 4, 8, 16, 32}:
//   - solver scoring throughput (candidates/sec): the hill climber's
//     single-coordinate candidate scoring. B=1 is the scalar
//     DistanceTape full rebind; B>1 scores B candidates per pass through
//     a BatchDistanceTape. Both evaluate the full distance program per
//     candidate — the batch only amortizes instruction dispatch across
//     lanes, which is exactly what the local-search batch path buys.
//   - replay throughput (steps/sec): coverage-recorded simulation. B=1
//     is Simulator::step (tape engine) with a tracker; B>1 advances B
//     trajectories per BatchSimulator::stepBatch and replays every
//     lane's observation into the tracker, the same work the generator's
//     batched replay expansion and replaySuite do per committed lane.
//   - masked scoring at B=8 (candidates/sec + overlay skip rate): the
//     same candidate stream scored through runBounded() against an
//     improving incumbent, surfacing how many per-lane overlay
//     instructions the early-exit masks retire vs skip.
//   - interval refutation throughput (boxes/sec, B=1 vs B=8): candidate
//     sub-boxes of the input domains judged against every branch
//     constraint through the interval tape executor at B lanes — the
//     sub-box refutation layer of analysis::proveConstraintDeadFrom.
//
// Usage: bench_batch_eval [--quick] [--json PATH] [--seconds S]
//                         [--git SHA] [--timestamp TS]
//   --quick    short windows and a pass/fail gate: exits 1 unless B=8
//              beats the scalar tape on candidates/sec for every model
//              (Release smoke stage of tools/check.sh);
//   --json     write the measured table as JSON (tools/bench.sh writes
//              BENCH_batch.json for EXPERIMENTS.md);
//   --seconds  measurement window per cell (default 0.25; 0.05 in quick);
//   --git/--timestamp  run metadata echoed into the JSON meta block
//              (CPU model and SIMD level are detected in-process).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "analysis/interval_tape.h"
#include "bench_meta.h"
#include "benchmodels/benchmodels.h"
#include "compile/compiler.h"
#include "coverage/coverage.h"
#include "expr/builder.h"
#include "expr/subst.h"
#include "interval/interval.h"
#include "sim/batch_simulator.h"
#include "sim/simulator.h"
#include "solver/distance_tape.h"
#include "solver/solver.h"
#include "util/rng.h"

namespace stcg {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kWidths[] = {1, 4, 8, 16, 32};
constexpr std::size_t kNumWidths = sizeof kWidths / sizeof kWidths[0];

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Row {
  std::string name;
  double cand[kNumWidths] = {};   // candidates/sec at kWidths[i]
  double steps[kNumWidths] = {};  // replay steps/sec at kWidths[i]
  double maskedCand = 0;          // candidates/sec, runBounded at B=8
  double skipRate = 0;            // skipped / (retired + skipped), B=8
  double iboxB1 = 0, iboxB8 = 0;  // interval boxes judged/sec
  // Payload-row array path counters from the B=8 replay executor (see
  // expr::BatchArrayStats) — a regression on the array word-move/typed-row
  // fast paths shows up here before it shows up in steps/sec.
  expr::BatchArrayStats arr;

  [[nodiscard]] double candSpeedupB8() const {
    return cand[0] > 0 ? cand[2] / cand[0] : 0;  // kWidths[2] == 8
  }
  [[nodiscard]] double stepSpeedupB8() const {
    return steps[0] > 0 ? steps[2] / steps[0] : 0;
  }
  [[nodiscard]] double iboxSpeedupB8() const {
    return iboxB1 > 0 ? iboxB8 / iboxB1 : 0;
  }
};

// The residual goal the solver modes score: disjunction of the model's
// non-constant branch residuals at the initial state (same as
// bench_eval_tape, so candidates/sec columns are comparable across the
// two benchmarks).
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

// Conjunction of the same residuals: a sum-shaped distance overlay (the
// Tracey AND rule adds part distances), the shape of the climber's
// path-constraint goals — and the shape where runBounded()'s monotone
// lower-bound early exit can fire (a kMin root admits no partial bound).
expr::ExprPtr conjunctionGoal(const compile::CompiledModel& cm) {
  const expr::Env state = cm.initialStateEnv();
  std::vector<expr::ExprPtr> parts;
  for (const auto& br : cm.branches) {
    if (parts.size() >= 6) break;
    auto r = expr::substitute(br.pathConstraint, state);
    if (r->op != expr::Op::kConst) parts.push_back(std::move(r));
  }
  expr::ExprPtr goal = expr::andAll(parts);
  if (goal->op != expr::Op::kConst) return goal;
  const auto& v = cm.inputs[0].info;
  return expr::geE(expr::mkVar(v), expr::cReal((v.lo + v.hi) * 0.5));
}

double measureCandidatesPerSec(const expr::ExprPtr& goal,
                               const std::vector<expr::VarInfo>& vars,
                               int lanes, double window) {
  // The same deterministic mutation stream at every width: start from
  // the domain midpoint, move one coordinate per candidate.
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

  double sink = 0;  // defeat dead-code elimination of the measured work
  std::size_t cands = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  if (lanes <= 1) {
    solver::DistanceTape dt(goal, vars);
    do {
      for (int i = 0; i < 64; ++i) {
        mutate();
        sink += dt.rebind(point);
      }
      cands += 64;
      elapsed = secondsSince(t0);
    } while (elapsed < window);
  } else {
    solver::BatchDistanceTape bdt(goal, vars, lanes);
    do {
      for (int l = 0; l < lanes; ++l) {
        mutate();
        bdt.setPoint(l, point);
      }
      bdt.run();
      for (int l = 0; l < lanes; ++l) sink += bdt.distance(l);
      cands += static_cast<std::size_t>(lanes);
      elapsed = secondsSince(t0);
    } while (elapsed < window);
  }
  if (sink == -1.0) std::cerr << "";  // keep `sink` observable
  return static_cast<double>(cands) / elapsed;
}

/// Masked scoring at B=8: the same deterministic candidate stream as
/// measureCandidatesPerSec, but scored through runBounded() against an
/// improving incumbent (min distance seen so far) — the climber's actual
/// neighbor-scan contract. Reports throughput and, via `skipRate`, the
/// fraction of per-lane overlay instructions the early-exit masks skipped.
double measureMaskedCandidatesPerSec(const expr::ExprPtr& goal,
                                     const std::vector<expr::VarInfo>& vars,
                                     int lanes, double window,
                                     double* skipRate) {
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
  solver::BatchDistanceTape bdt(goal, vars, lanes);
  double best = std::numeric_limits<double>::infinity();
  double sink = 0;
  std::size_t cands = 0;
  double elapsed = 0;
  const auto t0 = Clock::now();
  do {
    for (int l = 0; l < lanes; ++l) {
      mutate();
      bdt.setPoint(l, point);
    }
    bdt.runBounded(best);
    for (int l = 0; l < lanes; ++l) {
      const double d = bdt.distance(l);
      sink += d;
      if (d < best) best = d;
    }
    cands += static_cast<std::size_t>(lanes);
    elapsed = secondsSince(t0);
  } while (elapsed < window);
  if (sink == -1.0) std::cerr << "";
  const auto& st = bdt.overlayStats();
  const double total =
      static_cast<double>(st.laneInstrsRetired + st.laneInstrsSkipped);
  *skipRate =
      total > 0 ? static_cast<double>(st.laneInstrsSkipped) / total : 0.0;
  return static_cast<double>(cands) / elapsed;
}

/// Interval refutation throughput: candidate sub-boxes of the declared
/// input domains judged against every branch path constraint, through
/// the two public entry points the refutation layer can use. B=1 is
/// intervalVerdicts per box (one tape build + one pass each — judging
/// boxes one at a time); B>1 is intervalVerdictsBatch per B boxes (one
/// build + one B-lane pass). boxes-judged/sec.
double measureIntervalBoxesPerSec(const compile::CompiledModel& cm,
                                  int lanes, double window) {
  std::vector<expr::ExprPtr> roots;
  roots.reserve(cm.branches.size());
  for (const auto& br : cm.branches) roots.push_back(br.pathConstraint);

  // Deterministic pool of candidate sub-boxes over the input domains
  // (state variables fall back to their declared domains on bind).
  Rng rng(977);
  std::vector<analysis::IntervalEnv> envs;
  envs.reserve(64);
  for (int i = 0; i < 64; ++i) {
    analysis::IntervalEnv env;
    for (const auto& in : cm.inputs) {
      const double lo = rng.uniformReal(in.info.lo, in.info.hi);
      const double hi = rng.uniformReal(lo, in.info.hi);
      env.set(in.info.id, interval::Interval(lo, hi));
    }
    envs.push_back(std::move(env));
  }

  double sink = 0;
  std::size_t boxes = 0;
  std::size_t cursor = 0;
  double elapsed = 0;
  std::vector<analysis::IntervalEnv> laneEnvs(
      static_cast<std::size_t>(lanes));
  const auto t0 = Clock::now();
  do {
    if (lanes <= 1) {
      const auto verdicts = analysis::intervalVerdicts(roots, envs[cursor]);
      cursor = (cursor + 1) % envs.size();
      for (const auto& v : verdicts) sink += v.isFalse() ? 1.0 : 0.0;
      boxes += 1;
    } else {
      for (int l = 0; l < lanes; ++l) {
        laneEnvs[static_cast<std::size_t>(l)] = envs[cursor];
        cursor = (cursor + 1) % envs.size();
      }
      const auto verdicts = analysis::intervalVerdictsBatch(roots, laneEnvs);
      for (const auto& lane : verdicts) {
        for (const auto& v : lane) sink += v.isFalse() ? 1.0 : 0.0;
      }
      boxes += static_cast<std::size_t>(lanes);
    }
    elapsed = secondsSince(t0);
  } while (elapsed < window);
  if (sink == -1.0) std::cerr << "";
  return static_cast<double>(boxes) / elapsed;
}

double measureReplayStepsPerSec(const compile::CompiledModel& cm, int lanes,
                                const std::vector<sim::InputVector>& inputs,
                                double window,
                                expr::BatchArrayStats* arrStats = nullptr) {
  coverage::CoverageTracker cov(cm);
  std::size_t cursor = 0;
  std::size_t steps = 0;
  double elapsed = 0;
  if (lanes <= 1) {
    sim::Simulator s(cm, sim::EvalEngine::kTape);
    for (int i = 0; i < 64; ++i) {  // warmup
      (void)s.step(inputs[cursor], &cov);
      cursor = (cursor + 1) % inputs.size();
    }
    const auto t0 = Clock::now();
    do {
      for (int i = 0; i < 128; ++i) {
        (void)s.step(inputs[cursor], &cov);
        cursor = (cursor + 1) % inputs.size();
      }
      steps += 128;
      elapsed = secondsSince(t0);
    } while (elapsed < window);
    return static_cast<double>(steps) / elapsed;
  }
  sim::BatchSimulator bs(cm, lanes);
  std::vector<const sim::InputVector*> in(static_cast<std::size_t>(lanes));
  sim::StepObservationBatch obs;  // pooled across the whole measurement
  const auto batchStep = [&] {
    for (int l = 0; l < lanes; ++l) {
      in[static_cast<std::size_t>(l)] = &inputs[cursor];
      cursor = (cursor + 1) % inputs.size();
    }
    bs.stepBatch(in, obs);
    for (int l = 0; l < lanes; ++l) {
      (void)sim::recordObservation(cm, obs, l, cov);
    }
  };
  for (int i = 0; i < 8; ++i) batchStep();  // warmup
  const auto t0 = Clock::now();
  do {
    for (int i = 0; i < 16; ++i) batchStep();
    steps += 16 * static_cast<std::size_t>(lanes);
    elapsed = secondsSince(t0);
  } while (elapsed < window);
  if (arrStats != nullptr) *arrStats = bs.executor().arrayStats();
  return static_cast<double>(steps) / elapsed;
}

void writeJson(const std::string& path, const std::vector<Row>& rows,
               const benchx::RunMeta& meta) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"batch_eval\",\n";
  benchx::writeJsonMeta(out, meta);
  out << "  \"models\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"name\": \"" << r.name << "\"";
    char buf[256];
    for (std::size_t w = 0; w < kNumWidths; ++w) {
      std::snprintf(buf, sizeof buf, ", \"cand_per_sec_b%d\": %.0f",
                    kWidths[w], r.cand[w]);
      out << buf;
    }
    for (std::size_t w = 0; w < kNumWidths; ++w) {
      std::snprintf(buf, sizeof buf, ", \"replay_steps_per_sec_b%d\": %.0f",
                    kWidths[w], r.steps[w]);
      out << buf;
    }
    std::snprintf(buf, sizeof buf,
                  ", \"cand_speedup_b8\": %.2f, \"replay_speedup_b8\": %.2f",
                  r.candSpeedupB8(), r.stepSpeedupB8());
    out << buf;
    std::snprintf(buf, sizeof buf,
                  ", \"masked_cand_per_sec_b8\": %.0f"
                  ", \"overlay_skip_rate_b8\": %.4f",
                  r.maskedCand, r.skipRate);
    out << buf;
    std::snprintf(buf, sizeof buf,
                  ", \"interval_boxes_per_sec_b1\": %.0f"
                  ", \"interval_boxes_per_sec_b8\": %.0f"
                  ", \"interval_speedup_b8\": %.2f",
                  r.iboxB1, r.iboxB8, r.iboxSpeedupB8());
    out << buf;
    std::snprintf(buf, sizeof buf,
                  ", \"array_typed_row_rate_b8\": %.4f"
                  ", \"array_word_move_rate_b8\": %.4f",
                  r.arr.typedRowRate(), r.arr.wordMoveRate());
    out << buf;
    std::snprintf(buf, sizeof buf,
                  ", \"array_row_swaps_b8\": %llu"
                  ", \"array_plane_copies_b8\": %llu"
                  ", \"array_broadcast_binds_b8\": %llu"
                  ", \"array_resident_rebinds_b8\": %llu}%s\n",
                  static_cast<unsigned long long>(r.arr.planeSwaps),
                  static_cast<unsigned long long>(r.arr.planeCopies),
                  static_cast<unsigned long long>(r.arr.broadcastBinds),
                  static_cast<unsigned long long>(r.arr.residentRebinds),
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
      std::cerr << "usage: bench_batch_eval [--quick] [--json PATH] "
                   "[--seconds S] [--repeat N] [--git SHA] "
                   "[--timestamp TS]\n";
      return 2;
    }
  }
  if (repeat > 1) {
    std::printf("reporting the median of %d repeats per cell\n", repeat);
  }

  std::vector<Row> rows;
  for (const auto& info : bench::allBenchModels()) {
    const auto cm = compile::compile(info.build());
    Row row;
    row.name = info.name;

    const auto goal = residualGoal(cm);
    const auto vars = cm.inputInfos();
    Rng inputRng(42);
    std::vector<sim::InputVector> inputs;
    for (int i = 0; i < 256; ++i) {
      inputs.push_back(sim::randomInput(cm, inputRng));
    }
    for (std::size_t w = 0; w < kNumWidths; ++w) {
      row.cand[w] = benchx::medianOf(repeat, [&] {
        return measureCandidatesPerSec(goal, vars, kWidths[w], window);
      });
      row.steps[w] = benchx::medianOf(repeat, [&] {
        return measureReplayStepsPerSec(
            cm, kWidths[w], inputs, window,
            kWidths[w] == 8 ? &row.arr : nullptr);
      });
    }
    row.maskedCand = benchx::medianOf(repeat, [&] {
      return measureMaskedCandidatesPerSec(conjunctionGoal(cm), vars, 8,
                                           window, &row.skipRate);
    });
    row.iboxB1 = benchx::medianOf(
        repeat, [&] { return measureIntervalBoxesPerSec(cm, 1, window); });
    row.iboxB8 = benchx::medianOf(
        repeat, [&] { return measureIntervalBoxesPerSec(cm, 8, window); });
    rows.push_back(std::move(row));
  }

  std::printf("%-12s | %s\n", "", "candidates/sec by lane width (speedup)");
  std::printf("%-12s %12s %12s %12s %12s %12s %8s\n", "model", "B=1", "B=4",
              "B=8", "B=16", "B=32", "b8 spd");
  for (const Row& r : rows) {
    std::printf("%-12s %12.0f %12.0f %12.0f %12.0f %12.0f %7.2fx\n",
                r.name.c_str(), r.cand[0], r.cand[1], r.cand[2], r.cand[3],
                r.cand[4], r.candSpeedupB8());
  }
  std::printf("%-12s | %s\n", "", "replay steps/sec by lane width (speedup)");
  for (const Row& r : rows) {
    std::printf("%-12s %12.0f %12.0f %12.0f %12.0f %12.0f %7.2fx\n",
                r.name.c_str(), r.steps[0], r.steps[1], r.steps[2],
                r.steps[3], r.steps[4], r.stepSpeedupB8());
  }
  std::printf("%-12s | %s\n", "",
              "masked scan B=8 (runBounded) and interval refutation");
  std::printf("%-12s %14s %10s %14s %14s %8s\n", "model", "masked c/s",
              "skip", "boxes/s B=1", "boxes/s B=8", "i spd");
  for (const Row& r : rows) {
    std::printf("%-12s %14.0f %9.1f%% %14.0f %14.0f %7.2fx\n",
                r.name.c_str(), r.maskedCand, r.skipRate * 100.0, r.iboxB1,
                r.iboxB8, r.iboxSpeedupB8());
  }
  std::printf("%-12s | %s\n", "",
              "payload-row array paths at B=8 replay");
  std::printf("%-12s %10s %10s %10s %10s %10s %10s\n", "model", "typed",
              "wmove", "swaps", "copies", "bcasts", "resident");
  for (const Row& r : rows) {
    std::printf("%-12s %9.1f%% %9.1f%% %10llu %10llu %10llu %10llu\n",
                r.name.c_str(), r.arr.typedRowRate() * 100.0,
                r.arr.wordMoveRate() * 100.0,
                static_cast<unsigned long long>(r.arr.planeSwaps),
                static_cast<unsigned long long>(r.arr.planeCopies),
                static_cast<unsigned long long>(r.arr.broadcastBinds),
                static_cast<unsigned long long>(r.arr.residentRebinds));
  }
  int candWins = 0;
  for (const Row& r : rows) candWins += r.candSpeedupB8() >= 2.0 ? 1 : 0;
  std::printf("models with B=8 candidate speedup >= 2x: %d/%zu\n", candWins,
              rows.size());

  if (!jsonPath.empty()) {
    writeJson(jsonPath, rows, meta);
    std::printf("wrote %s\n", jsonPath.c_str());
  }

  if (quick) {
    for (const Row& r : rows) {
      if (r.cand[2] <= r.cand[0]) {
        std::fprintf(stderr,
                     "FAIL: B=8 batch not faster than scalar tape on %s "
                     "(%.0f vs %.0f cand/s)\n",
                     r.name.c_str(), r.cand[2], r.cand[0]);
        return 1;
      }
      // The two state-array-heavy rows were flat before the payload-row
      // array planes; keep them strictly ahead of the scalar engine.
      if ((r.name == "CPUTask" || r.name == "LANSwitch") &&
          r.steps[2] <= r.steps[0]) {
        std::fprintf(stderr,
                     "FAIL: B=8 replay not faster than scalar on %s "
                     "(%.0f vs %.0f steps/s)\n",
                     r.name.c_str(), r.steps[2], r.steps[0]);
        return 1;
      }
    }
    std::printf(
        "quick gate passed: B=8 beats scalar on every model "
        "(incl. CPUTask/LANSwitch replay)\n");
  }
  return 0;
}

}  // namespace
}  // namespace stcg

int main(int argc, char** argv) { return stcg::run(argc, argv); }
