// One round-capped STCG campaign, measured from outside the library.
//
// The benchmark's coordinator (perfbench/run.py) starts this program once
// per campaign under a deadline, so a campaign that hangs is killed and
// counted as failed instead of stalling the run. This program builds the
// model, compiles it, constructs a gen::Campaign, drives it round by
// round (optionally destroying it halfway and restoring a fresh one from
// its checkpoint), finishes it, and then checks the produced suite
// against the semantic oracle: a replay from reset through the tree
// evaluator into a fresh CoverageTracker must reproduce the coverage the
// campaign reported. It prints one JSON object describing the campaign.
//
// Only public entry points are timed: bench::buildBenchModel,
// compile::compile, the Campaign constructor, runRound, saveCheckpoint,
// restore and finish. With --trace 1 every such call is also recorded as
// a span, and each round is classed as a solve round or an expansion
// round by whether state().stats.randomSequences changed during it.
//
// Every campaign runs the tape engine at batch 8 with a per-query box cap
// of 4096 and both wall-clock budgets off (the constants below), so the
// round and box caps alone bound the work.
//
// Usage: stcg_perfbench --model NAME --seed N --rounds R [--jobs J]
//          [--prune 0|1] [--checkpoint PATH --checkpoint-every C
//          --resume-at K] [--trace 0|1]
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "benchmodels/benchmodels.h"
#include "compile/compiler.h"
#include "stcg/campaign.h"
#include "stcg/testgen.h"

namespace {

using Clock = std::chrono::steady_clock;
using namespace stcg;

// Settings shared by every workload.
constexpr sim::EvalEngine kEngine = sim::EvalEngine::kTape;
constexpr int kBatch = 8;
constexpr int kMaxBoxes = 4096;  // per-query box cap
constexpr long long kNoBudget = -1;  // wall-clock budgets never bind

struct Args {
  std::string model;
  std::uint64_t seed = 1;
  int rounds = 0;
  int jobs = 1;
  bool prune = false;
  std::string checkpointPath;
  int checkpointEvery = 0;
  int resumeAt = 0;  // destroy + restore at the first save past this round
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "stcg_perfbench: %s\n", why);
  std::exit(2);
}

long long parseInt(const char* s, const char* flag) {
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0') {
    std::fprintf(stderr, "stcg_perfbench: bad value for %s: %s\n", flag, s);
    std::exit(2);
  }
  return v;
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("every flag takes a value");
    const char* v = argv[++i];
    if (flag == "--model") a.model = v;
    else if (flag == "--seed") a.seed = parseInt(v, "--seed");
    else if (flag == "--rounds") a.rounds = int(parseInt(v, "--rounds"));
    else if (flag == "--jobs") a.jobs = int(parseInt(v, "--jobs"));
    else if (flag == "--prune") a.prune = parseInt(v, "--prune") != 0;
    else if (flag == "--checkpoint") a.checkpointPath = v;
    else if (flag == "--checkpoint-every")
      a.checkpointEvery = int(parseInt(v, "--checkpoint-every"));
    else if (flag == "--resume-at")
      a.resumeAt = int(parseInt(v, "--resume-at"));
    else if (flag == "--trace") a.trace = parseInt(v, "--trace") != 0;
    else usage(("unknown flag " + flag).c_str());
  }
  if (a.model.empty() || a.rounds <= 0)
    usage("--model and --rounds are required");
  if ((a.checkpointEvery > 0 || a.resumeAt > 0) && a.checkpointPath.empty())
    usage("--checkpoint-every/--resume-at need --checkpoint");
  if (a.resumeAt > 0 && a.checkpointEvery <= 0)
    usage("--resume-at needs --checkpoint-every");
  return a;
}

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process CPU time (user + system, all threads) in seconds.
double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Peak resident set of this process image, from VmHWM. getrusage's
/// ru_maxrss is no use here: it survives exec, so a child would report
/// its parent's peak whenever that is larger.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// In-memory span log; written out with the campaign record.
struct Spans {
  bool on = false;
  Clock::time_point origin = Clock::now();
  std::string json;

  void add(const char* name, Clock::time_point t0, Clock::time_point t1) {
    if (!on) return;
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s[\"%s\",%.9f,%.9f]",
                  json.empty() ? "" : ",", name,
                  std::chrono::duration<double>(t0 - origin).count(),
                  std::chrono::duration<double>(t1 - t0).count());
    json += buf;
  }
};

/// Times `f()` and records it as span `name`; returns the seconds taken.
template <class F>
double timed(Spans& spans, const char* name, F&& f) {
  const auto t0 = Clock::now();
  f();
  const auto t1 = Clock::now();
  spans.add(name, t0, t1);
  return std::chrono::duration<double>(t1 - t0).count();
}

/// FNV-1a over the suite's input steps and the campaign's GenStats.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ULL;
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
};

std::uint64_t fingerprint(const gen::GenResult& r) {
  Fnv f;
  f.u64(r.tests.size());
  for (const auto& t : r.tests) {
    f.u64(t.steps.size());
    for (const auto& step : t.steps) {
      for (const auto& s : step) {
        f.u64(std::uint64_t(s.type()));
        switch (s.type()) {
          case expr::Type::kBool: f.u64(s.asBool() ? 1 : 0); break;
          case expr::Type::kInt: f.u64(std::uint64_t(s.asInt())); break;
          case expr::Type::kReal: {
            const double d = s.asReal();
            f.bytes(&d, sizeof d);
            break;
          }
        }
      }
    }
  }
  const gen::GenStats& st = r.stats;
  for (int v : {st.solveCalls, st.solveSat, st.solveUnsat, st.solveUnknown,
                st.stepsExecuted, st.treeNodes, st.randomSequences,
                st.goalsPruned}) {
    f.u64(std::uint64_t(std::int64_t(v)));
  }
  return f.h;
}

/// Per-round aggregates gathered while tracing.
struct RoundAgg {
  int solveCount = 0, expandCount = 0;
  double solveS = 0, solveMaxS = 0, solveCpuS = 0, expandS = 0;
  long long solveCalls = 0, expandSteps = 0, expandNewNodes = 0;
  int saves = 0;
  double saveS = 0, restoreS = 0, ctorResumeS = 0;
  long long checkpointBytes = 0;
};

int run(const Args& a) {
  Spans spans;
  spans.on = a.trace;
  gen::GenOptions opt;
  opt.seed = a.seed;
  opt.jobs = a.jobs;
  opt.batch = kBatch;
  opt.simEngine = kEngine;
  opt.maxRounds = a.rounds;
  opt.budgetMillis = kNoBudget;
  opt.solver.timeBudgetMillis = kNoBudget;
  opt.solver.maxBoxes = kMaxBoxes;
  opt.pruneProvablyDead = a.prune;
  if (a.checkpointEvery > 0) {
    opt.checkpointPath = a.checkpointPath;
    opt.checkpointEveryRounds = a.checkpointEvery;
  }

  // Set-up: model build, compile, campaign construction.
  const auto tSetup = Clock::now();
  std::optional<model::Model> m;
  const double buildS = timed(spans, "model.build",
                              [&] { m = bench::buildBenchModel(a.model); });
  std::unique_ptr<compile::CompiledModel> cm;
  const double compileS = timed(spans, "compile", [&] {
    cm = std::make_unique<compile::CompiledModel>(compile::compile(*m));
  });
  std::unique_ptr<gen::Campaign> c;
  const double ctorS = timed(spans, "campaign.ctor", [&] {
    c = std::make_unique<gen::Campaign>(*cm, opt);
  });
  const double setupS = secondsSince(tSetup);
  const int goalsPruned = c->state().stats.goalsPruned;

  // The campaign proper: first runRound to finish() returning.
  RoundAgg agg;
  bool resumed = false;
  const double cpu0 = cpuSeconds();
  const auto tCampaign = Clock::now();
  while (!c->finished()) {
    if (!a.trace) {
      c->runRound();
    } else {
      const gen::GenStats before = c->state().stats;
      const auto nodes0 = static_cast<long long>(c->state().tree.size());
      const double roundCpu0 = cpuSeconds();
      const auto t0 = Clock::now();
      c->runRound();
      const auto t1 = Clock::now();
      const gen::GenStats& after = c->state().stats;
      const double dt = std::chrono::duration<double>(t1 - t0).count();
      if (after.randomSequences != before.randomSequences) {
        spans.add("round.expand", t0, t1);
        ++agg.expandCount;
        agg.expandS += dt;
        agg.expandSteps += after.stepsExecuted - before.stepsExecuted;
        agg.expandNewNodes +=
            static_cast<long long>(c->state().tree.size()) - nodes0;
      } else {
        spans.add("round.solve", t0, t1);
        ++agg.solveCount;
        agg.solveS += dt;
        agg.solveMaxS = std::max(agg.solveMaxS, dt);
        agg.solveCpuS += cpuSeconds() - roundCpu0;
        agg.solveCalls += after.solveCalls - before.solveCalls;
      }
    }
    if (c->checkpointDue()) {
      agg.saveS += timed(spans, "checkpoint.save",
                         [&] { c->saveCheckpoint(a.checkpointPath); });
      ++agg.saves;
      if (a.trace) {
        agg.checkpointBytes = static_cast<long long>(
            std::filesystem::file_size(a.checkpointPath));
      }
      // Batched expansion rounds can advance the round counter by more
      // than one, so the resume happens at the first save at or past
      // --resume-at.
      if (!resumed && a.resumeAt > 0 && c->state().round >= a.resumeAt &&
          !c->finished()) {
        // The service pattern: the worker holding the campaign goes away
        // and a fresh one picks it up from the checkpoint.
        resumed = true;
        c.reset();
        agg.ctorResumeS += timed(spans, "campaign.ctor", [&] {
          c = std::make_unique<gen::Campaign>(*cm, opt);
        });
        agg.restoreS += timed(spans, "checkpoint.restore",
                              [&] { c->restore(a.checkpointPath); });
      }
    }
  }
  gen::GenResult result;
  const double finishS =
      timed(spans, "campaign.finish", [&] { result = c->finish(); });
  const double campaignS = secondsSince(tCampaign);
  const double cpuS = cpuSeconds() - cpu0;
  const double rssMb = peakRssMb();  // before the oracle allocates

  // Oracle: replay from reset through the tree evaluator into a fresh
  // tracker carrying the campaign's exclusions.
  coverage::CoverageTracker oracle(*cm);
  long long replaySteps = 0;
  int goalsTotal = 0, goalsCovered = 0;
  const double oracleS = timed(spans, "oracle.replay", [&] {
    if (!c->state().exclusions.empty()) {
      oracle.applyExclusions(c->state().exclusions);
    }
    sim::Simulator sim(*cm, sim::EvalEngine::kTree);
    for (const auto& t : result.tests) {
      sim.reset();
      for (const auto& step : t.steps) (void)sim.step(step, &oracle);
      replaySteps += static_cast<long long>(t.steps.size());
    }
    for (const auto& g : gen::buildGoals(*cm, opt.includeConditionGoals,
                                         opt.includeConditionGoals)) {
      ++goalsTotal;
      goalsCovered += gen::goalCovered(oracle, g) ? 1 : 0;
    }
  });
  const gen::CoverageSummary o = gen::summarize(oracle);
  const gen::CoverageSummary& r = result.coverage;
  const bool oracleOk = o.decision == r.decision &&
                        o.condition == r.condition && o.mcdc == r.mcdc &&
                        o.coveredBranches == r.coveredBranches &&
                        o.totalBranches == r.totalBranches;
  if (!oracleOk) {
    std::fprintf(stderr,
                 "stcg_perfbench: oracle mismatch on %s seed %llu: campaign "
                 "%.6f/%.6f/%.6f, oracle %.6f/%.6f/%.6f\n",
                 a.model.c_str(), static_cast<unsigned long long>(a.seed),
                 r.decision, r.condition, r.mcdc, o.decision, o.condition,
                 o.mcdc);
  }

  const gen::GenStats& st = result.stats;
  std::printf(
      "{\"model\":\"%s\",\"seed\":%llu,\"jobs\":%d,\"rounds\":%d,"
      "\"setup_s\":%.9f,\"build_s\":%.9f,\"compile_s\":%.9f,"
      "\"ctor_s\":%.9f,\"campaign_s\":%.9f,\"cpu_s\":%.9f,"
      "\"rss_mb\":%.3f,\"finish_s\":%.9f,\"oracle_s\":%.9f,"
      "\"goals_total\":%d,\"goals_covered\":%d,\"goals_pruned\":%d,"
      "\"decision\":%.17g,\"condition\":%.17g,\"mcdc\":%.17g,"
      "\"oracle_ok\":%s,\"fingerprint\":\"%016llx\","
      "\"solver_calls\":%d,\"solver_sat\":%d,\"solver_unknown\":%d,"
      "\"sim_steps\":%d,\"tree_nodes\":%d,\"replay_tests\":%zu,"
      "\"replay_steps\":%lld,\"resumed\":%s",
      a.model.c_str(), static_cast<unsigned long long>(a.seed), a.jobs,
      c->state().round, setupS, buildS, compileS, ctorS, campaignS, cpuS,
      rssMb, finishS, oracleS, goalsTotal, goalsCovered, goalsPruned,
      r.decision, r.condition, r.mcdc, oracleOk ? "true" : "false",
      static_cast<unsigned long long>(fingerprint(result)), st.solveCalls,
      st.solveSat, st.solveUnknown, st.stepsExecuted, st.treeNodes,
      result.tests.size(), replaySteps, resumed ? "true" : "false");
  if (a.trace) {
    std::printf(
        ",\"solve_count\":%d,\"solve_s\":%.9f,"
        "\"solve_max_s\":%.9f,\"solve_cpu_s\":%.9f,\"solve_calls\":%lld,"
        "\"expand_count\":%d,\"expand_s\":%.9f,\"expand_steps\":%lld,"
        "\"expand_new_nodes\":%lld,\"saves\":%d,\"save_s\":%.9f,"
        "\"restore_s\":%.9f,\"ctor_resume_s\":%.9f,"
        "\"checkpoint_bytes\":%lld,\"spans\":[%s]",
        agg.solveCount, agg.solveS, agg.solveMaxS, agg.solveCpuS,
        agg.solveCalls, agg.expandCount, agg.expandS, agg.expandSteps,
        agg.expandNewNodes, agg.saves, agg.saveS, agg.restoreS,
        agg.ctorResumeS, agg.checkpointBytes, spans.json.c_str());
  }
  std::printf("}\n");
  if (!a.checkpointPath.empty()) {
    std::error_code ec;
    std::filesystem::remove(a.checkpointPath, ec);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parseArgs(argc, argv);
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stcg_perfbench: %s seed %llu: %s\n",
                 a.model.c_str(), static_cast<unsigned long long>(a.seed),
                 e.what());
    return 1;
  }
}
