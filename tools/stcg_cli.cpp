// stcg_cli: command-line front end for the library.
//
//   stcg_cli --list
//   stcg_cli lint <model> [--json] [--no-reachability]
//   stcg_cli <model> [--tool stcg|sldv|simcotest] [--budget MS] [--seed N]
//            [--jobs N] [--engine tree|tape|jit]
//            [--solver box|local|portfolio] [--prune-dead]
//            [--export suite.txt] [--csv curve.csv] [--dot model.dot]
//            [--invariant] [--trace]
//
// <model> is one of the Table-II benchmark names (see --list).
//
// `lint` exit codes: 0 = no errors (warnings/notes allowed), 1 = errors
// found, 2 = usage or model-load failure.
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "analysis/reachability.h"
#include "baselines/simcotest_like.h"
#include "baselines/sldv_like.h"
#include "benchmodels/benchmodels.h"
#include "compile/compiler.h"
#include "lint/lint.h"
#include "model/export.h"
#include "model/serialize.h"
#include "sim/simulator.h"
#include "stcg/export.h"
#include "stcg/stcg_generator.h"

namespace {

using namespace stcg;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --list\n"
      "       %s lint <model> [--json] [--no-reachability] [--tape]\n"
      "       %s <model> [--tool stcg|sldv|simcotest] [--budget MS]\n"
      "            [--seed N] [--jobs N] [--batch N] [--engine tree|tape|jit]\n"
      "            [--solver box|local|portfolio] [--max-rounds N]\n"
      "            [--checkpoint FILE] [--checkpoint-every N] [--resume]\n"
      "            [--prune-dead] [--export FILE] [--csv FILE] [--dot FILE]\n"
      "            [--save-model FILE] [--invariant] [--trace]\n"
      "  <model> is a benchmark name (--list) or an .stcgm file path\n"
      "  --jobs N runs the STCG solve loop on N lanes (0 = all cores);\n"
      "    results are identical for a fixed seed regardless of N\n"
      "  --batch N sets the lockstep tape lane width for replay expansion\n"
      "    and suite replay (default 8, 1 = scalar);\n"
      "    results are identical for a fixed seed regardless of N\n"
      "  --engine selects the simulation engine: tape (default), tree (the\n"
      "    semantic oracle) or jit (native code via the system C compiler;\n"
      "    falls back to tape with a warning when unavailable — see\n"
      "    STCG_JIT / STCG_JIT_CC / STCG_JIT_CACHE in the README); results\n"
      "    are bit-identical across engines\n"
      "  --checkpoint FILE saves the STCG campaign state to FILE every\n"
      "    --checkpoint-every N rounds (default 1, atomic tmp+rename);\n"
      "    --resume continues from FILE if it exists (fresh start with a\n"
      "    note otherwise); the resumed run is bit-identical to one that\n"
      "    was never interrupted\n"
      "  --max-rounds N stops after N campaign rounds (0 = unlimited), a\n"
      "    deterministic stop condition unlike the wall-clock --budget\n"
      "  lint exits 0 (clean), 1 (errors found) or 2 (bad usage/load)\n",
      argv0, argv0, argv0);
  return 2;
}

void traceSink(const std::string& line, void*) {
  std::printf("  %s\n", line.c_str());
}

/// Strict integer parse for numeric flags: the whole token must be a
/// decimal integer within [lo, hi]. Anything else — trailing junk
/// ("8x"), non-numeric text ("abc"), empty strings, out-of-range or
/// overflowing values ("-1" for a count, 20-digit numbers) — exits 2
/// with a diagnostic naming the flag. std::atoi's silent 0 / UB on
/// overflow is exactly what this replaces.
std::int64_t parseIntFlag(const std::string& flag, const char* text,
                          std::int64_t lo, std::int64_t hi) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < lo || v > hi) {
    std::fprintf(stderr,
                 "invalid value for %s: '%s' (expected integer in "
                 "[%lld, %lld])\n",
                 flag.c_str(), text, static_cast<long long>(lo),
                 static_cast<long long>(hi));
    std::exit(2);
  }
  return v;
}

/// Resolve <model> as a benchmark name or an .stcgm file path; exits
/// with status 2 on failure.
model::Model loadModelArg(const std::string& modelName) {
  if (modelName.find('/') != std::string::npos ||
      modelName.find(".stcgm") != std::string::npos) {
    try {
      return model::loadModel(modelName);
    } catch (const model::SerializeError& e) {
      std::fprintf(stderr, "cannot load '%s': %s\n", modelName.c_str(),
                   e.what());
      std::exit(2);
    }
  }
  try {
    return bench::buildBenchModel(modelName);
  } catch (const std::out_of_range&) {
    std::fprintf(stderr, "unknown model '%s'; try --list\n",
                 modelName.c_str());
    std::exit(2);
  }
}

int runLint(int argc, char** argv) {
  if (argc < 3) return usage(argv[0]);
  bool wantJson = false;
  lint::LintOptions opt;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      wantJson = true;
    } else if (arg == "--no-reachability") {
      opt.reachabilityChecks = false;
    } else if (arg == "--tape") {
      opt.tapeChecks = true;
    } else {
      return usage(argv[0]);
    }
  }
  const model::Model m = loadModelArg(argv[2]);
  const lint::LintResult result = lint::lintModel(m, opt);
  if (wantJson) {
    std::printf("%s", result.sink.renderJson(m.name()).c_str());
  } else {
    std::printf("%s", result.sink.render().c_str());
    if (!result.compiledChecksRan) {
      std::printf("compiled-layer checks skipped (model has errors)\n");
    } else if (result.exclusions.count() > 0) {
      std::printf("%d coverage goal(s) provably unreachable\n",
                  result.exclusions.count());
    }
  }
  return result.sink.hasErrors() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);

  if (std::strcmp(argv[1], "--list") == 0) {
    for (const auto& info : bench::allBenchModels()) {
      std::printf("%-12s %s (paper: %d branches, %d blocks)\n",
                  info.name.c_str(), info.functionality.c_str(),
                  info.paperBranches, info.paperBlocks);
    }
    return 0;
  }

  if (std::strcmp(argv[1], "lint") == 0) {
    return runLint(argc, argv);
  }

  const std::string modelName = argv[1];
  std::string tool = "stcg";
  std::string exportPath, csvPath, dotPath, saveModelPath;
  bool wantInvariant = false, wantTrace = false, wantResume = false;
  gen::GenOptions opt;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--tool") {
      tool = next();
    } else if (arg == "--budget") {
      opt.budgetMillis = parseIntFlag(arg, next(), 0, INT64_MAX);
    } else if (arg == "--seed") {
      opt.seed =
          static_cast<std::uint64_t>(parseIntFlag(arg, next(), 0, INT64_MAX));
    } else if (arg == "--jobs") {
      opt.jobs = static_cast<int>(parseIntFlag(arg, next(), 0, 4096));
    } else if (arg == "--batch") {
      opt.batch = static_cast<int>(parseIntFlag(arg, next(), 0, 4096));
    } else if (arg == "--engine") {
      const std::string s = next();
      if (s == "tape") {
        opt.simEngine = sim::EvalEngine::kTape;
      } else if (s == "tree") {
        opt.simEngine = sim::EvalEngine::kTree;
      } else if (s == "jit") {
        opt.simEngine = sim::EvalEngine::kJit;
      } else {
        std::fprintf(stderr,
                     "invalid value for --engine: '%s' (expected tree, tape "
                     "or jit)\n",
                     s.c_str());
        return 2;
      }
    } else if (arg == "--solver") {
      const std::string s = next();
      if (s == "box") {
        opt.solverKind = solver::SolverKind::kBox;
      } else if (s == "local") {
        opt.solverKind = solver::SolverKind::kLocalSearch;
      } else if (s == "portfolio") {
        opt.solverKind = solver::SolverKind::kPortfolio;
      } else {
        return usage(argv[0]);
      }
    } else if (arg == "--prune-dead") {
      opt.pruneProvablyDead = true;
    } else if (arg == "--checkpoint") {
      opt.checkpointPath = next();
    } else if (arg == "--checkpoint-every") {
      opt.checkpointEveryRounds =
          static_cast<int>(parseIntFlag(arg, next(), 1, 1'000'000));
    } else if (arg == "--resume") {
      wantResume = true;
    } else if (arg == "--max-rounds") {
      opt.maxRounds = static_cast<int>(parseIntFlag(arg, next(), 0, 1'000'000));
    } else if (arg == "--export") {
      exportPath = next();
    } else if (arg == "--csv") {
      csvPath = next();
    } else if (arg == "--dot") {
      dotPath = next();
    } else if (arg == "--save-model") {
      saveModelPath = next();
    } else if (arg == "--invariant") {
      wantInvariant = true;
    } else if (arg == "--trace") {
      wantTrace = true;
    } else {
      return usage(argv[0]);
    }
  }

  if (wantResume && opt.checkpointPath.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint FILE\n");
    return 2;
  }
  if (!opt.checkpointPath.empty() && tool != "stcg") {
    std::fprintf(stderr,
                 "--checkpoint/--resume only apply to --tool stcg (got "
                 "'%s')\n",
                 tool.c_str());
    return 2;
  }
  if (wantResume) {
    // Lenient at the CLI: resume when the checkpoint exists, otherwise
    // start fresh (so a kill-early/retry loop needs no state of its
    // own). The library call itself stays strict and throws on a
    // missing file.
    if (static_cast<bool>(std::ifstream(opt.checkpointPath))) {
      opt.resume = true;
    } else {
      std::printf("checkpoint '%s' not found; starting fresh\n",
                  opt.checkpointPath.c_str());
    }
  }

  model::Model m = loadModelArg(modelName);

  if (!saveModelPath.empty()) {
    if (model::saveModel(saveModelPath, m)) {
      std::printf("wrote %s\n", saveModelPath.c_str());
    }
  }
  if (!dotPath.empty()) {
    std::ofstream f(dotPath);
    f << model::toDot(m);
    std::printf("wrote %s\n", dotPath.c_str());
  }

  const auto cm = compile::compile(m);
  std::printf("%s: %zu branches, %d conditions, %zu states\n",
              cm.name.c_str(), cm.branches.size(), cm.conditionCount(),
              cm.states.size());
  std::printf("%s", model::modelStats(m).toString().c_str());

  if (opt.simEngine == sim::EvalEngine::kJit) {
    // Probe once so a toolchain failure is reported up front (the module
    // is memoized in-process, so the generator's simulators reuse it).
    const sim::Simulator probe(cm, sim::EvalEngine::kJit);
    if (probe.engine() != sim::EvalEngine::kJit) {
      std::printf("warning [jit-unavailable] %s; running on the interpreted "
                  "tape engine\n",
                  probe.jitFallbackReason().c_str());
    }
  }

  if (wantInvariant) {
    const auto inv = analysis::computeStateInvariant(cm);
    std::printf("%s", analysis::renderInvariant(cm, inv).c_str());
    const auto dead = analysis::findDeadBranches(cm);
    std::printf("provably dead branches: %zu\n", dead.deadBranches.size());
    for (const int b : dead.deadBranches) {
      const auto& br = cm.branches[static_cast<std::size_t>(b)];
      std::printf(
          "  %s : %s\n",
          cm.decisions[static_cast<std::size_t>(br.decision)].name.c_str(),
          br.label.c_str());
    }
  }

  gen::StcgGenerator stcg;
  if (wantTrace) stcg.setTrace(traceSink, nullptr);
  gen::SldvLikeGenerator sldv;
  gen::SimCoTestLikeGenerator simcotest;
  gen::Generator* g = nullptr;
  if (tool == "stcg") {
    g = &stcg;
  } else if (tool == "sldv") {
    g = &sldv;
  } else if (tool == "simcotest") {
    g = &simcotest;
  } else {
    return usage(argv[0]);
  }

  gen::GenResult res;
  try {
    res = g->generate(cm, opt);
  } catch (const expr::EvalError& e) {
    // Typed generation-time failure: bad options, or a missing/corrupt/
    // stale checkpoint under --resume.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::printf(
      "\n%s: %zu tests | Decision %.1f%% | Condition %.1f%% | MCDC %.1f%%\n",
      res.toolName.c_str(), res.tests.size(), res.coverage.decision * 100,
      res.coverage.condition * 100, res.coverage.mcdc * 100);
  std::printf(
      "solver: %d calls (%d SAT / %d UNSAT / %d unknown), %d steps, "
      "%d tree nodes, %d goals pruned\n",
      res.stats.solveCalls, res.stats.solveSat, res.stats.solveUnsat,
      res.stats.solveUnknown, res.stats.stepsExecuted, res.stats.treeNodes,
      res.stats.goalsPruned);

  if (!exportPath.empty()) {
    if (gen::writeTestSuite(exportPath, cm, res.tests)) {
      std::printf("wrote %s\n", exportPath.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", exportPath.c_str());
      return 1;
    }
  }
  if (!csvPath.empty()) {
    std::ofstream f(csvPath);
    f << "time_sec,decision_coverage,origin\n";
    for (const auto& e : res.events) {
      f << e.timeSec << ',' << e.decisionCoverage << ','
        << (e.origin == gen::TestOrigin::kSolved ? "solved" : "random")
        << '\n';
    }
    std::printf("wrote %s\n", csvPath.c_str());
  }
  return 0;
}
