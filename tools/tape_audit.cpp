// Standalone tape-audit gate for tools/check.sh: sweeps every tape the
// engines would execute and exits non-zero on any verifier error or any
// raw-vs-optimized differential mismatch. Runs in three stages:
//
//   1. bench models:  sim / interval / distance tapes of all eight bench
//      models verify clean, raw and slot-allocated tapes alike.
//   2. random models: a corpus of randomly wired block models (delays for
//      state, switches for branches) goes through the same sweep, so the
//      verifier sees shapes no hand-written model exercises.
//   3. random DAGs:   fuzz_dag expression corpora execute raw vs optimized
//      tapes side by side and every root is compared bitwise — the check
//      on the optimizer's scalar slot reuse.
//
// check.sh runs the full sweep inside the ASan/UBSan build and the
// `--quick` gate inside the Release bench build.
//
// Usage: tape_audit [--quick] [--models N] [--fuzz N] [--seed S]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/interval_tape.h"
#include "benchmodels/benchmodels.h"
#include "compile/compiler.h"
#include "compile/model_tape.h"
#include "expr/builder.h"
#include "expr/eval.h"
#include "expr/tape.h"
#include "expr/tape_passes.h"
#include "expr/tape_verify.h"
#include "model/model.h"
#include "solver/distance_tape.h"
#include "util/rng.h"

#include "fuzz_dag.h"

namespace stcg {
namespace {

using expr::ExprPtr;
using expr::Scalar;
using expr::Type;
using model::Model;
using model::PortRef;

int failures = 0;

void fail(const std::string& msg) {
  std::fprintf(stderr, "FAIL: %s\n", msg.c_str());
  ++failures;
}

bool verifyClean(const expr::Tape& t, const std::string& what) {
  const expr::TapeVerifyResult res = expr::verifyTape(t);
  if (!res.hasErrors()) return true;
  fail(what + " failed verification:\n" + res.render());
  return false;
}

// ----- stages 1 and 2: whole-model sweep ------------------------------------

struct SweepStats {
  int models = 0;
  int shrank = 0;
  int distanceTapes = 0;
};

/// Verify every tape this compiled model can hand an engine: the
/// simulation ModelTape, the interval tape over the next-state roots, and
/// one distance tape per branch path constraint. Each raw/optimized pair
/// is verified explicitly, so the sweep also gates Release builds, where
/// the producers' own maybeRequireVerifiedTape is off.
void auditCompiledModel(const compile::CompiledModel& cm,
                        const std::string& name, SweepStats& stats) {
  try {
    const compile::ModelTape mt = compile::buildModelTape(cm);
    verifyClean(*mt.rawTape, name + " sim (raw)");
    verifyClean(*mt.tape, name + " sim");
    ++stats.models;
    if (mt.passStats.shrank()) ++stats.shrank;

    if (!cm.states.empty()) {
      std::vector<ExprPtr> nextRoots;
      nextRoots.reserve(cm.states.size());
      for (const auto& sv : cm.states) nextRoots.push_back(sv.next);
      const analysis::IntervalTapeBuild built =
          analysis::buildIntervalTape(nextRoots);
      verifyClean(*built.rawTape, name + " interval (raw)");
      verifyClean(*built.tape, name + " interval");
    }

    for (const auto& br : cm.branches) {
      // Non-boolean / array goal: the solver would not compile it either.
      const ExprPtr& goal = br.pathConstraint;
      if (goal->type != Type::kBool || goal->isArray()) continue;
      const solver::DistanceTapeBuild built = solver::buildDistanceTape(goal);
      verifyClean(*built.rawTape, name + " distance:" + br.label + " (raw)");
      verifyClean(*built.tape, name + " distance:" + br.label);
      ++stats.distanceTapes;
    }
  } catch (const expr::EvalError& e) {
    fail(name + ": tape construction failed: " + std::string(e.what()));
  }
}

/// A randomly wired block model: real-typed dataflow grown from a few
/// inports, unit delays for state (inputs saturated so the interval
/// fixpoint stays bounded), switches for branch structure, and a
/// compare-to-const test objective when one is available.
Model randomModel(Rng& rng, int idx) {
  Model m("fuzzmodel" + std::to_string(idx));
  std::vector<PortRef> reals, bools;
  int id = 0;
  const auto nm = [&](const char* base) {
    return std::string(base) + std::to_string(id++);
  };
  const auto pick = [&](const std::vector<PortRef>& p) {
    return p[rng.index(p.size())];
  };

  const int nIn = rng.uniformInt(2, 4);
  for (int i = 0; i < nIn; ++i) {
    reals.push_back(m.addInport(nm("in"), Type::kReal, -50, 50));
  }
  std::vector<PortRef> delays;
  const int nDelay = rng.uniformInt(1, 2);
  for (int i = 0; i < nDelay; ++i) {
    delays.push_back(m.addUnitDelayHole(nm("d"), Scalar::r(0.0)));
    reals.push_back(delays.back());
  }

  const int kGrow = rng.uniformInt(12, 28);
  for (int it = 0; it < kGrow; ++it) {
    switch (rng.index(bools.empty() ? 6 : 7)) {
      case 0:
        reals.push_back(m.addSum(nm("s"), {pick(reals), pick(reals)},
                                 rng.chance(0.5) ? "++" : "+-"));
        break;
      case 1:
        reals.push_back(
            m.addGain(nm("g"), pick(reals), rng.uniformReal(-3.0, 3.0)));
        break;
      case 2:
        reals.push_back(m.addMinMax(
            nm("m"),
            rng.chance(0.5) ? model::MinMaxOp::kMin : model::MinMaxOp::kMax,
            pick(reals), pick(reals)));
        break;
      case 3:
        reals.push_back(m.addSaturation(nm("sat"), pick(reals), -100, 100));
        break;
      case 4:
        bools.push_back(m.addCompareToConst(
            nm("c"), pick(reals), static_cast<model::RelOp>(rng.index(6)),
            rng.uniformReal(-20.0, 20.0)));
        break;
      case 5:
        reals.push_back(m.addSwitch(nm("sw"), pick(reals), pick(reals),
                                    pick(reals),
                                    model::SwitchCriteria::kGreaterThan,
                                    rng.uniformReal(-10.0, 10.0)));
        break;
      default:
        reals.push_back(m.addAbs(nm("a"), pick(reals)));
        break;
    }
  }
  for (const PortRef& d : delays) {
    m.bindDelayInput(d, m.addSaturation(nm("dsat"), pick(reals), -100, 100));
  }
  m.addOutport("y", pick(reals));
  if (!bools.empty()) m.addTestObjective("obj", pick(bools));
  return m;
}

// ----- stage 3: random-DAG differential --------------------------------------

void fuzzDagTrial(Rng& rng, int trial) {
  fuzz::FuzzDag d = fuzz::makeFuzzDag(rng, /*withArrays=*/true);
  std::vector<ExprPtr> roots;
  const auto addRootFrom = [&](const std::vector<ExprPtr>& pool) {
    roots.push_back(pool[rng.index(pool.size())]);
  };
  for (int i = 0; i < 3; ++i) addRootFrom(d.bools);
  for (int i = 0; i < 2; ++i) {
    addRootFrom(d.ints);
    addRootFrom(d.reals);
  }
  addRootFrom(d.realArrays);
  addRootFrom(d.intArrays);

  const std::string where = "dag trial " + std::to_string(trial);
  const fuzz::TapePair p = fuzz::buildTapePair(roots);
  verifyClean(*p.raw, where + " (raw)");
  verifyClean(*p.optimized, where + " (optimized)");

  expr::TapeExecutor raw(p.raw), opt(p.optimized);
  const expr::Env env = fuzz::randomEnv(rng, d);
  raw.bindEnv(env);
  raw.run();
  opt.bindEnv(env);
  opt.run();

  for (std::size_t i = 0; i < roots.size(); ++i) {
    const std::string at = where + " root " + std::to_string(i);
    if (roots[i]->isArray()) {
      const auto& a = raw.array(p.rawSlots[i]);
      const auto& b = opt.array(p.optSlots[i]);
      if (a.size() != b.size()) {
        fail(at + ": array width mismatch");
        continue;
      }
      for (std::size_t j = 0; j < a.size(); ++j) {
        if (!fuzz::sameScalar(a[j], b[j])) {
          fail(at + " [" + std::to_string(j) + "]: optimized != raw");
        }
      }
    } else if (!fuzz::sameScalar(raw.scalar(p.rawSlots[i]),
                                 opt.scalar(p.optSlots[i]))) {
      fail(at + ": optimized != raw");
    }
  }
}

int runAudit(int argc, char** argv) {
  int nModels = 20;
  int nFuzz = 60;
  std::uint64_t seed = 20260807;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      nModels = 6;
      nFuzz = 12;
    } else if (a == "--models" && i + 1 < argc) {
      nModels = std::atoi(argv[++i]);
    } else if (a == "--fuzz" && i + 1 < argc) {
      nFuzz = std::atoi(argv[++i]);
    } else if (a == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: tape_audit [--quick] [--models N] [--fuzz N] "
                   "[--seed S]\n");
      return 2;
    }
  }

  SweepStats bench;
  for (const auto& info : stcg::bench::allBenchModels()) {
    auditCompiledModel(compile::compile(stcg::bench::buildBenchModel(info.name)),
                       info.name, bench);
  }
  std::printf("bench models: %d audited, %d shrank, %d distance tapes\n",
              bench.models, bench.shrank, bench.distanceTapes);
  if (bench.shrank < 4) {
    fail("slot reuse shrank only " + std::to_string(bench.shrank) +
         "/8 bench models (acceptance floor is 4)");
  }

  Rng rng(seed);
  SweepStats random;
  for (int i = 0; i < nModels; ++i) {
    auditCompiledModel(compile::compile(randomModel(rng, i)),
                       "random model " + std::to_string(i), random);
  }
  std::printf("random models: %d audited, %d shrank, %d distance tapes\n",
              random.models, random.shrank, random.distanceTapes);

  for (int t = 0; t < nFuzz; ++t) fuzzDagTrial(rng, t);
  std::printf("random DAGs: %d differential trials\n", nFuzz);

  if (failures > 0) {
    std::fprintf(stderr, "tape audit FAILED: %d finding(s)\n", failures);
    return 1;
  }
  std::printf("tape audit passed\n");
  return 0;
}

}  // namespace
}  // namespace stcg

int main(int argc, char** argv) { return stcg::runAudit(argc, argv); }
