// Tape-layer lint checks: run the static tape verifier over every tape
// the engines would execute for this model — the simulation ModelTape,
// the interval tape over the next-state roots, and one distance tape per
// branch path constraint — on both the raw build and the slot-allocated
// tape. Each verifier finding surfaces as a diagnostic under its stable
// check id (expr::tapeIssueCheckId); a per-family "tape-shrink" note
// reports the slot allocator's frame reduction.
//
// On a well-formed model every tape verifies clean: an error here means
// the tape builder or the slot allocator violated an engine invariant, not
// that the model is wrong — which is exactly why it is worth a lint
// gate in front of long generation runs.

#include <string>

#include "analysis/interval_tape.h"
#include "compile/model_tape.h"
#include "expr/eval.h"
#include "expr/tape_verify.h"
#include "lint/lint.h"
#include "solver/distance_tape.h"

namespace stcg::lint {

namespace {

using compile::CompiledModel;

/// Report every finding of one verifier run under `location`.
void reportIssues(const expr::TapeVerifyResult& res,
                  const std::string& location, DiagnosticSink& sink) {
  for (const auto& issue : res.issues) {
    const Severity sev = expr::tapeIssueIsError(issue.kind)
                             ? Severity::kError
                             : Severity::kWarning;
    std::string msg = issue.message;
    if (issue.instr >= 0) {
      msg += " (instr #" + std::to_string(issue.instr) + ")";
    }
    sink.report(sev, expr::tapeIssueCheckId(issue.kind), location,
                std::move(msg));
  }
}

void reportShrink(const expr::TapePassStats& stats,
                  const std::string& location, DiagnosticSink& sink) {
  sink.report(Severity::kNote, "tape-shrink", location, stats.summary());
}

/// Verify a raw/optimized tape pair and report the shrink.
void checkPair(const expr::Tape& raw, const expr::Tape& optimized,
               const expr::TapePassStats& stats, const std::string& location,
               DiagnosticSink& sink) {
  reportIssues(expr::verifyTape(raw), location + " (raw)", sink);
  reportIssues(expr::verifyTape(optimized), location, sink);
  reportShrink(stats, location, sink);
}

}  // namespace

void runTapeChecks(const CompiledModel& cm, DiagnosticSink& sink) {
  try {
    // Simulation tape: every root the simulator reads per step.
    const compile::ModelTape mt = compile::buildModelTape(cm);
    checkPair(*mt.rawTape, *mt.tape, mt.passStats, "tape 'sim'", sink);

    // Interval tape: the reachability fixpoint's next-state roots.
    if (!cm.states.empty()) {
      std::vector<expr::ExprPtr> nextRoots;
      nextRoots.reserve(cm.states.size());
      for (const auto& sv : cm.states) nextRoots.push_back(sv.next);
      const analysis::IntervalTapeBuild built =
          analysis::buildIntervalTape(nextRoots);
      checkPair(*built.rawTape, *built.tape, built.stats, "tape 'interval'",
                sink);
    }

    // Distance tapes: one per branch path constraint (what the local
    // search would compile when chasing that branch).
    for (const auto& br : cm.branches) {
      // A non-boolean / array goal is one the solver would not compile
      // either — nothing to verify.
      const expr::ExprPtr& goal = br.pathConstraint;
      if (goal->type != expr::Type::kBool || goal->isArray()) continue;
      const auto& d = cm.decisions[static_cast<std::size_t>(br.decision)];
      const solver::DistanceTapeBuild built = solver::buildDistanceTape(goal);
      checkPair(*built.rawTape, *built.tape, built.stats,
                "tape 'distance:" + d.name + ":" + br.label + "'", sink);
    }
  } catch (const expr::EvalError& e) {
    // A producer's own maybeRequireVerifiedTape threw (debug builds /
    // STCG_TAPE_VERIFY=1) before we could collect findings ourselves.
    sink.report(Severity::kError, "tape-internal-error", "tape",
                std::string("tape construction failed: ") + e.what());
  }
}

}  // namespace stcg::lint
