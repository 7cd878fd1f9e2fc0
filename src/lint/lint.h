// Model lint: static checks over the Model graph and the compiled Expr IR.
//
// lintModel() runs two layers of checks:
//
//   Model layer (runModelChecks) — structural well-formedness of the block
//   graph: invalid port references, operand/sign arity mismatches, unbound
//   delay holes (state that can never leave its initial value), data
//   stores read but never written, type mismatches on boolean/numeric
//   seams, malformed lookup tables and regions. Errors here mean the
//   model would not compile (or would simulate nonsense).
//
//   Compiled layer (runCompiledChecks) — semantic hazards over the lowered
//   expressions, using the interval state invariant from
//   analysis/reachability: division/modulo whose denominator may be zero,
//   array indices that may fall outside their buffer, constant-foldable
//   decision guards, and decision/condition/objective coverage goals that
//   are *provably unreachable* (interval evaluation, HC4 contraction,
//   then solver refutation). Proven-unreachable goals are returned as
//   coverage::Exclusions so generators can drop them from both the solve
//   loop and the coverage denominators.
//
// The severity contract: bench-quality models produce zero errors;
// warnings flag hazards and dead logic (the LEDLC Switch-Case default arm
// is a true positive); notes are observations that never affect exit
// codes.
#pragma once

#include <string>
#include <vector>

#include "analysis/reachability.h"
#include "compile/compiled_model.h"
#include "coverage/coverage.h"
#include "lint/diagnostics.h"
#include "model/model.h"

namespace stcg::lint {

struct LintOptions {
  /// Run the reachability-based checks (invariant + unreachable goals).
  /// These dominate lint time on large models; structural checks alone
  /// are near-instant.
  bool reachabilityChecks = true;
  analysis::ReachabilityOptions reach{};
  /// Run the tape-layer checks: static verification (expr::verifyTape)
  /// of every tape the engines would execute — sim, interval, distance —
  /// raw and optimized, plus per-tape shrink notes. Off by default: the
  /// findings judge the tape pipeline, not the model.
  bool tapeChecks = false;
};

/// One entry of the static check registry.
struct CheckInfo {
  const char* id;           // kebab-case check id
  Severity severity;        // severity its findings are reported at
  const char* summary;      // one-line description
};

/// The full check registry, in the order checks run.
[[nodiscard]] const std::vector<CheckInfo>& allChecks();

struct LintResult {
  DiagnosticSink sink;
  /// False when model-layer errors stopped compilation: the compiled
  /// checks (hazards, reachability) did not run.
  bool compiledChecksRan = false;
  /// Coverage goals proven statically unreachable (empty unless the
  /// compiled checks ran with reachabilityChecks on).
  coverage::Exclusions exclusions;
  /// Human-readable label per excluded goal, for generator trace logs.
  std::vector<std::string> exclusionLabels;
};

/// Run every check against `m`. Model-layer checks always run; the
/// compiled layer runs only when they produce no errors (an ill-formed
/// model cannot be lowered). Diagnostics come back sorted by severity.
[[nodiscard]] LintResult lintModel(const model::Model& m,
                                   const LintOptions& opt = {});

/// Model-layer checks only (no compilation required).
void runModelChecks(const model::Model& m, DiagnosticSink& sink);

/// Compiled-layer checks only; appends to `out.sink` and fills
/// `out.exclusions`. Sets out.compiledChecksRan.
void runCompiledChecks(const compile::CompiledModel& cm,
                       const LintOptions& opt, LintResult& out);

/// Tape-layer checks only: build and statically verify the model's sim,
/// interval and distance tapes (raw and slot-allocated), report
/// each verifier finding under its stable check id, and emit one
/// "tape-shrink" note per tape.
void runTapeChecks(const compile::CompiledModel& cm, DiagnosticSink& sink);

/// The generator entry point: prove coverage goals unreachable and return
/// them as exclusions (optionally with one label per excluded goal).
/// Runs its own invariant computation; no diagnostics are produced.
[[nodiscard]] coverage::Exclusions findUnreachableGoals(
    const compile::CompiledModel& cm,
    std::vector<std::string>* labels = nullptr,
    const analysis::ReachabilityOptions& opt = {});

}  // namespace stcg::lint
