#include "lint/lint.h"

#include "compile/compiler.h"

namespace stcg::lint {

const std::vector<CheckInfo>& allChecks() {
  static const std::vector<CheckInfo> kChecks = {
      // Model layer.
      {"invalid-ref", Severity::kError,
       "input port references a missing block, port, store or chart"},
      {"arity-mismatch", Severity::kError,
       "operand count disagrees with signs/ops string or chart inputs"},
      {"unbound-delay", Severity::kError,
       "delay hole with no input: its state never leaves the initial value"},
      {"chart-guard", Severity::kError, "chart transition without a guard"},
      {"lookup-table", Severity::kError,
       "lookup breakpoints not strictly increasing or length mismatch"},
      {"store-never-written", Severity::kWarning,
       "data store is read but never written (unbound variable)"},
      {"store-unused", Severity::kNote,
       "data store is neither read nor written"},
      {"type-mismatch", Severity::kWarning,
       "boolean signal used where a numeric operand is expected (or vice "
       "versa) across a block seam"},
      // Compiled layer.
      {"div-by-zero", Severity::kWarning,
       "division/modulo denominator may be zero under reachable state"},
      {"array-bounds", Severity::kWarning,
       "array index may fall outside the buffer (clamped at evaluation)"},
      {"constant-guard", Severity::kWarning,
       "decision guard folds to a constant: one arm can never execute"},
      {"unreachable-branch", Severity::kWarning,
       "branch proven unreachable from every reachable state"},
      {"unreachable-objective", Severity::kWarning,
       "test objective proven unsatisfiable"},
      {"unreachable-condition", Severity::kNote,
       "condition polarity proven unobservable while its decision is "
       "active"},
      // Tape layer (--tape): static verification of the compiled tapes.
      {"tape-slot-bounds", Severity::kError,
       "tape instruction reads or writes a slot outside its space"},
      {"tape-use-before-def", Severity::kError,
       "tape operand slot read before any instruction defines it"},
      {"tape-const-clobbered", Severity::kError,
       "tape instruction overwrites a constant or variable slot"},
      {"tape-type-mismatch", Severity::kError,
       "tape result type breaks the typed-lane executor contract"},
      {"tape-root-undefined", Severity::kError,
       "tape root names an invalid or never-defined slot"},
      {"tape-unsafe-sharing", Severity::kError,
       "array slot written by more than one tape instruction"},
      {"tape-cse-duplicate", Severity::kWarning,
       "two live pure tape instructions compute the same value"},
      {"tape-internal-error", Severity::kError,
       "tape construction or producer-side verification threw"},
      {"tape-shrink", Severity::kNote,
       "slot-reuse frame reduction for one compiled tape"},
  };
  return kChecks;
}

LintResult lintModel(const model::Model& m, const LintOptions& opt) {
  LintResult result;
  runModelChecks(m, result.sink);
  if (!result.sink.hasErrors()) {
    try {
      const compile::CompiledModel cm = compile::compile(m);
      runCompiledChecks(cm, opt, result);
      if (opt.tapeChecks) runTapeChecks(cm, result.sink);
    } catch (const compile::CompileError& e) {
      // The model layer aims to catch everything compile() rejects, but
      // stays sound if lowering finds a problem the checks missed.
      result.sink.report(Severity::kError, "invalid-ref", m.name(),
                         std::string("compilation failed: ") + e.what());
    }
  }
  result.sink.sortBySeverity();
  return result;
}

}  // namespace stcg::lint
