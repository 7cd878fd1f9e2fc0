// Centralized environment-flag parsing for the STCG_* switches.
//
// Every engine escape hatch (STCG_JIT, STCG_TAPE_VERIFY, STCG_SIMD, ...)
// used to hand-roll its own getenv + strcmp, which meant each one
// silently invented its own notion of truthiness and typos like
// STCG_JIT=off enabled the JIT. These helpers give every switch one
// strict grammar and one failure mode: an unrecognized value keeps the
// documented default and emits a single stderr diagnostic naming the
// variable, the offending value, and the accepted spellings.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace stcg::util {

/// Boolean flag. Accepted (case-insensitive): "0"/"false"/"off"/"no" and
/// "1"/"true"/"on"/"yes". Unset or empty returns `def`; any other value
/// returns `def` and reports a diagnostic once per (variable, value).
[[nodiscard]] bool envFlag(const char* name, bool def);

/// Enumerated flag: returns the index of the (case-insensitive) match in
/// `allowed`, or -1 when the variable is unset or empty. An unrecognized
/// value returns -1 and reports a diagnostic once per (variable, value).
[[nodiscard]] int envEnum(const char* name,
                          const std::vector<std::string>& allowed);

/// Free-form string variable; unset or empty yields nullopt.
[[nodiscard]] std::optional<std::string> envString(const char* name);

/// Number of diagnostics reported so far (test hook).
[[nodiscard]] std::size_t envDiagnosticCount();

}  // namespace stcg::util
