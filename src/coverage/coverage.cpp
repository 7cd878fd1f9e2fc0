#include "coverage/coverage.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>

#include "expr/eval.h"
#include "util/strings.h"

namespace stcg::coverage {

CoverageTracker::CoverageTracker(const compile::CompiledModel& cm)
    : cm_(&cm) {
  branchCovered_.assign(cm.branches.size(), false);
  decisionFirstBranch_.assign(cm.decisions.size(), -1);
  for (const auto& br : cm.branches) {
    auto& first = decisionFirstBranch_[static_cast<std::size_t>(br.decision)];
    if (first < 0) first = br.id;
  }
  condSeen_.resize(cm.decisions.size());
  for (std::size_t d = 0; d < cm.decisions.size(); ++d) {
    condSeen_[d].assign(cm.decisions[d].conditions.size(),
                        std::array<bool, 2>{false, false});
  }
  mcdcVectors_.resize(cm.decisions.size());
  mcdcDemonstrated_.assign(cm.decisions.size(), 0);
  objectiveCovered_.assign(cm.objectives.size(), false);
  branchExcluded_.assign(cm.branches.size(), false);
  objectiveExcluded_.assign(cm.objectives.size(), false);
  condExcluded_.resize(cm.decisions.size());
  for (std::size_t d = 0; d < cm.decisions.size(); ++d) {
    condExcluded_[d].assign(cm.decisions[d].conditions.size(),
                            std::array<bool, 2>{false, false});
  }
  mcdcExcluded_.assign(cm.decisions.size(), 0);
}

void CoverageTracker::applyExclusions(const Exclusions& excl) {
  for (const int b : excl.branches) {
    branchExcluded_.at(static_cast<std::size_t>(b)) = true;
  }
  for (const int o : excl.objectives) {
    objectiveExcluded_.at(static_cast<std::size_t>(o)) = true;
  }
  for (const auto& s : excl.conditionSlots) {
    condExcluded_.at(static_cast<std::size_t>(s.decision))
        .at(static_cast<std::size_t>(s.cond))[s.polarity ? 1 : 0] = true;
  }
  for (const auto& s : excl.mcdcSlots) {
    if (s.cond < 64) {
      mcdcExcluded_.at(static_cast<std::size_t>(s.decision)) |=
          (std::uint64_t{1} << s.cond);
    }
  }
}

bool CoverageTracker::conditionExcluded(int decisionId, int cond,
                                        bool polarity) const {
  return condExcluded_.at(static_cast<std::size_t>(decisionId))
      .at(static_cast<std::size_t>(cond))[polarity ? 1 : 0];
}

bool CoverageTracker::mcdcExcluded(int decisionId, int cond) const {
  if (cond >= 64) return false;
  return (mcdcExcluded_.at(static_cast<std::size_t>(decisionId)) >> cond) &
         1u;
}

int CoverageTracker::recordDecision(int decisionId, int arm) {
  const int branchId =
      decisionFirstBranch_.at(static_cast<std::size_t>(decisionId)) + arm;
  auto ref = branchCovered_.at(static_cast<std::size_t>(branchId));
  if (!ref) {
    branchCovered_[static_cast<std::size_t>(branchId)] = true;
    ++coveredBranches_;
    return branchId;
  }
  return -1;
}

bool CoverageTracker::recordConditions(int decisionId,
                                       const std::uint8_t* condVals,
                                       std::size_t n, bool outcome) {
  auto& seen = condSeen_.at(static_cast<std::size_t>(decisionId));
  if (n != seen.size()) {
    throw expr::EvalError("coverage: decision " + std::to_string(decisionId) +
                          " has " + std::to_string(seen.size()) +
                          " condition(s), got " + std::to_string(n) +
                          " value(s)");
  }
  bool anyNew = false;
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < n; ++i) {
    auto& slot = seen[i][condVals[i] ? 1 : 0];
    if (!slot) {
      slot = true;
      anyNew = true;
    }
    if (i < 64 && condVals[i]) mask |= (std::uint64_t{1} << i);
  }
  const auto& d = cm_->decisions[static_cast<std::size_t>(decisionId)];
  if (!d.isBooleanDecision() || d.conditions.empty()) return anyNew;
  auto& vectors = mcdcVectors_[static_cast<std::size_t>(decisionId)];
  if (vectors.size() >= kMaxVectorsPerDecision) return anyNew;
  const McdcVector v{mask, outcome};
  if (std::find(vectors.begin(), vectors.end(), v) == vectors.end()) {
    // Unique-cause pairing against every prior vector: a single-bit mask
    // difference with opposite outcomes demonstrates that bit's condition.
    auto& demo = mcdcDemonstrated_[static_cast<std::size_t>(decisionId)];
    for (const auto& w : vectors) {
      if (w.outcome == outcome) continue;
      const std::uint64_t diff = w.mask ^ mask;
      if (diff != 0 && (diff & (diff - 1)) == 0) demo |= diff;
    }
    vectors.push_back(v);
    // A fresh vector may complete an MCDC pair; treat it as progress so
    // generators emit a test case that preserves it on replay.
    anyNew = true;
  }
  return anyNew;
}

bool CoverageTracker::mcdcDemonstrated(int decisionId, int cond) const {
  if (cond >= 64) return false;
  return (mcdcDemonstrated_.at(static_cast<std::size_t>(decisionId)) >>
          cond) &
         1u;
}

bool CoverageTracker::conditionSeen(int decisionId, int cond,
                                    bool polarity) const {
  return condSeen_.at(static_cast<std::size_t>(decisionId))
      .at(static_cast<std::size_t>(cond))[polarity ? 1 : 0];
}

std::pair<int, int> CoverageTracker::branchCounts() const {
  int covered = 0, total = 0;
  for (std::size_t i = 0; i < branchCovered_.size(); ++i) {
    if (branchExcluded_[i]) continue;
    ++total;
    covered += branchCovered_[i] ? 1 : 0;
  }
  return {covered, total};
}

double CoverageTracker::decisionCoverage() const {
  const auto [covered, total] = branchCounts();
  if (total == 0) return 1.0;
  return static_cast<double>(covered) / static_cast<double>(total);
}

std::pair<int, int> CoverageTracker::conditionCounts() const {
  int seen = 0, total = 0;
  for (std::size_t d = 0; d < condSeen_.size(); ++d) {
    for (std::size_t c = 0; c < condSeen_[d].size(); ++c) {
      for (const int pol : {0, 1}) {
        if (condExcluded_[d][c][static_cast<std::size_t>(pol)]) continue;
        ++total;
        seen += condSeen_[d][c][static_cast<std::size_t>(pol)] ? 1 : 0;
      }
    }
  }
  return {seen, total};
}

double CoverageTracker::conditionCoverage() const {
  const auto [seen, total] = conditionCounts();
  if (total == 0) return 1.0;
  return static_cast<double>(seen) / static_cast<double>(total);
}

std::pair<int, int> CoverageTracker::mcdcCounts() const {
  int demonstrated = 0, total = 0;
  for (std::size_t d = 0; d < cm_->decisions.size(); ++d) {
    const auto& dec = cm_->decisions[d];
    if (!dec.isBooleanDecision() || dec.conditions.empty()) continue;
    const std::size_t nc = std::min<std::size_t>(dec.conditions.size(), 64);
    const std::uint64_t demo = mcdcDemonstrated_[d];
    const std::uint64_t excl = mcdcExcluded_[d];
    for (std::size_t c = 0; c < nc; ++c) {
      if ((excl >> c) & 1u) continue;
      ++total;
      if ((demo >> c) & 1u) ++demonstrated;
    }
  }
  return {demonstrated, total};
}

double CoverageTracker::mcdcCoverage() const {
  const auto [demonstrated, total] = mcdcCounts();
  if (total == 0) return 1.0;
  return static_cast<double>(demonstrated) / static_cast<double>(total);
}

bool CoverageTracker::recordObjective(int objectiveId) {
  auto idx = static_cast<std::size_t>(objectiveId);
  if (objectiveCovered_.at(idx)) return false;
  objectiveCovered_[idx] = true;
  return true;
}

bool CoverageTracker::objectiveCovered(int objectiveId) const {
  return objectiveCovered_.at(static_cast<std::size_t>(objectiveId));
}

std::pair<int, int> CoverageTracker::objectiveCounts() const {
  int met = 0, total = 0;
  for (std::size_t i = 0; i < objectiveCovered_.size(); ++i) {
    if (objectiveExcluded_[i]) continue;
    ++total;
    met += objectiveCovered_[i] ? 1 : 0;
  }
  return {met, total};
}

std::vector<int> CoverageTracker::uncoveredBranches() const {
  std::vector<int> out;
  for (std::size_t i = 0; i < branchCovered_.size(); ++i) {
    if (!branchCovered_[i]) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::string CoverageTracker::report() const {
  std::string out;
  int excludedBranches = 0;
  for (const bool e : branchExcluded_) excludedBranches += e ? 1 : 0;
  out += "Coverage for " + cm_->name + "\n";
  // branchCounts() keeps numerator and denominator over the same goal
  // set: coveredBranches_ also counts excluded branches covered anyway,
  // which over the excluded denominator can read as more than 100%.
  const auto [bc, bt] = branchCounts();
  out += "  Decision:  " + formatPercent(decisionCoverage()) + " (" +
         std::to_string(bc) + "/" + std::to_string(bt) + " branches)\n";
  const auto [cs, ct] = conditionCounts();
  out += "  Condition: " + formatPercent(conditionCoverage()) + " (" +
         std::to_string(cs) + "/" + std::to_string(ct) + " polarities)\n";
  const auto [ms, mt] = mcdcCounts();
  out += "  MCDC:      " + formatPercent(mcdcCoverage()) + " (" +
         std::to_string(ms) + "/" + std::to_string(mt) + " conditions)\n";
  if (const auto [met, total] = objectiveCounts(); total > 0) {
    out += "  Objectives: " + std::to_string(met) + "/" +
           std::to_string(total) + " met\n";
  }
  const auto missing = uncoveredBranches();
  if (!missing.empty()) {
    out += "  Uncovered branches:";
    for (const int b : missing) {
      const auto& br = cm_->branches[static_cast<std::size_t>(b)];
      out += " " + cm_->decisions[static_cast<std::size_t>(br.decision)].name +
             ":" + br.label;
      if (branchExcluded_[static_cast<std::size_t>(b)]) {
        out += "(unreachable)";
      }
    }
    out += "\n";
  }
  if (excludedBranches > 0) {
    out += "  Excluded as proven unreachable: " +
           std::to_string(excludedBranches) + " branches\n";
  }
  return out;
}

// ----- serialization ------------------------------------------------------

namespace {

[[noreturn]] void failCov(const std::string& what) {
  throw expr::EvalError("coverage state: " + what);
}

std::string covToken(std::istream& is, const char* what) {
  std::string tok;
  if (!(is >> tok)) failCov(std::string("unexpected EOF reading ") + what);
  return tok;
}

void covExpect(std::istream& is, const char* tag) {
  const std::string tok = covToken(is, tag);
  if (tok != tag) {
    failCov(std::string("expected tag '") + tag + "', got '" + tok + "'");
  }
}

std::uint64_t covU64(std::istream& is, const char* what, int base = 10) {
  const std::string tok = covToken(is, what);
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(tok.c_str(), &end, base);
  if (end == tok.c_str() || *end != '\0' || errno == ERANGE) {
    failCov(std::string("malformed integer for ") + what + ": '" + tok + "'");
  }
  return v;
}

/// Bit vectors are emitted as strings of '0'/'1' ("-" when empty) so the
/// stream stays token-oriented and human-diffable.
template <typename BoolVec>
void writeBits(std::ostream& os, const BoolVec& bits, std::size_t n) {
  if (n == 0) {
    os << '-';
    return;
  }
  for (std::size_t i = 0; i < n; ++i) os << (bits[i] ? '1' : '0');
}

std::string readBits(std::istream& is, std::size_t expected,
                     const char* what) {
  const std::string tok = covToken(is, what);
  if (expected == 0) {
    if (tok != "-") failCov(std::string("expected empty bits for ") + what);
    return {};
  }
  if (tok.size() != expected) {
    failCov(std::string("bit count mismatch for ") + what + ": expected " +
            std::to_string(expected) + ", got " + std::to_string(tok.size()));
  }
  for (const char c : tok) {
    if (c != '0' && c != '1') {
      failCov(std::string("malformed bit string for ") + what);
    }
  }
  return tok;
}

}  // namespace

void writeExclusions(std::ostream& os, const Exclusions& excl) {
  os << "excl " << excl.branches.size();
  for (const int b : excl.branches) os << ' ' << b;
  os << ' ' << excl.objectives.size();
  for (const int o : excl.objectives) os << ' ' << o;
  os << ' ' << excl.conditionSlots.size();
  for (const auto& s : excl.conditionSlots) {
    os << ' ' << s.decision << ' ' << s.cond << ' ' << (s.polarity ? 1 : 0);
  }
  os << ' ' << excl.mcdcSlots.size();
  for (const auto& s : excl.mcdcSlots) os << ' ' << s.decision << ' ' << s.cond;
}

Exclusions readExclusions(std::istream& is) {
  covExpect(is, "excl");
  Exclusions e;
  const auto count = [&](const char* what) {
    const std::uint64_t n = covU64(is, what);
    if (n > (std::uint64_t{1} << 32)) failCov("count out of range");
    return static_cast<std::size_t>(n);
  };
  const auto readInt = [&](const char* what) {
    return static_cast<int>(static_cast<std::int64_t>(covU64(is, what)));
  };
  const std::size_t nb = count("excluded branches");
  for (std::size_t i = 0; i < nb; ++i) e.branches.push_back(readInt("branch"));
  const std::size_t no = count("excluded objectives");
  for (std::size_t i = 0; i < no; ++i) {
    e.objectives.push_back(readInt("objective"));
  }
  const std::size_t nc = count("excluded condition slots");
  for (std::size_t i = 0; i < nc; ++i) {
    Exclusions::ConditionSlot s;
    s.decision = readInt("slot decision");
    s.cond = readInt("slot cond");
    s.polarity = covU64(is, "slot polarity") != 0;
    e.conditionSlots.push_back(s);
  }
  const std::size_t nm = count("excluded mcdc slots");
  for (std::size_t i = 0; i < nm; ++i) {
    Exclusions::McdcSlot s;
    s.decision = readInt("mcdc decision");
    s.cond = readInt("mcdc cond");
    e.mcdcSlots.push_back(s);
  }
  return e;
}

void CoverageTracker::serializeState(std::ostream& os) const {
  os << "cov-begin\nbranches " << branchCovered_.size() << ' ';
  writeBits(os, branchCovered_, branchCovered_.size());
  os << ' ';
  writeBits(os, branchExcluded_, branchExcluded_.size());
  os << "\nobjectives " << objectiveCovered_.size() << ' ';
  writeBits(os, objectiveCovered_, objectiveCovered_.size());
  os << ' ';
  writeBits(os, objectiveExcluded_, objectiveExcluded_.size());
  os << "\ndecisions " << condSeen_.size() << '\n';
  for (std::size_t d = 0; d < condSeen_.size(); ++d) {
    const std::size_t nc = condSeen_[d].size();
    os << "d " << nc << ' ';
    // Polarity-major pairs: seen[c][0] seen[c][1] per condition.
    if (nc == 0) {
      os << "- -";
    } else {
      for (std::size_t c = 0; c < nc; ++c) {
        os << (condSeen_[d][c][0] ? '1' : '0')
           << (condSeen_[d][c][1] ? '1' : '0');
      }
      os << ' ';
      for (std::size_t c = 0; c < nc; ++c) {
        os << (condExcluded_[d][c][0] ? '1' : '0')
           << (condExcluded_[d][c][1] ? '1' : '0');
      }
    }
    char hex[40];
    std::snprintf(hex, sizeof hex, " %llx %llx",
                  static_cast<unsigned long long>(mcdcDemonstrated_[d]),
                  static_cast<unsigned long long>(mcdcExcluded_[d]));
    os << hex << ' ' << mcdcVectors_[d].size();
    for (const auto& v : mcdcVectors_[d]) {
      std::snprintf(hex, sizeof hex, " %llx %d",
                    static_cast<unsigned long long>(v.mask),
                    v.outcome ? 1 : 0);
      os << hex;
    }
    os << '\n';
  }
  os << "cov-end\n";
}

void CoverageTracker::restoreState(std::istream& is) {
  covExpect(is, "cov-begin");
  covExpect(is, "branches");
  if (covU64(is, "branch count") != branchCovered_.size()) {
    failCov("branch count disagrees with the compiled model");
  }
  const std::string bc =
      readBits(is, branchCovered_.size(), "covered branches");
  const std::string be =
      readBits(is, branchExcluded_.size(), "excluded branches");
  covExpect(is, "objectives");
  if (covU64(is, "objective count") != objectiveCovered_.size()) {
    failCov("objective count disagrees with the compiled model");
  }
  const std::string oc =
      readBits(is, objectiveCovered_.size(), "covered objectives");
  const std::string oe =
      readBits(is, objectiveExcluded_.size(), "excluded objectives");
  covExpect(is, "decisions");
  if (covU64(is, "decision count") != condSeen_.size()) {
    failCov("decision count disagrees with the compiled model");
  }
  // All sizes verified: commit from here on.
  coveredBranches_ = 0;
  for (std::size_t i = 0; i < branchCovered_.size(); ++i) {
    branchCovered_[i] = bc[i] == '1';
    branchExcluded_[i] = be[i] == '1';
    coveredBranches_ += branchCovered_[i] ? 1 : 0;
  }
  for (std::size_t i = 0; i < objectiveCovered_.size(); ++i) {
    objectiveCovered_[i] = oc[i] == '1';
    objectiveExcluded_[i] = oe[i] == '1';
  }
  for (std::size_t d = 0; d < condSeen_.size(); ++d) {
    covExpect(is, "d");
    const std::size_t nc = condSeen_[d].size();
    if (covU64(is, "condition count") != nc) {
      failCov("condition count disagrees with the compiled model");
    }
    const std::string seen = readBits(is, 2 * nc, "condition seen bits");
    const std::string excl = readBits(is, 2 * nc, "condition excl bits");
    for (std::size_t c = 0; c < nc; ++c) {
      condSeen_[d][c][0] = seen[2 * c] == '1';
      condSeen_[d][c][1] = seen[2 * c + 1] == '1';
      condExcluded_[d][c][0] = excl[2 * c] == '1';
      condExcluded_[d][c][1] = excl[2 * c + 1] == '1';
    }
    mcdcDemonstrated_[d] = covU64(is, "mcdc demonstrated mask", 16);
    mcdcExcluded_[d] = covU64(is, "mcdc excluded mask", 16);
    const std::uint64_t nv = covU64(is, "mcdc vector count");
    if (nv > kMaxVectorsPerDecision) {
      failCov("mcdc vector count exceeds the per-decision bound");
    }
    mcdcVectors_[d].clear();
    mcdcVectors_[d].reserve(static_cast<std::size_t>(nv));
    for (std::uint64_t i = 0; i < nv; ++i) {
      McdcVector v;
      v.mask = covU64(is, "mcdc vector mask", 16);
      v.outcome = covU64(is, "mcdc vector outcome") != 0;
      mcdcVectors_[d].push_back(v);
    }
  }
  covExpect(is, "cov-end");
}

}  // namespace stcg::coverage
