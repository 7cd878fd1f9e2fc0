// Coverage bookkeeping: Decision, Condition, and MCDC.
//
// Decision Coverage  — fraction of branches (decision arms) executed.
// Condition Coverage — fraction of atomic-condition polarities observed
//                      while their decision was active (each condition
//                      counts twice: once true, once false).
// MCDC               — fraction of conditions of boolean (two-arm)
//                      decisions whose independent effect on the outcome
//                      was demonstrated by a unique-cause pair: two
//                      recorded evaluations differing only in that
//                      condition, with different decision outcomes.
//
// The tracker mirrors how Simulink's coverage tool scores a test suite:
// observations accumulate across every executed step (the suite), and
// percentages are computed over the model's static goal sets.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "compile/compiled_model.h"

namespace stcg::coverage {

/// One recorded evaluation of a boolean decision: the condition values
/// (bit i = condition i) and the outcome (true = arm 0 taken).
struct McdcVector {
  std::uint64_t mask = 0;
  bool outcome = false;

  [[nodiscard]] bool operator==(const McdcVector& o) const {
    return mask == o.mask && outcome == o.outcome;
  }
};

/// Goals proven statically unsatisfiable (by the lint / reachability
/// pass). Excluded goals drop out of the coverage denominators: a suite
/// cannot be blamed for not reaching logic that no input sequence can
/// reach. Exclusion is driven by *proofs* — applying a guessed exclusion
/// would inflate the reported percentages.
struct Exclusions {
  std::vector<int> branches;                 // branch ids
  std::vector<int> objectives;               // objective ids
  /// Unreachable condition polarities: {decision, condition, polarity}.
  struct ConditionSlot {
    int decision = -1;
    int cond = -1;
    bool polarity = false;
    [[nodiscard]] bool operator==(const ConditionSlot&) const = default;
  };
  std::vector<ConditionSlot> conditionSlots;
  /// MCDC obligations with an unreachable outcome or polarity.
  struct McdcSlot {
    int decision = -1;
    int cond = -1;
    [[nodiscard]] bool operator==(const McdcSlot&) const = default;
  };
  std::vector<McdcSlot> mcdcSlots;

  [[nodiscard]] bool empty() const {
    return branches.empty() && objectives.empty() &&
           conditionSlots.empty() && mcdcSlots.empty();
  }
  [[nodiscard]] bool operator==(const Exclusions&) const = default;
  /// Total number of excluded goals across all four kinds.
  [[nodiscard]] int count() const {
    return static_cast<int>(branches.size() + objectives.size() +
                            conditionSlots.size() + mcdcSlots.size());
  }
};

class CoverageTracker {
 public:
  explicit CoverageTracker(const compile::CompiledModel& cm);

  /// Remove proven-unreachable goals from every denominator. Observations
  /// on excluded goals are still recorded (a covered "excluded" goal would
  /// indicate an unsound proof) but no longer counted.
  void applyExclusions(const Exclusions& excl);

  /// Record that `arm` of `decisionId` executed. Returns the branch id if
  /// this arm was newly covered, -1 otherwise.
  int recordDecision(int decisionId, int arm);

  /// Record the condition values of an *active* decision evaluation:
  /// `count` 0/1 bytes, `condVals[i]` being condition i's value (the form
  /// the pooled sim::StepObservationBatch rows feed directly). `outcome`
  /// is arm==0 for boolean decisions (ignored otherwise). Returns true if
  /// any condition polarity or MCDC vector was observed for the first
  /// time. Throws expr::EvalError, leaving the tracker unchanged, when
  /// `count` differs from the decision's condition count.
  bool recordConditions(int decisionId, const std::uint8_t* condVals,
                        std::size_t count, bool outcome);

  [[nodiscard]] bool branchCovered(int branchId) const {
    return branchCovered_.at(static_cast<std::size_t>(branchId));
  }
  [[nodiscard]] bool conditionSeen(int decisionId, int cond,
                                   bool polarity) const;

  /// Whether condition `cond` of boolean decision `decisionId` has a
  /// recorded unique-cause pair (its MCDC obligation is met).
  [[nodiscard]] bool mcdcDemonstrated(int decisionId, int cond) const;

  /// Custom test objectives. recordObjective returns true when newly met.
  bool recordObjective(int objectiveId);
  [[nodiscard]] bool objectiveCovered(int objectiveId) const;
  [[nodiscard]] std::pair<int, int> objectiveCounts() const;

  /// Raw counts over ALL branches, ignoring exclusions (coveredBranchCount
  /// includes excluded branches that were covered anyway — an unsound
  /// exclusion proof shows up here). For reporting, use branchCounts():
  /// pairing these raw counts with excluded denominators double-counts a
  /// goal as both pruned and covered, pushing ratios past 100%.
  [[nodiscard]] int coveredBranchCount() const { return coveredBranches_; }
  [[nodiscard]] int totalBranchCount() const {
    return static_cast<int>(branchCovered_.size());
  }

  /// {covered, total} over non-excluded branches only — numerator and
  /// denominator drawn from the same goal set, so covered/total always
  /// equals decisionCoverage().
  [[nodiscard]] std::pair<int, int> branchCounts() const;

  /// Percentages in [0, 1]. Empty goal sets count as fully covered.
  [[nodiscard]] double decisionCoverage() const;
  [[nodiscard]] double conditionCoverage() const;
  [[nodiscard]] double mcdcCoverage() const;

  /// Number of MCDC-demonstrated conditions and the MCDC goal count.
  [[nodiscard]] std::pair<int, int> mcdcCounts() const;
  [[nodiscard]] std::pair<int, int> conditionCounts() const;

  /// Branch ids that remain uncovered (for dead-logic reporting).
  [[nodiscard]] std::vector<int> uncoveredBranches() const;

  /// Multi-line human-readable summary.
  [[nodiscard]] std::string report() const;

  /// Serialize the mutable observation + exclusion state (covered
  /// branches, condition polarities, the ordered MCDC vector log and its
  /// demonstrated/excluded masks, objectives) as whitespace-separated
  /// tokens. The model structure is NOT serialized: restoreState() reads
  /// the stream back into a tracker constructed from the same compiled
  /// model and throws expr::EvalError when any recorded size disagrees
  /// with that model (a stale or corrupt checkpoint). MCDC vectors keep
  /// their insertion order — the unique-cause pairing of future records
  /// and the kMaxVectorsPerDecision cut-off depend on it, so a reordered
  /// restore would diverge from the uninterrupted run.
  void serializeState(std::ostream& os) const;
  void restoreState(std::istream& is);

  [[nodiscard]] bool branchExcluded(int branchId) const {
    return branchExcluded_.at(static_cast<std::size_t>(branchId));
  }
  [[nodiscard]] bool objectiveExcluded(int objectiveId) const {
    return objectiveExcluded_.at(static_cast<std::size_t>(objectiveId));
  }
  [[nodiscard]] bool conditionExcluded(int decisionId, int cond,
                                       bool polarity) const;
  [[nodiscard]] bool mcdcExcluded(int decisionId, int cond) const;

 private:
  const compile::CompiledModel* cm_;
  std::vector<bool> branchCovered_;
  std::vector<bool> branchExcluded_;
  std::vector<bool> objectiveExcluded_;
  // Excluded condition polarities, indexed like condSeen_.
  std::vector<std::vector<std::array<bool, 2>>> condExcluded_;
  std::vector<std::uint64_t> mcdcExcluded_;  // bitmask per decision
  int coveredBranches_ = 0;
  std::vector<int> decisionFirstBranch_;
  // Condition polarity bitsets, indexed [decision][condition][polarity].
  std::vector<std::vector<std::array<bool, 2>>> condSeen_;
  // Recorded MCDC vectors per boolean decision (bounded), plus an
  // incrementally-maintained bitmask of demonstrated conditions.
  std::vector<std::vector<McdcVector>> mcdcVectors_;
  std::vector<std::uint64_t> mcdcDemonstrated_;
  std::vector<bool> objectiveCovered_;
  static constexpr std::size_t kMaxVectorsPerDecision = 512;
};

/// Token-stream serialization for an exclusion table (the campaign
/// checkpoint embeds one so a resumed run replays its suite against the
/// same coverage denominators). readExclusions throws expr::EvalError on
/// malformed input.
void writeExclusions(std::ostream& os, const Exclusions& excl);
[[nodiscard]] Exclusions readExclusions(std::istream& is);

}  // namespace stcg::coverage
