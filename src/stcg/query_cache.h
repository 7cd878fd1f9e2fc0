// The per-campaign one-step query cache.
//
// Algorithm 1 solves every uncovered goal again on each new tree node,
// with that node's state folded in as constants, so the same one-step
// query keeps coming back. This cache answers repeats without
// substituting or solving, and holds only outcomes that are a pure
// function of the query, so a campaign's output does not change:
//
//  - Outcome entries for solve cells, keyed by (goal, the state projected
//    onto the slots the goal's path constraint reads): the residual
//    `substitute` builds depends only on that projection, and an entry
//    records that the residual folded to false, that the solver proved it
//    UNSAT, or a model the solver found before it drew from its RNG
//    (solver::SolveResult::seedFree), stored as the input vector.
//  - MCDC-pair entries, the same outcomes for the pinned query of an MCDC
//    pair attempt, keyed by (decision, target condition, observed
//    condition bits, the state projected onto the slots the decision's
//    activation and conditions read) — the pinned query is a function of
//    exactly these.
//
// Keys compare by type and payload bits (-0.0 and 0.0 differ; NaN matches
// itself) and live as flat 64-bit words in one arena. Lookups are const
// and safe from many threads while no insert runs; Campaign inserts only
// from its single-threaded commit loop. The cache is not checkpointed (a
// resumed process starts empty) and it stops learning when its arena is
// full.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "compile/compiled_model.h"
#include "sim/simulator.h"
#include "stcg/testgen.h"

namespace stcg::gen {

/// What a cached one-step query came to.
enum class CachedOutcome : std::uint8_t {
  kFolded,  // the residual folded to false; no solver call was made
  kUnsat,   // the solver proved the residual UNSAT
  kSat,     // a seed-free model, replayed as its input vector
};

struct CacheHit {
  CachedOutcome outcome = CachedOutcome::kUnsat;
  sim::InputVector input;  // kSat only
};

/// An MCDC pair attempt's pinned query: decision `decision`, condition
/// `cond` flipped, every condition pinned to the bit observed under the
/// solved input (`bits[c]`).
struct PairQuery {
  int decision = -1;
  int cond = -1;
  const std::vector<bool>* bits = nullptr;
};

class OneStepCache {
 public:
  OneStepCache(const compile::CompiledModel& cm,
               const std::vector<Goal>& goals);

  /// The recorded outcome of solve cell (goal, state), or nullopt.
  [[nodiscard]] std::optional<CacheHit> findCell(
      int goalIdx, const sim::StateSnapshot& s) const;
  /// Record solve cell (goal, state); `input` is required for kSat. No-op
  /// when present. A kSat outcome is filed only when the same cell is
  /// offered a second time (see OneStepCache::offeredBefore).
  void insertCell(int goalIdx, const sim::StateSnapshot& s,
                  CachedOutcome outcome,
                  const sim::InputVector* input = nullptr);

  /// The same for MCDC pair attempts; every outcome of these is filed on
  /// its second offer.
  [[nodiscard]] std::optional<CacheHit> findPair(
      const PairQuery& q, const sim::StateSnapshot& s) const;
  void insertPair(const PairQuery& q, const sim::StateSnapshot& s,
                  CachedOutcome outcome,
                  const sim::InputVector* input = nullptr);

  /// Outcome entries (solve cells and pair attempts) held.
  [[nodiscard]] std::size_t size() const { return outcomes_.size(); }

 private:
  /// Open addressing over variable-length word keys, each stored with
  /// its value words as one record in an arena: [key length, key...,
  /// value...]. The caller's value layout is self-delimiting.
  class Table {
   public:
    /// Arena offset of the record holding `key`, or -1.
    [[nodiscard]] std::int64_t find(const std::vector<std::uint64_t>& key,
                                    std::uint64_t hash) const;
    /// Append a record for `key` (absent) followed by `value`; false when
    /// the arena is full.
    bool insert(const std::vector<std::uint64_t>& key, std::uint64_t hash,
                const std::vector<std::uint64_t>& value);
    [[nodiscard]] const std::uint64_t* value(std::int64_t record) const;
    [[nodiscard]] std::size_t size() const { return size_; }

   private:
    [[nodiscard]] std::size_t probe(const std::vector<std::uint64_t>& key,
                                    std::uint64_t hash) const;
    void grow();

    std::vector<std::uint64_t> arena_;
    std::vector<std::uint32_t> slots_;  // 0 = empty, else record offset + 1
    std::size_t size_ = 0;
  };

  /// State slots the path constraint of goal `g` (resp. the activation and
  /// conditions of decision `d`) reads, computed on first use.
  const std::vector<std::uint32_t>& goalReads(int g);
  const std::vector<std::uint32_t>& decisionReads(int d);
  /// Key of (header words, `s` projected onto `reads`) into `key`; returns
  /// its hash.
  std::uint64_t encodeKey(const std::vector<std::uint64_t>& header,
                          const std::vector<std::uint32_t>& reads,
                          const sim::StateSnapshot& s,
                          std::vector<std::uint64_t>& key) const;
  void pairHeader(const PairQuery& q, std::vector<std::uint64_t>& h) const;
  [[nodiscard]] std::optional<CacheHit> lookup(
      const std::vector<std::uint64_t>& header,
      const std::vector<std::uint32_t>& reads,
      const sim::StateSnapshot& s) const;
  void record(const std::vector<std::uint64_t>& header,
              const std::vector<std::uint32_t>& reads,
              const sim::StateSnapshot& s, CachedOutcome outcome,
              const sim::InputVector* input, bool onSecondOffer);
  /// Whether a key of hash `h` was offered before; marks it offered. A
  /// winning input covers its goal and most pair attempts are one-offs, so
  /// SAT and pair keys are remembered as one hash word on their first
  /// offer and filed only if they come back.
  bool offeredBefore(std::uint64_t h);

  const compile::CompiledModel* cm_;
  const std::vector<Goal>* goals_;
  // Read sets, per goal and per decision; empty until computed (a goal
  // with no entry yet has nothing to find).
  std::vector<std::vector<std::uint32_t>> goalReads_, decisionReads_;
  std::vector<std::uint8_t> goalReadsReady_, decisionReadsReady_;
  std::vector<std::uint64_t> offered_;  // key hashes; 0 = empty slot
  std::size_t offeredCount_ = 0;
  Table outcomes_;
  std::vector<std::uint64_t> scratchKey_, scratchHeader_, scratchValue_;
};

}  // namespace stcg::gen
