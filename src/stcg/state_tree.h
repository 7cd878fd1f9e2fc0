// The state tree (paper Definitions 3 and 4).
//
// Node N = ⟨P, S, IN, SB, CV⟩: parent P, model state S, the input IN that
// drove the parent state to S, and the set SB of goals already attempted
// (solved-for) at this node. CV — the branches covered along the path — is
// tracked globally by the CoverageTracker rather than per node.
//
// Each root-to-node path is an executable input sequence (one test case).
// As an engineering refinement over the paper, nodes are deduplicated by
// state value: reaching an already-known state attaches exploration to the
// existing node instead of growing an identical subtree (documented in
// DESIGN.md; it does not change which tests are emitted).
//
// On top of the per-node SB sets, the tree keeps a global
// (state-hash, goal) dedup set: a goal is never re-solved against a state
// value it was already attempted on, even if that state is re-reached via
// a different node id (e.g. after hitting the node cap). The solve
// round's scan probes this set for every cell it visits.
//
// Per goal, the tree also keeps a derived attempted-prefix cursor: every
// node id below attemptedPrefix(goal) is isAttempted for that goal, so a
// solve round starts each goal's node scan there instead of at the root.
// Node ids are only appended and attempt marks only grow, so the cursor
// is monotone. It is not serialized: the checkpoint loader replays
// addChild/markAttempted node by node, which rebuilds it exactly.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/simulator.h"
#include "util/rng.h"

namespace stcg::gen {

struct StateTreeNode {
  int id = 0;
  int parent = -1;  // -1 for the root
  sim::StateSnapshot state;
  std::uint64_t stateHash = 0;  // snapshotHash(state), computed once
  sim::InputVector inputFromParent;  // empty for the root
  std::vector<int> children;
  std::unordered_set<int> attemptedGoals;  // the paper's SB set
};

/// Order-preserving hash of a state snapshot (used for deduplication).
/// Forwards to sim::snapshotHash — kept here for existing callers.
[[nodiscard]] inline std::uint64_t hashSnapshot(const sim::StateSnapshot& s) {
  return sim::snapshotHash(s);
}

class StateTree {
 public:
  explicit StateTree(sim::StateSnapshot rootState);

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] const StateTreeNode& node(int id) const {
    return nodes_.at(static_cast<std::size_t>(id));
  }

  /// Add a child of `parent` reached by `input` with resulting `state`.
  int addChild(int parent, sim::InputVector input, sim::StateSnapshot state);

  /// Same, with the caller supplying the state hash instead of computing
  /// snapshotHash(state). Two users: the checkpoint loader (which verifies
  /// the recorded hash against a recomputation before trusting it) and
  /// the collision tests, which force two distinct snapshots onto one
  /// hash to prove findByState never merges them.
  int addChild(int parent, sim::InputVector input, sim::StateSnapshot state,
               std::uint64_t stateHash);

  /// Node id of an existing node with exactly this state, or -1.
  [[nodiscard]] int findByState(const sim::StateSnapshot& s) const;

  /// Same lookup with an explicit hash (must match the hash the candidate
  /// nodes were inserted under). Hash equality only selects the bucket;
  /// the returned node's state compares equal to `s` value-for-value, so
  /// colliding snapshots are never conflated.
  [[nodiscard]] int findByState(const sim::StateSnapshot& s,
                                std::uint64_t stateHash) const;

  /// The input sequence along the path root -> `id` (root's empty input
  /// excluded), i.e. a test case prefix reaching node `id`'s state.
  [[nodiscard]] std::vector<sim::InputVector> pathInputs(int id) const;

  /// Whether `goal` was already attempted at node `id` — per-node SB
  /// first, then the global (state-hash, goal) dedup set.
  [[nodiscard]] bool isAttempted(int id, int goal) const {
    const StateTreeNode& n = node(id);
    return n.attemptedGoals.count(goal) > 0 ||
           attemptedPairs_.count(pairKey(n.stateHash, goal)) > 0;
  }
  /// Record `goal` as attempted at node `id` (goal >= 0) and advance the
  /// goal's attempted-prefix cursor.
  void markAttempted(int id, int goal);

  /// Largest k such that isAttempted(n, goal) holds for every n < k (0 for
  /// a goal never marked). Cells at or past it may still be attempted
  /// through the (state-hash, goal) set; callers keep probing isAttempted.
  [[nodiscard]] int attemptedPrefix(int goal) const {
    const auto g = static_cast<std::size_t>(goal);
    return g < prefix_.size() ? prefix_[g] : 0;
  }

  /// Number of distinct (state, goal) attempts recorded (for tests and
  /// stats; equals the number of solver queries the dedup set absorbs).
  [[nodiscard]] std::size_t attemptedPairCount() const {
    return attemptedPairs_.size();
  }

  [[nodiscard]] int randomNode(Rng& rng) const {
    return static_cast<int>(rng.index(nodes_.size()));
  }

  /// Depth of node `id` (root = 0).
  [[nodiscard]] int depth(int id) const;

 private:
  static std::uint64_t pairKey(std::uint64_t stateHash, int goal) {
    // SplitMix over the pair: collisions would only skip one solve
    // attempt, deterministically, so a 64-bit key is plenty.
    return splitmix64(stateHash ^
                      (static_cast<std::uint64_t>(goal) * 0x9e3779b97f4a7c15ULL));
  }

  /// Move goal's cursor past every attempted node id.
  void advancePrefix(std::size_t goal);

  std::vector<StateTreeNode> nodes_;
  std::unordered_multimap<std::uint64_t, int> byHash_;
  std::unordered_set<std::uint64_t> attemptedPairs_;
  std::vector<int> prefix_;  // attemptedPrefix per goal id ever marked
};

}  // namespace stcg::gen
