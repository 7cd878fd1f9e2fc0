#include "stcg/state_tree.h"

#include <algorithm>

namespace stcg::gen {

StateTree::StateTree(sim::StateSnapshot rootState) {
  StateTreeNode root;
  root.id = 0;
  root.parent = -1;
  root.state = std::move(rootState);
  root.stateHash = sim::snapshotHash(root.state);
  byHash_.emplace(root.stateHash, 0);
  nodes_.push_back(std::move(root));
}

int StateTree::addChild(int parent, sim::InputVector input,
                        sim::StateSnapshot state) {
  const std::uint64_t h = sim::snapshotHash(state);
  return addChild(parent, std::move(input), std::move(state), h);
}

int StateTree::addChild(int parent, sim::InputVector input,
                        sim::StateSnapshot state, std::uint64_t stateHash) {
  StateTreeNode n;
  n.id = static_cast<int>(nodes_.size());
  n.parent = parent;
  n.inputFromParent = std::move(input);
  n.state = std::move(state);
  n.stateHash = stateHash;
  byHash_.emplace(n.stateHash, n.id);
  nodes_[static_cast<std::size_t>(parent)].children.push_back(n.id);
  nodes_.push_back(std::move(n));
  // A cursor that sat at the old end moves past the new node when its
  // state hash already carries an attempt mark for that goal.
  const int id = nodes_.back().id;
  for (std::size_t g = 0; g < prefix_.size(); ++g) {
    if (prefix_[g] == id) advancePrefix(g);
  }
  return id;
}

void StateTree::markAttempted(int id, int goal) {
  StateTreeNode& n = nodes_[static_cast<std::size_t>(id)];
  n.attemptedGoals.insert(goal);
  attemptedPairs_.insert(pairKey(n.stateHash, goal));
  const auto g = static_cast<std::size_t>(goal);
  if (g >= prefix_.size()) prefix_.resize(g + 1, 0);
  advancePrefix(g);
}

void StateTree::advancePrefix(std::size_t goal) {
  int& p = prefix_[goal];
  while (static_cast<std::size_t>(p) < nodes_.size() &&
         isAttempted(p, static_cast<int>(goal))) {
    ++p;
  }
}

int StateTree::findByState(const sim::StateSnapshot& s) const {
  return findByState(s, sim::snapshotHash(s));
}

int StateTree::findByState(const sim::StateSnapshot& s,
                           std::uint64_t stateHash) const {
  const auto [lo, hi] = byHash_.equal_range(stateHash);
  for (auto it = lo; it != hi; ++it) {
    if (nodes_[static_cast<std::size_t>(it->second)].state == s) {
      return it->second;
    }
  }
  return -1;
}

std::vector<sim::InputVector> StateTree::pathInputs(int id) const {
  std::vector<sim::InputVector> out;
  for (int cur = id; cur > 0;
       cur = nodes_[static_cast<std::size_t>(cur)].parent) {
    out.push_back(nodes_[static_cast<std::size_t>(cur)].inputFromParent);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

int StateTree::depth(int id) const {
  int d = 0;
  for (int cur = id; cur > 0;
       cur = nodes_[static_cast<std::size_t>(cur)].parent) {
    ++d;
  }
  return d;
}

}  // namespace stcg::gen
