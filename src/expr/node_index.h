// Dense numbering of DAG nodes by identity.
//
// The one-step query path (partial evaluation, HC4 contraction, the
// solver's declared-variable check) memoizes per node, once per query.
// A node-based hash map pays an allocation per entry and a walk over
// every bucket on clear(); NodeIndex instead maps each distinct
// `const Expr*` to a dense int 0, 1, 2, ... in insertion order, so the
// memoized payload lives in a plain vector indexed by that number.
//
// Open addressing with linear probing over a power-of-two table kept at
// most half full: one allocation per growth, no per-entry nodes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "expr/expr.h"

namespace stcg::expr {

class NodeIndex {
 public:
  static constexpr int kAbsent = -1;

  NodeIndex() = default;
  /// Pre-size for about `expected` keys (avoids rehashing on the way).
  explicit NodeIndex(std::size_t expected) { reserve(expected); }

  /// Dense index of `e`, or kAbsent.
  [[nodiscard]] int find(const Expr* e) const {
    if (table_.empty()) return kAbsent;
    for (std::size_t i = home(e);; i = (i + 1) & mask()) {
      const Slot& s = table_[i];
      if (s.key == e) return s.index;
      if (s.key == nullptr) return kAbsent;
    }
  }

  /// Index of `e`, numbering it size() first if it is new. `.second`
  /// tells whether it was inserted.
  std::pair<int, bool> insert(const Expr* e) {
    if ((size_ + 1) * 2 > table_.size()) grow();
    for (std::size_t i = home(e);; i = (i + 1) & mask()) {
      Slot& s = table_[i];
      if (s.key == e) return {s.index, false};
      if (s.key == nullptr) {
        s = Slot{e, static_cast<int>(size_)};
        ++size_;
        return {s.index, true};
      }
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  void reserve(std::size_t expected) {
    std::size_t cap = kMinCapacity;
    while (cap < expected * 2) cap *= 2;
    if (cap > table_.size()) rehash(cap);
  }

 private:
  struct Slot {
    const Expr* key = nullptr;
    int index = kAbsent;
  };
  static constexpr std::size_t kMinCapacity = 16;

  [[nodiscard]] std::size_t mask() const { return table_.size() - 1; }

  // Fibonacci hashing of the pointer (low bits are alignment zeros).
  [[nodiscard]] std::size_t home(const Expr* e) const {
    const auto p = reinterpret_cast<std::uintptr_t>(e);
    return static_cast<std::size_t>(
               (static_cast<std::uint64_t>(p) * 0x9e3779b97f4a7c15ULL) >>
               shift_) &
           mask();
  }

  void grow() {
    rehash(table_.empty() ? kMinCapacity : table_.size() * 2);
  }

  void rehash(std::size_t cap) {
    std::vector<Slot> old = std::move(table_);
    table_.assign(cap, Slot{});
    shift_ = 64;
    for (std::size_t c = cap; c > 1; c >>= 1) --shift_;
    for (const Slot& s : old) {
      if (s.key == nullptr) continue;
      std::size_t i = home(s.key);
      while (table_[i].key != nullptr) i = (i + 1) & mask();
      table_[i] = s;
    }
  }

  std::vector<Slot> table_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;
};

}  // namespace stcg::expr
