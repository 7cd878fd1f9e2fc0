// Deterministic random number generation for all stochastic components.
//
// Every source of randomness in the library flows through an explicitly
// seeded Rng instance, so any experiment is reproducible from its seed.
//
// Two forking flavours support that discipline:
//   fork()        advances this stream and derives a child from the drawn
//                 word — children depend on how much the parent consumed.
//   fork(stream)  counter-based: depends only on (seed, stream id), never
//                 on the engine position. This is what parallel code uses —
//                 task 17 gets the same child stream no matter how many
//                 threads ran, in what order, or what else was drawn.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "util/lazy_mt64.h"

namespace stcg {

/// SplitMix64 finalizer: a bijective 64-bit mix used to derive independent
/// child seeds from (seed, stream) pairs.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seedable pseudo-random generator with the convenience draws the
/// generators need. Its engine draws exactly the std::mt19937_64 sequence
/// of the seed, but seeds and twists lazily (util/lazy_mt64.h), so an Rng
/// that is only forked from costs a word, not a full state. Copying it
/// copies the engine state; pass by reference when the caller should
/// observe the advanced stream.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  /// The seed this generator was constructed with (for logging).
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Uniform integer in [lo, hi] (inclusive). Throws std::invalid_argument
  /// when lo > hi (an assert would be UB under NDEBUG).
  [[nodiscard]] std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [lo, hi].
  [[nodiscard]] double uniformReal(double lo, double hi);

  /// Bernoulli draw with probability p of true.
  [[nodiscard]] bool chance(double p);

  /// Uniform index in [0, n). Throws std::invalid_argument when n == 0.
  [[nodiscard]] std::size_t index(std::size_t n);

  /// Derive an independent child generator by drawing from this stream
  /// (advances the engine; order-sensitive).
  [[nodiscard]] Rng fork();

  /// Counter-based fork: the child depends only on (seed(), stream), not
  /// on the engine position, so any task can reconstruct its stream from
  /// a task id alone. Distinct stream ids give statistically independent
  /// children (SplitMix64 over the pair).
  [[nodiscard]] Rng fork(std::uint64_t stream) const {
    return Rng(splitmix64(seed_ ^ splitmix64(stream + 0x632be59bd9b4e019ULL)));
  }

  /// Access the raw engine for use with std:: distributions.
  LazyMt64& engine() { return engine_; }

 private:
  LazyMt64 engine_;
  std::uint64_t seed_;
};

/// Explicit cursor over a counter-based fork stream: child i is always
/// `Rng(seed).fork(i)`, so the entire stream position is two integers —
/// (seed, next counter). That makes a stream checkpointable: persist
/// position(), later seek() to it, and next() resumes the exact child
/// sequence in a fresh process. All campaign-lifetime randomness in the
/// STCG generator flows through these cursors (see stcg::gen::Campaign);
/// an Rng engine position, by contrast, is not serializable.
class CounterStream {
 public:
  CounterStream() = default;
  explicit CounterStream(std::uint64_t seed) : seed_(seed) {}
  /// Cursor over the children of `base`: at(i) == base.fork(i) (fork(i)
  /// depends only on base.seed(), never on its engine position).
  explicit CounterStream(const Rng& base) : seed_(base.seed()) {}

  /// Child `i` of the stream, position unchanged.
  [[nodiscard]] Rng at(std::uint64_t i) const { return Rng(seed_).fork(i); }
  /// The child at the cursor; advances the cursor.
  [[nodiscard]] Rng next() { return at(pos_++); }
  /// Advance the cursor without materializing the child (a lane computed
  /// via at() was committed).
  void skip() { ++pos_; }

  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] std::uint64_t position() const { return pos_; }
  void seek(std::uint64_t pos) { pos_ = pos; }

 private:
  std::uint64_t seed_ = 0;
  std::uint64_t pos_ = 0;
};

}  // namespace stcg
