// A 64-bit Mersenne Twister that pays only for the words it draws.
//
// Output is bit-identical to std::mt19937_64 from the same seed (same
// result_type, min() and max(), so every std:: distribution draws the
// same values through it). std::mt19937_64 runs all 312 seeding steps at
// construction and twists all 312 state words on the first draw; this
// engine runs the seeding recurrence and the twist one word at a time, on
// demand. The first draw costs 157 seeding steps and one twist; an engine
// that is never drawn from costs one word. That matters for the generator's
// counter-based forks, whose intermediate streams are never drawn from.
//
// The state is a ring of n words. Twisted word j (j >= n) of the
// recurrence is x[j] = x[j-n+m] ^ twist(upper(x[j-n]) | lower(x[j-n+1]));
// it replaces x[j-n] in ring slot j mod n, and is needed by no later word
// that has not been generated yet, so the in-order update is exactly the
// reference engine's block twist. Seed words x[0..n) are produced in order
// as far as the next twist reaches (x[k+m] for the k-th draw), so after the
// first n-m draws the ring is fully seeded.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace stcg {

class LazyMt64 {
 public:
  using result_type = std::uint64_t;

  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr result_type kDefaultSeed = 5489U;

  explicit LazyMt64(result_type seed = kDefaultSeed) : seeded_(1) {
    x_[0] = seed;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    const std::size_t p = pos_;
    const std::size_t next = p + 1 == kN ? 0 : p + 1;
    const std::size_t far = p < kN - kM ? p + kM : p + kM - kN;
    if (seeded_ < kN) seedThrough(p < kN - kM ? far : kN - 1);
    const result_type y = (x_[p] & kUpperMask) | (x_[next] & kLowerMask);
    const result_type w =
        x_[far] ^ (y >> 1) ^ ((y & 1U) != 0 ? kMatrixA : result_type{0});
    x_[p] = w;
    pos_ = next;
    return temper(w);
  }

 private:
  static constexpr result_type kMatrixA = 0xb5026f5aa96619e9ULL;
  static constexpr result_type kLowerMask = (result_type{1} << 31) - 1;
  static constexpr result_type kUpperMask = ~kLowerMask;
  static constexpr result_type kInitMultiplier = 6364136223846793005ULL;

  // Runs the seeding recurrence up to and including word `last`.
  void seedThrough(std::size_t last) {
    for (std::size_t i = seeded_; i <= last; ++i) {
      const result_type prev = x_[i - 1];
      x_[i] = kInitMultiplier * (prev ^ (prev >> 62)) + i;
    }
    if (last >= seeded_) seeded_ = last + 1;
  }

  static result_type temper(result_type z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

  // Zero-filled only so that copies never read indeterminate words; the
  // unseeded tail is overwritten before it is read.
  std::array<result_type, kN> x_{};
  std::size_t seeded_ = 0;  // x_[0..seeded_) hold seed or twisted words
  std::size_t pos_ = 0;     // ring slot the next draw twists
};

}  // namespace stcg
