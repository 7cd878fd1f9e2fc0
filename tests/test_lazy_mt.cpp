// LazyMt64 (the engine behind Rng) must be std::mt19937_64: the same raw
// words from the same seed at every stream length — in particular around
// the seeding and twist boundaries it defers (n - m = 156, n = 312) — the
// same draws through every std:: distribution Rng uses, and a copy taken
// anywhere mid-stream must continue exactly as the original does.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "util/lazy_mt64.h"
#include "util/rng.h"

namespace stcg {
namespace {

static_assert(LazyMt64::min() == std::mt19937_64::min());
static_assert(LazyMt64::max() == std::mt19937_64::max());
static_assert(std::is_same_v<LazyMt64::result_type,
                             std::mt19937_64::result_type>);

std::vector<std::uint64_t> testSeeds() {
  std::vector<std::uint64_t> seeds = {0, 1, 5489, ~std::uint64_t{0}};
  for (std::uint64_t i = 1; i <= 4; ++i) seeds.push_back(splitmix64(i * 77));
  return seeds;
}

bool sameBits(double a, double b) {
  std::uint64_t x = 0, y = 0;
  std::memcpy(&x, &a, sizeof a);
  std::memcpy(&y, &b, sizeof b);
  return x == y;
}

TEST(LazyMt64, RawWordsMatchStdMt19937_64AtEveryBoundaryLength) {
  const std::vector<int> lengths = {1,   155, 156, 157, 311,
                                    312, 313, 624, 625, 10000};
  for (const std::uint64_t seed : testSeeds()) {
    for (const int len : lengths) {
      LazyMt64 lazy(seed);
      std::mt19937_64 ref(seed);
      for (int i = 0; i < len; ++i) {
        const auto want = ref();
        const auto got = lazy();
        ASSERT_EQ(got, want) << "seed " << seed << " length " << len
                             << " word " << i;
      }
    }
  }
}

TEST(LazyMt64, DefaultSeedMatchesStdDefault) {
  LazyMt64 lazy;
  std::mt19937_64 ref;
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(lazy(), ref()) << "word " << i;
  // The 10000th output of a default-constructed mt19937_64 is fixed by
  // the standard ([rand.predef]).
  LazyMt64 tenk;
  for (int i = 0; i < 9999; ++i) (void)tenk();
  EXPECT_EQ(tenk(), 9981545732273789042ULL);
}

TEST(LazyMt64, CopyTakenMidStreamContinuesIdentically) {
  const std::vector<int> cuts = {0, 1, 100, 155, 156, 157, 311, 312, 313, 700};
  for (const std::uint64_t seed : testSeeds()) {
    for (const int cut : cuts) {
      LazyMt64 orig(seed);
      std::mt19937_64 ref(seed);
      for (int i = 0; i < cut; ++i) {
        (void)orig();
        (void)ref();
      }
      LazyMt64 copy = orig;
      LazyMt64 assigned(12345);
      (void)assigned();
      assigned = orig;
      for (int i = 0; i < 1000; ++i) {
        const auto want = ref();
        ASSERT_EQ(orig(), want) << "seed " << seed << " cut " << cut;
        ASSERT_EQ(copy(), want) << "seed " << seed << " cut " << cut;
        ASSERT_EQ(assigned(), want) << "seed " << seed << " cut " << cut;
      }
    }
  }
}

// Rng's draws go through std:: distributions; with an identical engine
// they must return what the same distributions return over
// std::mt19937_64, interleaved in any order.
TEST(LazyMt64, RngDrawsMatchStdDistributionsOverStdEngine) {
  for (const std::uint64_t seed : testSeeds()) {
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 2000; ++i) {
      switch (i % 5) {
        case 0: {
          std::uniform_int_distribution<std::int64_t> d(-1000, 1'000'000'000);
          ASSERT_EQ(rng.uniformInt(-1000, 1'000'000'000), d(ref));
          break;
        }
        case 1: {
          std::uniform_real_distribution<double> d(-3.5, 1e6);
          ASSERT_TRUE(sameBits(rng.uniformReal(-3.5, 1e6), d(ref)));
          break;
        }
        case 2: {
          std::bernoulli_distribution d(0.3);
          ASSERT_EQ(rng.chance(0.3), d(ref));
          break;
        }
        case 3: {
          std::uniform_int_distribution<std::size_t> d(0, 6);
          ASSERT_EQ(rng.index(7), d(ref));
          break;
        }
        default: {
          // fork() seeds the child from one raw word.
          const Rng child = rng.fork();
          ASSERT_EQ(child.seed(), ref());
          break;
        }
      }
    }
  }
}

TEST(LazyMt64, CounterForkChainFirstDrawMatchesStdEngine) {
  for (const std::uint64_t seed : testSeeds()) {
    const Rng root(seed);
    for (std::uint64_t task = 0; task < 50; ++task) {
      Rng leaf = root.fork(1).fork(splitmix64(task));
      std::mt19937_64 ref(leaf.seed());
      std::uniform_int_distribution<std::int64_t> d(1, 1'000'000'000);
      ASSERT_EQ(leaf.uniformInt(1, 1'000'000'000), d(ref));
    }
  }
}

}  // namespace
}  // namespace stcg
