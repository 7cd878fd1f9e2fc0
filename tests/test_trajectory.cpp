// Trajectory pins and the one-step query cache's infeasible-cell entries.
//
// Round-capped campaigns on the five solve-heavy bench models must
// produce exactly the suites, GenStats and trace lines recorded below, at
// jobs 1 and at jobs 4, while answering the pinned number of one-step
// queries from the one-step query cache (each hit is one `substitute` and,
// unless the cell folded, one solver call not made).
//
// The constants were recorded on the commit before the box solver
// certified candidates as compiled tape lanes and before solve rounds
// replayed proven-UNSAT cells from a memo. Those changes and the cache
// are meant to move only time, so any drift here is a behaviour change: a
// different RNG draw order, a model a candidate-by-candidate evaluate()
// loop would not have returned, a cache hit with the wrong outcome, input
// or trace line, a pair hit that does not advance the seed cursor. A
// change that alters trajectories on purpose re-records the constants
// and says so.
//
// The settings mirror the solve-deep benchmark workload (tape engine,
// batch 8, 4096 boxes per query, both wall-clock budgets off), so the
// round and box caps alone bound the work and the run is deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <tuple>
#include <optional>
#include <vector>

#include "benchmodels/benchmodels.h"
#include "compile/compiler.h"
#include "expr/expr.h"
#include "sim/simulator.h"
#include "stcg/campaign.h"

namespace stcg::gen {
namespace {

/// FNV-1a, the same hash perfbench fingerprints campaigns with.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ULL;
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
};

/// Suite inputs (type and payload bits of every step value) plus GenStats.
std::uint64_t fingerprint(const GenResult& r) {
  Fnv f;
  f.u64(r.tests.size());
  for (const auto& t : r.tests) {
    f.u64(t.steps.size());
    for (const auto& step : t.steps) {
      for (const auto& s : step) {
        f.u64(static_cast<std::uint64_t>(s.type()));
        switch (s.type()) {
          case expr::Type::kBool: f.u64(s.asBool() ? 1 : 0); break;
          case expr::Type::kInt:
            f.u64(static_cast<std::uint64_t>(s.asInt()));
            break;
          case expr::Type::kReal: {
            const double d = s.asReal();
            f.bytes(&d, sizeof d);
            break;
          }
        }
      }
    }
  }
  const GenStats& st = r.stats;
  for (int v : {st.solveCalls, st.solveSat, st.solveUnsat, st.solveUnknown,
                st.stepsExecuted, st.treeNodes, st.randomSequences,
                st.goalsPruned}) {
    f.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }
  return f.h;
}

void hashTraceLine(const std::string& line, void* user) {
  auto* f = static_cast<Fnv*>(user);
  f->bytes(line.data(), line.size());
  f->u64(line.size());
}

struct Pin {
  const char* model;
  int rounds;
  std::uint64_t fingerprint;  // suite + GenStats
  std::uint64_t trace;        // every trace line, in order
  long long memoHits;         // committed cells answered as infeasible
  long long satReplays;       // committed cells answered SAT by the cache
  long long mcdcPairReplays;  // MCDC pair attempts answered by the cache
};

// Seed 1; identical at jobs 1 and jobs 4. The hashes predate the memo and
// the lane certifier (the TCP 1000-round row's were recorded on the commit
// before the one-step query cache); the infeasible-cell hit counts came
// with the memo, the replay counts with the cache. The 1000-round TCP row
// runs the cache through several table growths.
constexpr Pin kPins[] = {
    {"CPUTask", 300, 0xccabbdf36cfa6146ULL, 0x1458084c93700beeULL, 12, 0, 0},
    {"TWC", 300, 0xd8838c6edfe8ebe0ULL, 0xa8fb6c76264857d8ULL, 983, 249, 137},
    {"NICProtocol", 300, 0x1f95f15d3273ac02ULL, 0x01368e84bdb99175ULL, 2195,
     275, 275},
    {"TCP", 300, 0xcbad300d5c1be147ULL, 0x7299c93d60e6538aULL, 1249, 69, 60},
    {"LANSwitch", 300, 0x343fc46d9414ebb8ULL, 0x9bdc40cf2d74e8e9ULL, 554, 251,
     250},
    {"TCP", 1000, 0x5aa052da345d6a89ULL, 0x30324bb725e67debULL, 6236, 273, 352},
};

void PrintTo(const Pin& p, std::ostream* os) { *os << p.model; }

class TrajectoryPin
    : public ::testing::TestWithParam<std::tuple<Pin, int>> {};

TEST_P(TrajectoryPin, SuiteStatsAndTraceMatchRecordedConstants) {
  const auto& [pin, jobs] = GetParam();
  const auto cm = compile::compile(bench::buildBenchModel(pin.model));
  GenOptions opt;
  opt.seed = 1;
  opt.jobs = jobs;
  opt.batch = 8;
  opt.simEngine = sim::EvalEngine::kTape;
  opt.maxRounds = pin.rounds;
  opt.budgetMillis = -1;
  opt.solver.timeBudgetMillis = -1;
  opt.solver.maxBoxes = 4096;
  Fnv trace;
  Campaign c(cm, opt, hashTraceLine, &trace);
  while (!c.finished()) c.runRound();
  const GenResult r = c.finish();
  char got[64];
  std::snprintf(got, sizeof got, "{0x%016llxULL, 0x%016llxULL}",
                static_cast<unsigned long long>(fingerprint(r)),
                static_cast<unsigned long long>(trace.h));
  EXPECT_EQ(fingerprint(r), pin.fingerprint) << pin.model << " got " << got;
  EXPECT_EQ(trace.h, pin.trace) << pin.model << " got " << got;
  EXPECT_EQ(c.memoHits(), pin.memoHits) << pin.model;
  std::snprintf(got, sizeof got, "%lld, %lld", c.satReplays(),
                c.mcdcPairReplays());
  EXPECT_EQ(c.satReplays(), pin.satReplays) << pin.model << " got " << got;
  EXPECT_EQ(c.mcdcPairReplays(), pin.mcdcPairReplays)
      << pin.model << " got " << got;
}

INSTANTIATE_TEST_SUITE_P(
    SolveDeepModels, TrajectoryPin,
    ::testing::Combine(::testing::ValuesIn(kPins), ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<std::tuple<Pin, int>>& info) {
      const Pin& pin = std::get<0>(info.param);
      return std::string(pin.model) +
             (pin.rounds == 300 ? "" : std::to_string(pin.rounds)) + "_jobs" +
             std::to_string(std::get<1>(info.param));
    });

// ----- UnsatMemo keying ----------------------------------------------------

struct MemoFixture {
  compile::CompiledModel cm;
  std::vector<Goal> goals;
  sim::StateSnapshot s0;
  int goal = -1;       // a goal that reads some state slots but not all
  std::size_t read = 0;    // a state slot `goal` reads
  std::size_t unread = 0;  // a state slot `goal` does not read
};

MemoFixture makeMemoFixture() {
  MemoFixture f{compile::compile(bench::buildBenchModel("NICProtocol")),
                {}, {}};
  f.goals = buildGoals(f.cm, true, true);
  f.s0 = sim::Simulator(f.cm, sim::EvalEngine::kTape).snapshot();
  for (std::size_t g = 0; g < f.goals.size() && f.goal < 0; ++g) {
    const auto vars = expr::collectVars(f.goals[g].pathConstraint);
    int read = -1, unread = -1;
    for (std::size_t i = 0; i < f.cm.states.size(); ++i) {
      const bool r = std::find(vars.begin(), vars.end(),
                               f.cm.states[i].id) != vars.end();
      (r ? read : unread) = static_cast<int>(i);
    }
    if (read >= 0 && unread >= 0) {
      f.goal = static_cast<int>(g);
      f.read = static_cast<std::size_t>(read);
      f.unread = static_cast<std::size_t>(unread);
    }
  }
  return f;
}

/// `s` with state slot `i` replaced by the scalar `v`.
sim::StateSnapshot withSlot(sim::StateSnapshot s, std::size_t i,
                            expr::Scalar v) {
  s[i] = expr::Value(v);
  return s;
}

/// The outcome a cache lookup replays, if any.
std::optional<CachedOutcome> outcomeOf(const std::optional<CacheHit>& hit) {
  if (!hit) return std::nullopt;
  return hit->outcome;
}

// The UnsatMemo tests pin the cache's infeasible solve-cell entries, the
// proven-UNSAT memo this cache grew out of.
TEST(UnsatMemo, StateDifferingOnlyInAnUnreadSlotHits) {
  const MemoFixture f = makeMemoFixture();
  ASSERT_GE(f.goal, 0) << "NICProtocol has a goal reading a strict subset "
                          "of its state";
  OneStepCache memo(f.cm, f.goals);
  EXPECT_FALSE(memo.findCell(f.goal, f.s0).has_value());
  memo.insertCell(f.goal, f.s0, CachedOutcome::kUnsat);
  ASSERT_EQ(outcomeOf(memo.findCell(f.goal, f.s0)), CachedOutcome::kUnsat);

  const auto other = withSlot(f.s0, f.unread, expr::Scalar::i(123456789));
  EXPECT_EQ(outcomeOf(memo.findCell(f.goal, other)), CachedOutcome::kUnsat)
      << "the goal never reads slot " << f.unread;
  const auto changed = withSlot(f.s0, f.read, expr::Scalar::i(123456789));
  EXPECT_FALSE(memo.findCell(f.goal, changed).has_value())
      << "the goal reads slot " << f.read;

  // Outcomes are per cell: a folded cell replays as folded.
  memo.insertCell(f.goal, changed, CachedOutcome::kFolded);
  EXPECT_EQ(outcomeOf(memo.findCell(f.goal, changed)), CachedOutcome::kFolded);
  EXPECT_EQ(outcomeOf(memo.findCell(f.goal, f.s0)), CachedOutcome::kUnsat);
  EXPECT_EQ(memo.size(), 2U);
  memo.insertCell(f.goal, other, CachedOutcome::kUnsat);  // same key as s0
  EXPECT_EQ(memo.size(), 2U);

  // Entries belong to their goal.
  const int otherGoal = f.goal == 0 ? 1 : 0;
  EXPECT_FALSE(memo.findCell(otherGoal, f.s0).has_value());
}

TEST(UnsatMemo, KeysCompareTypeAndPayloadBits) {
  const MemoFixture f = makeMemoFixture();
  ASSERT_GE(f.goal, 0);
  OneStepCache memo(f.cm, f.goals);
  const auto pos = withSlot(f.s0, f.read, expr::Scalar::r(0.0));
  memo.insertCell(f.goal, pos, CachedOutcome::kUnsat);
  EXPECT_FALSE(
      memo.findCell(f.goal, withSlot(f.s0, f.read, expr::Scalar::r(-0.0))));
  EXPECT_FALSE(
      memo.findCell(f.goal, withSlot(f.s0, f.read, expr::Scalar::i(0))));
  EXPECT_FALSE(
      memo.findCell(f.goal, withSlot(f.s0, f.read, expr::Scalar::b(false))));
  EXPECT_TRUE(memo.findCell(f.goal, pos));

  const double nan = std::nan("");
  const auto nanState = withSlot(f.s0, f.read, expr::Scalar::r(nan));
  memo.insertCell(f.goal, nanState, CachedOutcome::kUnsat);
  EXPECT_TRUE(memo.findCell(f.goal, nanState)) << "a NaN key matches its bits";
}

TEST(UnsatMemo, GrowsPastItsInitialTable) {
  const MemoFixture f = makeMemoFixture();
  ASSERT_GE(f.goal, 0);
  OneStepCache memo(f.cm, f.goals);
  const auto outcome = [](int k) {
    return k % 2 == 1 ? CachedOutcome::kFolded : CachedOutcome::kUnsat;
  };
  for (int k = 0; k < 1000; ++k) {
    memo.insertCell(f.goal, withSlot(f.s0, f.read, expr::Scalar::i(k)),
                    outcome(k));
  }
  EXPECT_EQ(memo.size(), 1000U);
  for (int k = 0; k < 1000; ++k) {
    EXPECT_EQ(outcomeOf(memo.findCell(
                  f.goal, withSlot(f.s0, f.read, expr::Scalar::i(k)))),
              outcome(k))
        << k;
  }
  EXPECT_FALSE(
      memo.findCell(f.goal, withSlot(f.s0, f.read, expr::Scalar::i(1000))));
}

}  // namespace
}  // namespace stcg::gen
