#include "stcg/checkpoint.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "expr/eval.h"
#include "sim/snapshot_io.h"

namespace stcg::gen {

namespace {

// Generic cap applied to every element count in the file. The checksum
// already rejects accidental corruption; this keeps even a deliberately
// crafted file from provoking a huge allocation before validation.
constexpr std::uint64_t kMaxCount = 1ULL << 22;

[[noreturn]] void failCk(const std::string& what) {
  throw expr::EvalError("checkpoint: " + what);
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void putHexDouble(std::ostream& os, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  os << buf;
}

std::string ckToken(std::istream& is, const char* what) {
  std::string tok;
  if (!(is >> tok)) failCk(std::string("unexpected end of file reading ") + what);
  return tok;
}

void ckExpect(std::istream& is, const char* tag) {
  const std::string tok = ckToken(is, tag);
  if (tok != tag) {
    failCk(std::string("expected '") + tag + "', got '" + tok + "'");
  }
}

std::uint64_t ckU64(std::istream& is, const char* what, int base = 10) {
  const std::string tok = ckToken(is, what);
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(tok.c_str(), &end, base);
  if (errno != 0 || end != tok.c_str() + tok.size() || tok.empty() ||
      tok[0] == '-') {
    failCk(std::string("malformed ") + what + " '" + tok + "'");
  }
  return static_cast<std::uint64_t>(v);
}

std::int64_t ckI64(std::istream& is, const char* what) {
  const std::string tok = ckToken(is, what);
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(tok.c_str(), &end, 10);
  if (errno != 0 || end != tok.c_str() + tok.size() || tok.empty()) {
    failCk(std::string("malformed ") + what + " '" + tok + "'");
  }
  return static_cast<std::int64_t>(v);
}

std::uint64_t ckCount(std::istream& is, const char* what) {
  const std::uint64_t v = ckU64(is, what);
  if (v > kMaxCount) {
    failCk(std::string(what) + " count " + std::to_string(v) +
           " exceeds limit");
  }
  return v;
}

double ckDouble(std::istream& is, const char* what) {
  const std::string tok = ckToken(is, what);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end != tok.c_str() + tok.size() || tok.empty()) {
    failCk(std::string("malformed ") + what + " '" + tok + "'");
  }
  return v;
}

/// Read a length-prefixed string: "<len> <raw bytes>" (bytes may contain
/// anything but are in practice goal labels).
std::string ckString(std::istream& is, const char* what) {
  const std::uint64_t len = ckCount(is, what);
  if (len == 0) return {};
  is.get();  // the single separator space
  std::string out(static_cast<std::size_t>(len), '\0');
  is.read(out.data(), static_cast<std::streamsize>(len));
  if (static_cast<std::uint64_t>(is.gcount()) != len) {
    failCk(std::string("truncated ") + what);
  }
  return out;
}

int originCode(TestOrigin o) { return o == TestOrigin::kRandom ? 1 : 0; }

TestOrigin originFromCode(std::int64_t c) {
  if (c == 0) return TestOrigin::kSolved;
  if (c == 1) return TestOrigin::kRandom;
  failCk("invalid test origin " + std::to_string(c));
}

void writeBody(std::ostream& os, const compile::CompiledModel& cm,
               const GenOptions& opt, const CampaignState& cs,
               std::int64_t elapsedMillisTotal) {
  os << kCheckpointMagic << " v" << kCheckpointVersion << '\n';
  os << "model " << hex16(modelSignature(cm)) << '\n';
  os << "options " << hex16(optionsSignature(opt)) << '\n';
  os << "elapsed " << elapsedMillisTotal << '\n';
  os << "round " << cs.round << '\n';
  os << "streams " << cs.randomStream.seed() << ' '
     << cs.randomStream.position() << ' ' << cs.mcdcStream.seed() << ' '
     << cs.mcdcStream.position() << '\n';
  os << "fallback-exhausted " << (cs.fallbackExhausted ? 1 : 0) << '\n';

  os << "tree " << cs.tree.size() << '\n';
  for (std::size_t i = 0; i < cs.tree.size(); ++i) {
    const StateTreeNode& n = cs.tree.node(static_cast<int>(i));
    os << "node " << n.id << ' ' << n.parent << ' ' << hex16(n.stateHash)
       << '\n';
    // attemptedGoals is an unordered_set; emit sorted so identical
    // campaigns produce byte-identical checkpoints.
    std::vector<int> att(n.attemptedGoals.begin(), n.attemptedGoals.end());
    std::sort(att.begin(), att.end());
    os << "attempted " << att.size();
    for (const int g : att) os << ' ' << g;
    os << '\n';
    sim::writeInputVector(os, n.inputFromParent);
    os << '\n';
    sim::writeSnapshot(os, n.state);
    os << '\n';
  }

  os << "library " << cs.library.size() << '\n';
  for (const auto& in : cs.library) {
    sim::writeInputVector(os, in);
    os << '\n';
  }

  os << "tests " << cs.tests.size() << '\n';
  for (const TestCase& t : cs.tests) {
    os << "test " << t.steps.size() << ' ';
    putHexDouble(os, t.timestampSec);
    os << ' ' << originCode(t.origin) << ' ' << t.goalLabel.size();
    if (!t.goalLabel.empty()) os << ' ' << t.goalLabel;
    os << '\n';
    for (const auto& step : t.steps) {
      sim::writeInputVector(os, step);
      os << '\n';
    }
  }

  os << "events " << cs.events.size() << '\n';
  for (const GenEvent& e : cs.events) {
    os << "event ";
    putHexDouble(os, e.timeSec);
    os << ' ';
    putHexDouble(os, e.decisionCoverage);
    os << ' ' << originCode(e.origin) << '\n';
  }

  os << "stats " << cs.stats.solveCalls << ' ' << cs.stats.solveSat << ' '
     << cs.stats.solveUnsat << ' ' << cs.stats.solveUnknown << ' '
     << cs.stats.stepsExecuted << ' ' << cs.stats.treeNodes << ' '
     << cs.stats.randomSequences << ' ' << cs.stats.goalsPruned << '\n';

  coverage::writeExclusions(os, cs.exclusions);
  os << '\n';
  cs.tracker.serializeState(os);
  os << "end\n";
}

}  // namespace

std::uint64_t modelSignature(const compile::CompiledModel& cm) {
  std::ostringstream os;
  os << cm.name << '\n' << cm.blockCount << '\n';
  os << "inputs " << cm.inputs.size() << '\n';
  for (const auto& in : cm.inputs) {
    os << in.info.id << ' ' << in.info.name << ' '
       << static_cast<int>(in.info.type) << ' ';
    putHexDouble(os, in.info.lo);
    os << ' ';
    putHexDouble(os, in.info.hi);
    os << '\n';
  }
  os << "states " << cm.states.size() << '\n';
  for (const auto& sv : cm.states) {
    os << sv.id << ' ' << sv.name << ' ' << static_cast<int>(sv.type) << ' '
       << sv.width << ' ';
    sim::writeValue(os, sv.init);
    os << '\n';
  }
  os << "decisions " << cm.decisions.size() << '\n';
  for (const auto& d : cm.decisions) {
    os << static_cast<int>(d.kind) << ' ' << d.name << ' '
       << d.armConds.size() << ' ' << d.conditions.size() << ' '
       << d.parentBranch << ' ' << d.depth << '\n';
  }
  os << "branches " << cm.branches.size() << '\n';
  for (const auto& b : cm.branches) {
    os << b.decision << ' ' << b.arm << ' ' << b.label << ' '
       << b.parentBranch << ' ' << b.depth << '\n';
  }
  os << "objectives " << cm.objectives.size() << '\n';
  for (const auto& o : cm.objectives) os << o.name << '\n';
  return fnv1a(os.str());
}

std::uint64_t optionsSignature(const GenOptions& opt) {
  std::ostringstream os;
  os << opt.seed << ' ' << static_cast<int>(opt.solverKind) << ' '
     << opt.solver.timeBudgetMillis << ' ' << opt.solver.maxBoxes << ' '
     << opt.solver.samplesPerBox << ' ' << opt.solver.contractPasses << ' '
     << opt.randomSeqLen << ' ' << opt.maxTreeNodes << ' '
     << (opt.sortGoalsByDepth ? 1 : 0) << ' '
     << (opt.useRandomFallback ? 1 : 0) << ' '
     << (opt.solveOnAllNodes ? 1 : 0) << ' '
     << (opt.includeConditionGoals ? 1 : 0) << ' '
     << (opt.pruneProvablyDead ? 1 : 0) << ' ';
  putHexDouble(os, opt.freshRandomProbability);
  return fnv1a(os.str());
}

void saveCampaignCheckpoint(const std::string& path,
                            const compile::CompiledModel& cm,
                            const GenOptions& opt, const CampaignState& cs,
                            std::int64_t elapsedMillisTotal) {
  std::ostringstream body;
  writeBody(body, cm, opt, cs, elapsedMillisTotal);
  std::string data = body.str();
  data += "checksum " + hex16(fnv1a(data)) + '\n';

  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) failCk("cannot open '" + tmp + "' for writing");
    f.write(data.data(), static_cast<std::streamsize>(data.size()));
    f.flush();
    if (!f.good()) failCk("write to '" + tmp + "' failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string err = std::strerror(errno);
    std::remove(tmp.c_str());
    failCk("cannot rename '" + tmp + "' to '" + path + "': " + err);
  }
}

void loadCampaignCheckpoint(const std::string& path,
                            const compile::CompiledModel& cm,
                            const GenOptions& opt, std::size_t goalCount,
                            CampaignState& cs) {
  std::ifstream f(path, std::ios::binary);
  if (!f) failCk("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << f.rdbuf();
  const std::string all = buf.str();

  // A complete file always ends with the checksum line's newline; a
  // file cut anywhere — even one byte short — fails here or below.
  if (all.empty() || all.back() != '\n') {
    failCk("file does not end with a newline (truncated file?)");
  }
  // Checksum covers every byte up to and including the newline that
  // precedes the checksum line.
  const auto pos = all.rfind("\nchecksum ");
  if (pos == std::string::npos) {
    failCk("missing checksum line (truncated file?)");
  }
  const std::string bodyBytes = all.substr(0, pos + 1);
  {
    std::istringstream cks(all.substr(pos + 1));
    ckExpect(cks, "checksum");
    const std::uint64_t recorded = ckU64(cks, "checksum", 16);
    std::string extra;
    if (cks >> extra) failCk("trailing data after checksum line");
    if (recorded != fnv1a(bodyBytes)) {
      failCk("checksum mismatch (corrupt checkpoint)");
    }
  }

  std::istringstream is(bodyBytes);
  ckExpect(is, kCheckpointMagic);
  const std::string ver = ckToken(is, "format version");
  if (ver != "v" + std::to_string(kCheckpointVersion)) {
    failCk("unsupported format version '" + ver + "' (this build reads v" +
           std::to_string(kCheckpointVersion) + ")");
  }
  ckExpect(is, "model");
  if (ckU64(is, "model signature", 16) != modelSignature(cm)) {
    failCk("model signature mismatch — checkpoint was saved for a "
           "different model");
  }
  ckExpect(is, "options");
  if (ckU64(is, "options signature", 16) != optionsSignature(opt)) {
    failCk("options signature mismatch — checkpoint was saved under "
           "different trajectory-relevant options (seed, solver budget, "
           "sequence length, tree cap, or ablations)");
  }
  ckExpect(is, "elapsed");
  const std::int64_t elapsed = ckI64(is, "elapsed millis");
  if (elapsed < 0) failCk("negative elapsed time");
  cs.elapsedMillisBefore = elapsed;
  ckExpect(is, "round");
  const std::int64_t round = ckI64(is, "round");
  if (round < 0 || round > static_cast<std::int64_t>(kMaxCount)) {
    failCk("round " + std::to_string(round) + " out of range");
  }
  cs.round = static_cast<int>(round);
  ckExpect(is, "streams");
  const std::uint64_t randomSeed = ckU64(is, "random stream seed");
  const std::uint64_t randomPos = ckU64(is, "random stream position");
  const std::uint64_t mcdcSeed = ckU64(is, "mcdc stream seed");
  const std::uint64_t mcdcPos = ckU64(is, "mcdc stream position");
  if (randomSeed != cs.randomStream.seed() ||
      mcdcSeed != cs.mcdcStream.seed()) {
    failCk("rng stream seed mismatch");
  }
  cs.randomStream.seek(randomPos);
  cs.mcdcStream.seek(mcdcPos);
  ckExpect(is, "fallback-exhausted");
  const std::int64_t fe = ckI64(is, "fallback-exhausted flag");
  if (fe != 0 && fe != 1) failCk("invalid fallback-exhausted flag");
  cs.fallbackExhausted = fe == 1;

  ckExpect(is, "tree");
  const std::uint64_t nodeCount = ckCount(is, "tree node");
  if (nodeCount == 0) failCk("tree must contain at least the root");
  for (std::uint64_t i = 0; i < nodeCount; ++i) {
    ckExpect(is, "node");
    const std::int64_t id = ckI64(is, "node id");
    const std::int64_t parent = ckI64(is, "node parent");
    const std::uint64_t hash = ckU64(is, "node state hash", 16);
    if (id != static_cast<std::int64_t>(i)) {
      failCk("node ids out of order (got " + std::to_string(id) +
             ", expected " + std::to_string(i) + ")");
    }
    if (i == 0 ? parent != -1
               : (parent < 0 || parent >= static_cast<std::int64_t>(i))) {
      failCk("invalid parent " + std::to_string(parent) + " for node " +
             std::to_string(i));
    }
    ckExpect(is, "attempted");
    const std::uint64_t na = ckCount(is, "attempted goal");
    std::vector<int> attempted;
    attempted.reserve(static_cast<std::size_t>(na));
    for (std::uint64_t g = 0; g < na; ++g) {
      const std::int64_t goal = ckI64(is, "attempted goal id");
      if (goal < 0 || static_cast<std::uint64_t>(goal) >= goalCount) {
        failCk("attempted goal id " + std::to_string(goal) +
               " out of range (campaign has " + std::to_string(goalCount) +
               " goals)");
      }
      attempted.push_back(static_cast<int>(goal));
    }
    sim::InputVector input = sim::readInputVector(is);
    sim::StateSnapshot state = sim::readSnapshot(is);
    if (sim::snapshotHash(state) != hash) {
      failCk("state hash mismatch at node " + std::to_string(i) +
             " (corrupt snapshot)");
    }
    if (i == 0) {
      if (!(state == cs.tree.node(0).state)) {
        failCk("root state does not match the model's initial state");
      }
    } else {
      const int got = cs.tree.addChild(static_cast<int>(parent),
                                       std::move(input), std::move(state),
                                       hash);
      if (got != static_cast<int>(i)) {
        failCk("tree rebuild produced unexpected node id");
      }
    }
    for (const int g : attempted) {
      cs.tree.markAttempted(static_cast<int>(i), g);
    }
  }

  ckExpect(is, "library");
  const std::uint64_t nlib = ckCount(is, "library entry");
  cs.library.clear();
  cs.library.reserve(static_cast<std::size_t>(nlib));
  for (std::uint64_t i = 0; i < nlib; ++i) {
    cs.library.push_back(sim::readInputVector(is));
  }

  ckExpect(is, "tests");
  const std::uint64_t ntests = ckCount(is, "test");
  cs.tests.clear();
  cs.tests.reserve(static_cast<std::size_t>(ntests));
  for (std::uint64_t i = 0; i < ntests; ++i) {
    ckExpect(is, "test");
    const std::uint64_t nsteps = ckCount(is, "test step");
    TestCase tc;
    tc.timestampSec = ckDouble(is, "test timestamp");
    tc.origin = originFromCode(ckI64(is, "test origin"));
    tc.goalLabel = ckString(is, "test goal label");
    tc.steps.reserve(static_cast<std::size_t>(nsteps));
    for (std::uint64_t s = 0; s < nsteps; ++s) {
      tc.steps.push_back(sim::readInputVector(is));
    }
    cs.tests.push_back(std::move(tc));
  }

  ckExpect(is, "events");
  const std::uint64_t nevents = ckCount(is, "event");
  cs.events.clear();
  cs.events.reserve(static_cast<std::size_t>(nevents));
  for (std::uint64_t i = 0; i < nevents; ++i) {
    ckExpect(is, "event");
    GenEvent e;
    e.timeSec = ckDouble(is, "event time");
    e.decisionCoverage = ckDouble(is, "event coverage");
    e.origin = originFromCode(ckI64(is, "event origin"));
    cs.events.push_back(e);
  }

  ckExpect(is, "stats");
  const auto statInt = [&](const char* what) {
    const std::int64_t v = ckI64(is, what);
    if (v < 0 || v > static_cast<std::int64_t>(1) << 31) {
      failCk(std::string(what) + " out of range");
    }
    return static_cast<int>(v);
  };
  cs.stats.solveCalls = statInt("stat solveCalls");
  cs.stats.solveSat = statInt("stat solveSat");
  cs.stats.solveUnsat = statInt("stat solveUnsat");
  cs.stats.solveUnknown = statInt("stat solveUnknown");
  cs.stats.stepsExecuted = statInt("stat stepsExecuted");
  cs.stats.treeNodes = statInt("stat treeNodes");
  cs.stats.randomSequences = statInt("stat randomSequences");
  cs.stats.goalsPruned = statInt("stat goalsPruned");

  cs.exclusions = coverage::readExclusions(is);
  cs.tracker.restoreState(is);
  ckExpect(is, "end");
}

}  // namespace stcg::gen
