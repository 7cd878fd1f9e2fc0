#include "stcg/query_cache.h"

#include <algorithm>
#include <cstring>

#include "util/rng.h"

namespace stcg::gen {

namespace {

/// Payload bits of a scalar (its type travels separately).
std::uint64_t payloadWord(const expr::Scalar& v) {
  switch (v.type()) {
    case expr::Type::kBool: return v.asBool() ? 1 : 0;
    case expr::Type::kInt: return static_cast<std::uint64_t>(v.asInt());
    case expr::Type::kReal: {
      const double d = v.asReal();
      std::uint64_t w = 0;
      std::memcpy(&w, &d, sizeof w);
      return w;
    }
  }
  return 0;
}

expr::Scalar scalarOf(expr::Type t, std::uint64_t w) {
  switch (t) {
    case expr::Type::kBool: return expr::Scalar::b(w != 0);
    case expr::Type::kInt: return expr::Scalar::i(static_cast<std::int64_t>(w));
    case expr::Type::kReal: {
      double d = 0.0;
      std::memcpy(&d, &w, sizeof d);
      return expr::Scalar::r(d);
    }
  }
  return expr::Scalar::b(false);
}

/// Scalars as payload words, with their 2-bit type tags packed 32 to a
/// word after every 32 values and after the last partial group.
class ScalarWriter {
 public:
  explicit ScalarWriter(std::vector<std::uint64_t>& out) : out_(out) {}
  void put(const expr::Scalar& v) {
    out_.push_back(payloadWord(v));
    tags_ |= static_cast<std::uint64_t>(v.type()) << (2 * n_);
    if (++n_ == 32) flushTags();
  }
  void finish() {
    if (n_ > 0) flushTags();
  }

 private:
  void flushTags() {
    out_.push_back(tags_);
    tags_ = 0;
    n_ = 0;
  }
  std::vector<std::uint64_t>& out_;
  std::uint64_t tags_ = 0;
  int n_ = 0;
};

/// Decode `n` scalars ScalarWriter wrote starting at `w`.
sim::InputVector readScalars(const std::uint64_t* w, std::size_t n) {
  sim::InputVector out;
  out.reserve(n);
  for (std::size_t done = 0; done < n; done += 32) {
    const std::size_t k = std::min<std::size_t>(32, n - done);
    const std::uint64_t tags = w[k];
    for (std::size_t i = 0; i < k; ++i) {
      out.push_back(scalarOf(
          static_cast<expr::Type>((tags >> (2 * i)) & 3U), w[i]));
    }
    w += k + 1;
  }
  return out;
}

std::uint64_t hashWords(const std::vector<std::uint64_t>& w) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const std::uint64_t x : w) h = splitmix64(h ^ x);
  return h;
}

/// Ascending indices of the compiled state slots whose leaves `vars`
/// (sorted) holds.
std::vector<std::uint32_t> stateSlotsOf(const compile::CompiledModel& cm,
                                        const std::vector<expr::VarId>& vars) {
  std::vector<std::uint32_t> slots;
  for (std::size_t i = 0; i < cm.states.size(); ++i) {
    if (std::binary_search(vars.begin(), vars.end(), cm.states[i].id)) {
      slots.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return slots;
}

// Key header tags: which kind of query a key belongs to.
constexpr std::uint64_t kCellTag = 1;
constexpr std::uint64_t kPairTag = 2;

}  // namespace

// ----- Table ---------------------------------------------------------------

std::size_t OneStepCache::Table::probe(const std::vector<std::uint64_t>& key,
                                       std::uint64_t hash) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t p = hash & mask;; p = (p + 1) & mask) {
    const std::uint32_t slot = slots_[p];
    if (slot == 0) return p;
    const std::uint64_t* rec = arena_.data() + (slot - 1);
    if (rec[0] == key.size() && std::equal(key.begin(), key.end(), rec + 1)) {
      return p;
    }
  }
}

std::int64_t OneStepCache::Table::find(const std::vector<std::uint64_t>& key,
                                       std::uint64_t hash) const {
  if (slots_.empty()) return -1;
  const std::uint32_t slot = slots_[probe(key, hash)];
  return slot == 0 ? -1 : static_cast<std::int64_t>(slot - 1);
}

const std::uint64_t* OneStepCache::Table::value(std::int64_t record) const {
  const std::uint64_t* rec = arena_.data() + record;
  return rec + 1 + rec[0];
}

void OneStepCache::Table::grow() {
  std::vector<std::uint32_t> old = std::move(slots_);
  slots_.assign(std::max<std::size_t>(64, 2 * old.size()), 0);
  const std::size_t mask = slots_.size() - 1;
  std::vector<std::uint64_t> key;
  for (const std::uint32_t slot : old) {
    if (slot == 0) continue;
    const std::uint64_t* rec = arena_.data() + (slot - 1);
    key.assign(rec + 1, rec + 1 + rec[0]);
    std::size_t p = hashWords(key) & mask;
    while (slots_[p] != 0) p = (p + 1) & mask;
    slots_[p] = slot;
  }
}

bool OneStepCache::Table::insert(const std::vector<std::uint64_t>& key,
                                 std::uint64_t hash,
                                 const std::vector<std::uint64_t>& value) {
  if (arena_.size() + 1 + key.size() + value.size() >= (1ULL << 32) - 1) {
    return false;  // full: a cache just stops learning
  }
  // Keep the load factor at most 1/2.
  if (2 * (size_ + 1) > slots_.size()) grow();
  const std::size_t p = probe(key, hash);
  if (slots_[p] != 0) return true;
  slots_[p] = static_cast<std::uint32_t>(arena_.size() + 1);
  arena_.push_back(key.size());
  arena_.insert(arena_.end(), key.begin(), key.end());
  arena_.insert(arena_.end(), value.begin(), value.end());
  ++size_;
  return true;
}

// ----- Outcome and MCDC-pair entries ---------------------------------------
//
// Key layout: [header words — the tag and goal, or the tag, decision,
// target condition and condition bits — then per read state slot in
// ascending order its scalars as ScalarWriter writes them, an array slot
// prefixed by its length]. For a fixed header the read-slot list is
// fixed, so the lengths make the layout decodable and equal keys mean
// bit-equal projected states. Value layout: [outcome | input count << 8,
// then the input's scalars as ScalarWriter writes them].

OneStepCache::OneStepCache(const compile::CompiledModel& cm,
                           const std::vector<Goal>& goals)
    : cm_(&cm), goals_(&goals) {}

const std::vector<std::uint32_t>& OneStepCache::goalReads(int g) {
  const auto i = static_cast<std::size_t>(g);
  if (goalReadsReady_.size() <= i) {
    goalReadsReady_.resize(goals_->size());
    goalReads_.resize(goals_->size());
  }
  if (goalReadsReady_[i] == 0) {
    goalReads_[i] =
        stateSlotsOf(*cm_, expr::collectVars((*goals_)[i].pathConstraint));
    goalReadsReady_[i] = 1;
  }
  return goalReads_[i];
}

const std::vector<std::uint32_t>& OneStepCache::decisionReads(int d) {
  const auto i = static_cast<std::size_t>(d);
  if (decisionReadsReady_.size() <= i) {
    decisionReadsReady_.resize(cm_->decisions.size());
    decisionReads_.resize(cm_->decisions.size());
  }
  if (decisionReadsReady_[i] == 0) {
    const auto& dec = cm_->decisions[i];
    std::vector<expr::VarId> vars = expr::collectVars(dec.activation);
    for (const auto& c : dec.conditions) {
      const std::vector<expr::VarId> cv = expr::collectVars(c);
      vars.insert(vars.end(), cv.begin(), cv.end());
    }
    std::sort(vars.begin(), vars.end());
    vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
    decisionReads_[i] = stateSlotsOf(*cm_, vars);
    decisionReadsReady_[i] = 1;
  }
  return decisionReads_[i];
}

std::uint64_t OneStepCache::encodeKey(const std::vector<std::uint64_t>& header,
                                      const std::vector<std::uint32_t>& reads,
                                      const sim::StateSnapshot& s,
                                      std::vector<std::uint64_t>& key) const {
  key.assign(header.begin(), header.end());
  ScalarWriter w(key);
  for (const std::uint32_t i : reads) {
    if (cm_->states[i].width == 1) {
      w.put(s[i].scalar());
    } else {
      key.push_back(s[i].elems().size());
      for (const auto& e : s[i].elems()) w.put(e);
    }
  }
  w.finish();
  return hashWords(key);
}

void OneStepCache::pairHeader(const PairQuery& q,
                              std::vector<std::uint64_t>& h) const {
  h.assign(1, kPairTag << 56 | static_cast<std::uint64_t>(q.decision) << 24 |
                  static_cast<std::uint64_t>(q.cond));
  const std::vector<bool>& bits = *q.bits;
  for (std::size_t c = 0; c < bits.size(); c += 64) {
    std::uint64_t word = 0;
    for (std::size_t k = c; k < std::min(bits.size(), c + 64); ++k) {
      word |= static_cast<std::uint64_t>(bits[k]) << (k - c);
    }
    h.push_back(word);
  }
}

std::optional<CacheHit> OneStepCache::lookup(
    const std::vector<std::uint64_t>& header,
    const std::vector<std::uint32_t>& reads,
    const sim::StateSnapshot& s) const {
  // Lookups run on pool lanes: a per-thread key buffer keeps a miss from
  // allocating once the lane has warmed up.
  thread_local std::vector<std::uint64_t> key;
  const std::uint64_t h = encodeKey(header, reads, s, key);
  const std::int64_t rec = outcomes_.find(key, h);
  if (rec < 0) return std::nullopt;
  const std::uint64_t* v = outcomes_.value(rec);
  CacheHit hit;
  hit.outcome = static_cast<CachedOutcome>(v[0] & 0xff);
  if (hit.outcome == CachedOutcome::kSat) {
    hit.input = readScalars(v + 1, v[0] >> 8);
  }
  return hit;
}

void OneStepCache::record(const std::vector<std::uint64_t>& header,
                          const std::vector<std::uint32_t>& reads,
                          const sim::StateSnapshot& s, CachedOutcome outcome,
                          const sim::InputVector* input,
                          bool onSecondOffer) {
  const std::uint64_t h = encodeKey(header, reads, s, scratchKey_);
  if (onSecondOffer && !offeredBefore(h)) return;
  scratchValue_.clear();
  const std::size_t n = input != nullptr ? input->size() : 0;
  scratchValue_.push_back(static_cast<std::uint64_t>(outcome) | n << 8);
  ScalarWriter w(scratchValue_);
  for (std::size_t i = 0; i < n; ++i) w.put((*input)[i]);
  w.finish();
  (void)outcomes_.insert(scratchKey_, h, scratchValue_);
}

bool OneStepCache::offeredBefore(std::uint64_t h) {
  h |= 1;  // nonzero; a collision only files an entry one offer early
  if (2 * (offeredCount_ + 1) > offered_.size()) {
    std::vector<std::uint64_t> old = std::move(offered_);
    offered_.assign(std::max<std::size_t>(64, 2 * old.size()), 0);
    offeredCount_ = 0;
    for (const std::uint64_t w : old) {
      if (w != 0) (void)offeredBefore(w);
    }
  }
  const std::size_t mask = offered_.size() - 1;
  std::size_t p = h & mask;
  for (; offered_[p] != 0; p = (p + 1) & mask) {
    if (offered_[p] == h) return true;
  }
  offered_[p] = h;
  ++offeredCount_;
  return false;
}

std::optional<CacheHit> OneStepCache::findCell(
    int goalIdx, const sim::StateSnapshot& s) const {
  const auto g = static_cast<std::size_t>(goalIdx);
  if (g >= goalReadsReady_.size() || goalReadsReady_[g] == 0) {
    return std::nullopt;  // nothing was recorded for this goal
  }
  thread_local std::vector<std::uint64_t> header;
  header.assign(1, kCellTag << 56 | g);
  return lookup(header, goalReads_[g], s);
}

void OneStepCache::insertCell(int goalIdx, const sim::StateSnapshot& s,
                              CachedOutcome outcome,
                              const sim::InputVector* input) {
  const std::vector<std::uint32_t>& reads = goalReads(goalIdx);
  scratchHeader_.assign(1,
                        kCellTag << 56 | static_cast<std::uint64_t>(goalIdx));
  record(scratchHeader_, reads, s, outcome, input,
         outcome == CachedOutcome::kSat);
}

std::optional<CacheHit> OneStepCache::findPair(
    const PairQuery& q, const sim::StateSnapshot& s) const {
  const auto d = static_cast<std::size_t>(q.decision);
  if (d >= decisionReadsReady_.size() || decisionReadsReady_[d] == 0) {
    return std::nullopt;
  }
  thread_local std::vector<std::uint64_t> header;
  pairHeader(q, header);
  return lookup(header, decisionReads_[d], s);
}

void OneStepCache::insertPair(const PairQuery& q, const sim::StateSnapshot& s,
                              CachedOutcome outcome,
                              const sim::InputVector* input) {
  const std::vector<std::uint32_t>& reads = decisionReads(q.decision);
  pairHeader(q, scratchHeader_);
  record(scratchHeader_, reads, s, outcome, input, /*onSecondOffer=*/true);
}

}  // namespace stcg::gen
