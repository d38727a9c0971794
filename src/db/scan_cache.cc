#include "db/scan_cache.h"

#include <cstring>
#include <functional>
#include <utility>

#include "obs/metrics.h"
#include "util/string_util.h"

namespace seedb::db {
namespace {

/// Priors are ~50 bytes each; past this the side map is cleared wholesale
/// rather than tracked by a second LRU (a cold prior merely costs one
/// conservative warmup, so losing them is cheap).
constexpr size_t kMaxPriors = 1 << 16;

uint64_t KeyFingerprint(const std::string& key) {
  return std::hash<std::string>{}(key);
}

std::string DoubleBitsKey(double d) {
  if (d == 0.0) d = 0.0;  // collapse -0.0 onto +0.0 (they select equal rows)
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return StringPrintf("%016llx", static_cast<unsigned long long>(bits));
}

}  // namespace

std::string NormalizedValueKey(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "n";
    case ValueType::kString:
      return "s:" + v.AsString();
    case ValueType::kInt64:
      // The engine compares numerics in the double domain (NumericAt /
      // EvaluateMask), so two literals equal as doubles select identical
      // rows — keying on the double bit pattern is semantically exact.
      return "d:" + DoubleBitsKey(static_cast<double>(v.AsInt64()));
    case ValueType::kDouble:
      return "d:" + DoubleBitsKey(v.AsDouble());
  }
  return "n";
}

std::string PredicateFingerprint(const Predicate* pred, const Schema& schema) {
  if (pred == nullptr) return "*";
  if (const auto* cmp = dynamic_cast<const ComparisonPredicate*>(pred)) {
    Result<size_t> idx = schema.FindColumn(cmp->column());
    if (idx.ok()) {
      const ValueType type = schema.columns()[*idx].type;
      return StringPrintf("cmp:%zu:%s:%s:", *idx,
                          ValueTypeToString(type), CompareOpToSql(cmp->op())) +
             NormalizedValueKey(cmp->literal());
    }
    // Unknown column: scan setup will reject the query anyway; fall through
    // to the SQL rendering so the fingerprint stays total.
  }
  return "sql:" + pred->ToSql();
}

std::string PartialAggCacheKey(const Table& table, uint64_t table_version,
                               const GroupingSetsQuery& query,
                               size_t set_index) {
  const Schema& schema = table.schema();
  std::string key = query.table;
  key += StringPrintf("#v%llu|w:",
                      static_cast<unsigned long long>(table_version));
  key += PredicateFingerprint(query.where.get(), schema);
  if (query.sample_fraction < 1.0) {
    key += "|smp:" + DoubleBitsKey(query.sample_fraction) +
           StringPrintf(":%llu",
                        static_cast<unsigned long long>(query.sample_seed));
  }
  key += "|g:";
  for (const std::string& col : query.grouping_sets[set_index]) {
    Result<size_t> idx = schema.FindColumn(col);
    if (idx.ok()) {
      key += StringPrintf("%zu,", *idx);
    } else {
      key += col + ",";
    }
  }
  for (const AggregateSpec& agg : query.aggregates) {
    // The function is excluded on purpose: AggState carries every function's
    // accumulators, so entries are shared across e.g. SUM and AVG sessions.
    key += "|a:";
    if (agg.input.empty()) {
      key += "*";
    } else {
      Result<size_t> idx = schema.FindColumn(agg.input);
      key += idx.ok() ? StringPrintf("%zu", *idx) : agg.input;
    }
    key += ":";
    key += PredicateFingerprint(agg.filter.get(), schema);
  }
  return key;
}

std::shared_ptr<const CachedPartialAgg> PartialAggCache::Lookup(
    const std::string& key) {
  static obs::Counter* obs_hits =
      obs::Registry::Global().GetCounter("engine.cache.hits");
  static obs::Counter* obs_misses =
      obs::Registry::Global().GetCounter("engine.cache.misses");
  base::MutexLock lock(&mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    obs_misses->Add();
    const uint64_t fingerprint = KeyFingerprint(key);
    if (ghosts_.size() >= kMaxGhosts && !ghosts_.count(fingerprint)) {
      ghosts_.clear();
    }
    uint8_t& seen = ghosts_[fingerprint];
    if (seen < 2) ++seen;
    return nullptr;
  }
  ++hits_;
  obs_hits->Add();
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.value;
}

void PartialAggCache::Insert(const std::string& key, CachedPartialAgg entry) {
  size_t bytes = entry.bytes;
  if (bytes == 0) {
    bytes = entry.rep_row.size() * sizeof(uint32_t) + key.size();
    for (const auto& per_agg : entry.states) {
      bytes += per_agg.size() * sizeof(AggState);
    }
    entry.bytes = bytes;
  }
  if (bytes > budget_) return;  // would evict the whole cache for one entry
  auto value = std::make_shared<const CachedPartialAgg>(std::move(entry));
  base::MutexLock lock(&mu_);
  auto ghost = ghosts_.find(KeyFingerprint(key));
  if (ghost == ghosts_.end() || ghost->second < 2) {
    ++not_admitted_;
    static obs::Counter* obs_not_admitted =
        obs::Registry::Global().GetCounter("engine.cache.not_admitted");
    obs_not_admitted->Add();
    return;
  }
  auto it = map_.find(key);
  if (it != map_.end()) {
    bytes_ -= it->second.value->bytes;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    it->second.value = std::move(value);
  } else {
    lru_.push_front(key);
    map_.emplace(key, Node{std::move(value), lru_.begin()});
  }
  bytes_ += bytes;
  ++insertions_;
  while (bytes_ > budget_ && lru_.size() > 1) {
    const std::string& victim = lru_.back();
    if (victim == key) break;  // never evict what was just touched
    auto vit = map_.find(victim);
    bytes_ -= vit->second.value->bytes;
    map_.erase(vit);
    lru_.pop_back();
    ++evictions_;
    static obs::Counter* obs_evictions =
        obs::Registry::Global().GetCounter("engine.cache.evictions");
    obs_evictions->Add();
  }
}

void PartialAggCache::PutUtilityPrior(const std::string& key, double utility,
                                      uint64_t weight) {
  base::MutexLock lock(&mu_);
  if (priors_.size() >= kMaxPriors && !priors_.count(key)) priors_.clear();
  priors_[key] = {utility, weight};
}

bool PartialAggCache::LookupUtilityPrior(const std::string& key,
                                         double* utility,
                                         uint64_t* weight) const {
  base::MutexLock lock(&mu_);
  auto it = priors_.find(key);
  if (it == priors_.end()) return false;
  *utility = it->second.first;
  *weight = it->second.second;
  return true;
}

ScanCacheStats PartialAggCache::stats() const {
  base::MutexLock lock(&mu_);
  ScanCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.insertions = insertions_;
  s.not_admitted = not_admitted_;
  s.evictions = evictions_;
  s.entries = map_.size();
  s.bytes = bytes_;
  s.ghosts = ghosts_.size();
  return s;
}

}  // namespace seedb::db
