// Cross-session partial-aggregate cache and the normalized predicate
// fingerprints that key it.
//
// At "millions of users" scale the sharing argument of SeeDB §4 applies
// *across* requests, not just within one: interactive front ends emit
// streams of near-identical queries over the same table. The shared scan
// already computes fully-merged per-(query, grouping set) aggregation
// states; this module lets a server-wide cache retain them so a later
// session whose (table version, predicate fingerprint, grouping set,
// aggregate list) pair hits the cache adopts the merged states directly and
// never scans for that pair.
//
// Keys are *semantic*, not syntactic: literals are normalized into the
// double domain the engine itself compares numerics in (so `x = 1` and
// `x = 1.0` share one entry, and `+0.0` / `-0.0` collapse), and comparison
// fingerprints embed the column's schema index and physical type so
// equal-looking predicates over different columns or types can never
// collide. Table contents are pinned by db::Catalog::TableVersion — any
// load/replace bumps the version and orphans every entry derived from the
// old contents (the LRU reclaims them).
//
// An entry is admitted on its key's second sight: the cache remembers the
// fingerprints of keys that missed (a bounded ghost set, TinyLFU's
// "doorkeeper" — Einziger, Friedman and Manes, ACM TOS 2017) and refuses a
// publish whose key has missed only once. Traffic that never repeats a key
// then publishes nothing, instead of filling the budget with entries no
// session will hit; a repeating key loses its first hit.
//
// The cache also carries utility priors: final view utilities published at
// the end of a full run, used to warm-start online pruning (tighter initial
// Hoeffding intervals -> earlier retirement) in later sessions.

#ifndef SEEDB_DB_SCAN_CACHE_H_
#define SEEDB_DB_SCAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/mutex.h"
#include "db/aggregates.h"
#include "db/grouping_sets.h"
#include "db/predicate.h"
#include "db/table.h"

namespace seedb::db {

/// Canonical key text for a literal. Numerics (int64 and double) normalize
/// into the double domain — exactly the domain ComparisonPredicate compares
/// rows in (Column::NumericAt) — with -0.0 collapsed onto +0.0, so every
/// spelling that selects the same rows produces the same key. Strings and
/// nulls key verbatim (tagged so "1" the string never collides with 1 the
/// number).
std::string NormalizedValueKey(const Value& v);

/// Cross-session fingerprint of a row predicate against `schema`.
/// nullptr (select-all) fingerprints to "*". A plain column-vs-literal
/// comparison fingerprints structurally — column index, physical type,
/// operator, normalized literal — so distinct-but-equal spellings share a
/// fingerprint and different columns/types never collide. Any other shape
/// falls back to the canonical SQL rendering (still deterministic, just
/// spelling-sensitive).
std::string PredicateFingerprint(const Predicate* pred, const Schema& schema);

/// Cache key for one (query, grouping set) pair of a shared-scan batch over
/// `table` at catalog version `table_version`. Embeds the table name and
/// version, the WHERE fingerprint, the sampling configuration, the grouping
/// set's column indices, and each aggregate's input column + FILTER
/// fingerprint. Aggregate *functions* are deliberately excluded: AggState
/// accumulates count/sum/min/max together, so SUM(x) and AVG(x) sessions
/// share one entry.
std::string PartialAggCacheKey(const Table& table, uint64_t table_version,
                               const GroupingSetsQuery& query,
                               size_t set_index);

/// One cached (query, grouping set) result: the merged aggregation states in
/// first-seen group order plus one representative row per group (group keys
/// rematerialize from the table via these rows — valid because the key pins
/// the table version). Exactly the persistent state the shared scan holds at
/// the end of a full pass, so adopting an entry is bit-identical to having
/// scanned.
struct CachedPartialAgg {
  std::vector<uint32_t> rep_row;
  /// states[accumulator][group], same shape as the scan's merged state: one
  /// array per distinct (input column, FILTER) pair among the query's
  /// aggregates, so SUM(m), AVG(m) and COUNT(m) under one FILTER hold one.
  std::vector<std::vector<AggState>> states;
  /// The layout `states` was accumulated under: acc_of[j] is aggregate j's
  /// accumulator, count_only[a] marks one that ran only the count kernel.
  /// The key leaves aggregate functions out, so a scan adopts an entry only
  /// when its own layout is identical — a COUNT-only accumulator carries no
  /// sum, min or max for a SUM to read.
  std::vector<uint32_t> acc_of;
  std::vector<uint8_t> count_only;
  /// Accounted footprint (states + rep_row + key), the LRU's budget unit.
  size_t bytes = 0;
};

struct ScanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  /// Inserts refused because their key had not yet missed twice.
  uint64_t not_admitted = 0;
  uint64_t evictions = 0;
  size_t entries = 0;
  size_t bytes = 0;
  /// Missed-key fingerprints the admission doorkeeper holds; at most
  /// PartialAggCache::kMaxGhosts.
  size_t ghosts = 0;
};

/// \brief Thread-safe LRU cache of partial-aggregate states, server-wide.
///
/// Values are shared_ptrs so an adoption holds its entry alive even if the
/// LRU evicts it concurrently. An entry larger than the whole budget is
/// refused outright instead of evicting everything else first, and so is
/// one whose key has not missed twice yet (admission on second sight).
class PartialAggCache {
 public:
  /// Missed-key fingerprints the doorkeeper remembers (~40 bytes each)
  /// before it forgets them all at once, as the priors map does. A key must
  /// miss twice within one such window to be admitted.
  static constexpr size_t kMaxGhosts = 1 << 16;

  explicit PartialAggCache(size_t budget_bytes) : budget_(budget_bytes) {}

  PartialAggCache(const PartialAggCache&) = delete;
  PartialAggCache& operator=(const PartialAggCache&) = delete;

  /// Returns the entry and freshens its LRU position, or nullptr on miss.
  /// Counts one hit or miss, in stats() and in the registry's
  /// engine.cache.{hits,misses}; a miss also counts toward the key's
  /// admission.
  std::shared_ptr<const CachedPartialAgg> Lookup(const std::string& key);

  /// Inserts (or replaces) `key` once Lookup() has missed it twice, then
  /// evicts least-recently-used entries until the footprint fits the budget
  /// again. Before the second miss the entry is refused and counted in
  /// stats().not_admitted and engine.cache.not_admitted. Fingerprints of
  /// missed keys are 64-bit hashes, so a collision may admit an entry early;
  /// that is harmless, because adoption matches the full key.
  void Insert(const std::string& key, CachedPartialAgg entry);

  /// Publishes the final utility of a fully-scanned view so later sessions
  /// can warm-start pruning. `weight` is the evidence behind the estimate
  /// (phases observed); later publications for the same key overwrite.
  void PutUtilityPrior(const std::string& key, double utility,
                       uint64_t weight);

  /// True when a prior exists; fills utility/weight.
  bool LookupUtilityPrior(const std::string& key, double* utility,
                          uint64_t* weight) const;

  ScanCacheStats stats() const;
  size_t budget_bytes() const { return budget_; }

 private:
  struct Node {
    std::shared_ptr<const CachedPartialAgg> value;
    std::list<std::string>::iterator lru_it;
  };

  mutable base::Mutex mu_;
  const size_t budget_;
  /// Front = most recently used; entries name their map key.
  std::list<std::string> lru_ GUARDED_BY(mu_);
  std::unordered_map<std::string, Node> map_ GUARDED_BY(mu_);
  /// view-utility priors: key -> (utility, weight). Tiny per entry; bounded
  /// by wholesale clear at kMaxPriors.
  std::unordered_map<std::string, std::pair<double, uint64_t>> priors_
      GUARDED_BY(mu_);
  /// The doorkeeper: misses seen per key fingerprint, saturating at 2.
  /// Cleared wholesale when a new fingerprint would pass kMaxGhosts.
  std::unordered_map<uint64_t, uint8_t> ghosts_ GUARDED_BY(mu_);
  size_t bytes_ GUARDED_BY(mu_) = 0;
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
  uint64_t insertions_ GUARDED_BY(mu_) = 0;
  uint64_t not_admitted_ GUARDED_BY(mu_) = 0;
  uint64_t evictions_ GUARDED_BY(mu_) = 0;
};

}  // namespace seedb::db

#endif  // SEEDB_DB_SCAN_CACHE_H_
