// Engine: the query entry point of the embedded DBMS, with the per-pass cost
// accounting SeeDB's optimizer study measures.
//
// Every §3.3 optimization is a claim about scans and shared work. The engine
// therefore counts observable costs — queries executed, table scans, rows and
// cells touched, aggregation working memory — so benches and tests can verify
// e.g. that combining target and comparison views exactly halves scans.

#ifndef SEEDB_DB_ENGINE_H_
#define SEEDB_DB_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "db/access_tracker.h"
#include "db/catalog.h"
#include "db/group_by.h"
#include "db/grouping_sets.h"
#include "db/scan_cache.h"
#include "db/shared_scan.h"
#include "util/result.h"

namespace seedb::db {

/// Plain-value snapshot of the engine's cumulative execution counters.
struct EngineStatsSnapshot {
  uint64_t queries_executed = 0;
  /// Passes over a base table (a GROUPING SETS query is one scan; a whole
  /// shared-scan batch is one scan regardless of how many queries it fuses).
  uint64_t table_scans = 0;
  /// Fused shared-scan batches executed (each contributed one table scan).
  uint64_t shared_scan_batches = 0;
  /// Morsels of those batches whose inner loop ran the vectorized kernels
  /// (db/vec/) for at least one grouping set — 0 when every set fell back
  /// to the hash path.
  uint64_t vectorized_morsels = 0;
  /// Of those, morsels whose vectorized loop additionally ran the
  /// explicit-SIMD kernel tier (db/vec/simd/) — 0 when the tier is switched
  /// off, built scalar, or the CPU lacks the ISA.
  uint64_t simd_morsels = 0;
  uint64_t rows_scanned = 0;
  uint64_t groups_created = 0;
  /// Largest per-query aggregation working set seen.
  uint64_t peak_agg_state_bytes = 0;
  uint64_t total_exec_micros = 0;
  /// Cross-session result cache (EnableResultCache): (query, grouping set)
  /// pairs adopted from / missed in the cache across all shared batches,
  /// plus the cache's current footprint and lifetime eviction count. All
  /// zero — and omitted from ToString() — while the cache is disabled.
  bool result_cache_enabled = false;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_bytes = 0;
  uint64_t cache_evictions = 0;

  std::string ToString() const;
};

class Engine;

/// \brief A fused scan advancing through the table in caller-controlled
/// phases, with engine stat accounting folded in at Finalize().
///
/// Created by Engine::BeginShared. The phased executor drives it: run a
/// phase, inspect un-finalized per-query partials, retire the (query,
/// grouping set, aggregate) triples no surviving view reads, repeat. However
/// many phases the session runs, the whole batch still records exactly ONE
/// table scan — phases partition one pass, they do not repeat it. A session
/// abandoned without Finalize() records nothing.
class SharedScanSession {
 public:
  SharedScanSession(SharedScanSession&&) noexcept = default;
  SharedScanSession& operator=(SharedScanSession&&) noexcept = default;

  size_t num_rows() const { return state_.num_rows(); }
  size_t num_queries() const { return state_.num_queries(); }
  size_t rows_consumed() const { return state_.rows_consumed(); }

  /// Scans [row_begin, row_end) for every live (grouping set, aggregate)
  /// pair (phases must be contiguous and forward; see
  /// db::SharedScanState::RunPhase).
  Status RunPhase(size_t row_begin, size_t row_end);

  /// True once the options' cancel token cut a phase short; the session can
  /// be finalized on partial data, or re-opened with ResumeAfterCancel().
  bool cancelled() const { return state_.cancelled(); }

  /// Re-opens a cancelled scan: the cut-short phase's missed morsels are
  /// scanned now and later phases run again (the caller resets the cancel
  /// token first). See db::SharedScanState::ResumeAfterCancel.
  Status ResumeAfterCancel() { return state_.ResumeAfterCancel(); }

  /// True while any grouping set of query `q` holds a live aggregate.
  bool query_active(size_t q) const { return state_.query_active(q); }
  size_t active_queries() const { return state_.active_queries(); }
  /// Retires one (query, grouping set, aggregate) triple: later phases stop
  /// computing it, and a set with no live aggregate stops being scanned.
  /// See db::SharedScanState::RetireAggregate.
  Status RetireAggregate(size_t q, size_t set, size_t aggregate) {
    return state_.RetireAggregate(q, set, aggregate);
  }
  /// Retires every aggregate of query `q`: later phases stop scanning it.
  Status DeactivateQuery(size_t q) { return state_.DeactivateQuery(q); }

  /// Query q's current partial results (un-finalized running aggregates);
  /// sets with no live aggregate are empty placeholders.
  Result<std::vector<Table>> PartialResults(size_t q) const {
    return state_.PartialResults(q);
  }

  /// Terminal call: materializes every surviving query's results (retired
  /// queries yield an empty vector, retired sets an empty placeholder
  /// table) and records the whole session in the engine's counters —
  /// queries_executed += batch size, table_scans += 1.
  Result<std::vector<std::vector<Table>>> Finalize();

  SharedScanStats stats() const { return state_.stats(); }

 private:
  friend class Engine;
  SharedScanSession(Engine* engine, SharedScanState state)
      : engine_(engine), state_(std::move(state)) {}

  Engine* engine_;
  SharedScanState state_;
  uint64_t exec_micros_ = 0;
  bool finalized_ = false;
};

/// \brief Executes queries against a Catalog, recording cost metrics and
/// column access patterns.
///
/// Execute() is safe to call concurrently from multiple threads (counters are
/// atomic; tables are immutable during querying) — this is what SeeDB's
/// parallel query execution relies on.
class Engine {
 public:
  explicit Engine(Catalog* catalog) : catalog_(catalog) {}

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Executes a grouped aggregation (one table scan).
  Result<Table> Execute(const GroupByQuery& query);

  /// Executes a multi-group-by query (one shared table scan).
  Result<std::vector<Table>> Execute(const GroupingSetsQuery& query);

  /// Executes a whole batch of multi-group-by queries in ONE fused
  /// morsel-driven pass (db/shared_scan.h). All queries must target the same
  /// table. Every query still counts in `queries_executed`, but the batch
  /// records exactly one `table_scans` increment — the engine-level
  /// realization of §3.3's scan-sharing argument. Result `[q]` matches
  /// Execute(queries[q]).
  Result<std::vector<std::vector<Table>>> ExecuteShared(
      const std::vector<GroupingSetsQuery>& queries,
      const SharedScanOptions& options = {});

  /// Opens a resumable fused scan over `queries` (all against one table)
  /// that the caller advances phase by phase — the engine face of
  /// db::SharedScanState, used by the phased executor's online pruning.
  /// Cost accounting happens when the session finalizes.
  Result<SharedScanSession> BeginShared(std::vector<GroupingSetsQuery> queries,
                                        const SharedScanOptions& options = {});

  /// Parses and executes a SQL SELECT (the wrapper-deployment interface).
  /// Supports the dialect in db/sql/parser.h; GROUPING SETS queries return
  /// their first result set through this interface.
  Result<Table> ExecuteSql(const std::string& sql);

  Catalog* catalog() { return catalog_; }
  const Catalog* catalog() const { return catalog_; }
  AccessTracker* access_tracker() { return &tracker_; }

  /// Switches on the cross-session partial-aggregate cache (off by
  /// default): every BeginShared / ExecuteShared call afterwards consults
  /// and feeds it, keyed by (table version, predicate fingerprint, grouping
  /// set) — see db/scan_cache.h. `budget_bytes` caps the LRU footprint
  /// under the same accounting unit as agg_state_bytes. Call before serving
  /// traffic; not concurrency-safe against in-flight scans.
  void EnableResultCache(size_t budget_bytes);
  /// The cache, or nullptr while disabled.
  PartialAggCache* result_cache() { return cache_.get(); }
  const PartialAggCache* result_cache() const { return cache_.get(); }

  EngineStatsSnapshot stats() const;
  void ResetStats();

 private:
  friend class SharedScanSession;

  void RecordAccess(const std::string& table,
                    const std::vector<std::string>& group_cols,
                    const std::vector<AggregateSpec>& aggs,
                    const Predicate* where);
  /// Folds one finished shared-scan batch (one-shot or phased session) into
  /// the counters: 1 table scan, queries.size() queries, the batch's rows /
  /// groups / working set, and access-tracker entries.
  void RecordSharedBatch(const std::vector<GroupingSetsQuery>& queries,
                         const SharedScanStats& stats, uint64_t exec_micros);

  Catalog* catalog_;
  AccessTracker tracker_;
  /// Cross-session partial-aggregate cache; null until EnableResultCache.
  std::unique_ptr<PartialAggCache> cache_;

  std::atomic<uint64_t> queries_executed_{0};
  std::atomic<uint64_t> table_scans_{0};
  std::atomic<uint64_t> shared_scan_batches_{0};
  std::atomic<uint64_t> vectorized_morsels_{0};
  std::atomic<uint64_t> simd_morsels_{0};
  std::atomic<uint64_t> rows_scanned_{0};
  std::atomic<uint64_t> groups_created_{0};
  std::atomic<uint64_t> peak_agg_state_bytes_{0};
  std::atomic<uint64_t> total_exec_micros_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
};

}  // namespace seedb::db

#endif  // SEEDB_DB_ENGINE_H_
