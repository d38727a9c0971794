// Engine: the query entry point of the embedded DBMS, with the per-pass cost
// accounting SeeDB's optimizer study measures.
//
// Every §3.3 optimization is a claim about scans and shared work. The engine
// therefore counts observable costs in two places, one home per number:
// per-run figures (rows, groups, morsels, cache traffic, aggregation working
// memory) in the run's SharedScanStats / GroupingSetsStats, and process-wide
// totals (engine.queries, engine.table_scans, engine.scan.*, engine.cache.*)
// in the obs registry. Benches and tests verify e.g. that combining target
// and comparison views exactly halves scans from either.

#ifndef SEEDB_DB_ENGINE_H_
#define SEEDB_DB_ENGINE_H_

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

class Engine;

/// \brief A fused scan advancing through the table in caller-controlled
/// phases, with the engine's registry totals fed when it closes.
///
/// Created by Engine::BeginShared. The phased executor drives it: run a
/// phase, read each (query, grouping set)'s merged aggregate state in place
/// (ReadSet), retire the (query, grouping set, aggregate) triples no
/// surviving view reads, repeat, then Close(). However many phases the
/// session runs, the whole batch still records exactly ONE table scan —
/// phases partition one pass, they do not repeat it. A session abandoned
/// without Close() or Finalize() counts no query and no table scan.
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
  Status RunPhase(size_t row_begin, size_t row_end) {
    return state_.RunPhase(row_begin, row_end);
  }

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

  /// (Query q, grouping set `set`)'s merged state over the rows seen so
  /// far, read in place. See db::SharedScanState::ReadSet.
  Result<MergedSet> ReadSet(size_t q, size_t set) {
    return state_.ReadSet(q, set);
  }

  /// Terminal call that builds no table: offers the fully scanned pairs to
  /// the result cache (db::SharedScanState::Close) and records the whole
  /// session in the registry totals — engine.queries += batch size,
  /// engine.table_scans += 1. The merged state stays readable.
  Status Close();

  /// Terminal call: Close(), then materializes every surviving query's
  /// results (retired queries yield an empty vector, retired sets an empty
  /// placeholder table).
  Result<std::vector<std::vector<Table>>> Finalize();

  /// The per-run record of this scan's work.
  SharedScanStats stats() const { return state_.stats(); }

 private:
  friend class Engine;
  SharedScanSession(Engine* engine, SharedScanState state)
      : engine_(engine), state_(std::move(state)) {}

  Engine* engine_;
  SharedScanState state_;
  bool finalized_ = false;
};

/// \brief Executes queries against a Catalog, recording cost metrics and
/// column access patterns.
///
/// Execute() is safe to call concurrently from multiple threads (registry
/// counters are sharded atomics; tables are immutable during querying) —
/// this is what SeeDB's parallel query execution relies on.
class Engine {
 public:
  explicit Engine(Catalog* catalog) : catalog_(catalog) {}

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Executes a grouped aggregation (one table scan).
  Result<Table> Execute(const GroupByQuery& query);

  /// Executes a multi-group-by query (one shared table scan). `stats`
  /// (optional) receives the run's rows, groups and working set.
  Result<std::vector<Table>> Execute(const GroupingSetsQuery& query,
                                     GroupingSetsStats* stats = nullptr);

  /// Executes a whole batch of multi-group-by queries in ONE fused
  /// morsel-driven pass (db/shared_scan.h). All queries must target the same
  /// table. Every query still counts in `engine.queries`, but the batch
  /// records exactly one `engine.table_scans` increment — the engine-level
  /// realization of §3.3's scan-sharing argument. Result `[q]` matches
  /// Execute(queries[q]).
  Result<std::vector<std::vector<Table>>> ExecuteShared(
      const std::vector<GroupingSetsQuery>& queries,
      const SharedScanOptions& options = {});

  /// Opens a resumable fused scan over `queries` (all against one table)
  /// that the caller advances phase by phase — the engine face of
  /// db::SharedScanState, used by the phased executor's online pruning.
  /// The registry totals are fed when the session finalizes.
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

 private:
  friend class SharedScanSession;

  void RecordAccess(const std::string& table,
                    const std::vector<std::string>& group_cols,
                    const std::vector<AggregateSpec>& aggs,
                    const Predicate* where);
  /// Folds one finished shared-scan batch (one-shot or phased session) into
  /// the registry totals — 1 table scan, queries.size() queries, the batch's
  /// vectorized / SIMD morsels — and the access tracker.
  void RecordSharedBatch(const std::vector<GroupingSetsQuery>& queries,
                         const SharedScanStats& stats);

  Catalog* catalog_;
  AccessTracker tracker_;
  /// Cross-session partial-aggregate cache; null until EnableResultCache.
  std::unique_ptr<PartialAggCache> cache_;
};

}  // namespace seedb::db

#endif  // SEEDB_DB_ENGINE_H_
