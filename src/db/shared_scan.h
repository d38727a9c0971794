// Shared-scan fused execution: the entire batch of view queries answered in
// morsel-driven passes over the base table.
//
// SeeDB's §3.3 optimizations (combine target/comparison, combine aggregates,
// combine group-bys) each reduce the *number* of scans; the logical endpoint
// of that sharing argument is to stop scanning once per query altogether.
// The table is split into fixed-size row ranges (morsels) handed to a worker
// pool. Each worker keeps private partial aggregation states per
// (query, grouping set): categorical sets whose composed group space fits
// kDenseSlotBudget take the vectorized kernels (db/vec/ — selection
// vectors shared per distinct mask per morsel, dictionary codes radix-
// composed straight to flat aggregation slabs), everything else hashes
// packed key tuples row at a time. The partials are merged after each pass.
// WHERE / FILTER / sample masks are evaluated once per distinct predicate
// across the whole batch, not once per query. Both inner loops produce
// bit-identical aggregates (pinned by tests/db/vec_equivalence_test.cc).
//
// State is kept per *accumulator*, not per aggregate: one AggState array
// per distinct (input column, FILTER) pair of a query, which every
// aggregate over that pair reads (AggState holds count, sum, min and max at
// once), so SUM(m), AVG(m) and COUNT(m) under one FILTER cost one kernel
// pass. In the vectorized loop a FILTER'd accumulator runs over its
// filter's per-morsel selection instead of testing the filter per row.
// Results, retirement and the cache key stay per aggregate (pinned by
// tests/db/accumulator_sharing_test.cc).
//
// Two entry points:
//
//   * ExecuteSharedScan — the whole batch in ONE pass (the PR 1 interface).
//   * SharedScanState   — the same machinery made *resumable*: RunPhase()
//     scans one row-range slice and folds it into persistent merged state,
//     so a plan executes as N sequential phases. Between phases the caller
//     can read each (query, grouping set)'s merged aggregate state in place
//     (ReadSet: group ids in key order plus every aggregate's AggState
//     array — no table is built) and retire the (query, grouping set,
//     aggregate) triples no surviving view reads any more (RetireAggregate;
//     DeactivateQuery retires a whole query) — the substrate for the paper's
//     §3.3 confidence-interval / multi-armed-bandit pruning
//     (core/online_pruning.h). A grouping set whose every aggregate is
//     retired drops out of the scan entirely: no group ids, no accumulation,
//     no merge, no materialization.
//
// Result shape and values are identical to running every query through
// ExecuteGroupingSets independently (per-group sums may differ by float
// reassociation across morsel boundaries, i.e. ~1 ulp).

#ifndef SEEDB_DB_SHARED_SCAN_H_
#define SEEDB_DB_SHARED_SCAN_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "db/grouping_sets.h"
#include "db/table.h"
#include "util/result.h"

namespace seedb::db {

class PartialAggCache;

struct SharedScanOptions {
  /// Worker threads for the morsel pass; 0 = hardware concurrency, 1 runs
  /// the pass inline on the calling thread.
  size_t num_threads = 0;
  /// Rows per morsel (the work-stealing unit). 0 = adaptive: derived from
  /// row and thread count via AdaptiveMorselRows() — re-derived at every
  /// phase start from the phase's row range and the fraction of (grouping
  /// set, accumulator) pairs still scanned — so small tables (and late,
  /// mostly-pruned phases) stop over-scheduling while large ones keep
  /// stealing granularity.
  size_t morsel_rows = 0;
  /// Cooperative cancellation token, observed at morsel boundaries: once it
  /// reads true, workers stop claiming morsels (each in-flight morsel
  /// completes, so every query has seen exactly the same rows), the phase
  /// merges what was scanned, and the state refuses further phases. The
  /// pointee must outlive the scan; nullptr = not cancellable.
  const std::atomic<bool>* cancel = nullptr;
  /// Vectorized morsel inner loop (db/vec/): WHERE masks become selection
  /// vectors once per morsel, categorical grouping sets map dictionary codes
  /// (radix-composed for multi-attribute sets) straight to flat aggregation
  /// slabs — no packed-key hash. Off forces every grouping set onto the
  /// hash path; both paths produce bit-identical results.
  bool enable_vectorized = true;
  /// Explicit-SIMD kernel tier (db/vec/simd/) inside vectorized morsels:
  /// predicate compares and selection construction use the ISA the binary
  /// was built for (AVX2 / NEON). Kill switch only — the tier also
  /// self-disables when the build or the CPU lacks the ISA
  /// (vec::simd::Available()), and results are bit-identical either way.
  /// No effect when enable_vectorized is false.
  bool enable_simd = true;
  /// Cross-session partial-aggregate cache (db/scan_cache.h); nullptr = off.
  /// With a cache, Init() partitions the batch's (query, grouping set)
  /// pairs into hits — merged states adopted directly, never scanned — and
  /// misses, which scan as usual and are offered back at Close() when the
  /// scan covered the whole table uncancelled and none of the pair's
  /// aggregates was retired (the cache admits an entry on its key's second
  /// miss). The pointee must outlive the scan state.
  PartialAggCache* cache = nullptr;
  /// Catalog version of the scanned table (db::Catalog::TableVersion),
  /// embedded in every cache key so stale entries can never be adopted.
  uint64_t table_version = 0;
  /// Opt-out honored by Engine::BeginShared when wiring its own cache in:
  /// callers whose downstream decisions are estimate-order-sensitive (the
  /// MAB pruner halves by per-phase estimate, and adoption makes adopted
  /// views' estimates final from phase 1) set this false so warm runs stay
  /// bit-identical to cold ones. An explicitly set `cache` wins over this.
  bool use_result_cache = true;
  /// Record obs trace spans (scan.phase / scan.worker / scan.merge) for
  /// this scan even when the active obs::TraceRecorder was not started
  /// with trace_all_sessions. No effect while no recorder is active.
  bool trace = false;
};

/// Largest composed group space (product of per-column dict_size + 1) a
/// grouping set may have and still take the vectorized kernels; above it the
/// set takes the hash path. Bounds per-worker slab memory at
/// slots * accumulators * sizeof(AggState).
inline constexpr size_t kDenseSlotBudget = 16384;

/// The morsel size `morsel_rows = 0` resolves to: aim for a handful of
/// morsels per worker (so the shared counter still load-balances), with a
/// floor that keeps small tables from being shredded into per-row tasks and
/// a ceiling that preserves stealing granularity on big tables.
size_t AdaptiveMorselRows(size_t num_rows, size_t num_threads);

/// The per-run record of one scan's work. core::ExecutionReport and
/// core::ExecutionProfile embed it by value as `scan`; process-wide totals
/// live in the obs registry (engine.scan.*, engine.cache.*).
struct SharedScanStats {
  /// Rows visited by the fused pass(es): per phase, the largest sample-mask
  /// count among queries with a set still scanned (the whole batch shares
  /// one pass, so rows are not re-counted per query; rows behind retired
  /// queries are not re-counted either).
  size_t rows_scanned = 0;
  /// Groups materialized across all queries and grouping sets.
  size_t total_groups = 0;
  /// Merged aggregation-state footprint across the whole batch — all hash
  /// tables are live at once, the working-memory trade-off §3.3 describes:
  /// groups x accumulators x sizeof(AggState) per (query, grouping set),
  /// plus the snapshot of each aggregate retired while its accumulator
  /// stayed live for another. The bytes actually held, which is what
  /// memory budgets meter.
  size_t agg_state_bytes = 0;
  size_t morsels = 0;
  /// Morsels whose inner loop ran the vectorized kernels (dense group-id +
  /// flat-slab aggregation, db/vec/) for at least one grouping set. 0 means
  /// the fast path was never taken — every set fell back to the hash path.
  size_t vectorized_morsels = 0;
  /// Vectorized morsels scanned with the explicit-SIMD kernel tier
  /// (db/vec/simd/) engaged: their selections, when a query filters, are
  /// built by the SIMD compare / select kernels. Always <=
  /// vectorized_morsels; 0 when enable_simd is off, the build is scalar, or
  /// the CPU lacks the ISA.
  size_t simd_morsels = 0;
  /// DenseAggTable slab allocations across all workers since Create().
  /// Multi-phase runs reuse per-worker slabs (capacity-preserving Reset), so
  /// this stays at one per (worker, query, vectorized set) no matter how
  /// many phases run.
  size_t agg_slab_allocations = 0;
  size_t threads_used = 0;
  /// RunPhase() calls executed (1 for the one-shot ExecuteSharedScan).
  size_t phases = 0;
  /// Morsel size the most recent phase resolved to (equals the configured
  /// morsel_rows unless adaptive sizing is on, which coarsens morsels as
  /// (set, accumulator) pairs retire).
  size_t last_phase_morsel_rows = 0;
  /// Distinct selection recipes (fused compares + mask conversions) the
  /// batch resolved to. Queries whose row filters are semantically equal —
  /// however the literal was spelled — share one recipe, hence one
  /// SelectionVector per morsel between them. Row filters (WHERE and
  /// sampling) only: the per-morsel FILTER selections built from a recipe
  /// and a FILTER mask are not counted.
  size_t selection_recipes = 0;
  /// (query, grouping set) pairs adopted from / missed in the cross-session
  /// cache at Init. Both stay 0 when no cache is configured.
  size_t cache_hits = 0;
  size_t cache_misses = 0;
};

/// One (query, grouping set)'s merged aggregation state, read in place by
/// SharedScanState::ReadSet: what the phased executor scores views from
/// without building a Table. Borrowed from the scan state, and valid until
/// its next RunPhase or ResumeAfterCancel.
struct MergedSet {
  /// Group ids in key order (internal::SortGroupsByKey): the row order of
  /// the pair's materialized table.
  const std::vector<int32_t>* order = nullptr;
  /// same_key[i] is 1 when group order[i]'s first grouping column compares
  /// equal to group order[i - 1]'s: two groups one key cannot tell apart,
  /// like a double dimension's 0.0 and -0.0, which the scan keeps apart by
  /// bit pattern. same_key[0] is 0.
  const std::vector<uint8_t>* same_key = nullptr;
  /// states[j]: aggregate j's AggStates indexed by group id — its retirement
  /// snapshot when it retired while its accumulator ran on.
  const std::vector<const AggState*>* states = nullptr;
  /// The set's first grouping column (nullptr for a global aggregate) and a
  /// representative row of each group, where a group's key is read.
  const Column* key_column = nullptr;
  const std::vector<uint32_t>* rep_row = nullptr;

  /// Group g's first grouping column, boxed.
  Value KeyOf(int32_t g) const;
};

/// Three-way comparison (-1, 0, 1) of group g of `a` with group h of `b` on
/// their first grouping column, in key order. Both sets must group by the
/// same first column of one table.
int CompareKeys(const MergedSet& a, int32_t g, const MergedSet& b, int32_t h);

/// \brief Resumable fused scan over one table: the whole query batch
/// advances through the table in caller-controlled row-range phases.
///
/// Usage:
///   SEEDB_ASSIGN_OR_RETURN(auto scan, SharedScanState::Create(t, qs, opts));
///   scan.RunPhase(0, n/2);              // first half of the table
///   scan.ReadSet(q, s);                 // merged state of (q, s), in place
///   scan.RetireAggregate(q, s, j);      // no live view reads (q, s, j)
///   scan.DeactivateQuery(q);            // retire every aggregate of q
///   scan.RunPhase(n/2, n);              // remaining rows, live pairs only
///   scan.Close();                       // offer to the cache, no tables
///   scan.FinalResults();                // or: Close() and materialize
///
/// Phases must be disjoint and strictly forward (row_begin == rows of every
/// previous phase combined); results after scanning [0, n) are exactly
/// ExecuteSharedScan's. Not thread-safe; parallelism lives inside RunPhase.
class SharedScanState {
 public:
  /// Validates and resolves `queries` against `table` (masks evaluated once
  /// per distinct predicate/sample config). `table` must outlive the state.
  static Result<SharedScanState> Create(const Table& table,
                                        std::vector<GroupingSetsQuery> queries,
                                        const SharedScanOptions& options);

  SharedScanState(SharedScanState&&) noexcept;
  SharedScanState& operator=(SharedScanState&&) noexcept;
  ~SharedScanState();

  size_t num_rows() const;
  size_t num_queries() const;
  /// The stored query batch, in result order.
  const std::vector<GroupingSetsQuery>& queries() const;
  /// Rows covered by the phases run so far (the next phase's row_begin).
  size_t rows_consumed() const;

  /// Scans [row_begin, row_end) for every active query and merges worker
  /// partials into the persistent per-(query, set) aggregation state. If the
  /// options' cancel token fires mid-phase, returns OK with whatever morsels
  /// completed merged in (see cancelled()); later phases are rejected.
  Status RunPhase(size_t row_begin, size_t row_end);

  /// True once a phase was cut short by the cancel token. rows_consumed()
  /// then reports an estimate of the rows actually covered (completed
  /// morsels are not necessarily a prefix of the phase's range).
  bool cancelled() const;

  /// Re-opens a cancelled scan instead of discarding it: the morsels of the
  /// cut-short phase that never completed are scanned now (the per-morsel
  /// completion record makes this exact — every row of the phase ends up
  /// covered exactly once), and later phases are accepted again. The caller
  /// must reset the cancel token first; a token still reading true simply
  /// cancels the resume again (the completion record shrinks and another
  /// resume may follow). Errors when the scan was not cancelled or was
  /// already finalized.
  Status ResumeAfterCancel();

  /// True while any grouping set of query `q` holds a live aggregate.
  bool query_active(size_t q) const;
  size_t active_queries() const;

  /// Retires aggregate `aggregate` of grouping set `set` of query `q`:
  /// later phases neither accumulate nor merge it, so its merged state
  /// stays frozen at the rows seen so far, and the (q, set) pair is no
  /// longer published to the result cache. Every other (set, aggregate)
  /// accumulates exactly as before. The aggregate's accumulator stops once
  /// no live aggregate of the set reads it; while one still does, the
  /// retired aggregate's state is snapshotted before the next phase. Once a
  /// set has no live aggregate left it is not scanned at all. Idempotent;
  /// permanent.
  Status RetireAggregate(size_t q, size_t set, size_t aggregate);
  /// Retires every aggregate of query `q`: later phases skip it and
  /// FinalResults() leaves its slot empty. Idempotent.
  Status DeactivateQuery(size_t q);

  /// Reads (query q, grouping set `set`)'s merged state as of the rows seen
  /// so far, without copying or finalizing it. The key order is computed
  /// on the first read and again only after the set has gained groups.
  /// Errors on an out-of-range pair.
  Result<MergedSet> ReadSet(size_t q, size_t set);

  /// Materializes query q's current partial results as tables — same shape
  /// as the final results, computed from the rows seen so far, without
  /// finalizing the scan. A set with no live aggregate comes back as an
  /// empty placeholder table (no columns) so result indices still match
  /// grouping sets; a fully retired query instead materializes all of its
  /// frozen state. The table-building reference ReadSet is tested against.
  Result<std::vector<Table>> PartialResults(size_t q) const;

  /// Ends the scan without materializing anything: offers every fully
  /// scanned pair to the result cache and rejects further phases. The
  /// merged state stays readable. Idempotent.
  void Close();

  /// Close(), then materializes every active query's results from the
  /// merged state, with the same placeholders as PartialResults(). Retired
  /// queries yield an empty result-set vector.
  Result<std::vector<std::vector<Table>>> FinalResults();

  SharedScanStats stats() const;

 private:
  class Impl;
  explicit SharedScanState(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// Answers all of `queries` in one morsel-driven pass over `table`.
/// Output `[q]` is exactly what ExecuteGroupingSets(table, queries[q])
/// returns: one result table per grouping set of query q, rows sorted by
/// group key. Queries may differ in WHERE, FILTER, grouping sets and
/// sampling; they must all target `table`.
Result<std::vector<std::vector<Table>>> ExecuteSharedScan(
    const Table& table, const std::vector<GroupingSetsQuery>& queries,
    const SharedScanOptions& options, SharedScanStats* stats = nullptr);

}  // namespace seedb::db

#endif  // SEEDB_DB_SHARED_SCAN_H_
