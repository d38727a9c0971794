#include "db/engine.h"

#include "db/sql/parser.h"
#include "obs/metrics.h"
#include "util/timer.h"

namespace seedb::db {

void Engine::RecordAccess(const std::string& table,
                          const std::vector<std::string>& group_cols,
                          const std::vector<AggregateSpec>& aggs,
                          const Predicate* where) {
  std::vector<std::string> cols = group_cols;
  for (const auto& a : aggs) {
    if (!a.input.empty()) cols.push_back(a.input);
    if (a.filter) a.filter->CollectColumns(&cols);
  }
  if (where) where->CollectColumns(&cols);
  tracker_.RecordQuery(table, cols);
}

namespace {

// The standalone (per-query) path never enters the shared-scan machinery,
// so it feeds the registry totals here. engine.phase.latency_us has no
// analogue (there are no phases); engine.query.latency_us is its
// standalone counterpart.
void RecordStandaloneQuery(uint64_t rows_scanned, uint64_t exec_us) {
  static obs::Histogram* query_latency =
      obs::Registry::Global().GetHistogram("engine.query.latency_us");
  static obs::Counter* queries =
      obs::Registry::Global().GetCounter("engine.queries");
  static obs::Counter* table_scans =
      obs::Registry::Global().GetCounter("engine.table_scans");
  static obs::Counter* rows =
      obs::Registry::Global().GetCounter("engine.scan.rows");
  query_latency->Observe(exec_us);
  queries->Add();
  table_scans->Add();
  rows->Add(rows_scanned);
}

}  // namespace

Result<Table> Engine::Execute(const GroupByQuery& query) {
  SEEDB_ASSIGN_OR_RETURN(const Table* table, catalog_->GetTable(query.table));
  Stopwatch timer;
  GroupByStats qstats;
  SEEDB_ASSIGN_OR_RETURN(Table result,
                         ExecuteGroupBy(*table, query, &qstats));
  RecordStandaloneQuery(qstats.rows_scanned,
                        static_cast<uint64_t>(timer.ElapsedMicros()));
  RecordAccess(query.table, query.group_by, query.aggregates,
               query.where.get());
  return result;
}

Result<std::vector<Table>> Engine::Execute(const GroupingSetsQuery& query,
                                           GroupingSetsStats* stats) {
  SEEDB_ASSIGN_OR_RETURN(const Table* table, catalog_->GetTable(query.table));
  Stopwatch timer;
  GroupingSetsStats qstats;
  SEEDB_ASSIGN_OR_RETURN(std::vector<Table> results,
                         ExecuteGroupingSets(*table, query, &qstats));
  // The defining property of GROUPING SETS: one scan regardless of set count.
  RecordStandaloneQuery(qstats.rows_scanned,
                        static_cast<uint64_t>(timer.ElapsedMicros()));
  if (stats != nullptr) *stats = qstats;
  std::vector<std::string> group_cols;
  for (const auto& set : query.grouping_sets) {
    group_cols.insert(group_cols.end(), set.begin(), set.end());
  }
  RecordAccess(query.table, group_cols, query.aggregates, query.where.get());
  return results;
}

Status SharedScanSession::Close() {
  if (finalized_) {
    return Status::Internal("shared-scan session already finalized");
  }
  state_.Close();
  finalized_ = true;
  engine_->RecordSharedBatch(state_.queries(), state_.stats());
  return Status::OK();
}

Result<std::vector<std::vector<Table>>> SharedScanSession::Finalize() {
  SEEDB_RETURN_IF_ERROR(Close());
  return state_.FinalResults();
}

void Engine::RecordSharedBatch(const std::vector<GroupingSetsQuery>& queries,
                               const SharedScanStats& stats) {
  static obs::Counter* obs_queries =
      obs::Registry::Global().GetCounter("engine.queries");
  static obs::Counter* obs_scans =
      obs::Registry::Global().GetCounter("engine.table_scans");
  static obs::Counter* obs_vectorized =
      obs::Registry::Global().GetCounter("engine.scan.vectorized_morsels");
  static obs::Counter* obs_simd =
      obs::Registry::Global().GetCounter("engine.scan.simd_morsels");
  obs_queries->Add(queries.size());
  // The fused batch is ONE pass over the base table, however many view
  // queries (or phases) it spans — the invariant the shared-scan tests pin
  // down.
  obs_scans->Add();
  obs_vectorized->Add(stats.vectorized_morsels);
  obs_simd->Add(stats.simd_morsels);
  for (const auto& query : queries) {
    std::vector<std::string> group_cols;
    for (const auto& set : query.grouping_sets) {
      group_cols.insert(group_cols.end(), set.begin(), set.end());
    }
    RecordAccess(query.table, group_cols, query.aggregates, query.where.get());
  }
}

Result<SharedScanSession> Engine::BeginShared(
    std::vector<GroupingSetsQuery> queries, const SharedScanOptions& options) {
  if (queries.empty()) {
    return Status::InvalidArgument("shared scan needs at least one query");
  }
  for (const auto& q : queries) {
    if (q.table != queries.front().table) {
      return Status::InvalidArgument(
          "shared scan queries must target one table (got '" +
          queries.front().table + "' and '" + q.table + "')");
    }
  }
  SEEDB_ASSIGN_OR_RETURN(const Table* table,
                         catalog_->GetTable(queries.front().table));
  SharedScanOptions resolved = options;
  if (cache_ != nullptr && resolved.cache == nullptr &&
      resolved.use_result_cache) {
    resolved.cache = cache_.get();
    resolved.table_version = catalog_->TableVersion(queries.front().table);
  }
  SEEDB_ASSIGN_OR_RETURN(
      SharedScanState state,
      SharedScanState::Create(*table, std::move(queries), resolved));
  return SharedScanSession(this, std::move(state));
}

void Engine::EnableResultCache(size_t budget_bytes) {
  cache_ = std::make_unique<PartialAggCache>(budget_bytes);
}

Result<std::vector<std::vector<Table>>> Engine::ExecuteShared(
    const std::vector<GroupingSetsQuery>& queries,
    const SharedScanOptions& options) {
  SEEDB_ASSIGN_OR_RETURN(SharedScanSession session,
                         BeginShared(queries, options));
  SEEDB_RETURN_IF_ERROR(session.RunPhase(0, session.num_rows()));
  return session.Finalize();
}

Result<Table> Engine::ExecuteSql(const std::string& sql) {
  SEEDB_ASSIGN_OR_RETURN(sql::SelectStatement stmt, sql::ParseSelect(sql));
  if (!stmt.grouping_sets.empty()) {
    SEEDB_ASSIGN_OR_RETURN(GroupingSetsQuery q,
                           sql::PlanGroupingSets(stmt));
    SEEDB_ASSIGN_OR_RETURN(std::vector<Table> results, Execute(q));
    if (results.empty()) return Status::Internal("no result sets");
    return std::move(results[0]);
  }
  SEEDB_ASSIGN_OR_RETURN(GroupByQuery q, sql::PlanGroupBy(stmt));
  return Execute(q);
}

}  // namespace seedb::db
