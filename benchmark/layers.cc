// layers — the traced in-process replay that splits a workload's session
// time across the layers of the system.
//
//   layers --workload W --seed N [--scale F] --trace-out FILE
//
// Builds the workload's table from the same spec and seed seedb_server uses,
// then replays the same request stream the load generator sends, calling
// each module's public functions directly:
//
//   setup          data::GenerateSynthetic, Catalog::GetStats, the first
//                  SeeDB::Open (the warm-up session the server runs)
//   core.session   SeeDB::Open / RecommendationSession::Next / Finish, on an
//                  engine with the server's 64 MiB result cache
//   core.executor  GenerateViews -> BuildExecutionPlan ->
//                  PhasedPlanExecution::Begin / Step / Finish (no cache)
//   db.scan        Engine::BeginShared / RunPhase / Finalize on those plans'
//                  queries: a replay of each executor run's phases with the
//                  same queries retired, then full scans at 1 and 4 threads
//   db.vec         vec::simd:: compare and accumulate kernels on the table's
//                  own columns
//
// Each call runs inside a span; the spans are written at exit as Chrome
// trace JSON and the per-layer figures are printed as one JSON object.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/executor.h"
#include "core/optimizer.h"
#include "core/query_generator.h"
#include "core/seedb.h"
#include "core/session.h"
#include "data/synthetic.h"
#include "db/catalog.h"
#include "db/engine.h"
#include "db/vec/simd/simd.h"
#include "server/json.h"
#include "server/protocol.h"
#include "trace_log.h"
#include "workload.h"

namespace {

using namespace seedb;             // NOLINT
using namespace seedb::benchmark;  // NOLINT
using server::JsonValue;

/// Executor runs replayed (and scan plans measured) per workload.
constexpr size_t kExecutorRuns = 20;
constexpr size_t kScanPlans = 10;
/// The result-cache budget seedb_server runs with by default.
constexpr size_t kServerCacheBytes = size_t{64} << 20;

double P50(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 2];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double total = 0.0;
  for (double x : v) total += x;
  return total / static_cast<double>(v.size());
}

double MsSince(int64_t start) {
  return static_cast<double>(NowNs() - start) / 1e6;
}

#define CHECK_OK(expr)                                              \
  do {                                                              \
    ::seedb::Status _s = (expr);                                    \
    if (!_s.ok()) {                                                 \
      std::fprintf(stderr, "layers: %s: %s\n", #expr,               \
                   _s.ToString().c_str());                          \
      std::exit(1);                                                 \
    }                                                               \
  } while (0)

template <typename T>
T ValueOrDie(Result<T> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "layers: %s: %s\n", what, r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*r);
}

/// The core request the server builds for `spec`: the same JSON round trip
/// the wire takes, so both sides run identical options.
core::SeeDBRequest ToRequest(const server::OpenSpec& spec) {
  return ValueOrDie(
      server::OpenRequestFromJson(server::OpenRequestToJson("replay", spec)),
      "request");
}

/// Mirrors RecommendationSession's executor options.
core::ExecutorOptions ExecOptions(const core::SeeDBOptions& o) {
  core::ExecutorOptions exec;
  exec.parallelism = o.parallelism;
  exec.enable_simd = o.enable_simd;
  exec.strategy = o.strategy;
  exec.online_pruning = o.online_pruning;
  if (exec.online_pruning.keep_k == 0) exec.online_pruning.keep_k = o.k;
  return exec;
}

std::vector<db::GroupingSetsQuery> PlanQueries(const core::ExecutionPlan& plan) {
  std::vector<db::GroupingSetsQuery> queries;
  for (const core::PlannedQuery& pq : plan.queries) queries.push_back(pq.query);
  return queries;
}

class Replay {
 public:
  Replay(const Workload& w, uint64_t seed, double scale)
      : w_(w), seed_(seed), scale_(scale) {}

  void Run() {
    Setup();
    Sessions();
    Executor();
    Scans();
    Kernels();
  }

  JsonValue Metrics() const {
    JsonValue m = JsonValue::Object();
    for (const auto& [name, value] : metrics_) m.Set(name, JsonValue::Number(value));
    return m;
  }
  const SpanLog& spans() const { return spans_; }
  int64_t origin() const { return origin_; }

 private:
  uint64_t NextSession() { return ++session_; }

  void Setup() {
    const uint64_t sid = NextSession();
    ScopedSpan root(&spans_, "setup", sid);
    {
      const int64_t t = NowNs();
      ScopedSpan span(&spans_, "data.generate", sid);
      data::SyntheticDataset dataset =
          ValueOrDie(data::GenerateSynthetic(TableSpec(w_, scale_)), "generate");
      catalog_.PutTable(kTable, std::move(dataset.table));
      metrics_["data.generate_s"] = MsSince(t) / 1e3;
    }
    {
      const int64_t t = NowNs();
      ScopedSpan span(&spans_, "db.catalog.stats", sid);
      ValueOrDie(catalog_.GetStats(kTable), "stats");
      metrics_["db.catalog.stats_s"] = MsSince(t) / 1e3;
    }
    cached_engine_.EnableResultCache(kServerCacheBytes);
    core::SeeDB seedb(&cached_engine_);
    const int64_t t = NowNs();
    std::optional<core::RecommendationSession> session;
    {
      ScopedSpan span(&spans_, "core.plan.first_open", sid);
      session.emplace(ValueOrDie(seedb.Open(ToRequest(SessionSpec(w_, PlantedSql()))),
                                 "first open"));
    }
    metrics_["core.plan.first_open_ms"] = MsSince(t);
    ScopedSpan span(&spans_, "core.session.first_finish", sid);
    ValueOrDie(session->Finish(), "first finish");
    session.reset();
  }

  // The wire mix in-process: same requests, same order, same cache budget.
  void Sessions() {
    core::SeeDB seedb(&cached_engine_);
    RequestStream stream(w_, seed_);
    std::vector<double> open_ms, first_next_ms, finish_ms, total_ms;
    for (size_t i = 0; i < w_.replay_sessions; ++i) {
      const core::SeeDBRequest request =
          ToRequest(SessionSpec(w_, stream.Next().sql));
      const uint64_t sid = NextSession();
      const int64_t start = NowNs();
      ScopedSpan root(&spans_, "core.session", sid);
      std::optional<core::RecommendationSession> session;
      {
        const int64_t t = NowNs();
        ScopedSpan span(&spans_, "core.plan.open", sid);
        session.emplace(ValueOrDie(seedb.Open(request), "open"));
        open_ms.push_back(MsSince(t));
      }
      for (bool first = true; !session->done(); first = false) {
        const int64_t t = NowNs();
        ScopedSpan span(&spans_, "core.session.next", sid);
        ValueOrDie(session->Next(), "next");
        if (first) first_next_ms.push_back(MsSince(t));
      }
      const int64_t t = NowNs();
      core::RecommendationSet set;
      {
        ScopedSpan span(&spans_, "core.session.finish", sid);
        set = ValueOrDie(session->Finish(), "finish");
      }
      finish_ms.push_back(MsSince(t));
      {
        // The server drops its session before the result frame leaves.
        ScopedSpan span(&spans_, "core.session.release", sid);
        session.reset();
      }
      total_ms.push_back(MsSince(start));
      metrics_["core.plan.views"] = static_cast<double>(set.profile.views_executed);
      metrics_["core.plan.queries"] = static_cast<double>(set.profile.queries_issued);
    }
    metrics_["core.plan.open_ms_p50"] = P50(open_ms);
    metrics_["core.session.first_next_ms_p50"] = P50(first_next_ms);
    metrics_["core.session.finish_ms_p50"] = P50(finish_ms);
    metrics_["core.session.total_ms_p50"] = P50(total_ms);
  }

  // The executor's own calls, then each run's phases replayed as bare
  // RunPhase calls over the same rows and the same surviving queries: the
  // difference is the executor's boundary work (estimates, pruning).
  void Executor() {
    RequestStream stream(w_, seed_);
    std::vector<double> boundary_ms, pruned_frac, deactivated_frac, phases;
    size_t early_stops = 0;
    const size_t runs = std::min(kExecutorRuns, w_.replay_sessions);
    for (size_t i = 0; i < runs; ++i) {
      const core::SeeDBRequest request =
          ToRequest(SessionSpec(w_, stream.Next().sql));
      const core::SeeDBOptions& options = request.options();
      const uint64_t sid = NextSession();
      auto plan = std::make_unique<core::ExecutionPlan>();
      std::vector<double> step_ms;
      core::ExecutionReport report;
      {
        ScopedSpan root(&spans_, "core.executor.session", sid);
        core::GeneratedViews generated;
        {
          ScopedSpan span(&spans_, "core.plan.generate_views", sid);
          generated = ValueOrDie(
              core::GenerateViews(&plain_engine_, request.table(), request.selection(),
                                  options.view_space, options.pruning),
              "generate views");
        }
        {
          ScopedSpan span(&spans_, "core.plan.build_plan", sid);
          const db::TableStats* stats =
              ValueOrDie(catalog_.GetStats(request.table()), "stats");
          *plan = ValueOrDie(
              core::BuildExecutionPlan(generated.pruning.kept, request.table(),
                                       request.selection(), *stats, options.optimizer),
              "plan");
        }
        std::optional<core::PhasedPlanExecution> run;
        {
          ScopedSpan span(&spans_, "core.executor.begin", sid);
          run.emplace(ValueOrDie(core::PhasedPlanExecution::Begin(
                                     &plain_engine_, *plan, options.metric,
                                     ExecOptions(options)),
                                 "begin"));
        }
        while (!run->done()) {
          const int64_t t = NowNs();
          ScopedSpan span(&spans_, "core.executor.step", sid);
          ValueOrDie(run->Step(/*collect_estimates=*/true), "step");
          step_ms.push_back(MsSince(t));
        }
        {
          ScopedSpan span(&spans_, "core.executor.finish", sid);
          ValueOrDie(run->Finish(&report), "executor finish");
        }
        ScopedSpan span(&spans_, "core.executor.release", sid);
        run.reset();
      }
      pruned_frac.push_back(static_cast<double>(report.views_pruned_online) /
                            static_cast<double>(std::max<size_t>(1, plan->num_views)));
      deactivated_frac.push_back(static_cast<double>(report.queries_deactivated) /
                                 static_cast<double>(std::max<size_t>(1, plan->num_queries())));
      phases.push_back(static_cast<double>(report.phases_executed));
      early_stops += report.early_stopped ? 1 : 0;

      const std::vector<double> scan_ms = ReplayPhases(*plan, report, options);
      for (size_t p = 0; p < scan_ms.size() && p < step_ms.size(); ++p) {
        boundary_ms.push_back(step_ms[p] - scan_ms[p]);
      }
      plans_.push_back(std::move(plan));
    }
    metrics_["core.executor.boundary_ms_p50"] = P50(boundary_ms);
    metrics_["core.executor.views_pruned_frac"] = Mean(pruned_frac);
    metrics_["core.executor.queries_deactivated_frac"] = Mean(deactivated_frac);
    metrics_["core.executor.early_stop_frac"] =
        static_cast<double>(early_stops) / static_cast<double>(std::max<size_t>(1, runs));
    metrics_["core.executor.phases_run_mean"] = Mean(phases);
  }

  /// RunPhase wall time per phase of an executor run, with each query
  /// retired from the phase after the boundary that pruned its last view.
  std::vector<double> ReplayPhases(const core::ExecutionPlan& plan,
                                   const core::ExecutionReport& report,
                                   const core::SeeDBOptions& options) {
    std::map<std::string, size_t> pruned_at;
    for (const core::OnlinePrunedView& v : report.online_pruned) {
      pruned_at[v.view.Id()] = v.pruned_at_phase;
    }
    // A query stops after the last boundary at which one of its views died.
    std::vector<size_t> dies_after(plan.queries.size(), 0);
    for (size_t q = 0; q < plan.queries.size(); ++q) {
      for (const core::ViewSlot& slot : plan.queries[q].slots) {
        auto it = pruned_at.find(slot.view.Id());
        if (it == pruned_at.end()) {
          dies_after[q] = SIZE_MAX;
          break;
        }
        dies_after[q] = std::max(dies_after[q], it->second);
      }
    }
    const uint64_t sid = NextSession();
    ScopedSpan root(&spans_, "db.scan.replay", sid);
    db::SharedScanOptions scan;
    scan.num_threads = options.parallelism;
    scan.enable_simd = options.enable_simd;
    std::optional<db::SharedScanSession> session;
    {
      ScopedSpan span(&spans_, "db.scan.begin_shared", sid);
      session.emplace(ValueOrDie(plain_engine_.BeginShared(PlanQueries(plan), scan),
                                 "begin shared"));
    }
    const size_t n = session->num_rows();
    const size_t total = std::max<size_t>(1, options.online_pruning.num_phases);
    std::vector<double> phase_ms;
    for (size_t p = 0; p < report.phases_executed; ++p) {
      for (size_t q = 0; q < plan.queries.size(); ++q) {
        if (dies_after[q] != 0 && dies_after[q] <= p && session->query_active(q)) {
          CHECK_OK(session->DeactivateQuery(q));
        }
      }
      const int64_t t = NowNs();
      ScopedSpan span(&spans_, "db.scan.run_phase", sid);
      CHECK_OK(session->RunPhase(n * p / total, n * (p + 1) / total));
      phase_ms.push_back(MsSince(t));
    }
    {
      ScopedSpan span(&spans_, "db.scan.finalize", sid);
      ValueOrDie(session->Finalize(), "finalize");
    }
    ScopedSpan span(&spans_, "db.scan.release", sid);
    session.reset();
    return phase_ms;
  }

  // Full scans of the executor runs' plans, phase by phase, at 1 and at 4
  // threads; the workload's own thread count supplies the per-call figures.
  void Scans() {
    const size_t own_threads = std::max<size_t>(1, w_.parallelism);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      std::vector<double> run_phase_ms, finalize_ms, morsels, vectorized, simd, slabs,
          agg_bytes;
      double rows = 0.0;
      double scan_s = 0.0;
      for (size_t i = 0; i < plans_.size() && i < kScanPlans; ++i) {
        const uint64_t sid = NextSession();
        ScopedSpan root(&spans_, "db.scan.session", sid);
        db::SharedScanOptions scan;
        scan.num_threads = threads;
        std::optional<db::SharedScanSession> session;
        {
          ScopedSpan span(&spans_, "db.scan.begin_shared", sid);
          session.emplace(ValueOrDie(
              plain_engine_.BeginShared(PlanQueries(*plans_[i]), scan), "begin shared"));
        }
        const size_t n = session->num_rows();
        for (size_t p = 0; p < w_.phases; ++p) {
          const int64_t t = NowNs();
          ScopedSpan span(&spans_, "db.scan.run_phase", sid);
          CHECK_OK(session->RunPhase(n * p / w_.phases, n * (p + 1) / w_.phases));
          run_phase_ms.push_back(MsSince(t));
          scan_s += run_phase_ms.back() / 1e3;
        }
        rows += static_cast<double>(n);
        const db::SharedScanStats stats = session->stats();
        const int64_t t = NowNs();
        {
          ScopedSpan span(&spans_, "db.scan.finalize", sid);
          ValueOrDie(session->Finalize(), "finalize");
        }
        finalize_ms.push_back(MsSince(t));
        {
          ScopedSpan span(&spans_, "db.scan.release", sid);
          session.reset();
        }
        const double m = static_cast<double>(std::max<size_t>(1, stats.morsels));
        morsels.push_back(static_cast<double>(stats.morsels));
        vectorized.push_back(static_cast<double>(stats.vectorized_morsels) / m);
        simd.push_back(static_cast<double>(stats.simd_morsels) / m);
        slabs.push_back(static_cast<double>(stats.agg_slab_allocations));
        agg_bytes.push_back(static_cast<double>(stats.agg_state_bytes));
      }
      const double rows_per_s = scan_s > 0 ? rows / scan_s : 0.0;
      metrics_[threads == 1 ? "db.scan.rows_per_s_1t" : "db.scan.rows_per_s_4t"] =
          rows_per_s;
      if (threads == own_threads || (threads == 4 && own_threads > 4)) {
        metrics_["db.scan.run_phase_ms_p50"] = P50(run_phase_ms);
        metrics_["db.scan.finalize_ms_p50"] = P50(finalize_ms);
        metrics_["db.scan.morsels"] = Mean(morsels);
        metrics_["db.scan.vectorized_frac"] = Mean(vectorized);
        metrics_["db.scan.simd_frac"] = Mean(simd);
        metrics_["db.scan.slab_allocs"] = Mean(slabs);
        metrics_["db.scan.agg_state_bytes"] = Mean(agg_bytes);
      }
    }
    const double one = metrics_["db.scan.rows_per_s_1t"];
    metrics_["db.scan.scaling_4t"] = one > 0 ? metrics_["db.scan.rows_per_s_4t"] / one : 0.0;
  }

  // The scan's inner-loop kernels over the table's own columns, in
  // morsel-sized chunks, each repeated until it has run for ~40 ms.
  void Kernels() {
    const db::Table* table = ValueOrDie(catalog_.GetTable(kTable), "table");
    const db::Column* dim0 = ValueOrDie(table->ColumnByName("dim0"), "dim0");
    const db::Column* dim1 = ValueOrDie(table->ColumnByName("dim1"), "dim1");
    const db::Column* m0 = ValueOrDie(table->ColumnByName("m0"), "m0");
    const std::string filter_name = "m" + std::to_string(w_.filter_measure);
    const db::Column* filter = ValueOrDie(table->ColumnByName(filter_name), "filter");
    const size_t n = table->num_rows();
    constexpr size_t kChunk = 4096;
    const uint64_t sid = NextSession();
    ScopedSpan root(&spans_, "db.vec.kernels", sid);

    auto rows_per_s = [&](const char* name, auto&& kernel) {
      ScopedSpan span(&spans_, name, sid);
      const int64_t start = NowNs();
      size_t rows = 0;
      do {
        for (size_t begin = 0; begin < n; begin += kChunk) {
          kernel(begin, std::min(n, begin + kChunk));
        }
        rows += n;
      } while (NowNs() - start < 40'000'000);
      return static_cast<double>(rows) / (static_cast<double>(NowNs() - start) / 1e9);
    };

    db::vec::SelectionVector sel;
    std::vector<uint8_t> code_match(dim0->dict_size(), 0);
    code_match[static_cast<size_t>(std::max(0, dim0->FindCode("dim0_v3")))] = 1;
    const int32_t* codes = dim0->codes().data();
    metrics_["db.vec.compare_code_rows_per_s"] =
        rows_per_s("db.vec.compare_code", [&](size_t b, size_t e) {
          db::vec::simd::SelectCompareCode(codes, nullptr, code_match.data(), b, e, &sel);
        });
    const double* values = filter->double_data().data();
    const double literal = 100.0 + 10.0 * static_cast<double>(w_.filter_measure);
    metrics_["db.vec.compare_double_rows_per_s"] =
        rows_per_s("db.vec.compare_double", [&](size_t b, size_t e) {
          db::vec::simd::SelectCompareDouble(values, nullptr, db::CompareOp::kGt,
                                             literal, b, e, &sel);
        });
    std::vector<uint32_t> gids(n);
    for (size_t r = 0; r < n; ++r) gids[r] = static_cast<uint32_t>(dim1->codes()[r]);
    std::vector<db::AggState> slab(dim1->dict_size());
    const double* m0_values = m0->double_data().data();
    metrics_["db.vec.accumulate_double_rows_per_s"] =
        rows_per_s("db.vec.accumulate_double", [&](size_t b, size_t e) {
          db::vec::simd::AccumulateDoubleRange(gids.data() + b, b, e - b, m0_values,
                                               nullptr, nullptr, slab.data());
        });
    metrics_["db.vec.accumulate_count_rows_per_s"] =
        rows_per_s("db.vec.accumulate_count", [&](size_t b, size_t e) {
          db::vec::simd::AccumulateCountRange(gids.data() + b, b, e - b, nullptr,
                                              nullptr, slab.data());
        });
  }

  const Workload& w_;
  uint64_t seed_;
  double scale_;
  int64_t origin_ = NowNs();
  uint64_t session_ = 0;
  SpanLog spans_;
  std::map<std::string, double> metrics_;
  db::Catalog catalog_;
  /// The server's configuration (result cache on) for the session replay.
  db::Engine cached_engine_{&catalog_};
  /// No cache: executor and scan replays do the full work every time.
  db::Engine plain_engine_{&catalog_};
  std::vector<std::unique_ptr<core::ExecutionPlan>> plans_;
};

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double scale = 1.0;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg == "--workload") {
      workload = FindWorkload(argv[i + 1]);
    } else if (arg == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (arg == "--scale") {
      scale = std::atof(argv[i + 1]);
    } else if (arg == "--trace-out") {
      trace_out = argv[i + 1];
    }
  }
  if (workload == nullptr || trace_out.empty() || argc % 2 == 0) {
    std::fprintf(stderr,
                 "usage: layers --workload W [--seed N] [--scale F] "
                 "--trace-out FILE\n");
    return 2;
  }
  Replay replay(*workload, seed, scale);
  replay.Run();
  if (!replay.spans().Write(trace_out, replay.origin())) {
    std::fprintf(stderr, "layers: cannot write %s\n", trace_out.c_str());
    return 1;
  }
  JsonValue out = JsonValue::Object();
  out.Set("isa", JsonValue::Str(db::vec::simd::IsaName()));
  out.Set("metrics", replay.Metrics());
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}
