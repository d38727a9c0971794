// E8 — §3.3 "Parallel Query Execution": "as the number of queries executed
// in parallel increases, the total latency decreases at the cost of
// increased per query execution time."
//
// Runs the un-combined (many-query) plan at increasing parallelism under
// both execution strategies:
//   per-query          — inter-query parallelism, each query its own table
//                        pass;
//   phased-shared-scan — the whole plan fused into ONE morsel-driven pass
//                        (one phase), with intra-scan parallelism
//                        (db/shared_scan.h).
// Emits machine-readable results to BENCH_parallel.json so CI can track the
// perf trajectory across PRs.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "core/executor.h"
#include "core/seedb.h"
#include "core/view_space.h"
#include "data/workload.h"

namespace {

using namespace seedb;  // NOLINT

void RunExperiment() {
  bench::Banner("E8 (parallel query execution)",
                "per-query vs shared-scan execution at rising thread counts",
                "more parallel queries lower total latency but raise "
                "per-query execution time; the fused shared scan lowers both "
                "by scanning once");

  data::WorkloadSpec spec;
  spec.rows = 150000;
  spec.num_dims = 6;
  spec.num_measures = 2;
  auto workload = data::BuildWorkload(spec).ValueOrDie();

  const db::Table* table =
      workload.catalog->GetTable(workload.table_name).ValueOrDie();
  const db::TableStats* stats =
      workload.catalog->GetStats(workload.table_name).ValueOrDie();
  auto views = core::EnumerateViews(table->schema());
  // Baseline plan = many small queries -> parallelism has room to help and
  // the shared scan has the most passes to fuse.
  auto plan = core::BuildExecutionPlan(views, workload.table_name,
                                       workload.selection, *stats,
                                       core::OptimizerOptions::Baseline())
                  .ValueOrDie();

  std::printf("plan: %zu queries over %zu views, %zu rows\n\n",
              plan.num_queries(), views.size(), workload.rows);
  std::printf("%20s %9s %8s %14s %8s %18s\n", "strategy", "threads", "phases",
              "total(ms)", "scans", "mean/unit(ms)");

  bench::JsonWriter json;
  json.BeginObject()
      .Key("bench").Value("parallel")
      .Key("rows").Value(workload.rows)
      .Key("views").Value(views.size())
      .Key("plan_queries").Value(plan.num_queries())
      .Key("runs").BeginArray();

  // One measured configuration. Under kPerQuery the per-unit latency is the
  // mean query time (the paper's "per query execution time" side of the
  // trade-off); under the fused strategy queries share the pass, so the
  // honest unit is the phase.
  auto run_config = [&](core::ExecutionStrategy strategy, size_t threads,
                        size_t phases) {
    core::ExecutorOptions exec;
    exec.parallelism = threads;
    exec.strategy = strategy;
    exec.online_pruning.num_phases = phases;
    core::ExecutionReport report;
    double ms =
        bench::MedianSeconds(
            [&] {
              auto results = core::ExecutePlan(
                  workload.engine.get(), plan,
                  core::DistanceMetric::kEarthMovers, exec, &report);
              (void)results.ValueOrDie();
            },
            2) *
        1e3;
    bool fused = strategy != core::ExecutionStrategy::kPerQuery;
    double unit_ms = (fused ? report.MeanPhaseSeconds()
                            : report.MeanQuerySeconds()) *
                     1e3;
    std::printf("%20s %9zu %8zu %14.2f %8llu %18.4f\n",
                core::ExecutionStrategyToString(strategy), threads,
                report.phases_executed, ms,
                static_cast<unsigned long long>(report.table_scans), unit_ms);
    json.BeginObject()
        .Key("strategy").Value(core::ExecutionStrategyToString(strategy))
        .Key("threads").Value(threads)
        .Key("phases").Value(report.phases_executed)
        .Key("total_ms").Value(ms)
        .Key("mean_unit_ms").Value(unit_ms)
        .Key("table_scans").Value(report.table_scans)
        .EndObject();
  };

  for (core::ExecutionStrategy strategy :
       {core::ExecutionStrategy::kPerQuery,
        core::ExecutionStrategy::kPhasedSharedScan}) {
    for (size_t threads : {1, 2, 4, 8}) {
      run_config(strategy, threads, 1);
    }
  }
  // Phase-count sweep for the phased scan at 4 threads (no pruner: this
  // isolates the per-phase merge/estimate overhead the online pruners must
  // amortize). One phase at 4 threads is already a row of the sweep above.
  for (size_t phases : {2, 4, 8, 16}) {
    run_config(core::ExecutionStrategy::kPhasedSharedScan, 4, phases);
  }
  json.EndArray().EndObject();
  json.WriteFile("BENCH_parallel.json");

  std::printf("\nExpected shape: per-query total latency falls with threads "
              "while per-query time rises; the one-phase fused scan runs 1 "
              "scan total and beats per-query at every thread count, "
              "widening with cores; phased totals grow only mildly with "
              "phase count (merge + estimate overhead per boundary).\n");
  bench::Footer();
}

void BM_ParallelPlan(benchmark::State& state) {
  data::WorkloadSpec spec;
  spec.rows = 50000;
  spec.num_dims = 4;
  spec.num_measures = 2;
  auto workload = data::BuildWorkload(spec).ValueOrDie();
  const db::Table* table =
      workload.catalog->GetTable(workload.table_name).ValueOrDie();
  const db::TableStats* stats =
      workload.catalog->GetStats(workload.table_name).ValueOrDie();
  auto views = core::EnumerateViews(table->schema());
  auto plan = core::BuildExecutionPlan(views, workload.table_name,
                                       workload.selection, *stats,
                                       core::OptimizerOptions::Baseline())
                  .ValueOrDie();
  core::ExecutorOptions exec;
  exec.parallelism = static_cast<size_t>(state.range(0));
  exec.strategy = state.range(1) ? core::ExecutionStrategy::kPhasedSharedScan
                                 : core::ExecutionStrategy::kPerQuery;
  exec.online_pruning.num_phases = 1;
  for (auto _ : state) {
    auto r = core::ExecutePlan(workload.engine.get(), plan,
                               core::DistanceMetric::kEarthMovers, exec);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ParallelPlan)
    ->Args({1, 0})
    ->Args({4, 0})
    ->Args({1, 1})
    ->Args({4, 1});

}  // namespace

int main(int argc, char** argv) {
  RunExperiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
