// E4 — §3.3 "Combine target and comparison view query": "we can easily
// rewrite these two view queries as one. This simple optimization halves the
// time required to compute the results for a single view."
//
// Reports queries, scans, rows scanned, and latency with the optimization
// off/on; the scan count must halve exactly and latency should track it.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "core/seedb.h"
#include "data/workload.h"

namespace {

using namespace seedb;  // NOLINT

void RunExperiment() {
  bench::Banner("E4 (combine target+comparison)",
                "one conditional-aggregation scan instead of two queries",
                "combining the target and comparison view queries halves "
                "per-view work");

  std::printf("%8s %-10s %8s %8s %12s %12s\n", "rows", "mode", "queries",
              "scans", "rows_scan", "latency(ms)");
  for (size_t rows : {20000, 100000}) {
    data::WorkloadSpec spec;
    spec.rows = rows;
    spec.num_dims = 4;
    spec.num_measures = 2;
    auto workload = data::BuildWorkload(spec).ValueOrDie();
    core::SeeDB seedb_engine(workload.engine.get());

    for (bool combine : {false, true}) {
      core::SeeDBOptions options;
      options.optimizer = core::OptimizerOptions::Baseline();
      options.optimizer.combine_target_comparison = combine;
      core::RecommendationSet result;
      double ms = bench::MedianSeconds([&] {
                    result = seedb_engine
                                 .Recommend(workload.table_name,
                                            workload.selection, options)
                                 .ValueOrDie();
                  }) *
                  1e3;
      std::printf("%8zu %-10s %8zu %8zu %12llu %12.2f\n", rows,
                  combine ? "combined" : "separate",
                  result.profile.queries_issued, result.profile.table_scans,
                  static_cast<unsigned long long>(
                      result.profile.scan.rows_scanned),
                  ms);
    }
  }
  std::printf("\nExpected shape: combined mode shows exactly half the "
              "queries/scans and roughly half the latency.\n");
  bench::Footer();
}

void BM_SingleViewSeparate(benchmark::State& state) {
  data::WorkloadSpec spec;
  spec.rows = 50000;
  spec.num_dims = 2;
  spec.num_measures = 1;
  auto workload = data::BuildWorkload(spec).ValueOrDie();
  core::ViewDescriptor view("dim1", "m0", db::AggregateFunction::kSum);
  for (auto _ : state) {
    auto t = workload.engine->Execute(
        core::TargetViewQuery(view, workload.table_name,
                              workload.selection));
    auto c = workload.engine->Execute(
        core::ComparisonViewQuery(view, workload.table_name));
    benchmark::DoNotOptimize(t);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_SingleViewSeparate);

void BM_SingleViewCombined(benchmark::State& state) {
  data::WorkloadSpec spec;
  spec.rows = 50000;
  spec.num_dims = 2;
  spec.num_measures = 1;
  auto workload = data::BuildWorkload(spec).ValueOrDie();
  core::ViewDescriptor view("dim1", "m0", db::AggregateFunction::kSum);
  for (auto _ : state) {
    auto r = workload.engine->Execute(core::CombinedViewQuery(
        view, workload.table_name, workload.selection));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SingleViewCombined);

}  // namespace

int main(int argc, char** argv) {
  RunExperiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
