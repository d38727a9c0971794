// E11 — §4 Scenario 2 ("Demonstrating Performance and Optimizations"):
// "attendees will be able to easily experiment with a range of synthetic
// datasets and input queries by adjusting various knobs such as data size,
// number of attributes, and data distribution ... select the optimizations
// that SEEDB applies and observe the effect on response times and accuracy."
//
// The full knob grid: rows x dims x distribution x optimizer set.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "core/seedb.h"
#include "data/workload.h"

namespace {

using namespace seedb;  // NOLINT

void RunExperiment() {
  bench::Banner("E11 (Scenario 2: performance knobs)",
                "latency across data size / attribute / distribution knobs",
                "latency grows with data size and attribute count; the "
                "optimized configuration stays interactive where the "
                "baseline does not");

  std::printf("%9s %5s %9s %-10s %14s %14s %8s %8s\n", "rows", "dims",
              "zipf", "optimizer", "latency(ms)", "rows_scanned", "queries",
              "rank");
  for (size_t rows : {20000, 100000}) {
    for (size_t dims : {4, 8}) {
      for (double zipf : {0.0, 1.0}) {
        data::WorkloadSpec spec;
        spec.rows = rows;
        spec.num_dims = dims;
        spec.num_measures = 2;
        spec.cardinality = 16;
        spec.zipf_s = zipf;
        auto workload = data::BuildWorkload(spec).ValueOrDie();
        core::SeeDB seedb_engine(workload.engine.get());

        for (bool optimized : {false, true}) {
          core::SeeDBOptions options;
          options.k = 5;
          options.optimizer = optimized ? core::OptimizerOptions::All()
                                        : core::OptimizerOptions::Baseline();
          if (optimized) options.parallelism = 4;
          core::RecommendationSet result;
          double ms =
              bench::MedianSeconds(
                  [&] {
                    result = seedb_engine
                                 .Recommend(workload.table_name,
                                            workload.selection, options)
                                 .ValueOrDie();
                  },
                  2) *
              1e3;
          size_t rank = bench::RankOf(result, workload.expected_dimension,
                                      workload.expected_measure);
          std::printf("%9zu %5zu %9.1f %-10s %14.2f %14llu %8zu %8zu\n",
                      rows, dims, zipf,
                      optimized ? "all-on" : "baseline", ms,
                      static_cast<unsigned long long>(
                          result.profile.scan.rows_scanned),
                      result.profile.queries_issued, rank);
        }
      }
    }
  }
  std::printf("\nExpected shape: optimized latency is several times lower "
              "than baseline at every knob setting; the planted view's rank "
              "stays in 1..5 in both modes.\n");
  bench::Footer();
}

void BM_RecommendBySize(benchmark::State& state) {
  data::WorkloadSpec spec;
  spec.rows = static_cast<size_t>(state.range(0));
  spec.num_dims = 5;
  spec.num_measures = 2;
  auto workload = data::BuildWorkload(spec).ValueOrDie();
  core::SeeDB seedb_engine(workload.engine.get());
  for (auto _ : state) {
    auto r = seedb_engine.Recommend(workload.table_name, workload.selection,
                                    {});
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RecommendBySize)->Arg(10000)->Arg(50000);

}  // namespace

int main(int argc, char** argv) {
  RunExperiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
