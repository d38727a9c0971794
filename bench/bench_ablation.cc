// E12 — Full optimizer ablation: every combination of the three §3.3
// query-combining optimizations (2^3 grid), plus sampling stacked on top of
// the best configuration. DESIGN.md calls this out as the design-choice
// ablation for the optimizer.
//
// Utilities must be bit-identical across the grid (the optimizations are
// pure cost transformations); queries/scans/latency must fall as sharing
// increases.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "core/seedb.h"
#include "data/workload.h"

namespace {

using namespace seedb;  // NOLINT

void RunExperiment() {
  bench::Banner("E12 (optimizer ablation)",
                "2^3 grid over {combine-T/C, combine-agg, combine-group-by}",
                "each optimization independently reduces cost and never "
                "changes any view's utility");

  data::WorkloadSpec spec;
  spec.rows = 80000;
  spec.num_dims = 6;
  spec.num_measures = 2;
  spec.cardinality = 16;
  auto workload = data::BuildWorkload(spec).ValueOrDie();
  core::SeeDB seedb_engine(workload.engine.get());

  // Reference top view from the baseline.
  core::SeeDBOptions reference;
  reference.optimizer = core::OptimizerOptions::Baseline();
  auto ref = seedb_engine
                 .Recommend(workload.table_name, workload.selection,
                            reference)
                 .ValueOrDie();
  std::string ref_top = ref.top_views[0].view().Id();
  double ref_utility = ref.top_views[0].utility();

  std::printf("%4s %4s %4s %9s %7s %13s %12s %10s\n", "t/c", "agg", "gby",
              "queries", "scans", "rows_scanned", "latency(ms)",
              "same_util");
  for (int mask = 0; mask < 8; ++mask) {
    core::SeeDBOptions options;
    options.optimizer = core::OptimizerOptions::Baseline();
    options.optimizer.combine_target_comparison = mask & 1;
    options.optimizer.combine_aggregates = mask & 2;
    options.optimizer.combine_group_bys = mask & 4;
    core::RecommendationSet result;
    double ms = bench::MedianSeconds(
                    [&] {
                      result = seedb_engine
                                   .Recommend(workload.table_name,
                                              workload.selection, options)
                                   .ValueOrDie();
                    },
                    2) *
                1e3;
    bool same = result.top_views[0].view().Id() == ref_top &&
                std::abs(result.top_views[0].utility() - ref_utility) < 1e-9;
    std::printf("%4s %4s %4s %9zu %7zu %13llu %12.2f %10s\n",
                (mask & 1) ? "on" : "off", (mask & 2) ? "on" : "off",
                (mask & 4) ? "on" : "off", result.profile.queries_issued,
                result.profile.table_scans,
                static_cast<unsigned long long>(
                    result.profile.scan.rows_scanned),
                ms, same ? "yes" : "NO");
  }

  // Sampling stacked on the full configuration.
  std::printf("\nall-on + sampling:\n%10s %12s %13s\n", "fraction",
              "latency(ms)", "rows_scanned");
  for (double fraction : {1.0, 0.1, 0.01}) {
    core::SeeDBOptions options;
    options.optimizer = core::OptimizerOptions::All();
    options.optimizer.sample_fraction = fraction;
    core::RecommendationSet result;
    double ms = bench::MedianSeconds(
                    [&] {
                      result = seedb_engine
                                   .Recommend(workload.table_name,
                                              workload.selection, options)
                                   .ValueOrDie();
                    },
                    2) *
                1e3;
    std::printf("%10.2f %12.2f %13llu\n", fraction, ms,
                static_cast<unsigned long long>(
                    result.profile.scan.rows_scanned));
  }
  // Execution strategy stacked on both ends of the grid: the one-phase
  // fused scan answers whatever the optimizer emits in one pass, so even
  // the fully-combined plan cannot out-scan it.
  std::printf("\nexecution strategy (4 worker threads):\n"
              "%10s %12s %12s %7s %10s\n", "plan", "strategy", "latency(ms)",
              "scans", "same_util");
  for (bool all_on : {false, true}) {
    for (core::ExecutionStrategy strategy :
         {core::ExecutionStrategy::kPerQuery,
          core::ExecutionStrategy::kPhasedSharedScan}) {
      core::SeeDBOptions options;
      options.optimizer = all_on ? core::OptimizerOptions::All()
                                 : core::OptimizerOptions::Baseline();
      options.strategy = strategy;
      options.online_pruning.num_phases = 1;
      options.parallelism = 4;
      core::RecommendationSet result;
      double ms = bench::MedianSeconds(
                      [&] {
                        result = seedb_engine
                                     .Recommend(workload.table_name,
                                                workload.selection, options)
                                     .ValueOrDie();
                      },
                      2) *
                  1e3;
      bool same = result.top_views[0].view().Id() == ref_top &&
                  std::abs(result.top_views[0].utility() - ref_utility) < 1e-9;
      std::printf("%10s %12s %12.2f %7zu %10s\n",
                  all_on ? "all-on" : "baseline",
                  core::ExecutionStrategyToString(strategy), ms,
                  result.profile.table_scans, same ? "yes" : "NO");
    }
  }

  std::printf("\nExpected shape: queries fall 2x with t/c, further with agg "
              "and gby (down to 1); same_util = yes on every row; the fused "
              "scan records 1 scan for either plan.\n");
  bench::Footer();
}

void BM_FullyOptimized(benchmark::State& state) {
  data::WorkloadSpec spec;
  spec.rows = 50000;
  spec.num_dims = 6;
  spec.num_measures = 2;
  auto workload = data::BuildWorkload(spec).ValueOrDie();
  core::SeeDB seedb_engine(workload.engine.get());
  core::SeeDBOptions options;
  options.optimizer = core::OptimizerOptions::All();
  for (auto _ : state) {
    auto r = seedb_engine.Recommend(workload.table_name, workload.selection,
                                    options);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_FullyOptimized);

}  // namespace

int main(int argc, char** argv) {
  RunExperiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
