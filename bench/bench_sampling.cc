// E7 — §3.3 "Sampling": "we construct a sample of the dataset that can fit
// in memory and run all view queries against the sample. However ... the
// size of the sample [affects] view accuracy."
//
// Sweeps the Bernoulli sample fraction and reports latency, rows scanned,
// top-5 recall against the full-data ranking, and mean absolute utility
// error — the latency/accuracy trade-off the demo exposes as a knob.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <map>

#include "bench_util.h"
#include "core/seedb.h"
#include "data/workload.h"

namespace {

using namespace seedb;  // NOLINT

std::map<std::string, double> AllUtilities(const core::RecommendationSet& r) {
  std::map<std::string, double> out;
  for (const auto& rec : r.top_views) out[rec.view().Id()] = rec.utility();
  return out;
}

void RunExperiment() {
  bench::Banner("E7 (sampling)",
                "sample fraction vs latency and accuracy",
                "sampling cuts latency roughly linearly while accuracy "
                "degrades gracefully until very small samples");

  data::WorkloadSpec spec;
  spec.rows = 200000;
  spec.num_dims = 5;
  spec.num_measures = 2;
  spec.cardinality = 16;
  auto workload = data::BuildWorkload(spec).ValueOrDie();
  core::SeeDB seedb_engine(workload.engine.get());

  // Ground truth at fraction 1.0 (rank all views: k = 0 means all).
  core::SeeDBOptions truth_options;
  truth_options.k = 5;
  auto truth = seedb_engine
                   .Recommend(workload.table_name, workload.selection,
                              truth_options)
                   .ValueOrDie();
  auto truth_top = bench::TopViewIds(truth);
  core::SeeDBOptions full_options;
  full_options.k = 0;  // all views, for utility-error computation
  auto full = seedb_engine
                  .Recommend(workload.table_name, workload.selection,
                             full_options)
                  .ValueOrDie();
  auto full_utilities = AllUtilities(full);

  std::printf("%-13s %9s %12s %12s %10s %12s %6s\n", "strategy",
              "fraction", "latency(ms)", "rows_scan", "recall@5",
              "mean|dU|", "rank");
  auto report = [&](const char* strategy, double fraction,
                    const core::SeeDBOptions& options) {
    core::RecommendationSet result;
    double ms = bench::MedianSeconds([&] {
                  result = seedb_engine
                               .Recommend(workload.table_name,
                                          workload.selection, options)
                               .ValueOrDie();
                }) *
                1e3;
    // recall@5 against full-data top-5.
    std::set<std::string> top5;
    for (size_t i = 0; i < 5 && i < result.top_views.size(); ++i) {
      top5.insert(result.top_views[i].view().Id());
    }
    double err = 0.0;
    auto sampled = AllUtilities(result);
    for (const auto& [id, utility] : full_utilities) {
      err += std::abs(sampled.count(id) ? sampled[id] - utility : utility);
    }
    err /= static_cast<double>(full_utilities.size());
    std::printf("%-13s %9.2f %12.2f %12llu %10.2f %12.4f %6zu\n", strategy,
                fraction, ms,
                static_cast<unsigned long long>(
                    result.profile.scan.rows_scanned),
                bench::Recall(truth_top, top5), err,
                bench::RankOf(result, workload.expected_dimension,
                              workload.expected_measure));
  };

  for (double fraction : {1.0, 0.5, 0.2, 0.1, 0.05, 0.01}) {
    // Inline: TABLESAMPLE BERNOULLI per query. Rows are skipped, not
    // absent, so only aggregation work shrinks.
    core::SeeDBOptions inline_options;
    inline_options.k = 0;
    inline_options.optimizer.sample_fraction = fraction;
    inline_options.optimizer.sample_seed = 17;
    if (fraction < 1.0) {
      inline_options.sampling = core::SamplingStrategy::kInline;
    }
    report("inline", fraction, inline_options);

    // Materialized: the paper's strategy — every query runs against a
    // reservoir sample table of fraction*N rows.
    if (fraction < 1.0) {
      core::SeeDBOptions mat_options;
      mat_options.k = 0;
      mat_options.sampling = core::SamplingStrategy::kMaterialized;
      mat_options.sample_rows = static_cast<size_t>(
          fraction * static_cast<double>(workload.rows));
      mat_options.sample_seed = 17;
      report("materialized", fraction, mat_options);
    }
  }
  std::printf("\nExpected shape: materialized sampling's latency falls "
              "roughly with the fraction (queries touch only the sample); "
              "inline sampling mainly cuts aggregation work. Recall stays "
              "high and the planted view's rank small until tiny samples; "
              "utility error grows as the fraction shrinks.\n");
  bench::Footer();
}

void BM_SampledGroupBy(benchmark::State& state) {
  data::WorkloadSpec spec;
  spec.rows = 100000;
  spec.num_dims = 1;
  spec.num_measures = 1;
  auto workload = data::BuildWorkload(spec).ValueOrDie();
  db::GroupByQuery q;
  q.table = workload.table_name;
  q.group_by = {"dim0"};
  q.aggregates = {db::AggregateSpec::Make(db::AggregateFunction::kSum, "m0")};
  q.sample_fraction = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    auto r = workload.engine->Execute(q);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SampledGroupBy)->Arg(100)->Arg(10)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  RunExperiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
