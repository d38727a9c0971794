// E3 — §3.3 View Space Pruning: variance-based, correlated-attribute, and
// access-frequency pruning "aggressively prune view queries that are
// unlikely to have high utility".
//
// Builds a workload with prunable structure (a constant flag dimension, a
// correlated twin dimension, a planted deviation) and reports, per pruning
// configuration: views executed, latency, and top-5 recall against the
// unpruned ranking.
//
// E3b — §3.3 Pruning-Based Optimizations: the phased executor's *online*
// pruners (confidence-interval and MAB successive halving) against the
// exhaustive fused scan, sweeping phase counts: recall@5, views retired
// mid-flight, wall-clock, and per-phase latency.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "core/seedb.h"
#include "data/synthetic.h"
#include "db/engine.h"

namespace {

using namespace seedb;  // NOLINT

struct Env {
  std::unique_ptr<db::Catalog> catalog;
  std::unique_ptr<db::Engine> engine;
  db::PredicatePtr selection;
};

Env BuildEnv() {
  data::SyntheticSpec spec =
      data::SyntheticSpec::Simple(60000, 8, 2, 16, /*seed=*/71);
  spec.deviation->strength = 6.0;
  // Dim 5 correlates with dim 1; dims 6 and 7 are near-constant.
  spec.dimensions[5].correlated_with = 1;
  spec.dimensions[5].correlation_noise = 0.02;
  spec.dimensions[6].cardinality = 1;
  spec.dimensions[7].cardinality = 2;  // will be 95/5 via zipf skew
  spec.dimensions[7].distribution = data::DimensionSpec::Dist::kZipf;
  spec.dimensions[7].zipf_s = 4.0;
  auto dataset = data::GenerateSynthetic(spec).ValueOrDie();
  Env env;
  env.catalog = std::make_unique<db::Catalog>();
  (void)env.catalog->AddTable("t", std::move(dataset.table));
  env.engine = std::make_unique<db::Engine>(env.catalog.get());
  env.selection = dataset.selection;
  (void)env.catalog->GetStats("t");
  return env;
}

void RunExperiment() {
  bench::Banner("E3 (view-space pruning)",
                "pruning techniques vs latency and recall",
                "pruning cuts executed views and latency while keeping the "
                "top-k views (low-variance and correlated dims carry little "
                "utility)");

  Env env = BuildEnv();
  core::SeeDB seedb_engine(env.engine.get());

  // Warm an access history so frequency pruning has signal: the analyst
  // mostly looks at dim1/dim2/m0.
  for (int i = 0; i < 30; ++i) {
    (void)env.engine->ExecuteSql(
        "SELECT dim1, SUM(m0) FROM t GROUP BY dim1");
    (void)env.engine->ExecuteSql(
        "SELECT dim2, AVG(m0) FROM t GROUP BY dim2");
  }

  struct Config {
    const char* name;
    core::PruningOptions pruning;
  };
  std::vector<Config> configs;
  configs.push_back({"none", core::PruningOptions::None()});
  {
    core::PruningOptions p;
    p.enable_variance = true;
    configs.push_back({"variance", p});
  }
  {
    core::PruningOptions p;
    p.enable_correlation = true;
    configs.push_back({"correlation", p});
  }
  {
    core::PruningOptions p;
    p.enable_access_frequency = true;
    p.min_access_frequency = 0.3;
    configs.push_back({"access-freq", p});
  }
  configs.push_back({"all", core::PruningOptions::All()});

  // Ground truth: unpruned top-5.
  core::SeeDBOptions truth_options;
  truth_options.k = 5;
  auto truth = seedb_engine
                   .Recommend("t", env.selection, truth_options)
                   .ValueOrDie();
  auto truth_ids = bench::TopViewIds(truth);

  std::printf("%-12s %8s %8s %8s %12s %8s\n", "pruning", "views", "pruned",
              "queries", "latency(ms)", "recall@5");
  for (const auto& config : configs) {
    core::SeeDBOptions options;
    options.k = 5;
    options.pruning = config.pruning;
    options.pruning.min_access_frequency = 0.3;
    core::RecommendationSet result;
    double ms = bench::MedianSeconds([&] {
                  result = seedb_engine
                               .Recommend("t", env.selection, options)
                               .ValueOrDie();
                }) *
                1e3;
    std::printf("%-12s %8zu %8zu %8zu %12.2f %8.2f\n", config.name,
                result.profile.views_executed, result.profile.views_pruned,
                result.profile.queries_issued, ms,
                bench::Recall(truth_ids, bench::TopViewIds(result)));
  }
  bench::Footer();
}

void RunOnlinePruningExperiment() {
  bench::Banner(
      "E3b (online CI/MAB pruning)",
      "mid-flight view pruning vs the exhaustive fused scan",
      "phased execution with confidence-interval or MAB pruning retires "
      "low-utility views after a fraction of the table, cutting latency "
      "while keeping top-k recall high");

  Env env = BuildEnv();
  core::SeeDB seedb_engine(env.engine.get());

  // Ground truth: the exhaustive fused scan (same strategy, one phase, no
  // pruner), so recall isolates what online pruning changes.
  core::SeeDBOptions truth_options;
  truth_options.k = 5;
  truth_options.strategy = core::ExecutionStrategy::kPhasedSharedScan;
  truth_options.online_pruning.num_phases = 1;
  auto truth =
      seedb_engine.Recommend("t", env.selection, truth_options).ValueOrDie();
  auto truth_ids = bench::TopViewIds(truth);

  struct Config {
    const char* name;
    core::OnlinePruner pruner;
    size_t phases;
    /// Hoeffding range for CI. The default (2.0) is provably safe for every
    /// shipped metric but rarely separates on small utility gaps; the
    /// tighter settings trade the guarantee for real pruning — exactly the
    /// accuracy-vs-latency dial this experiment measures.
    double utility_range;
  };
  std::vector<Config> configs = {
      {"exhaustive", core::OnlinePruner::kNone, 1, 2.0},
      {"ci-safe", core::OnlinePruner::kConfidenceInterval, 10, 2.0},
      {"ci(r=.05)", core::OnlinePruner::kConfidenceInterval, 4, 0.05},
      {"ci(r=.05)", core::OnlinePruner::kConfidenceInterval, 10, 0.05},
      {"mab", core::OnlinePruner::kMultiArmedBandit, 4, 2.0},
      {"mab", core::OnlinePruner::kMultiArmedBandit, 10, 2.0},
  };

  // Machine-readable mirror of the table, uploaded by CI next to
  // BENCH_parallel.json for offline recall/latency trend tracking. (The
  // perf gate itself compares only BENCH_parallel.json — these runs are
  // keyed by pruner, not strategy/threads.)
  bench::JsonWriter json;
  json.BeginObject()
      .Key("bench").Value("pruning")
      .Key("runs").BeginArray();

  std::printf("%-12s %8s %8s %10s %12s %14s %10s\n", "pruner", "phases",
              "views", "pruned", "latency(ms)", "per-phase(ms)", "recall@5");
  for (const auto& config : configs) {
    core::SeeDBOptions options;
    options.k = 5;
    options.strategy = core::ExecutionStrategy::kPhasedSharedScan;
    options.online_pruning.pruner = config.pruner;
    options.online_pruning.num_phases = config.phases;
    options.online_pruning.delta = 0.05;
    options.online_pruning.utility_range = config.utility_range;
    core::RecommendationSet result;
    double ms = bench::MedianSeconds([&] {
                  result = seedb_engine
                               .Recommend("t", env.selection, options)
                               .ValueOrDie();
                }) *
                1e3;
    double exec_ms = result.profile.execution_seconds * 1e3;
    double per_phase_ms =
        result.profile.phases_executed == 0
            ? 0.0
            : exec_ms / static_cast<double>(result.profile.phases_executed);
    double recall = bench::Recall(truth_ids, bench::TopViewIds(result));
    std::printf("%-12s %8zu %8zu %10zu %12.2f %14.2f %10.2f\n", config.name,
                result.profile.phases_executed,
                result.profile.views_executed -
                    result.profile.views_pruned_online,
                result.profile.views_pruned_online, ms, per_phase_ms, recall);
    json.BeginObject()
        .Key("pruner").Value(core::OnlinePrunerToString(config.pruner))
        .Key("phases").Value(config.phases)
        .Key("utility_range").Value(config.utility_range)
        .Key("total_ms").Value(ms)
        .Key("mean_unit_ms").Value(per_phase_ms)
        .Key("views_pruned").Value(result.profile.views_pruned_online)
        .Key("recall_at_5").Value(recall)
        .EndObject();
  }
  json.EndArray().EndObject();
  json.WriteFile("BENCH_pruning.json");
  std::printf(
      "\nExpected shape: both pruners keep recall@5 near 1.0 on this "
      "workload (the planted view separates early) while retiring most "
      "views well before the scan ends; MAB prunes on a fixed halving "
      "schedule, CI only when the confidence bounds separate.\n");
  bench::Footer();
}

void BM_PruneViews(benchmark::State& state) {
  Env env = BuildEnv();
  const db::Table* table = env.catalog->GetTable("t").ValueOrDie();
  const db::TableStats* stats = env.catalog->GetStats("t").ValueOrDie();
  auto views = core::EnumerateViews(table->schema());
  for (auto _ : state) {
    auto report = core::PruneViews(views, *table, *stats, nullptr, "t",
                                   core::PruningOptions::All());
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_PruneViews);

}  // namespace

int main(int argc, char** argv) {
  RunExperiment();
  RunOnlinePruningExperiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
