// Optimizer tour: shows, on one synthetic workload, how each §3.3
// optimization changes the execution plan and the engine's measured costs.
// This is the "enhanced user interface" of demo Scenario 2 in library form.

#include <cstdio>

#include "core/query_generator.h"
#include "core/seedb.h"
#include "data/workload.h"

namespace {

void RunOptions(const char* label, seedb::core::SeeDB* seedb,
                seedb::data::Workload* w,
                const seedb::core::SeeDBOptions& options) {
  auto result = seedb->Recommend(w->table_name, w->selection, options);
  if (!result.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", label,
                 result.status().ToString().c_str());
    return;
  }
  std::printf("%-34s queries=%3zu scans=%3zu rows=%9llu top=%s (%.4f)",
              label, result->profile.queries_issued,
              result->profile.table_scans,
              static_cast<unsigned long long>(
                  result->profile.scan.rows_scanned),
              result->top_views[0].view().Id().c_str(),
              result->top_views[0].utility());
  if (result->profile.phases_executed > 1) {
    std::printf(" [%zu phases, %zu views pruned online]",
                result->profile.phases_executed,
                result->profile.views_pruned_online);
  }
  std::printf("\n");
}

void RunWith(const char* label, seedb::core::SeeDB* seedb,
             seedb::data::Workload* w,
             const seedb::core::OptimizerOptions& optimizer) {
  seedb::core::SeeDBOptions options;
  options.k = 3;
  options.optimizer = optimizer;
  RunOptions(label, seedb, w, options);
}

}  // namespace

int main() {
  seedb::data::WorkloadSpec spec;
  spec.rows = 50000;
  spec.num_dims = 6;
  spec.num_measures = 2;
  spec.cardinality = 20;
  auto workload = seedb::data::BuildWorkload(spec);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 1;
  }
  seedb::core::SeeDB seedb(workload->engine.get());

  std::printf("Workload: %zu rows, %zu dims x %zu measures\n\n", spec.rows,
              spec.num_dims, spec.num_measures);

  // Show the generated (un-optimized) view queries first.
  auto generated = seedb::core::GenerateViews(
      workload->engine.get(), workload->table_name, workload->selection,
      {}, seedb::core::PruningOptions::None());
  if (generated.ok()) {
    std::printf("Query Generator emitted %zu views; first two as SQL:\n",
                generated->queries.size());
    for (size_t i = 0; i < 2 && i < generated->queries.size(); ++i) {
      std::printf("  target:     %s\n  comparison: %s\n",
                  generated->queries[i].target_sql.c_str(),
                  generated->queries[i].comparison_sql.c_str());
    }
    std::printf("\n");
  }

  using seedb::core::OptimizerOptions;
  OptimizerOptions baseline = OptimizerOptions::Baseline();
  RunWith("baseline (no sharing)", &seedb, &*workload, baseline);

  OptimizerOptions tc = baseline;
  tc.combine_target_comparison = true;
  RunWith("+ combine target/comparison", &seedb, &*workload, tc);

  OptimizerOptions agg = tc;
  agg.combine_aggregates = true;
  RunWith("+ combine aggregates", &seedb, &*workload, agg);

  OptimizerOptions all = agg;
  all.combine_group_bys = true;
  RunWith("+ combine group-bys (all on)", &seedb, &*workload, all);

  OptimizerOptions sampled = all;
  sampled.sample_fraction = 0.1;
  RunWith("all + 10% sampling", &seedb, &*workload, sampled);

  // The execution-layer knobs: the same (baseline) plan fused into one
  // morsel-driven pass, then phased with each online pruner retiring
  // low-utility views mid-scan (§3.3 pruning-based optimizations).
  std::printf("\nExecution strategies on the un-combined plan:\n");
  {
    seedb::core::SeeDBOptions options;
    options.k = 3;
    options.optimizer = baseline;
    options.strategy = seedb::core::ExecutionStrategy::kPhasedSharedScan;
    options.online_pruning.num_phases = 1;
    options.parallelism = 4;
    RunOptions("shared scan (fused)", &seedb, &*workload, options);

    options.online_pruning.num_phases = 8;
    options.online_pruning.pruner =
        seedb::core::OnlinePruner::kConfidenceInterval;
    options.online_pruning.delta = 0.05;
    RunOptions("phased + CI pruning", &seedb, &*workload, options);

    options.online_pruning.pruner =
        seedb::core::OnlinePruner::kMultiArmedBandit;
    RunOptions("phased + MAB halving", &seedb, &*workload, options);
  }

  // Print the fully optimized plan so the query combining is visible.
  auto stats = workload->catalog->GetStats(workload->table_name);
  auto views = seedb::core::EnumerateViews(
      workload->catalog->GetTable(workload->table_name)
          .ValueOrDie()
          ->schema());
  auto plan = seedb::core::BuildExecutionPlan(
      views, workload->table_name, workload->selection, **stats, all);
  if (plan.ok()) {
    std::printf("\nFully optimized plan:\n%s", plan->Describe().c_str());
  }
  return 0;
}
