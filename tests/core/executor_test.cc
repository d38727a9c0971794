#include "core/executor.h"

#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "../test_util.h"
#include "core/view_space.h"
#include "data/synthetic.h"

namespace seedb::core {
namespace {

using ::seedb::testing::RegistryCount;

// Shared environment: a synthetic dataset with a planted deviation, large
// enough for plan-equivalence checks to be meaningful.
class ExecutorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticSpec spec = data::SyntheticSpec::Simple(
        /*rows=*/4000, /*num_dims=*/3, /*num_measures=*/2,
        /*cardinality=*/6, /*seed=*/99);
    auto dataset = data::GenerateSynthetic(spec).ValueOrDie();
    catalog_ = new db::Catalog();
    Status s = catalog_->AddTable("t", std::move(dataset.table));
    (void)s;
    engine_ = new db::Engine(catalog_);
    selection_ = dataset.selection;
    views_ = EnumerateViews(
        catalog_->GetTable("t").ValueOrDie()->schema());
    // Drop views on the selection dimension, as the Query Generator would:
    // they deviate by construction and would drown the planted view.
    std::erase_if(views_, [](const ViewDescriptor& v) {
      return v.dimension == "dim0";
    });
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete catalog_;
    engine_ = nullptr;
    catalog_ = nullptr;
  }

  std::vector<ViewResult> Run(const OptimizerOptions& optimizer,
                              size_t parallelism = 1,
                              ExecutionReport* report = nullptr,
                              ExecutionStrategy strategy =
                                  ExecutionStrategy::kPerQuery) {
    const db::TableStats* stats = catalog_->GetStats("t").ValueOrDie();
    ExecutionPlan plan =
        BuildExecutionPlan(views_, "t", selection_, *stats, optimizer)
            .ValueOrDie();
    ExecutorOptions exec;
    exec.parallelism = parallelism;
    exec.strategy = strategy;
    // The fused strategy scans in one phase here: one plain pass.
    exec.online_pruning.num_phases = 1;
    return ExecutePlan(engine_, plan, DistanceMetric::kEarthMovers, exec,
                       report)
        .ValueOrDie();
  }

  static std::map<std::string, double> UtilityMap(
      const std::vector<ViewResult>& results) {
    std::map<std::string, double> m;
    for (const auto& r : results) m[r.view.Id()] = r.utility;
    return m;
  }

  static db::Catalog* catalog_;
  static db::Engine* engine_;
  static db::PredicatePtr selection_;
  static std::vector<ViewDescriptor> views_;
};

db::Catalog* ExecutorTest::catalog_ = nullptr;
db::Engine* ExecutorTest::engine_ = nullptr;
db::PredicatePtr ExecutorTest::selection_;
std::vector<ViewDescriptor> ExecutorTest::views_;

TEST_F(ExecutorTest, BaselineProducesAllViews) {
  auto results = Run(OptimizerOptions::Baseline());
  EXPECT_EQ(results.size(), views_.size());
}

// The central correctness property of §3.3: every combination of the three
// query-combining optimizations computes *identical* utilities — the
// optimizations change cost, never answers.
class PlanEquivalenceTest : public ExecutorTest,
                            public ::testing::WithParamInterface<int> {};

TEST_P(PlanEquivalenceTest, OptimizationsDoNotChangeUtilities) {
  int mask = GetParam();
  OptimizerOptions options = OptimizerOptions::Baseline();
  options.combine_target_comparison = mask & 1;
  options.combine_aggregates = mask & 2;
  options.combine_group_bys = mask & 4;

  auto baseline = UtilityMap(Run(OptimizerOptions::Baseline()));
  auto optimized = UtilityMap(Run(options));
  ASSERT_EQ(baseline.size(), optimized.size());
  for (const auto& [id, utility] : baseline) {
    ASSERT_TRUE(optimized.count(id)) << id;
    EXPECT_NEAR(optimized[id], utility, 1e-9) << id;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCombos, PlanEquivalenceTest,
                         ::testing::Range(0, 8));

TEST_F(ExecutorTest, ParallelExecutionMatchesSerial) {
  auto serial = UtilityMap(Run(OptimizerOptions::Baseline(), 1));
  auto parallel = UtilityMap(Run(OptimizerOptions::Baseline(), 4));
  ASSERT_EQ(serial.size(), parallel.size());
  for (const auto& [id, utility] : serial) {
    EXPECT_NEAR(parallel[id], utility, 1e-12) << id;
  }
}

TEST_F(ExecutorTest, ReportRecordsPerQueryTimes) {
  ExecutionReport report;
  auto results = Run(OptimizerOptions::Baseline(), 1, &report);
  EXPECT_EQ(report.query_seconds.size(), 2 * views_.size());
  EXPECT_GT(report.total_seconds, 0.0);
  EXPECT_GE(report.MaxQuerySeconds(), report.MeanQuerySeconds());
  // Per-query execution has no fused pass to break into phases.
  EXPECT_TRUE(report.phase_seconds.empty());
  EXPECT_EQ(report.phases_executed, 0u);
}

TEST_F(ExecutorTest, EngineCountsMatchPlanPrediction) {
  ExecutionReport report;
  Run(OptimizerOptions::All(), 1, &report);
  EXPECT_EQ(report.queries_executed, 1u);
  EXPECT_EQ(report.table_scans, 1u);

  Run(OptimizerOptions::Baseline(), 1, &report);
  EXPECT_EQ(report.queries_executed, 2 * views_.size());
  EXPECT_EQ(report.table_scans, 2 * views_.size());
}

TEST_F(ExecutorTest, CombineTcExactlyHalvesScans) {
  ExecutionReport baseline;
  Run(OptimizerOptions::Baseline(), 1, &baseline);

  OptimizerOptions tc = OptimizerOptions::Baseline();
  tc.combine_target_comparison = true;
  ExecutionReport combined;
  Run(tc, 1, &combined);
  EXPECT_GT(combined.table_scans, 0u);
  EXPECT_EQ(combined.table_scans * 2, baseline.table_scans);
  EXPECT_EQ(combined.scan.rows_scanned * 2, baseline.scan.rows_scanned);
}

// A per-query run's report is its own work, exactly, even while its queries
// run on a pool and another run shares the engine: one table pass per
// planned query, and the rows those passes read — never an engine-wide
// delta that would absorb the concurrent run.
TEST_F(ExecutorTest, ParallelPerQueryReportCountsOnlyItsOwnRun) {
  const db::TableStats* stats = catalog_->GetStats("t").ValueOrDie();
  ExecutionPlan plan = BuildExecutionPlan(views_, "t", selection_, *stats,
                                          OptimizerOptions::Baseline())
                           .ValueOrDie();
  const size_t rows = catalog_->GetTable("t").ValueOrDie()->num_rows();
  ExecutorOptions exec;
  exec.strategy = ExecutionStrategy::kPerQuery;
  exec.parallelism = 4;
  ExecutionReport reports[2];
  std::thread other([&] {
    ASSERT_TRUE(ExecutePlan(engine_, plan, DistanceMetric::kEarthMovers, exec,
                            &reports[1])
                    .ok());
  });
  ASSERT_TRUE(ExecutePlan(engine_, plan, DistanceMetric::kEarthMovers, exec,
                          &reports[0])
                  .ok());
  other.join();
  for (const ExecutionReport& report : reports) {
    EXPECT_EQ(report.queries_executed, plan.queries.size());
    EXPECT_EQ(report.table_scans, plan.queries.size());
    EXPECT_EQ(report.scan.rows_scanned, plan.queries.size() * rows);
  }
}

// The one-phase fused scan computes the same utilities as per-query
// execution for every optimizer configuration (it is a pure execution-layer
// transformation, like the §3.3 combines).
class SharedScanEquivalenceTest : public ExecutorTest,
                                  public ::testing::WithParamInterface<int> {};

TEST_P(SharedScanEquivalenceTest, SharedScanMatchesPerQuery) {
  int mask = GetParam();
  OptimizerOptions options = OptimizerOptions::Baseline();
  options.combine_target_comparison = mask & 1;
  options.combine_aggregates = mask & 2;
  options.combine_group_bys = mask & 4;

  auto per_query = UtilityMap(Run(options));
  auto fused = UtilityMap(
      Run(options, 4, nullptr, ExecutionStrategy::kPhasedSharedScan));
  ASSERT_EQ(per_query.size(), fused.size());
  for (const auto& [id, utility] : per_query) {
    ASSERT_TRUE(fused.count(id)) << id;
    EXPECT_NEAR(fused[id], utility, 1e-9) << id;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCombos, SharedScanEquivalenceTest,
                         ::testing::Range(0, 8));

// The tentpole invariant: a fused multi-query plan is exactly ONE table scan
// in the engine's cost model, regardless of how many views it answers.
TEST_F(ExecutorTest, SharedScanCountsOneScanForWholePlan) {
  const uint64_t scans_before = RegistryCount("engine.table_scans");
  const uint64_t queries_before = RegistryCount("engine.queries");
  ExecutionReport report;
  Run(OptimizerOptions::Baseline(), 2, &report,
      ExecutionStrategy::kPhasedSharedScan);
  EXPECT_EQ(report.table_scans, 1u);
  // Every planned query still counts as a query (2 per view, baseline plan).
  EXPECT_EQ(report.queries_executed, 2 * views_.size());
  // The engine-wide totals agree with the run's own record.
  EXPECT_EQ(RegistryCount("engine.table_scans") - scans_before, 1u);
  EXPECT_EQ(RegistryCount("engine.queries") - queries_before,
            2 * views_.size());
}

// The fused strategy does not pretend per-query latencies exist: the report
// carries per-phase wall times instead (a single phase here).
TEST_F(ExecutorTest, SharedScanReportRecordsTheFusedPassNotFakeQueryTimes) {
  ExecutionReport report;
  auto results = Run(OptimizerOptions::Baseline(), 1, &report,
                     ExecutionStrategy::kPhasedSharedScan);
  EXPECT_EQ(results.size(), views_.size());
  EXPECT_TRUE(report.query_seconds.empty());
  ASSERT_EQ(report.phase_seconds.size(), 1u);
  EXPECT_EQ(report.phases_executed, 1u);
  EXPECT_GT(report.phase_seconds[0], 0.0);
  EXPECT_GT(report.total_seconds, 0.0);
  EXPECT_EQ(report.views_pruned_online, 0u);
}

TEST_F(ExecutorTest, SharedScanReportCountsVectorizedMorsels) {
  ExecutionReport report;
  auto results = Run(OptimizerOptions::All(), 1, &report,
                     ExecutionStrategy::kPhasedSharedScan);
  EXPECT_FALSE(results.empty());
  // Every grouping set here is categorical with a small dictionary, so the
  // whole fused pass must take the vectorized inner loop.
  EXPECT_GT(report.scan.vectorized_morsels, 0u);
  EXPECT_GT(report.scan.agg_state_bytes, 0u);
}

// --- Utility-range auto-calibration (OnlinePruningOptions::utility_range
// <= 0): the Hoeffding range comes from the metric and the plan's group
// counts instead of the manual knob. ---

TEST_F(ExecutorTest, AutoUtilityRangeDerivesEmdRangeFromGroupCounts) {
  const db::TableStats* stats = catalog_->GetStats("t").ValueOrDie();
  ExecutionPlan plan = BuildExecutionPlan(views_, "t", selection_, *stats,
                                          OptimizerOptions::All())
                           .ValueOrDie();
  // Synthetic dims have cardinality 6 and no nulls: EMD's diameter over a
  // 6-bin ground line is 5 — what the manual 2.0 default under-covers.
  auto range =
      AutoUtilityRange(engine_, plan, DistanceMetric::kEarthMovers);
  ASSERT_TRUE(range.ok()) << range.status();
  EXPECT_DOUBLE_EQ(*range, 5.0);
  // O(1)-diameter metrics ignore the group count.
  auto l1 = AutoUtilityRange(engine_, plan, DistanceMetric::kL1);
  ASSERT_TRUE(l1.ok());
  EXPECT_DOUBLE_EQ(*l1, 2.0);
}

// --- Memory budgets under blocking ExecutePlan runs (the phased session's
// OutOfRange contract, extended to kPerQuery and one-phase fused runs). ---

TEST_F(ExecutorTest, PerQueryBudgetStopsIssuingQueriesGracefully) {
  const db::TableStats* stats = catalog_->GetStats("t").ValueOrDie();
  // Baseline = many small queries, so the cumulative footprint grows query
  // by query and a tiny budget trips after the first one.
  ExecutionPlan plan = BuildExecutionPlan(views_, "t", selection_, *stats,
                                          OptimizerOptions::Baseline())
                           .ValueOrDie();
  ExecutorOptions exec;
  exec.strategy = ExecutionStrategy::kPerQuery;
  exec.memory_budget_bytes = 64;
  ExecutionReport report;
  auto results = ExecutePlan(engine_, plan, DistanceMetric::kEarthMovers,
                             exec, &report);
  ASSERT_TRUE(results.ok()) << results.status();
  EXPECT_TRUE(report.budget_exceeded);
  EXPECT_LT(report.queries_executed, plan.queries.size());
  EXPECT_GT(report.scan.agg_state_bytes, 64u);
  // Parallel per-query runs observe the same budget.
  exec.parallelism = 4;
  ExecutionReport parallel_report;
  auto parallel = ExecutePlan(engine_, plan, DistanceMetric::kEarthMovers,
                              exec, &parallel_report);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EXPECT_TRUE(parallel_report.budget_exceeded);
}

TEST_F(ExecutorTest, SharedScanBudgetFlagsTheBreachAtItsOneBoundary) {
  ExecutionReport report;
  const db::TableStats* stats = catalog_->GetStats("t").ValueOrDie();
  ExecutionPlan plan = BuildExecutionPlan(views_, "t", selection_, *stats,
                                          OptimizerOptions::All())
                           .ValueOrDie();
  ExecutorOptions exec;
  exec.strategy = ExecutionStrategy::kPhasedSharedScan;
  exec.online_pruning.num_phases = 1;
  exec.memory_budget_bytes = 64;
  auto results = ExecutePlan(engine_, plan, DistanceMetric::kEarthMovers,
                             exec, &report);
  ASSERT_TRUE(results.ok()) << results.status();
  EXPECT_TRUE(report.budget_exceeded);
  EXPECT_GT(report.scan.agg_state_bytes, 64u);
  // A generous budget never trips.
  exec.memory_budget_bytes = 1ull << 30;
  ExecutionReport ok_report;
  auto fine = ExecutePlan(engine_, plan, DistanceMetric::kEarthMovers, exec,
                          &ok_report);
  ASSERT_TRUE(fine.ok());
  EXPECT_FALSE(ok_report.budget_exceeded);
}

// --- Phased execution (kPhasedSharedScan + core/online_pruning.h). ---

class PhasedExecutorTest : public ExecutorTest {
 protected:
  std::vector<ViewResult> RunPhased(const OptimizerOptions& optimizer,
                                    const OnlinePruningOptions& pruning,
                                    ExecutionReport* report = nullptr) {
    const db::TableStats* stats = catalog_->GetStats("t").ValueOrDie();
    ExecutionPlan plan =
        BuildExecutionPlan(views_, "t", selection_, *stats, optimizer)
            .ValueOrDie();
    ExecutorOptions exec;
    exec.parallelism = 2;
    exec.strategy = ExecutionStrategy::kPhasedSharedScan;
    exec.online_pruning = pruning;
    return ExecutePlan(engine_, plan, DistanceMetric::kEarthMovers, exec,
                       report)
        .ValueOrDie();
  }
};

TEST_F(PhasedExecutorTest, BlockingPhasedRunStopsAtTheBoundaryTheBudgetBreaks) {
  const db::TableStats* stats = catalog_->GetStats("t").ValueOrDie();
  ExecutionPlan plan = BuildExecutionPlan(views_, "t", selection_, *stats,
                                          OptimizerOptions::All())
                           .ValueOrDie();
  ExecutorOptions exec;
  exec.strategy = ExecutionStrategy::kPhasedSharedScan;
  exec.online_pruning.num_phases = 6;
  exec.memory_budget_bytes = 64;
  ExecutionReport report;
  auto results = ExecutePlan(engine_, plan, DistanceMetric::kEarthMovers,
                             exec, &report);
  ASSERT_TRUE(results.ok()) << results.status();
  EXPECT_TRUE(report.budget_exceeded);
  // The first boundary already exceeds 64 bytes, so later phases never ran.
  EXPECT_EQ(report.phases_executed, 1u);
}

// Phases are a pure execution-layer transformation: with no pruner the
// phased scan computes identical utilities for every optimizer combination.
class PhasedEquivalenceTest : public PhasedExecutorTest,
                              public ::testing::WithParamInterface<int> {};

TEST_P(PhasedEquivalenceTest, PhasedMatchesPerQuery) {
  int mask = GetParam();
  OptimizerOptions options = OptimizerOptions::Baseline();
  options.combine_target_comparison = mask & 1;
  options.combine_aggregates = mask & 2;
  options.combine_group_bys = mask & 4;

  OnlinePruningOptions pruning;
  pruning.num_phases = 7;  // does not divide 4000 rows evenly
  pruning.pruner = OnlinePruner::kNone;

  auto per_query = UtilityMap(Run(options));
  auto phased = UtilityMap(RunPhased(options, pruning));
  ASSERT_EQ(per_query.size(), phased.size());
  for (const auto& [id, utility] : per_query) {
    ASSERT_TRUE(phased.count(id)) << id;
    EXPECT_NEAR(phased[id], utility, 1e-9) << id;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCombos, PhasedEquivalenceTest,
                         ::testing::Range(0, 8));

TEST_F(PhasedExecutorTest, ReportBreaksDownPhases) {
  OnlinePruningOptions pruning;
  pruning.num_phases = 5;
  ExecutionReport report;
  auto results = RunPhased(OptimizerOptions::Baseline(), pruning, &report);
  EXPECT_EQ(results.size(), views_.size());
  EXPECT_TRUE(report.query_seconds.empty());
  ASSERT_EQ(report.phase_seconds.size(), 5u);
  EXPECT_EQ(report.phases_executed, 5u);
  EXPECT_GE(report.MeanPhaseSeconds(), 0.0);
  EXPECT_EQ(report.views_pruned_online, 0u);
}

// However many phases the scan runs, it is still ONE pass over the table in
// the engine's cost model.
TEST_F(PhasedExecutorTest, PhasedScanStillCountsOneTableScan) {
  const uint64_t scans_before = RegistryCount("engine.table_scans");
  OnlinePruningOptions pruning;
  pruning.num_phases = 4;
  ExecutionReport report;
  RunPhased(OptimizerOptions::Baseline(), pruning, &report);
  EXPECT_EQ(report.phases_executed, 4u);
  EXPECT_EQ(report.table_scans, 1u);
  EXPECT_EQ(report.queries_executed, 2 * views_.size());
  EXPECT_EQ(RegistryCount("engine.table_scans") - scans_before, 1u);
}

// MAB successive halving retires views mid-flight; the planted deviation is
// strong enough that the true top view survives to the end and wins.
TEST_F(PhasedExecutorTest, MabPruningKeepsThePlantedTopView) {
  auto exhaustive = Run(OptimizerOptions::Baseline());
  std::sort(exhaustive.begin(), exhaustive.end(),
            [](const ViewResult& a, const ViewResult& b) {
              return a.utility > b.utility;
            });
  const std::string top_id = exhaustive[0].view.Id();

  OnlinePruningOptions pruning;
  pruning.num_phases = 8;
  pruning.pruner = OnlinePruner::kMultiArmedBandit;
  pruning.keep_k = 3;
  ExecutionReport report;
  auto pruned = RunPhased(OptimizerOptions::Baseline(), pruning, &report);

  EXPECT_GT(report.views_pruned_online, 0u);
  EXPECT_GT(report.queries_deactivated, 0u);
  EXPECT_LT(pruned.size(), views_.size());
  EXPECT_GE(pruned.size(), 3u);
  std::sort(pruned.begin(), pruned.end(),
            [](const ViewResult& a, const ViewResult& b) {
              return a.utility > b.utility;
            });
  EXPECT_EQ(pruned[0].view.Id(), top_id);
  EXPECT_NEAR(pruned[0].utility, exhaustive[0].utility, 1e-9);
}

// CI pruning with a practical (tight) configuration retires the hopeless
// tail: this fixture's worst views sit ~0.005 utility against a k-th lower
// bound near 0.07, which separates once eps(m) drops below the gap.
TEST_F(PhasedExecutorTest, CiPruningRetiresTheHopelessTail) {
  OnlinePruningOptions pruning;
  pruning.num_phases = 8;
  pruning.pruner = OnlinePruner::kConfidenceInterval;
  pruning.delta = 0.5;
  pruning.utility_range = 0.1;
  pruning.keep_k = 3;
  ExecutionReport report;
  auto pruned = RunPhased(OptimizerOptions::Baseline(), pruning, &report);
  EXPECT_GT(report.views_pruned_online, 0u);
  EXPECT_GE(pruned.size(), 3u);
  EXPECT_EQ(report.views_pruned_online, views_.size() - pruned.size());
}

TEST_F(ExecutorTest, SamplingStillFindsPlantedView) {
  OptimizerOptions sampled = OptimizerOptions::All();
  sampled.sample_fraction = 0.3;
  sampled.sample_seed = 12;
  auto results = Run(sampled);
  // The planted (dim1, m0, SUM/AVG) views should still be near the top.
  std::sort(results.begin(), results.end(),
            [](const ViewResult& a, const ViewResult& b) {
              return a.utility > b.utility;
            });
  bool found = false;
  for (size_t i = 0; i < 4 && i < results.size(); ++i) {
    found = found || (results[i].view.dimension == "dim1" &&
                      results[i].view.measure == "m0");
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace seedb::core
