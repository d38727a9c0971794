// Differential suite for the server-wide partial-aggregate cache
// (db/scan_cache.h): a warm run — every (query, grouping set) pair adopted
// from cache — must be BIT-IDENTICAL to the cold run that populated it,
// across execution strategy x online pruner x phase count. Also pins the
// cache's correctness levers: a table-version bump invalidates every entry
// for that table, and LRU eviction under a tight budget degrades to cold
// re-scans, never to wrong answers.
//
// Runs use parallelism 1: results are deterministic, so EXPECT_EQ on
// doubles (not near) is the right comparison — the cache adopts merged
// aggregate state verbatim, it does not recompute.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "../test_util.h"
#include "core/seedb.h"
#include "core/session.h"
#include "data/synthetic.h"
#include "db/engine.h"

namespace seedb::core {
namespace {

// Every final ranking observable: top/bottom sets, order, exact utilities.
void ExpectBitIdentical(const RecommendationSet& warm,
                        const RecommendationSet& cold) {
  ASSERT_EQ(warm.top_views.size(), cold.top_views.size());
  for (size_t i = 0; i < warm.top_views.size(); ++i) {
    EXPECT_EQ(warm.top_views[i].rank, cold.top_views[i].rank);
    EXPECT_EQ(warm.top_views[i].view().Id(), cold.top_views[i].view().Id());
    EXPECT_EQ(warm.top_views[i].utility(), cold.top_views[i].utility())
        << warm.top_views[i].view().Id();
  }
  ASSERT_EQ(warm.low_utility_views.size(), cold.low_utility_views.size());
  for (size_t i = 0; i < warm.low_utility_views.size(); ++i) {
    EXPECT_EQ(warm.low_utility_views[i].view().Id(),
              cold.low_utility_views[i].view().Id());
    EXPECT_EQ(warm.low_utility_views[i].utility(),
              cold.low_utility_views[i].utility());
  }
  EXPECT_EQ(warm.metric, cold.metric);
}

class CacheDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dataset = data::GenerateSynthetic(
        data::SyntheticSpec::Simple(4000, 4, 2, 8, 13));
    ASSERT_TRUE(dataset.ok()) << dataset.status();
    selection_ = dataset->selection;
    ASSERT_TRUE(catalog_.AddTable("synth", std::move(dataset->table)).ok());
  }

  SeeDBRequest Request(ExecutionStrategy strategy, OnlinePruner pruner,
                       size_t phases) const {
    SeeDBRequest request("synth");
    request.Where(selection_)
        .WithTopK(3)
        .WithBottomK(2)
        .WithParallelism(1)
        .WithStrategy(strategy);
    if (strategy == ExecutionStrategy::kPhasedSharedScan) {
      request.WithPhases(phases).WithOnlinePruner(pruner);
    }
    return request;
  }

  RecommendationSet Run(db::Engine* engine, const SeeDBRequest& request) {
    SeeDB seedb(engine);
    auto set = seedb.Run(request);
    EXPECT_TRUE(set.ok()) << set.status();
    return *set;
  }

  db::Catalog catalog_;
  db::PredicatePtr selection_;
};

struct Config {
  ExecutionStrategy strategy;
  OnlinePruner pruner;
  size_t phases;
};

TEST_F(CacheDifferentialTest,
       WarmRunsBitIdenticalAcrossStrategyPrunerAndPhases) {
  const Config configs[] = {
      {ExecutionStrategy::kSharedScan, OnlinePruner::kNone, 1},
      {ExecutionStrategy::kPhasedSharedScan, OnlinePruner::kNone, 1},
      {ExecutionStrategy::kPhasedSharedScan, OnlinePruner::kNone, 4},
      {ExecutionStrategy::kPhasedSharedScan, OnlinePruner::kConfidenceInterval,
       4},
      {ExecutionStrategy::kPhasedSharedScan, OnlinePruner::kConfidenceInterval,
       8},
      {ExecutionStrategy::kPhasedSharedScan, OnlinePruner::kMultiArmedBandit,
       4},
  };
  for (const Config& config : configs) {
    SCOPED_TRACE(std::string(ExecutionStrategyToString(config.strategy)) +
                 "/" + OnlinePrunerToString(config.pruner) + "/phases=" +
                 std::to_string(config.phases));
    // A fresh cache-enabled engine per config: the first run is fully cold,
    // the second fully warm from exactly that run's published state.
    db::Engine engine(&catalog_);
    engine.EnableResultCache(64 * 1024 * 1024);
    const SeeDBRequest request =
        Request(config.strategy, config.pruner, config.phases);
    const RecommendationSet cold = Run(&engine, request);
    const db::EngineStatsSnapshot after_cold = engine.stats();
    EXPECT_EQ(after_cold.cache_hits, 0u);
    const RecommendationSet warm = Run(&engine, request);
    ExpectBitIdentical(warm, cold);
    const db::EngineStatsSnapshot after_warm = engine.stats();
    if (config.pruner == OnlinePruner::kMultiArmedBandit) {
      // MAB halves by estimate order, which adoption would change; such
      // runs bypass the cache entirely — bit-identity by construction.
      EXPECT_EQ(after_warm.cache_hits, 0u);
      EXPECT_EQ(warm.profile.cache_hits, 0u);
    } else {
      // The warm run adopted at least something (under a pruner, retired
      // views are never published, so the warm run re-scans those only).
      EXPECT_GT(after_warm.cache_hits, 0u);
      EXPECT_GT(warm.profile.cache_hits, 0u);
    }
    // And a cache-free engine agrees with both: adoption changed cost,
    // never answers.
    db::Engine reference(&catalog_);
    ExpectBitIdentical(Run(&reference, request), cold);
  }
}

// Under set-level retirement a pruned run publishes exactly the grouping
// sets it scanned to the end with every aggregate live. A CI run that
// retires some dimensions' views outright (and thins others) leaves those
// sets unpublished: the warm rerun misses them, adopts the rest, and still
// answers bit-identically.
TEST_F(CacheDifferentialTest, PrunedRunPublishesOnlyFullyScannedSets) {
  // One measure, so each dimension carries three views: the CI pruner
  // retires one dimension's views outright, thins two more and leaves the
  // fourth untouched.
  auto dataset = data::GenerateSynthetic(
      data::SyntheticSpec::Simple(4000, 5, 1, 8, 21));
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  ASSERT_TRUE(catalog_.AddTable("synth1", std::move(dataset->table)).ok());
  OnlinePruningOptions pruning;
  pruning.num_phases = 8;
  pruning.pruner = OnlinePruner::kConfidenceInterval;
  pruning.delta = 0.5;
  pruning.utility_range = 0.1;
  SeeDBRequest request("synth1");
  request.Where(dataset->selection)
      .WithTopK(4)
      .WithBottomK(1000)
      .WithParallelism(1)
      .WithOnlinePruning(pruning);

  db::Engine engine(&catalog_);
  engine.EnableResultCache(64 * 1024 * 1024);
  const RecommendationSet cold = Run(&engine, request);
  ASSERT_EQ(cold.profile.queries_issued, 1u);  // one multi-set query
  std::set<std::string> dims, touched, survived;
  for (const Recommendation& r : cold.low_utility_views) {
    dims.insert(r.view().dimension);
    survived.insert(r.view().dimension);
  }
  for (const OnlinePrunedView& p : cold.online_pruned_views) {
    dims.insert(p.view.dimension);
    touched.insert(p.view.dimension);
  }
  size_t whole_sets_retired = 0;
  for (const std::string& d : touched) whole_sets_retired += !survived.count(d);
  ASSERT_GT(whole_sets_retired, 0u) << "no set retired outright";
  ASSERT_LT(touched.size(), dims.size()) << "no set scanned in full";

  const RecommendationSet warm = Run(&engine, request);
  EXPECT_EQ(warm.profile.cache_misses, touched.size());
  EXPECT_EQ(warm.profile.cache_hits, dims.size() - touched.size());
  ExpectBitIdentical(warm, cold);
  db::Engine reference(&catalog_);
  ExpectBitIdentical(Run(&reference, request), cold);
}

TEST_F(CacheDifferentialTest, FullyWarmRunScansNoRows) {
  db::Engine engine(&catalog_);
  engine.EnableResultCache(64 * 1024 * 1024);
  const SeeDBRequest request =
      Request(ExecutionStrategy::kSharedScan, OnlinePruner::kNone, 1);
  const RecommendationSet cold = Run(&engine, request);
  EXPECT_GT(cold.profile.rows_scanned, 0u);
  const RecommendationSet warm = Run(&engine, request);
  ExpectBitIdentical(warm, cold);
  // No pruner, one pass: every pair was published, so the warm run adopts
  // everything and never touches the table.
  EXPECT_EQ(warm.profile.rows_scanned, 0u);
  EXPECT_EQ(warm.profile.cache_misses, 0u);
}

TEST_F(CacheDifferentialTest, TableVersionBumpInvalidatesWarmEntries) {
  db::Engine engine(&catalog_);
  engine.EnableResultCache(64 * 1024 * 1024);
  const SeeDBRequest request =
      Request(ExecutionStrategy::kSharedScan, OnlinePruner::kNone, 1);
  const RecommendationSet first = Run(&engine, request);

  // Replace the table with differently-seeded data: same name and schema,
  // new version. Every cached entry keyed at the old version must be dead.
  auto replacement = data::GenerateSynthetic(
      data::SyntheticSpec::Simple(4000, 4, 2, 8, 14));
  ASSERT_TRUE(replacement.ok());
  catalog_.PutTable("synth", std::move(replacement->table));

  const RecommendationSet second = Run(&engine, request);
  EXPECT_GT(second.profile.rows_scanned, 0u)
      << "stale entries adopted across a version bump";
  EXPECT_EQ(second.profile.cache_hits, 0u);
  EXPECT_GT(second.profile.cache_misses, 0u);
  // Differently-seeded data: at least one utility must move, or the
  // invalidation assertion above is vacuous.
  bool any_differs = first.top_views.size() != second.top_views.size();
  for (size_t i = 0; !any_differs && i < first.top_views.size(); ++i) {
    any_differs = first.top_views[i].view().Id() !=
                      second.top_views[i].view().Id() ||
                  first.top_views[i].utility() != second.top_views[i].utility();
  }
  EXPECT_TRUE(any_differs);

  // And the new version warms up normally.
  const RecommendationSet third = Run(&engine, request);
  ExpectBitIdentical(third, second);
  EXPECT_GT(third.profile.cache_hits, 0u);
}

TEST_F(CacheDifferentialTest, LruEvictionUnderBudgetNeverChangesAnswers) {
  // A budget big enough for roughly one request's entries but not two
  // different requests': alternating selections thrash the LRU.
  db::Engine engine(&catalog_);
  engine.EnableResultCache(8 * 1024);
  db::Engine reference(&catalog_);

  const SeeDBRequest wide =
      Request(ExecutionStrategy::kSharedScan, OnlinePruner::kNone, 1);
  SeeDBRequest narrow("synth");
  narrow.WithTopK(3).WithBottomK(2).WithParallelism(1).WithStrategy(
      ExecutionStrategy::kSharedScan);  // whole-table: distinct fingerprint

  const RecommendationSet wide_ref = Run(&reference, wide);
  const RecommendationSet narrow_ref = Run(&reference, narrow);
  for (int round = 0; round < 3; ++round) {
    ExpectBitIdentical(Run(&engine, wide), wide_ref);
    ExpectBitIdentical(Run(&engine, narrow), narrow_ref);
  }
  const db::EngineStatsSnapshot stats = engine.stats();
  EXPECT_GT(stats.cache_evictions, 0u)
      << "budget never pressured the LRU — raise the workload or drop the "
         "budget";
  EXPECT_GT(stats.cache_misses, 0u);
}

}  // namespace
}  // namespace seedb::core
