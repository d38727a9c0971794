// Oracle equivalence for (query, grouping set, aggregate) retirement: the
// online pruner's decisions retire work at the granularity views own, so a
// plan that fuses every dimension into one query must behave exactly like
// the plan that gives each dimension its own query — same ranked views,
// bit-identical utilities, identical online-pruned records — and every
// survivor must score exactly what an unpruned run gives it.
//
// Runs use parallelism 1: accumulation order is deterministic, so doubles
// are compared with EXPECT_EQ.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/seedb.h"
#include "core/session.h"
#include "data/synthetic.h"
#include "db/engine.h"
#include "obs/metrics.h"

namespace seedb::core {
namespace {

class SetRetirementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dataset = data::GenerateSynthetic(
        data::SyntheticSpec::Simple(6000, 5, 3, 8, 21));
    ASSERT_TRUE(dataset.ok()) << dataset.status();
    selection_ = dataset->selection;
    ASSERT_TRUE(catalog_.AddTable("synth", std::move(dataset->table)).ok());
  }

  // Every examined view lands in low_utility_views (bottom-k far above the
  // view count), so survivors can be compared one by one.
  SeeDBRequest Request(const OnlinePruningOptions& pruning,
                       bool combine_group_bys) const {
    OptimizerOptions optimizer;
    optimizer.combine_group_bys = combine_group_bys;
    SeeDBRequest request("synth");
    request.Where(selection_)
        .WithTopK(3)
        .WithBottomK(1000)
        .WithParallelism(1)
        .WithOptimizer(optimizer)
        .WithOnlinePruning(pruning);
    return request;
  }

  RecommendationSet Run(const SeeDBRequest& request) {
    db::Engine engine(&catalog_);
    SeeDB seedb(&engine);
    auto set = seedb.Run(request);
    EXPECT_TRUE(set.ok()) << set.status();
    return *set;
  }

  static OnlinePruningOptions Mab() {
    OnlinePruningOptions pruning;
    pruning.num_phases = 8;
    pruning.pruner = OnlinePruner::kMultiArmedBandit;
    return pruning;
  }

  static OnlinePruningOptions Ci() {
    OnlinePruningOptions pruning;
    pruning.num_phases = 8;
    pruning.pruner = OnlinePruner::kConfidenceInterval;
    pruning.delta = 0.5;
    pruning.utility_range = 0.1;
    return pruning;
  }

  static std::map<std::string, double> Utilities(const RecommendationSet& s) {
    std::map<std::string, double> m;
    for (const Recommendation& r : s.low_utility_views) {
      m[r.view().Id()] = r.utility();
    }
    return m;
  }

  // (phase, view id) -> (partial utility, rows seen), independent of the
  // order in which a plan happens to list its views.
  static std::map<std::pair<size_t, std::string>, std::pair<double, uint64_t>>
  PrunedRecords(const RecommendationSet& s) {
    std::map<std::pair<size_t, std::string>, std::pair<double, uint64_t>> m;
    for (const OnlinePrunedView& p : s.online_pruned_views) {
      m[{p.pruned_at_phase, p.view.Id()}] = {p.partial_utility, p.rows_seen};
    }
    return m;
  }

  static void ExpectSameRanking(const RecommendationSet& got,
                                const RecommendationSet& want) {
    ASSERT_EQ(got.top_views.size(), want.top_views.size());
    for (size_t i = 0; i < got.top_views.size(); ++i) {
      EXPECT_EQ(got.top_views[i].view().Id(), want.top_views[i].view().Id());
      EXPECT_EQ(got.top_views[i].utility(), want.top_views[i].utility());
    }
    EXPECT_EQ(Utilities(got), Utilities(want));
    EXPECT_EQ(PrunedRecords(got), PrunedRecords(want));
  }

  // The fused plan against the per-dimension plan, and every survivor
  // against the unpruned run.
  void ExpectOracleEquivalence(const OnlinePruningOptions& pruning) {
    const RecommendationSet fused = Run(Request(pruning, true));
    const RecommendationSet split = Run(Request(pruning, false));
    ASSERT_EQ(fused.profile.queries_issued, 1u);
    ASSERT_GT(split.profile.queries_issued, 1u);
    ASSERT_GT(fused.profile.views_pruned_online, 0u);
    ExpectSameRanking(fused, split);

    OnlinePruningOptions none = pruning;
    none.pruner = OnlinePruner::kNone;
    const std::map<std::string, double> unpruned =
        Utilities(Run(Request(none, true)));
    for (const auto& [id, utility] : Utilities(fused)) {
      auto it = unpruned.find(id);
      ASSERT_NE(it, unpruned.end()) << id;
      EXPECT_EQ(utility, it->second) << id;
    }
  }

  db::Catalog catalog_;
  db::PredicatePtr selection_;
};

TEST_F(SetRetirementTest, MabFusedPlanMatchesPerDimensionPlanAndUnprunedRun) {
  ExpectOracleEquivalence(Mab());
}

TEST_F(SetRetirementTest, CiFusedPlanMatchesPerDimensionPlanAndUnprunedRun) {
  ExpectOracleEquivalence(Ci());
}

// Cancel between phases once views (hence aggregates) have retired, then
// resume: the run must finish exactly as the uninterrupted one.
TEST_F(SetRetirementTest, CancelAfterRetirementThenResumeEqualsUninterrupted) {
  const SeeDBRequest request = Request(Mab(), true);
  const RecommendationSet truth = Run(request);

  db::Engine engine(&catalog_);
  SeeDB seedb(&engine);
  auto session = seedb.Open(request);
  ASSERT_TRUE(session.ok()) << session.status();
  size_t pruned = 0;
  while (pruned == 0) {
    auto update = session->Next();
    ASSERT_TRUE(update.ok()) << update.status();
    ASSERT_TRUE(update->has_value()) << "no view retired before the end";
    pruned = (*update)->views_pruned_online;
  }
  session->Cancel();
  ASSERT_TRUE(session->Next().ok());
  ASSERT_TRUE(session->Resume().ok());
  while (true) {
    auto update = session->Next();
    ASSERT_TRUE(update.ok()) << update.status();
    if (!update->has_value()) break;
  }
  auto resumed = session->Finish();
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_FALSE(resumed->profile.cancelled);
  EXPECT_EQ(resumed->profile.rows_scanned, truth.profile.rows_scanned);
  ExpectSameRanking(*resumed, truth);
}

// The registry's view of the saving: accumulation work (rows x live
// aggregates) and aggregate retirements. A pruned single-query session
// moves both; an unpruned one only does work.
TEST_F(SetRetirementTest, RegistryCountsAggregateRowsAndRetirements) {
  obs::Counter* agg_rows =
      obs::Registry::Global().GetCounter("engine.scan.agg_rows");
  obs::Counter* retired =
      obs::Registry::Global().GetCounter("engine.pruning.aggs_retired");

  OnlinePruningOptions none = Mab();
  none.pruner = OnlinePruner::kNone;
  uint64_t rows_before = agg_rows->Value();
  uint64_t retired_before = retired->Value();
  const RecommendationSet full = Run(Request(none, true));
  ASSERT_EQ(full.profile.queries_issued, 1u);
  const uint64_t full_work = agg_rows->Value() - rows_before;
  EXPECT_GT(full_work, 0u);
  EXPECT_EQ(retired->Value(), retired_before);

  rows_before = agg_rows->Value();
  retired_before = retired->Value();
  const RecommendationSet pruned = Run(Request(Mab(), true));
  ASSERT_EQ(pruned.profile.queries_issued, 1u);
  const uint64_t pruned_work = agg_rows->Value() - rows_before;
  EXPECT_GT(pruned_work, 0u);
  EXPECT_LT(pruned_work, full_work);
  EXPECT_GT(retired->Value(), retired_before);
}

}  // namespace
}  // namespace seedb::core
