#include "core/seedb.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "data/synthetic.h"

namespace seedb::core {
namespace {

class SeeDBTest : public ::testing::Test {
 protected:
  SeeDBTest() : engine_(&catalog_), seedb_(&engine_) {
    Status s =
        catalog_.AddTable("sales", ::seedb::testing::MakeLaserwaveTable());
    (void)s;
  }
  db::Catalog catalog_;
  db::Engine engine_;
  SeeDB seedb_;
};

TEST_F(SeeDBTest, LaserwaveViewIsRecommended) {
  // The paper's running example: the Laserwave per-store sales distribution
  // deviates from the overall one, so (store, amount) views should rank top.
  SeeDBOptions options;
  options.k = 3;
  auto result =
      seedb_.Recommend("sales",
                       db::PredicatePtr(db::Eq("product",
                                               db::Value("Laserwave"))),
                       options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_FALSE(result->top_views.empty());
  EXPECT_EQ(result->top_views[0].view().dimension, "store");
  EXPECT_GT(result->top_views[0].utility(), 0.0);
  EXPECT_EQ(result->top_views[0].rank, 1u);
}

TEST_F(SeeDBTest, RecommendSqlParsesInputQuery) {
  auto result = seedb_.RecommendSql(
      "SELECT * FROM sales WHERE product = 'Laserwave'");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->top_views.empty());
  EXPECT_FALSE(seedb_.RecommendSql("SELECT broken").ok());
  EXPECT_FALSE(
      seedb_.RecommendSql("SELECT * FROM missing_table").ok());
}

TEST_F(SeeDBTest, RecommendationCarriesSqlTexts) {
  auto result = seedb_.RecommendSql(
      "SELECT * FROM sales WHERE product = 'Laserwave'");
  ASSERT_TRUE(result.ok());
  const Recommendation& top = result->top_views[0];
  EXPECT_NE(top.target_sql.find("WHERE product = 'Laserwave'"),
            std::string::npos);
  EXPECT_NE(top.comparison_sql.find("GROUP BY"), std::string::npos);
  EXPECT_NE(top.combined_sql.find("FILTER"), std::string::npos);
}

TEST_F(SeeDBTest, BottomKReturnsLowUtilityViews) {
  SeeDBOptions options;
  options.k = 2;
  options.bottom_k = 2;
  auto result = seedb_.RecommendSql(
      "SELECT * FROM sales WHERE product = 'Laserwave'", options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->low_utility_views.size(), 2u);
  EXPECT_LE(result->low_utility_views[0].utility(),
            result->top_views[0].utility());
}

TEST_F(SeeDBTest, ProfileCountsAreConsistent) {
  SeeDBOptions options;
  auto result = seedb_.RecommendSql(
      "SELECT * FROM sales WHERE product = 'Laserwave'", options);
  ASSERT_TRUE(result.ok());
  const ExecutionProfile& p = result->profile;
  EXPECT_EQ(p.views_enumerated, p.views_pruned + p.views_executed);
  EXPECT_GT(p.views_executed, 0u);
  EXPECT_GT(p.queries_issued, 0u);
  EXPECT_GT(p.scan.rows_scanned, 0u);
  EXPECT_GE(p.total_seconds, 0.0);
  std::string s = p.ToString();
  EXPECT_NE(s.find("views:"), std::string::npos);
}

TEST_F(SeeDBTest, KLimitsResults) {
  SeeDBOptions options;
  options.k = 1;
  auto result = seedb_.RecommendSql(
      "SELECT * FROM sales WHERE product = 'Laserwave'", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->top_views.size(), 1u);
}

TEST_F(SeeDBTest, MetricChoiceChangesScoresNotValidity) {
  for (DistanceMetric metric : AllDistanceMetrics()) {
    SeeDBOptions options;
    options.metric = metric;
    auto result = seedb_.RecommendSql(
        "SELECT * FROM sales WHERE product = 'Laserwave'", options);
    ASSERT_TRUE(result.ok()) << DistanceMetricToString(metric);
    EXPECT_EQ(result->metric, metric);
    EXPECT_FALSE(result->top_views.empty());
  }
}

TEST_F(SeeDBTest, InvalidSelectionColumnFails) {
  auto result = seedb_.Recommend(
      "sales", db::PredicatePtr(db::Eq("ghost", db::Value("x"))), {});
  EXPECT_FALSE(result.ok());
}

TEST_F(SeeDBTest, TableWithoutDimensionsFails) {
  db::Schema schema({db::ColumnDef::Measure("only_measure")});
  db::Table t(schema);
  Status s = t.AppendRow({db::Value(1.0)});
  (void)s;
  catalog_.PutTable("bare", std::move(t));
  EXPECT_FALSE(seedb_.Recommend("bare", nullptr, {}).ok());
}

TEST(SeeDBSyntheticTest, PlantedDeviationRecoveredAsTopView) {
  data::SyntheticSpec spec =
      data::SyntheticSpec::Simple(8000, 4, 2, 8, /*seed=*/123);
  spec.deviation->strength = 6.0;
  auto dataset = data::GenerateSynthetic(spec).ValueOrDie();

  db::Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("synth", std::move(dataset.table)).ok());
  db::Engine engine(&catalog);
  SeeDB seedb(&engine);

  SeeDBOptions options;
  options.k = 3;
  auto result = seedb.Recommend("synth", dataset.selection, options);
  ASSERT_TRUE(result.ok()) << result.status();
  // The planted (dim, measure) pair should appear among the top views.
  bool found = false;
  for (const auto& rec : result->top_views) {
    found = found || (rec.view().dimension == dataset.expected_dimension &&
                      rec.view().measure == dataset.expected_measure);
  }
  EXPECT_TRUE(found) << "expected (" << dataset.expected_dimension << ", "
                     << dataset.expected_measure << ") in top views";
}

TEST(SeeDBSyntheticTest, PruningPreservesTopViewRecall) {
  data::SyntheticSpec spec =
      data::SyntheticSpec::Simple(6000, 5, 2, 8, /*seed=*/31);
  spec.deviation->strength = 6.0;
  auto dataset = data::GenerateSynthetic(spec).ValueOrDie();
  db::Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("synth", std::move(dataset.table)).ok());
  db::Engine engine(&catalog);
  SeeDB seedb(&engine);

  SeeDBOptions options;
  options.k = 3;
  options.pruning.enable_variance = true;
  options.pruning.enable_correlation = true;
  auto result = seedb.Recommend("synth", dataset.selection, options);
  ASSERT_TRUE(result.ok()) << result.status();
  bool found = false;
  for (const auto& rec : result->top_views) {
    found = found || (rec.view().dimension == dataset.expected_dimension &&
                      rec.view().measure == dataset.expected_measure);
  }
  EXPECT_TRUE(found);
}

TEST(SeeDBSyntheticTest, MaterializedSamplingFindsPlantedView) {
  data::SyntheticSpec spec =
      data::SyntheticSpec::Simple(20000, 4, 2, 6, /*seed=*/41);
  spec.deviation->strength = 8.0;
  auto dataset = data::GenerateSynthetic(spec).ValueOrDie();
  db::Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("synth", std::move(dataset.table)).ok());
  db::Engine engine(&catalog);
  SeeDB seedb(&engine);

  SeeDBOptions options;
  options.sampling = SamplingStrategy::kMaterialized;
  options.sample_rows = 4000;
  options.sample_seed = 3;
  auto result = seedb.Recommend("synth", dataset.selection, options);
  ASSERT_TRUE(result.ok()) << result.status();

  // The sample table was materialized and cached in the catalog.
  std::string sample_name = "__synth_sample_4000_3";
  ASSERT_TRUE(catalog.HasTable(sample_name));
  EXPECT_EQ((*catalog.GetTable(sample_name))->num_rows(), 4000u);
  // Scan cost reflects the sample, not the base table.
  EXPECT_LE(result->profile.scan.rows_scanned, 4000u);

  // Strong planted deviation survives 5x downsampling.
  bool found = false;
  for (const auto& rec : result->top_views) {
    found = found || (rec.view().dimension == dataset.expected_dimension &&
                      rec.view().measure == dataset.expected_measure);
  }
  EXPECT_TRUE(found);

  // A second call reuses the cached sample (no new table).
  size_t tables_before = catalog.TableNames().size();
  ASSERT_TRUE(seedb.Recommend("synth", dataset.selection, options).ok());
  EXPECT_EQ(catalog.TableNames().size(), tables_before);
}

TEST(SeeDBSyntheticTest, MaterializedSamplingNoopOnSmallTables) {
  data::SyntheticSpec spec = data::SyntheticSpec::Simple(500, 3, 1, 4, 9);
  auto dataset = data::GenerateSynthetic(spec).ValueOrDie();
  db::Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("synth", std::move(dataset.table)).ok());
  db::Engine engine(&catalog);
  SeeDB seedb(&engine);
  SeeDBOptions options;
  options.sampling = SamplingStrategy::kMaterialized;
  options.sample_rows = 100000;  // larger than the table
  ASSERT_TRUE(seedb.Recommend("synth", dataset.selection, options).ok());
  EXPECT_EQ(catalog.TableNames().size(), 1u);  // no sample table created
}

TEST(SeeDBSyntheticTest, ParallelismYieldsSameTopView) {
  data::SyntheticSpec spec =
      data::SyntheticSpec::Simple(4000, 4, 2, 6, /*seed=*/77);
  auto dataset = data::GenerateSynthetic(spec).ValueOrDie();
  db::Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("synth", std::move(dataset.table)).ok());
  db::Engine engine(&catalog);
  SeeDB seedb(&engine);

  SeeDBOptions serial;
  serial.optimizer = OptimizerOptions::Baseline();
  SeeDBOptions parallel = serial;
  parallel.parallelism = 4;
  auto a = seedb.Recommend("synth", dataset.selection, serial).ValueOrDie();
  auto b = seedb.Recommend("synth", dataset.selection, parallel).ValueOrDie();
  ASSERT_FALSE(a.top_views.empty());
  EXPECT_EQ(a.top_views[0].view(), b.top_views[0].view());
  EXPECT_NEAR(a.top_views[0].utility(), b.top_views[0].utility(), 1e-12);
}

}  // namespace
}  // namespace seedb::core
