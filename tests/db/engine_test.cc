#include "db/engine.h"

#include <gtest/gtest.h>

#include <thread>

#include "../test_util.h"

namespace seedb::db {
namespace {

using ::seedb::testing::RegistryCount;

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : engine_(&catalog_) {
    Status s = catalog_.AddTable("t", ::seedb::testing::MakeTinyTable());
    (void)s;
  }
  Catalog catalog_;
  Engine engine_;
};

GroupByQuery SimpleQuery() {
  GroupByQuery q;
  q.table = "t";
  q.group_by = {"d"};
  q.aggregates = {AggregateSpec::Make(AggregateFunction::kSum, "m1")};
  return q;
}

TEST_F(EngineTest, ExecuteGroupBy) {
  auto result = engine_.Execute(SimpleQuery());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 2u);
}

TEST_F(EngineTest, MissingTableFails) {
  GroupByQuery q = SimpleQuery();
  q.table = "ghost";
  EXPECT_EQ(engine_.Execute(q).status().code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, StatsCountQueriesAndScans) {
  const uint64_t queries = RegistryCount("engine.queries");
  const uint64_t scans = RegistryCount("engine.table_scans");
  const uint64_t rows = RegistryCount("engine.scan.rows");
  auto first = engine_.Execute(SimpleQuery());
  auto second = engine_.Execute(SimpleQuery());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(RegistryCount("engine.queries") - queries, 2u);
  EXPECT_EQ(RegistryCount("engine.table_scans") - scans, 2u);
  EXPECT_EQ(RegistryCount("engine.scan.rows") - rows, 12u);
  EXPECT_EQ(first->num_rows() + second->num_rows(), 4u);  // groups
}

TEST_F(EngineTest, GroupingSetsCountsOneScan) {
  const uint64_t queries = RegistryCount("engine.queries");
  const uint64_t scans = RegistryCount("engine.table_scans");
  GroupingSetsQuery q;
  q.table = "t";
  q.grouping_sets = {{"d"}, {"e"}, {"d", "e"}};
  q.aggregates = {AggregateSpec::Make(AggregateFunction::kSum, "m1")};
  GroupingSetsStats stats;
  auto results = engine_.Execute(q, &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 3u);
  EXPECT_EQ(RegistryCount("engine.queries") - queries, 1u);
  // The whole point of GROUPING SETS: three sets, one pass.
  EXPECT_EQ(RegistryCount("engine.table_scans") - scans, 1u);
  EXPECT_EQ(stats.rows_scanned, 6u);
  size_t groups = 0;
  for (const Table& t : *results) groups += t.num_rows();
  EXPECT_EQ(stats.total_groups, groups);
  EXPECT_GT(stats.agg_state_bytes, 0u);
}

TEST_F(EngineTest, FailedQueryDoesNotCount) {
  const uint64_t queries = RegistryCount("engine.queries");
  const uint64_t scans = RegistryCount("engine.table_scans");
  GroupByQuery q = SimpleQuery();
  q.group_by = {"missing"};
  EXPECT_FALSE(engine_.Execute(q).ok());
  EXPECT_EQ(RegistryCount("engine.queries"), queries);
  EXPECT_EQ(RegistryCount("engine.table_scans"), scans);
}

TEST_F(EngineTest, AccessTrackerRecordsColumns) {
  GroupByQuery q = SimpleQuery();
  q.where = PredicatePtr(Eq("e", Value("x")));
  ASSERT_TRUE(engine_.Execute(q).ok());
  AccessTracker* tracker = engine_.access_tracker();
  EXPECT_EQ(tracker->QueryCount("t"), 1u);
  EXPECT_EQ(tracker->AccessCount("t", "d"), 1u);
  EXPECT_EQ(tracker->AccessCount("t", "m1"), 1u);
  EXPECT_EQ(tracker->AccessCount("t", "e"), 1u);
  EXPECT_EQ(tracker->AccessCount("t", "m2"), 0u);
}

TEST_F(EngineTest, AccessTrackerSeesFilterColumns) {
  GroupByQuery q = SimpleQuery();
  q.aggregates = {AggregateSpec::Make(AggregateFunction::kSum, "m1", "v",
                                      PredicatePtr(Eq("e", Value("y"))))};
  ASSERT_TRUE(engine_.Execute(q).ok());
  EXPECT_EQ(engine_.access_tracker()->AccessCount("t", "e"), 1u);
}

TEST_F(EngineTest, ExecuteSqlEndToEnd) {
  auto result = engine_.ExecuteSql(
      "SELECT d, SUM(m1) AS total FROM t WHERE e = 'x' GROUP BY d");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 2u);
  EXPECT_EQ(result->schema().column(1).name, "total");
  EXPECT_EQ(result->ValueAt(0, 1), Value(6.0));
}

TEST_F(EngineTest, ExecuteSqlGroupingSetsReturnsFirstSet) {
  auto result = engine_.ExecuteSql(
      "SELECT d, e, COUNT(*) FROM t GROUP BY GROUPING SETS ((d), (e))");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 2u);
  EXPECT_EQ(result->schema().column(0).name, "d");
}

TEST_F(EngineTest, ExecuteSqlParseErrorPropagates) {
  EXPECT_FALSE(engine_.ExecuteSql("SELEKT broken").ok());
  EXPECT_FALSE(engine_.ExecuteSql("SELECT d FROM t").ok());  // no aggregate
}

TEST_F(EngineTest, ConcurrentExecutionIsSafe) {
  const uint64_t queries = RegistryCount("engine.queries");
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int k = 0; k < 4; ++k) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        if (!engine_.Execute(SimpleQuery()).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  // Every concurrent execution lands in the sharded registry counter.
  EXPECT_EQ(RegistryCount("engine.queries") - queries, 200u);
}

}  // namespace
}  // namespace seedb::db
