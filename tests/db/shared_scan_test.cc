#include "db/shared_scan.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "../test_util.h"
#include "data/synthetic.h"
#include "db/engine.h"
#include "db/predicate.h"

namespace seedb::db {
namespace {

using ::seedb::testing::MakeLaserwaveTable;
using ::seedb::testing::MakeTinyTable;

// Checks two tables cell-for-cell. Aggregate doubles may differ by float
// reassociation across morsel boundaries, so doubles compare with EXPECT_NEAR.
void ExpectTablesMatch(const Table& got, const Table& want,
                       const std::string& label) {
  ASSERT_EQ(got.num_rows(), want.num_rows()) << label;
  ASSERT_EQ(got.num_columns(), want.num_columns()) << label;
  for (size_t r = 0; r < got.num_rows(); ++r) {
    for (size_t c = 0; c < got.num_columns(); ++c) {
      Value g = got.ValueAt(r, c);
      Value w = want.ValueAt(r, c);
      if (g.type() == ValueType::kDouble && w.type() == ValueType::kDouble) {
        EXPECT_NEAR(g.ToDouble().ValueOrDie(), w.ToDouble().ValueOrDie(),
                    1e-9 + 1e-12 * std::abs(w.ToDouble().ValueOrDie()))
            << label << " row " << r << " col " << c;
      } else {
        EXPECT_EQ(g, w) << label << " row " << r << " col " << c;
      }
    }
  }
}

// Runs `queries` through both the fused shared scan (with `options`) and
// query-at-a-time ExecuteGroupingSets, and requires identical results.
void ExpectParity(const Table& table,
                  const std::vector<GroupingSetsQuery>& queries,
                  const SharedScanOptions& options,
                  SharedScanStats* stats = nullptr) {
  auto fused = ExecuteSharedScan(table, queries, options, stats);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  ASSERT_EQ(fused->size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    auto expected = ExecuteGroupingSets(table, queries[q], nullptr);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_EQ((*fused)[q].size(), expected->size()) << "query " << q;
    for (size_t s = 0; s < expected->size(); ++s) {
      ExpectTablesMatch((*fused)[q][s], (*expected)[s],
                        "query " + std::to_string(q) + " set " +
                            std::to_string(s));
    }
  }
}

// The paper's §1 running example: the fused pass answers the Laserwave
// target query, the comparison query, and a combined FILTER query exactly
// like three independent scans would.
TEST(SharedScanTest, LaserwaveParity) {
  Table t = MakeLaserwaveTable();
  PredicatePtr laserwave(Eq("product", Value("Laserwave")));

  GroupingSetsQuery target;
  target.table = "sales";
  target.where = laserwave;
  target.grouping_sets = {{"store"}};
  target.aggregates = {AggregateSpec::Make(AggregateFunction::kSum, "amount")};

  GroupingSetsQuery comparison = target;
  comparison.where = nullptr;

  GroupingSetsQuery combined;
  combined.table = "sales";
  combined.grouping_sets = {{"store"}};
  combined.aggregates = {
      AggregateSpec::Make(AggregateFunction::kSum, "amount", "tgt", laserwave),
      AggregateSpec::Make(AggregateFunction::kSum, "amount", "cmp"),
  };

  SharedScanStats stats;
  ExpectParity(t, {target, comparison, combined}, SharedScanOptions{}, &stats);
  EXPECT_EQ(stats.rows_scanned, t.num_rows());
  // store has 4 distinct values; target sees them all under the Laserwave
  // selection, so every query materializes 4 groups.
  EXPECT_EQ(stats.total_groups, 12u);

  // Spot-check Table 1 of the paper through the fused path.
  auto fused =
      ExecuteSharedScan(t, {target}, SharedScanOptions{}, nullptr);
  ASSERT_TRUE(fused.ok());
  const Table& by_store = (*fused)[0][0];
  int cambridge =
      ::seedb::testing::FindRowByKey(by_store, Value("Cambridge, MA"));
  ASSERT_GE(cambridge, 0);
  EXPECT_DOUBLE_EQ(
      by_store.ValueAt(cambridge, 1).ToDouble().ValueOrDie(), 180.55);
}

TEST(SharedScanTest, TinyTableManyQueryShapes) {
  Table t = MakeTinyTable();
  PredicatePtr sel(Eq("d", Value("a")));

  std::vector<GroupingSetsQuery> queries;
  {
    GroupingSetsQuery q;  // multi-set, multi-aggregate
    q.table = "t";
    q.grouping_sets = {{"d"}, {"e"}, {"d", "e"}};
    q.aggregates = {AggregateSpec::Make(AggregateFunction::kSum, "m1"),
                    AggregateSpec::Make(AggregateFunction::kAvg, "m2"),
                    AggregateSpec::Count("n")};
    queries.push_back(q);
  }
  {
    GroupingSetsQuery q;  // WHERE + FILTER mix
    q.table = "t";
    q.where = PredicatePtr(Gt("m1", Value(1.0)));
    q.grouping_sets = {{"e"}};
    q.aggregates = {
        AggregateSpec::Make(AggregateFunction::kSum, "m1", "tgt", sel),
        AggregateSpec::Make(AggregateFunction::kSum, "m1", "cmp")};
    queries.push_back(q);
  }
  {
    GroupingSetsQuery q;  // global aggregate (empty grouping set)
    q.table = "t";
    q.grouping_sets = {{}};
    q.aggregates = {AggregateSpec::Make(AggregateFunction::kMax, "m2")};
    queries.push_back(q);
  }
  ExpectParity(t, queries, SharedScanOptions{});
}

// Morsel boundaries and multi-threading must not change any result: force
// many tiny morsels over a synthetic table and sweep thread counts.
TEST(SharedScanTest, MorselAndThreadSweepParity) {
  data::SyntheticSpec spec = data::SyntheticSpec::Simple(
      /*rows=*/5000, /*num_dims=*/3, /*num_measures=*/2,
      /*cardinality=*/7, /*seed=*/11);
  auto dataset = data::GenerateSynthetic(spec).ValueOrDie();
  const Table& t = dataset.table;

  std::vector<GroupingSetsQuery> queries;
  {
    GroupingSetsQuery q;
    q.table = "synthetic";
    q.where = dataset.selection;
    q.grouping_sets = {{"dim1"}, {"dim2"}};
    q.aggregates = {AggregateSpec::Make(AggregateFunction::kSum, "m0"),
                    AggregateSpec::Make(AggregateFunction::kAvg, "m1")};
    queries.push_back(q);
  }
  {
    GroupingSetsQuery q;
    q.table = "synthetic";
    q.grouping_sets = {{"dim1", "dim2"}};
    q.aggregates = {AggregateSpec::Make(AggregateFunction::kMin, "m0")};
    queries.push_back(q);
  }

  for (size_t threads : {1, 2, 4}) {
    for (size_t morsel_rows : {64, 1024, 100000}) {
      SharedScanOptions options;
      options.num_threads = threads;
      options.morsel_rows = morsel_rows;
      SharedScanStats stats;
      ExpectParity(t, queries, options, &stats);
      EXPECT_EQ(stats.morsels, (t.num_rows() + morsel_rows - 1) / morsel_rows);
      EXPECT_LE(stats.threads_used, threads);
    }
  }
}

// A global aggregate whose WHERE matches nothing still yields its one group
// (COUNT = 0), exactly like ExecuteGroupingSets.
TEST(SharedScanTest, EmptySelectionGlobalAggregateKeepsItsGroup) {
  Table t = MakeTinyTable();
  GroupingSetsQuery q;
  q.table = "t";
  q.where = PredicatePtr(Eq("d", Value("no-such-value")));
  q.grouping_sets = {{}};
  q.aggregates = {AggregateSpec::Count("n")};
  ExpectParity(t, {q}, SharedScanOptions{});

  auto fused = ExecuteSharedScan(t, {q}, SharedScanOptions{});
  ASSERT_TRUE(fused.ok());
  ASSERT_EQ((*fused)[0][0].num_rows(), 1u);
  EXPECT_EQ((*fused)[0][0].ValueAt(0, 0), Value(0.0));
}

TEST(SharedScanTest, SamplingSharedAcrossQueries) {
  Table t = MakeTinyTable();
  GroupingSetsQuery a;
  a.table = "t";
  a.grouping_sets = {{"d"}};
  a.aggregates = {AggregateSpec::Count("n")};
  a.sample_fraction = 0.5;
  a.sample_seed = 3;
  GroupingSetsQuery b = a;
  b.grouping_sets = {{"e"}};
  ExpectParity(t, {a, b}, SharedScanOptions{});
}

TEST(SharedScanTest, ValidationErrors) {
  Table t = MakeTinyTable();
  SharedScanOptions options;
  EXPECT_FALSE(ExecuteSharedScan(t, {}, options).ok());

  GroupingSetsQuery q;
  q.table = "t";
  EXPECT_FALSE(ExecuteSharedScan(t, {q}, options).ok());  // no sets

  q.grouping_sets = {{"missing"}};
  q.aggregates = {AggregateSpec::Count()};
  EXPECT_FALSE(ExecuteSharedScan(t, {q}, options).ok());

  q.grouping_sets = {{"d"}};
  q.sample_fraction = 0.0;
  EXPECT_FALSE(ExecuteSharedScan(t, {q}, options).ok());

  // morsel_rows = 0 is NOT an error: it selects adaptive sizing.
  q.sample_fraction = 1.0;
  options.morsel_rows = 0;
  EXPECT_TRUE(ExecuteSharedScan(t, {q}, options).ok());
}

TEST(SharedScanTest, AdaptiveMorselRowsHasFloorAndCeiling) {
  // Small tables resolve to the floor: one morsel, no over-scheduling.
  EXPECT_EQ(AdaptiveMorselRows(0, 8), AdaptiveMorselRows(1, 8));
  EXPECT_EQ(AdaptiveMorselRows(5000, 8), AdaptiveMorselRows(1, 8));
  // Large tables cap at the ceiling so work stealing keeps granularity.
  EXPECT_EQ(AdaptiveMorselRows(100'000'000, 1), AdaptiveMorselRows(1u << 30, 1));
  // In between, more threads mean smaller morsels.
  EXPECT_LE(AdaptiveMorselRows(1'000'000, 8), AdaptiveMorselRows(1'000'000, 2));
  // Never zero (it is a divisor in the scan).
  EXPECT_GT(AdaptiveMorselRows(0, 0), 0u);
}

TEST(SharedScanTest, AdaptiveSizingCapsThreadsOnSmallTables) {
  Table t = MakeTinyTable();  // 6 rows
  GroupingSetsQuery q;
  q.table = "t";
  q.grouping_sets = {{"d"}};
  q.aggregates = {AggregateSpec::Count("n")};
  SharedScanOptions options;
  options.num_threads = 8;
  options.morsel_rows = 0;  // adaptive: 6 rows -> 1 morsel -> 1 thread
  SharedScanStats stats;
  ExpectParity(t, {q}, options, &stats);
  EXPECT_EQ(stats.morsels, 1u);
  EXPECT_EQ(stats.threads_used, 1u);
}

// --- Edge cases: degenerate tables and boundary alignment. ---

TEST(SharedScanTest, EmptyTableParity) {
  Table t(MakeTinyTable().schema());
  ASSERT_EQ(t.num_rows(), 0u);

  std::vector<GroupingSetsQuery> queries;
  {
    GroupingSetsQuery q;
    q.table = "t";
    q.grouping_sets = {{"d"}, {"d", "e"}};
    q.aggregates = {AggregateSpec::Make(AggregateFunction::kSum, "m1"),
                    AggregateSpec::Count("n")};
    queries.push_back(q);
  }
  {
    GroupingSetsQuery q;  // global aggregate keeps its one (empty) group
    q.table = "t";
    q.grouping_sets = {{}};
    q.aggregates = {AggregateSpec::Count("n")};
    queries.push_back(q);
  }
  SharedScanStats stats;
  ExpectParity(t, queries, SharedScanOptions{}, &stats);
  EXPECT_EQ(stats.rows_scanned, 0u);
  EXPECT_EQ(stats.morsels, 0u);
}

TEST(SharedScanTest, SingleRowTableParity) {
  Table t(MakeTinyTable().schema());
  ASSERT_TRUE(
      t.AppendRow({Value("a"), Value("x"), Value(1.5), Value(2.5)}).ok());

  GroupingSetsQuery q;
  q.table = "t";
  q.grouping_sets = {{"d"}, {"e"}, {}};
  q.aggregates = {AggregateSpec::Make(AggregateFunction::kAvg, "m1"),
                  AggregateSpec::Make(AggregateFunction::kMax, "m2")};
  for (size_t threads : {1, 4}) {
    SharedScanOptions options;
    options.num_threads = threads;
    SharedScanStats stats;
    ExpectParity(t, {q}, options, &stats);
    EXPECT_EQ(stats.rows_scanned, 1u);
  }
}

TEST(SharedScanTest, RowCountExactlyOnMorselBoundary) {
  data::SyntheticSpec spec = data::SyntheticSpec::Simple(
      /*rows=*/4096, /*num_dims=*/2, /*num_measures=*/1,
      /*cardinality=*/5, /*seed=*/7);
  auto dataset = data::GenerateSynthetic(spec).ValueOrDie();
  const Table& t = dataset.table;

  GroupingSetsQuery q;
  q.table = "synthetic";
  q.where = dataset.selection;
  q.grouping_sets = {{"dim1"}};
  q.aggregates = {AggregateSpec::Make(AggregateFunction::kSum, "m0")};

  SharedScanOptions options;
  options.num_threads = 4;
  options.morsel_rows = 1024;  // divides 4096 exactly: no ragged tail morsel
  SharedScanStats stats;
  ExpectParity(t, {q}, options, &stats);
  EXPECT_EQ(stats.morsels, 4u);
}

// --- Phased execution: SharedScanState slices must compose to the same
// answer as the one-shot pass, whatever the boundaries. ---

// Runs `queries` as explicit phases with the given boundaries and checks
// the final results match the one-shot fused pass exactly.
void ExpectPhasedParity(const Table& t,
                        const std::vector<GroupingSetsQuery>& queries,
                        const std::vector<size_t>& boundaries,
                        const SharedScanOptions& options) {
  auto state = SharedScanState::Create(t, queries, options);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  size_t begin = 0;
  for (size_t end : boundaries) {
    ASSERT_TRUE(state->RunPhase(begin, end).ok());
    begin = end;
  }
  ASSERT_TRUE(state->RunPhase(begin, t.num_rows()).ok());
  auto phased = state->FinalResults();
  ASSERT_TRUE(phased.ok()) << phased.status().ToString();

  SharedScanStats stats = state->stats();
  EXPECT_EQ(stats.phases, boundaries.size() + 1);

  auto one_shot = ExecuteSharedScan(t, queries, options);
  ASSERT_TRUE(one_shot.ok());
  ASSERT_EQ(phased->size(), one_shot->size());
  for (size_t q = 0; q < one_shot->size(); ++q) {
    ASSERT_EQ((*phased)[q].size(), (*one_shot)[q].size()) << "query " << q;
    for (size_t s = 0; s < (*one_shot)[q].size(); ++s) {
      ExpectTablesMatch((*phased)[q][s], (*one_shot)[q][s],
                        "query " + std::to_string(q) + " set " +
                            std::to_string(s));
    }
  }
}

TEST(SharedScanStateTest, PhasesComposeToOneShotResult) {
  data::SyntheticSpec spec = data::SyntheticSpec::Simple(
      /*rows=*/5000, /*num_dims=*/3, /*num_measures=*/2,
      /*cardinality=*/7, /*seed=*/11);
  auto dataset = data::GenerateSynthetic(spec).ValueOrDie();
  const Table& t = dataset.table;

  std::vector<GroupingSetsQuery> queries;
  {
    GroupingSetsQuery q;
    q.table = "synthetic";
    q.where = dataset.selection;
    q.grouping_sets = {{"dim1"}, {"dim2"}};
    q.aggregates = {AggregateSpec::Make(AggregateFunction::kSum, "m0"),
                    AggregateSpec::Make(AggregateFunction::kAvg, "m1")};
    queries.push_back(q);
  }
  {
    GroupingSetsQuery q;  // sampled query: mask must slice consistently
    q.table = "synthetic";
    q.grouping_sets = {{"dim0"}};
    q.aggregates = {AggregateSpec::Count("n")};
    q.sample_fraction = 0.5;
    q.sample_seed = 3;
    queries.push_back(q);
  }

  SharedScanOptions options;
  options.num_threads = 2;
  options.morsel_rows = 512;
  // Phase boundaries that do NOT divide the table evenly, including a
  // mid-morsel split, a tiny sliver, and an empty phase.
  ExpectPhasedParity(t, queries, {1, 1, 1700, 4999}, options);
  ExpectPhasedParity(t, queries, {2500}, options);
  ExpectPhasedParity(t, queries, {}, options);
}

TEST(SharedScanStateTest, PhasesMustBeContiguousAndForward) {
  Table t = MakeTinyTable();
  GroupingSetsQuery q;
  q.table = "t";
  q.grouping_sets = {{"d"}};
  q.aggregates = {AggregateSpec::Count("n")};
  auto state = SharedScanState::Create(t, {q}, SharedScanOptions{});
  ASSERT_TRUE(state.ok());

  EXPECT_FALSE(state->RunPhase(1, 3).ok());   // gap at the start
  ASSERT_TRUE(state->RunPhase(0, 3).ok());
  EXPECT_FALSE(state->RunPhase(0, 3).ok());   // re-scan
  EXPECT_FALSE(state->RunPhase(2, 5).ok());   // overlap
  EXPECT_FALSE(state->RunPhase(3, 99).ok());  // past the end
  ASSERT_TRUE(state->RunPhase(3, t.num_rows()).ok());

  ASSERT_TRUE(state->FinalResults().ok());
  EXPECT_FALSE(state->RunPhase(6, 6).ok());   // finalized
}

TEST(SharedScanStateTest, PartialResultsTrackRowsSeenSoFar) {
  Table t = MakeLaserwaveTable();  // 9 rows: 4 Laserwave then 5 Widget
  GroupingSetsQuery q;
  q.table = "sales";
  q.grouping_sets = {{"store"}};
  q.aggregates = {AggregateSpec::Make(AggregateFunction::kSum, "amount")};

  auto state = SharedScanState::Create(t, {q}, SharedScanOptions{});
  ASSERT_TRUE(state.ok());
  ASSERT_TRUE(state->RunPhase(0, 4).ok());  // the Laserwave rows only

  auto partial = state->PartialResults(0);
  ASSERT_TRUE(partial.ok());
  const Table& by_store = (*partial)[0];
  EXPECT_EQ(by_store.num_rows(), 4u);  // all 4 stores seen already
  int cambridge =
      ::seedb::testing::FindRowByKey(by_store, Value("Cambridge, MA"));
  ASSERT_GE(cambridge, 0);
  // Only the Laserwave Cambridge row so far (Widget's 1000.0 comes later).
  EXPECT_DOUBLE_EQ(
      by_store.ValueAt(cambridge, 1).ToDouble().ValueOrDie(), 180.55);

  ASSERT_TRUE(state->RunPhase(4, t.num_rows()).ok());
  auto full = state->FinalResults();
  ASSERT_TRUE(full.ok());
  cambridge = ::seedb::testing::FindRowByKey((*full)[0][0],
                                             Value("Cambridge, MA"));
  ASSERT_GE(cambridge, 0);
  EXPECT_DOUBLE_EQ(
      (*full)[0][0].ValueAt(cambridge, 1).ToDouble().ValueOrDie(), 1180.55);
}

TEST(SharedScanStateTest, DeactivatedQueryIsFrozenAndYieldsNoFinalTables) {
  Table t = MakeLaserwaveTable();
  GroupingSetsQuery by_store;
  by_store.table = "sales";
  by_store.grouping_sets = {{"store"}};
  by_store.aggregates = {
      AggregateSpec::Make(AggregateFunction::kSum, "amount")};
  GroupingSetsQuery by_product = by_store;
  by_product.grouping_sets = {{"product"}};

  auto state =
      SharedScanState::Create(t, {by_store, by_product}, SharedScanOptions{});
  ASSERT_TRUE(state.ok());
  ASSERT_TRUE(state->RunPhase(0, 4).ok());
  ASSERT_TRUE(state->DeactivateQuery(1).ok());
  EXPECT_FALSE(state->query_active(1));
  EXPECT_EQ(state->active_queries(), 1u);
  ASSERT_TRUE(state->RunPhase(4, t.num_rows()).ok());

  // The retired query's partials are frozen at the rows it saw.
  auto frozen = state->PartialResults(1);
  ASSERT_TRUE(frozen.ok());
  int laserwave =
      ::seedb::testing::FindRowByKey((*frozen)[0], Value("Laserwave"));
  ASSERT_GE(laserwave, 0);
  EXPECT_DOUBLE_EQ(
      (*frozen)[0].ValueAt(laserwave, 1).ToDouble().ValueOrDie(),
      180.55 + 145.50 + 122.00 + 90.13);

  auto final_results = state->FinalResults();
  ASSERT_TRUE(final_results.ok());
  EXPECT_EQ((*final_results)[0].size(), 1u);  // survivor materialized
  EXPECT_TRUE((*final_results)[1].empty());   // retired query: no tables

  // The survivor still matches an independent full scan.
  auto expected = ExecuteGroupingSets(t, by_store, nullptr);
  ASSERT_TRUE(expected.ok());
  ExpectTablesMatch((*final_results)[0][0], (*expected)[0], "survivor");
}

// The engine-level invariant the tentpole exists for: a fused batch is ONE
// table scan however many queries ride in it.
TEST(SharedScanTest, EngineCountsOneScanPerBatch) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("sales", MakeLaserwaveTable()).ok());
  Engine engine(&catalog);

  std::vector<GroupingSetsQuery> queries;
  for (int i = 0; i < 5; ++i) {
    GroupingSetsQuery q;
    q.table = "sales";
    q.grouping_sets = {{"store"}};
    q.aggregates = {AggregateSpec::Make(AggregateFunction::kSum, "amount")};
    if (i % 2 == 0) q.where = PredicatePtr(Eq("product", Value("Laserwave")));
    queries.push_back(q);
  }

  auto results = engine.ExecuteShared(queries);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 5u);

  EngineStatsSnapshot stats = engine.stats();
  EXPECT_EQ(stats.queries_executed, 5u);
  EXPECT_EQ(stats.table_scans, 1u);
  EXPECT_EQ(stats.shared_scan_batches, 1u);
  EXPECT_EQ(stats.rows_scanned, 9u);

  // Mixed-table batches are rejected.
  GroupingSetsQuery other = queries[0];
  other.table = "elsewhere";
  queries.push_back(other);
  EXPECT_FALSE(engine.ExecuteShared(queries).ok());
}

// --- Cooperative cancellation (observed at morsel boundaries). ---

TEST(SharedScanStateTest, CancelTokenStopsPhaseAtMorselGranularity) {
  data::SyntheticSpec spec = data::SyntheticSpec::Simple(5000, 2, 1, 4, 11);
  auto dataset = data::GenerateSynthetic(spec).ValueOrDie();
  Table t = std::move(dataset.table);

  GroupingSetsQuery q;
  q.table = "synthetic";
  q.grouping_sets = {{"dim0"}};
  q.aggregates = {AggregateSpec::Make(AggregateFunction::kSum, "m0")};

  std::atomic<bool> cancel{false};
  SharedScanOptions options;
  options.num_threads = 1;
  options.morsel_rows = 512;
  options.cancel = &cancel;

  auto state = SharedScanState::Create(t, {q}, options);
  ASSERT_TRUE(state.ok());
  ASSERT_TRUE(state->RunPhase(0, 2000).ok());
  EXPECT_FALSE(state->cancelled());

  // A token already set when the phase starts stops it before any morsel.
  cancel.store(true);
  ASSERT_TRUE(state->RunPhase(2000, t.num_rows()).ok());
  EXPECT_TRUE(state->cancelled());
  EXPECT_EQ(state->rows_consumed(), 2000u);  // nothing new was covered
  EXPECT_EQ(state->stats().morsels, 4u);     // phase 1's morsels only

  // A cancelled scan refuses further phases but still materializes what it
  // saw — and the partial equals an honest scan of the first phase's rows.
  EXPECT_FALSE(state->RunPhase(2000, t.num_rows()).ok());
  auto final_results = state->FinalResults();
  ASSERT_TRUE(final_results.ok());

  auto prefix = SharedScanState::Create(t, {q}, SharedScanOptions{});
  ASSERT_TRUE(prefix.ok());
  ASSERT_TRUE(prefix->RunPhase(0, 2000).ok());
  auto expected = prefix->PartialResults(0);
  ASSERT_TRUE(expected.ok());
  ExpectTablesMatch((*final_results)[0][0], (*expected)[0], "cancelled");
}

// A cancelled scan is not dead: ResumeAfterCancel() scans exactly the
// morsels the cancel skipped, and the final results equal an uninterrupted
// scan's bit for bit (single worker: same accumulation order).
TEST(SharedScanStateTest, ResumeAfterCancelCompletesExactly) {
  data::SyntheticSpec spec = data::SyntheticSpec::Simple(5000, 2, 1, 4, 11);
  auto dataset = data::GenerateSynthetic(spec).ValueOrDie();
  Table t = std::move(dataset.table);

  GroupingSetsQuery q;
  q.table = "synthetic";
  q.grouping_sets = {{"dim0"}};
  q.aggregates = {AggregateSpec::Make(AggregateFunction::kSum, "m0")};

  std::atomic<bool> cancel{false};
  SharedScanOptions options;
  options.num_threads = 1;
  options.morsel_rows = 512;
  options.cancel = &cancel;

  auto state = SharedScanState::Create(t, {q}, options);
  ASSERT_TRUE(state.ok());
  // Resume without a cancellation is refused.
  EXPECT_FALSE(state->ResumeAfterCancel().ok());

  ASSERT_TRUE(state->RunPhase(0, 2000).ok());
  cancel.store(true);
  ASSERT_TRUE(state->RunPhase(2000, t.num_rows()).ok());
  ASSERT_TRUE(state->cancelled());
  EXPECT_EQ(state->rows_consumed(), 2000u);

  // A resume with the token STILL SET cancels itself again — the pending
  // record survives for the next attempt.
  ASSERT_TRUE(state->ResumeAfterCancel().ok());
  EXPECT_TRUE(state->cancelled());

  cancel.store(false);
  ASSERT_TRUE(state->ResumeAfterCancel().ok());
  EXPECT_FALSE(state->cancelled());
  EXPECT_EQ(state->rows_consumed(), t.num_rows());
  EXPECT_EQ(state->stats().rows_scanned, t.num_rows());

  auto resumed = state->FinalResults();
  ASSERT_TRUE(resumed.ok());

  // Identical to a never-cancelled scan — morsel for morsel.
  SharedScanOptions clean;
  clean.num_threads = 1;
  clean.morsel_rows = 512;
  auto baseline = ExecuteSharedScan(t, {q}, clean);
  ASSERT_TRUE(baseline.ok());
  ExpectTablesMatch((*resumed)[0][0], (*baseline)[0][0], "resumed");
}

// Cancel landing mid-phase (some morsels done): the resume covers the
// complement only, so every row is aggregated exactly once. Driven with
// threads so the completed set is a nondeterministic non-prefix subset —
// parity with the per-query baseline is the invariant.
TEST(SharedScanStateTest, ThreadedCancelThenResumeKeepsParity) {
  data::SyntheticSpec spec = data::SyntheticSpec::Simple(20000, 2, 1, 6, 3);
  auto dataset = data::GenerateSynthetic(spec).ValueOrDie();
  Table t = std::move(dataset.table);

  GroupingSetsQuery q;
  q.table = "synthetic";
  q.grouping_sets = {{"dim0"}, {"dim1"}};
  q.aggregates = {AggregateSpec::Make(AggregateFunction::kSum, "m0"),
                  AggregateSpec::Make(AggregateFunction::kCount, "")};

  std::atomic<bool> cancel{false};
  SharedScanOptions options;
  options.num_threads = 4;
  options.morsel_rows = 256;
  options.cancel = &cancel;

  auto state = SharedScanState::Create(t, {q}, options);
  ASSERT_TRUE(state.ok());

  // Fire the cancel from another thread while the phase runs; wherever it
  // lands (possibly after the phase completed), resume + finish must agree
  // with the uninterrupted result.
  std::thread canceller([&cancel] { cancel.store(true); });
  ASSERT_TRUE(state->RunPhase(0, t.num_rows()).ok());
  canceller.join();
  if (state->cancelled()) {
    cancel.store(false);
    ASSERT_TRUE(state->ResumeAfterCancel().ok());
  }
  ASSERT_FALSE(state->cancelled());
  EXPECT_EQ(state->rows_consumed(), t.num_rows());

  auto resumed = state->FinalResults();
  ASSERT_TRUE(resumed.ok());
  auto expected = ExecuteGroupingSets(t, q, nullptr);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ((*resumed)[0].size(), expected->size());
  for (size_t s = 0; s < expected->size(); ++s) {
    ExpectTablesMatch((*resumed)[0][s], (*expected)[s],
                      "set " + std::to_string(s));
  }
}

// --- Per-phase adaptive morsel sizing. ---

TEST(SharedScanStateTest, AdaptiveMorselsCoarsenAsQueriesRetire) {
  data::SyntheticSpec spec = data::SyntheticSpec::Simple(40000, 4, 2, 8, 5);
  auto dataset = data::GenerateSynthetic(spec).ValueOrDie();
  Table t = std::move(dataset.table);

  // Eight single-dimension queries riding one scan.
  std::vector<GroupingSetsQuery> queries;
  for (int d = 0; d < 4; ++d) {
    for (int m = 0; m < 2; ++m) {
      GroupingSetsQuery q;
      q.table = "synthetic";
      q.grouping_sets = {{"dim" + std::to_string(d)}};
      q.aggregates = {AggregateSpec::Make(AggregateFunction::kSum,
                                          "m" + std::to_string(m))};
      queries.push_back(q);
    }
  }

  SharedScanOptions options;
  options.num_threads = 2;
  options.morsel_rows = 0;  // adaptive

  auto state = SharedScanState::Create(t, queries, options);
  ASSERT_TRUE(state.ok());
  ASSERT_TRUE(state->RunPhase(0, 20000).ok());
  const size_t full_batch_morsel = state->stats().last_phase_morsel_rows;
  EXPECT_GT(full_batch_morsel, 0u);

  // Retire 7 of 8 queries: the same-sized next phase takes coarser morsels
  // (same rows, an eighth of the per-row work — no point over-scheduling).
  for (size_t q = 1; q < queries.size(); ++q) {
    ASSERT_TRUE(state->DeactivateQuery(q).ok());
  }
  ASSERT_TRUE(state->RunPhase(20000, 40000).ok());
  EXPECT_GT(state->stats().last_phase_morsel_rows, full_batch_morsel);

  // The survivor still matches an independent full scan.
  auto final_results = state->FinalResults();
  ASSERT_TRUE(final_results.ok());
  auto expected = ExecuteGroupingSets(t, queries[0], nullptr);
  ASSERT_TRUE(expected.ok());
  ExpectTablesMatch((*final_results)[0][0], (*expected)[0], "survivor");
}

// --- Per-(set, aggregate) retirement. ---

// Column `col` of `got` equals `want`'s bit for bit (doubles compared with
// ==, not near: live aggregates must accumulate exactly as before).
void ExpectColumnIdentical(const Table& got, const Table& want, size_t col,
                           const std::string& label) {
  ASSERT_EQ(got.num_rows(), want.num_rows()) << label;
  for (size_t r = 0; r < got.num_rows(); ++r) {
    EXPECT_EQ(got.ValueAt(r, 0), want.ValueAt(r, 0)) << label << " key " << r;
    EXPECT_EQ(got.ValueAt(r, col), want.ValueAt(r, col))
        << label << " row " << r;
  }
}

class AggregateRetirementTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    auto dataset = data::GenerateSynthetic(
        data::SyntheticSpec::Simple(8000, 3, 2, 6, 17));
    ASSERT_TRUE(dataset.ok());
    table_ = std::make_unique<Table>(std::move(dataset->table));
    query_.table = "synthetic";
    query_.grouping_sets = {{"dim0"}, {"dim1"}, {"dim2"}};
    query_.aggregates = {AggregateSpec::Make(AggregateFunction::kSum, "m0"),
                         AggregateSpec::Count("n"),
                         AggregateSpec::Make(AggregateFunction::kSum, "m1"),
                         AggregateSpec::Make(AggregateFunction::kMax, "m0")};
    options_.num_threads = 1;
    options_.morsel_rows = 512;
    options_.enable_vectorized = GetParam();
  }

  // Runs the three phases [0, 3000), [3000, 6000), [6000, 8000); `retire`
  // runs after the first.
  template <typename Retire>
  SharedScanState Scan(const SharedScanOptions& options, Retire retire) {
    auto state = SharedScanState::Create(*table_, {query_}, options);
    EXPECT_TRUE(state.ok()) << state.status();
    EXPECT_TRUE(state->RunPhase(0, 3000).ok());
    retire(&*state);
    EXPECT_TRUE(state->RunPhase(3000, 6000).ok());
    EXPECT_TRUE(state->RunPhase(6000, table_->num_rows()).ok());
    return std::move(*state);
  }

  std::unique_ptr<Table> table_;
  GroupingSetsQuery query_;
  SharedScanOptions options_;
};

// Retiring (set 1, aggregate 0) freezes exactly that state; retiring every
// aggregate of set 2 drops the set from the scan and leaves an empty
// placeholder; everything else is bit-identical to an unretired scan.
TEST_P(AggregateRetirementTest, RetiredStateFreezesAndLiveStateIsUntouched) {
  SharedScanState baseline = Scan(options_, [](SharedScanState*) {});
  auto expected = baseline.FinalResults();
  ASSERT_TRUE(expected.ok());

  std::vector<Table> at_retirement;
  SharedScanState retired = Scan(options_, [&](SharedScanState* state) {
    at_retirement = state->PartialResults(0).ValueOrDie();
    ASSERT_TRUE(state->RetireAggregate(0, 1, 0).ok());
    ASSERT_TRUE(state->RetireAggregate(0, 1, 0).ok());  // idempotent
    for (size_t j = 0; j < 4; ++j) {
      ASSERT_TRUE(state->RetireAggregate(0, 2, j).ok());
    }
    EXPECT_FALSE(state->RetireAggregate(0, 3, 0).ok());
    EXPECT_FALSE(state->RetireAggregate(0, 0, 4).ok());
    EXPECT_TRUE(state->query_active(0));
  });

  auto partial = retired.PartialResults(0);
  ASSERT_TRUE(partial.ok());
  ASSERT_EQ(partial->size(), 3u);
  EXPECT_EQ((*partial)[2].num_columns(), 0u);  // dead set: placeholder
  auto final_results = retired.FinalResults();
  ASSERT_TRUE(final_results.ok());
  ASSERT_EQ((*final_results)[0].size(), 3u);
  const std::vector<Table>& got = (*final_results)[0];
  EXPECT_EQ(got[2].num_columns(), 0u);
  EXPECT_EQ(got[2].num_rows(), 0u);

  // Set 0 never lost an aggregate.
  for (size_t col = 1; col <= 4; ++col) {
    ExpectColumnIdentical(got[0], (*expected)[0][0], col, "set 0");
  }
  // Set 1: aggregate 0 (column 1) is frozen at the first phase's rows...
  ExpectColumnIdentical(got[1], at_retirement[1], 1, "frozen");
  // ...and really did stop: the unretired scan kept adding to it.
  bool moved = false;
  for (size_t r = 0; r < got[1].num_rows(); ++r) {
    moved |= !(got[1].ValueAt(r, 1) == (*expected)[0][1].ValueAt(r, 1));
  }
  EXPECT_TRUE(moved);
  // ...while its other aggregates match the unretired scan bit for bit.
  for (size_t col = 2; col <= 4; ++col) {
    ExpectColumnIdentical(got[1], (*expected)[0][1], col, "set 1 live");
  }
}

// Only (query, set) pairs whose every aggregate stayed live are published;
// a later scan over the same cache adopts those and re-scans the rest.
TEST_P(AggregateRetirementTest, PublishesOnlyFullyLiveSets) {
  PartialAggCache cache(64 * 1024 * 1024);
  SharedScanOptions cached = options_;
  cached.cache = &cache;
  SharedScanState first = Scan(cached, [](SharedScanState* state) {
    ASSERT_TRUE(state->RetireAggregate(0, 1, 3).ok());
    for (size_t j = 0; j < 4; ++j) {
      ASSERT_TRUE(state->RetireAggregate(0, 2, j).ok());
    }
  });
  EXPECT_EQ(first.stats().cache_misses, 3u);
  ASSERT_TRUE(first.FinalResults().ok());

  SharedScanState second = Scan(cached, [](SharedScanState*) {});
  EXPECT_EQ(second.stats().cache_hits, 1u);    // set 0
  EXPECT_EQ(second.stats().cache_misses, 2u);  // sets 1 and 2
  auto warm = second.FinalResults();
  ASSERT_TRUE(warm.ok());

  SharedScanState baseline = Scan(options_, [](SharedScanState*) {});
  auto cold = baseline.FinalResults();
  ASSERT_TRUE(cold.ok());
  for (size_t set = 0; set < 3; ++set) {
    for (size_t col = 1; col <= 4; ++col) {
      ExpectColumnIdentical((*warm)[0][set], (*cold)[0][set], col,
                            "set " + std::to_string(set));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(VectorizedOnOff, AggregateRetirementTest,
                         ::testing::Bool());

}  // namespace
}  // namespace seedb::db
