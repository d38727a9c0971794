// Accumulator sharing in the fused scan: every aggregate of a query over the
// same (input column, FILTER) pair reads one AggState array, and a FILTER'd
// accumulator runs over its filter's selection instead of testing the
// filter byte per row. None of that may show in a result: these tests pin
// the fused scan bit for bit against ExecuteGroupingSets and against the
// same plan split one aggregate per query, through retirement, cancel ->
// resume and the result cache, and pin the memory it no longer holds.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/seedb.h"
#include "core/session.h"
#include "data/synthetic.h"
#include "db/catalog.h"
#include "db/engine.h"
#include "db/grouping_sets.h"
#include "db/predicate.h"
#include "db/scan_cache.h"
#include "db/shared_scan.h"
#include "util/random.h"

namespace seedb::db {
namespace {

constexpr size_t kRows = 3000;

// Two dictionary dimensions (vectorized sets), one int64 grouping column
// (hash sets), an int64 measure and a double measure with nulls, and a
// double measure with -0.0 / +0.0 cells.
Table MakeTable() {
  Schema schema({
      ColumnDef::Dimension("d0"),
      ColumnDef::Dimension("d1"),
      ColumnDef::Dimension("n0", ValueType::kInt64),
      ColumnDef::Measure("mi", ValueType::kInt64),
      ColumnDef::Measure("md"),
      ColumnDef::Measure("mz"),
  });
  Table table(schema);
  Random rng(7);
  const char* d0[] = {"a", "b", "c", "d", "e"};
  const char* d1[] = {"p", "q", "r", "s", "t", "u", "v"};
  for (size_t i = 0; i < kRows; ++i) {
    Value mi = rng.Uniform(9) == 0 ? Value::Null()
                                   : Value(rng.UniformInt(-500, 500));
    Value md = rng.Uniform(7) == 0 ? Value::Null()
                                   : Value(rng.UniformDouble(-50.0, 250.0));
    Value mz = rng.Uniform(2) == 0 ? Value(-0.0) : Value(0.0);
    Status s = table.AppendRow({Value(d0[rng.Uniform(5)]),
                                Value(d1[rng.Uniform(7)]),
                                Value(rng.UniformInt(0, 11)), mi, md, mz});
    EXPECT_TRUE(s.ok()) << s;
  }
  return table;
}

PredicatePtr Cmp(const std::string& col, CompareOp op, Value literal) {
  return std::make_shared<ComparisonPredicate>(col, op, std::move(literal));
}

// Every function over every measure, in the order `funcs` lists them, with
// and without one FILTER, plus COUNT(*) with and without it: the fused scan
// folds these 32 aggregates into 8 accumulators.
std::vector<AggregateSpec> AllFunctions(
    const PredicatePtr& filter,
    const std::vector<AggregateFunction>& funcs = {
        AggregateFunction::kSum, AggregateFunction::kAvg,
        AggregateFunction::kCount, AggregateFunction::kMin,
        AggregateFunction::kMax}) {
  std::vector<AggregateSpec> aggs;
  for (const char* m : {"mi", "md", "mz"}) {
    for (AggregateFunction f : funcs) {
      const std::string name = std::string(AggregateFunctionToSql(f)) + m;
      aggs.push_back(AggregateSpec::Make(f, m, name + "_t", filter));
      aggs.push_back(AggregateSpec::Make(f, m, name + "_c"));
    }
  }
  AggregateSpec star_t = AggregateSpec::Count("n_t");
  star_t.filter = filter;
  aggs.push_back(star_t);
  aggs.push_back(AggregateSpec::Count("n_c"));
  return aggs;
}
constexpr size_t kAccumulators = 8;  // 3 measures x 2 halves + COUNT(*) x 2

// Plans covering the combined shape (FILTER, no WHERE), WHERE plus FILTER
// (both a fusable compare and a byte-mask filter), and sampling; each over
// vectorized sets, hash sets and the global set. COUNT both leads and
// trails the aggregates of an accumulator in some plan, so whether an
// accumulator runs only the count kernel must depend on all of them.
std::vector<GroupingSetsQuery> MakePlan() {
  const PredicatePtr target = Cmp("d0", CompareOp::kEq, Value("b"));
  const std::vector<std::vector<std::string>> sets = {
      {"d0"}, {"d1"}, {"d0", "d1"}, {"n0"}, {}};
  std::vector<GroupingSetsQuery> plan(4);
  for (GroupingSetsQuery& q : plan) {
    q.table = "t";
    q.grouping_sets = sets;
    q.aggregates = AllFunctions(target);
  }
  plan[1].where = Cmp("md", CompareOp::kGt, Value(20.0));
  plan[1].aggregates = AllFunctions(
      target, {AggregateFunction::kCount, AggregateFunction::kMin,
               AggregateFunction::kMax, AggregateFunction::kAvg,
               AggregateFunction::kSum});
  plan[2].where = Cmp("d1", CompareOp::kNe, Value("q"));
  plan[2].sample_fraction = 0.6;
  plan[2].sample_seed = 11;
  plan[2].aggregates = AllFunctions(
      target, {AggregateFunction::kSum, AggregateFunction::kAvg,
               AggregateFunction::kMin, AggregateFunction::kMax,
               AggregateFunction::kCount});
  plan[3].where = Cmp("mi", CompareOp::kLt, Value(100));
  plan[3].aggregates = AllFunctions(Cmp("md", CompareOp::kGe, Value(0.0)));
  return plan;
}

// Bit-level equality of two result tables, doubles included (-0.0 != +0.0).
void ExpectSameBits(const Table& got, const Table& want,
                    const std::string& label) {
  ASSERT_EQ(got.num_rows(), want.num_rows()) << label;
  ASSERT_EQ(got.num_columns(), want.num_columns()) << label;
  for (size_t r = 0; r < got.num_rows(); ++r) {
    for (size_t c = 0; c < got.num_columns(); ++c) {
      const Value g = got.ValueAt(r, c);
      const Value w = want.ValueAt(r, c);
      ASSERT_EQ(g.type(), w.type()) << label;
      if (g.type() == ValueType::kDouble) {
        const double gd = g.AsDouble();
        const double wd = w.AsDouble();
        EXPECT_EQ(std::memcmp(&gd, &wd, sizeof(double)), 0)
            << label << " row " << r << " col " << c << ": " << gd
            << " vs " << wd;
      } else {
        EXPECT_EQ(g, w) << label << " row " << r << " col " << c;
      }
    }
  }
}

// Column `col` of `got` against column `want_col` of `want`, keys included.
void ExpectColumnBits(const Table& got, size_t col, const Table& want,
                      size_t want_col, size_t key_cols,
                      const std::string& label) {
  ASSERT_EQ(got.num_rows(), want.num_rows()) << label;
  for (size_t r = 0; r < got.num_rows(); ++r) {
    for (size_t k = 0; k < key_cols; ++k) {
      EXPECT_EQ(got.ValueAt(r, k), want.ValueAt(r, k)) << label;
    }
    const double g = got.ValueAt(r, col).AsDouble();
    const double w = want.ValueAt(r, want_col).AsDouble();
    EXPECT_EQ(std::memcmp(&g, &w, sizeof(double)), 0)
        << label << " row " << r << ": " << g << " vs " << w;
  }
}

SharedScanOptions OneThread(bool vectorized) {
  SharedScanOptions options;
  options.num_threads = 1;
  options.morsel_rows = 256;
  options.enable_vectorized = vectorized;
  return options;
}

// Runs `queries` over `phases` equal phases and returns the final results.
std::vector<std::vector<Table>> RunPhases(
    const Table& table, const std::vector<GroupingSetsQuery>& queries,
    const SharedScanOptions& options, size_t phases,
    SharedScanStats* stats = nullptr) {
  auto state = SharedScanState::Create(table, queries, options);
  EXPECT_TRUE(state.ok()) << state.status();
  const size_t n = table.num_rows();
  for (size_t p = 0; p < phases; ++p) {
    EXPECT_TRUE(state->RunPhase(n * p / phases, n * (p + 1) / phases).ok());
  }
  auto results = state->FinalResults();
  EXPECT_TRUE(results.ok()) << results.status();
  if (stats != nullptr) *stats = state->stats();
  return std::move(*results);
}

class AccumulatorSharingTest : public ::testing::TestWithParam<bool> {
 protected:
  AccumulatorSharingTest() : table_(MakeTable()), plan_(MakePlan()) {}
  Table table_;
  std::vector<GroupingSetsQuery> plan_;
};

// One thread, one phase: every cell equals the per-query oracle bit for bit.
TEST_P(AccumulatorSharingTest, FusedEqualsPerQueryOracleBitForBit) {
  SharedScanStats stats;
  const auto fused = RunPhases(table_, plan_, OneThread(GetParam()), 1, &stats);
  EXPECT_EQ(stats.vectorized_morsels > 0, GetParam());
  ASSERT_EQ(fused.size(), plan_.size());
  for (size_t q = 0; q < plan_.size(); ++q) {
    auto oracle = ExecuteGroupingSets(table_, plan_[q], nullptr);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    ASSERT_EQ(fused[q].size(), oracle->size());
    for (size_t s = 0; s < oracle->size(); ++s) {
      ExpectSameBits(fused[q][s], (*oracle)[s],
                     "query " + std::to_string(q) + " set " +
                         std::to_string(s));
    }
  }
}

// One phase and several: the fused plan equals the same plan split into one
// query per aggregate (no sharing possible) bit for bit.
TEST_P(AccumulatorSharingTest, FusedEqualsOneAggregatePerQuery) {
  std::vector<GroupingSetsQuery> split;
  std::vector<std::pair<size_t, size_t>> origin;  // (query, aggregate)
  for (size_t q = 0; q < plan_.size(); ++q) {
    for (size_t j = 0; j < plan_[q].aggregates.size(); ++j) {
      GroupingSetsQuery one = plan_[q];
      one.aggregates = {plan_[q].aggregates[j]};
      split.push_back(std::move(one));
      origin.emplace_back(q, j);
    }
  }
  for (size_t phases : {size_t{1}, size_t{5}}) {
    SharedScanStats fused_stats;
    SharedScanStats split_stats;
    const auto fused =
        RunPhases(table_, plan_, OneThread(GetParam()), phases, &fused_stats);
    const auto alone =
        RunPhases(table_, split, OneThread(GetParam()), phases, &split_stats);
    for (size_t i = 0; i < split.size(); ++i) {
      const auto [q, j] = origin[i];
      for (size_t s = 0; s < plan_[q].grouping_sets.size(); ++s) {
        const size_t keys = plan_[q].grouping_sets[s].size();
        ExpectColumnBits(fused[q][s], keys + j, alone[i][s], keys, keys,
                         "phases " + std::to_string(phases) + " query " +
                             std::to_string(q) + " agg " + std::to_string(j) +
                             " set " + std::to_string(s));
      }
    }
    // The split plan holds one accumulator per aggregate, the fused plan
    // one per (input, FILTER) pair.
    EXPECT_EQ(fused_stats.agg_state_bytes,
              fused_stats.total_groups * kAccumulators * sizeof(AggState));
    EXPECT_EQ(split_stats.agg_state_bytes,
              split_stats.total_groups * sizeof(AggState));
  }
}

// SUM(md) FILTER (10), AVG(md) FILTER (12), COUNT(md) FILTER (14), MIN
// and MAX share accumulator (md, target); indices follow AllFunctions.
constexpr size_t kSumMdT = 10;
constexpr size_t kCountMdT = 14;

// Retiring SUM while AVG and COUNT on the same set and FILTER stay live:
// SUM freezes at its retirement, everything else stays bit-identical to an
// unretired scan, and the snapshot is the only extra state held.
TEST_P(AccumulatorSharingTest, RetiredAggregateFreezesWhileItsAccumulatorRuns) {
  const std::vector<GroupingSetsQuery> plan = {plan_[0]};
  const SharedScanOptions options = OneThread(GetParam());
  SharedScanStats plain_stats;
  const auto plain = RunPhases(table_, plan, options, 3, &plain_stats);

  auto state = SharedScanState::Create(table_, plan, options);
  ASSERT_TRUE(state.ok()) << state.status();
  const size_t n = table_.num_rows();
  ASSERT_TRUE(state->RunPhase(0, n / 3).ok());
  const std::vector<Table> at_retirement =
      state->PartialResults(0).ValueOrDie();
  for (size_t s = 0; s < plan[0].grouping_sets.size(); ++s) {
    ASSERT_TRUE(state->RetireAggregate(0, s, kSumMdT).ok());
  }
  ASSERT_TRUE(state->RunPhase(n / 3, 2 * n / 3).ok());
  ASSERT_TRUE(state->RunPhase(2 * n / 3, n).ok());
  const SharedScanStats stats = state->stats();
  const auto got = state->FinalResults().ValueOrDie();

  size_t moved = 0;
  for (size_t s = 0; s < plan[0].grouping_sets.size(); ++s) {
    const size_t keys = plan[0].grouping_sets[s].size();
    const std::string label = "set " + std::to_string(s);
    ExpectColumnBits(got[0][s], keys + kSumMdT, at_retirement[s],
                     keys + kSumMdT, keys, label + " frozen SUM");
    for (size_t j = 0; j < plan[0].aggregates.size(); ++j) {
      if (j == kSumMdT) continue;
      ExpectColumnBits(got[0][s], keys + j, plain[0][s], keys + j, keys,
                       label + " agg " + std::to_string(j));
    }
    for (size_t r = 0; r < got[0][s].num_rows(); ++r) {
      moved += got[0][s].ValueAt(r, keys + kSumMdT) !=
               plain[0][s].ValueAt(r, keys + kSumMdT);
    }
  }
  EXPECT_GT(moved, 0u) << "the unretired scan kept adding to SUM";
  // One snapshot per set, each as wide as its groups.
  EXPECT_EQ(stats.agg_state_bytes,
            plain_stats.agg_state_bytes +
                plain_stats.total_groups * sizeof(AggState));
}

// Retiring every aggregate of an accumulator at one boundary — one by one
// or through DeactivateQuery — stops it without copying anything.
TEST_P(AccumulatorSharingTest, AccumulatorRetiredWholeNeedsNoSnapshot) {
  const std::vector<GroupingSetsQuery> plan = {plan_[0], plan_[1]};
  auto state = SharedScanState::Create(table_, plan, OneThread(GetParam()));
  ASSERT_TRUE(state.ok()) << state.status();
  const size_t n = table_.num_rows();
  ASSERT_TRUE(state->RunPhase(0, n / 2).ok());
  for (size_t j = kSumMdT; j <= kSumMdT + 8; j += 2) {  // all five md FILTERs
    ASSERT_TRUE(state->RetireAggregate(0, 0, j).ok());
  }
  ASSERT_TRUE(state->DeactivateQuery(1).ok());
  ASSERT_TRUE(state->RunPhase(n / 2, n).ok());
  const SharedScanStats stats = state->stats();
  EXPECT_EQ(stats.agg_state_bytes,
            stats.total_groups * kAccumulators * sizeof(AggState));
}

// Cancel -> resume after a shared-accumulator retirement equals the
// uninterrupted run bit for bit.
TEST_P(AccumulatorSharingTest, CancelResumeAfterRetirementEqualsUninterrupted) {
  const std::vector<GroupingSetsQuery> plan = {plan_[0], plan_[2]};
  std::atomic<bool> cancel{false};
  SharedScanOptions options = OneThread(GetParam());
  options.cancel = &cancel;
  const size_t n = table_.num_rows();
  auto retire = [&](SharedScanState* state) {
    for (size_t q = 0; q < plan.size(); ++q) {
      ASSERT_TRUE(state->RetireAggregate(q, 0, kSumMdT).ok());
      ASSERT_TRUE(state->RetireAggregate(q, 3, kCountMdT).ok());
    }
  };

  auto straight = SharedScanState::Create(table_, plan, options);
  ASSERT_TRUE(straight.ok());
  ASSERT_TRUE(straight->RunPhase(0, n / 3).ok());
  retire(&*straight);
  ASSERT_TRUE(straight->RunPhase(n / 3, 2 * n / 3).ok());
  ASSERT_TRUE(straight->RunPhase(2 * n / 3, n).ok());
  const auto want = straight->FinalResults().ValueOrDie();

  auto state = SharedScanState::Create(table_, plan, options);
  ASSERT_TRUE(state.ok());
  ASSERT_TRUE(state->RunPhase(0, n / 3).ok());
  retire(&*state);
  cancel.store(true);
  ASSERT_TRUE(state->RunPhase(n / 3, 2 * n / 3).ok());
  ASSERT_TRUE(state->cancelled());
  cancel.store(false);
  ASSERT_TRUE(state->ResumeAfterCancel().ok());
  ASSERT_TRUE(state->RunPhase(2 * n / 3, n).ok());
  const auto got = state->FinalResults().ValueOrDie();
  for (size_t q = 0; q < plan.size(); ++q) {
    for (size_t s = 0; s < got[q].size(); ++s) {
      ExpectSameBits(got[q][s], want[q][s],
                     "query " + std::to_string(q) + " set " +
                         std::to_string(s));
    }
  }
}

// A warm run adopts every entry and equals the cold run bit for bit; each
// entry holds one state array per accumulator, not per aggregate.
TEST_P(AccumulatorSharingTest, CacheEntriesHoldAccumulators) {
  PartialAggCache cache(64u << 20);
  SharedScanOptions options = OneThread(GetParam());
  options.cache = &cache;
  options.table_version = 3;
  // Entries are admitted on their key's second miss: one warm-up run first.
  RunPhases(table_, plan_, options, 1);
  SharedScanStats cold_stats;
  const auto cold = RunPhases(table_, plan_, options, 1, &cold_stats);

  size_t pairs = 0;
  size_t bytes = 0;
  for (size_t q = 0; q < plan_.size(); ++q) {
    for (size_t s = 0; s < plan_[q].grouping_sets.size(); ++s) {
      const size_t groups = cold[q][s].num_rows();
      bytes += groups * sizeof(uint32_t) +
               PartialAggCacheKey(table_, 3, plan_[q], s).size() +
               groups * kAccumulators * sizeof(AggState);
      ++pairs;
    }
  }
  EXPECT_EQ(cold_stats.cache_misses, pairs);
  EXPECT_EQ(cache.stats().entries, pairs);
  EXPECT_EQ(cache.stats().bytes, bytes);

  SharedScanStats warm_stats;
  const auto warm = RunPhases(table_, plan_, options, 1, &warm_stats);
  EXPECT_EQ(warm_stats.cache_hits, pairs);
  EXPECT_EQ(warm_stats.rows_scanned, 0u);
  for (size_t q = 0; q < plan_.size(); ++q) {
    for (size_t s = 0; s < plan_[q].grouping_sets.size(); ++s) {
      ExpectSameBits(warm[q][s], cold[q][s],
                     "query " + std::to_string(q) + " set " +
                         std::to_string(s));
    }
  }
}

// The cache key leaves functions out, so COUNT(md) and SUM(md) plans share
// a key; a COUNT-only accumulator holds no sum, so the SUM plan must not
// adopt it.
TEST_P(AccumulatorSharingTest, CountOnlyEntryIsNotAdoptedBySum) {
  const PredicatePtr target = Cmp("d0", CompareOp::kEq, Value("b"));
  GroupingSetsQuery counts;
  counts.table = "t";
  counts.grouping_sets = {{"d1"}};
  counts.aggregates = {
      AggregateSpec::Make(AggregateFunction::kCount, "md", "t", target),
      AggregateSpec::Make(AggregateFunction::kCount, "md", "c")};
  GroupingSetsQuery sums = counts;
  sums.aggregates = {
      AggregateSpec::Make(AggregateFunction::kSum, "md", "t", target),
      AggregateSpec::Make(AggregateFunction::kSum, "md", "c")};
  ASSERT_EQ(PartialAggCacheKey(table_, 1, counts, 0),
            PartialAggCacheKey(table_, 1, sums, 0));

  PartialAggCache cache(64u << 20);
  SharedScanOptions options = OneThread(GetParam());
  options.cache = &cache;
  options.table_version = 1;
  // Twice: the counts entry is admitted on its key's second miss.
  RunPhases(table_, {counts}, options, 1);
  RunPhases(table_, {counts}, options, 1);
  ASSERT_EQ(cache.stats().entries, 1u);
  SharedScanStats stats;
  const auto warm = RunPhases(table_, {sums}, options, 1, &stats);
  EXPECT_EQ(stats.cache_hits, 0u);
  const auto cold = RunPhases(table_, {sums}, OneThread(GetParam()), 1);
  ExpectSameBits(warm[0][0], cold[0][0], "sums");
}

INSTANTIATE_TEST_SUITE_P(VectorizedOnOff, AccumulatorSharingTest,
                         ::testing::Bool());

// The benchmark's plan shape — SUM, AVG and COUNT per measure, each as a
// FILTER'd target and an unconditional comparison aggregate — holds
// groups x distinct (measure, FILTER) x 32 bytes: two accumulators per
// measure instead of six. If sharing ever stops being taken, this fails.
TEST(AccumulatorSharingPlanTest, CombinedPlanHoldsTwoAccumulatorsPerMeasure) {
  auto dataset =
      data::GenerateSynthetic(data::SyntheticSpec::Simple(4000, 4, 3, 8, 13));
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  const PredicatePtr selection = dataset->selection;
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("synth", std::move(dataset->table)).ok());
  Engine engine(&catalog);
  core::SeeDB seedb(&engine);
  core::SeeDBRequest request("synth");
  request.Where(selection)
      .WithTopK(3)
      .WithParallelism(1)
      .WithStrategy(core::ExecutionStrategy::kPhasedSharedScan)
      .WithPhases(1);
  auto set = seedb.Run(request);
  ASSERT_TRUE(set.ok()) << set.status();
  const SharedScanStats& scan = set->profile.scan;
  ASSERT_GT(scan.total_groups, 0u);
  constexpr size_t kMeasures = 3;
  EXPECT_EQ(scan.agg_state_bytes,
            scan.total_groups * 2 * kMeasures * sizeof(AggState));
}

}  // namespace
}  // namespace seedb::db
