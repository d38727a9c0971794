// Differential test for the phased executor's scorer. The executor scores
// views straight from the fused scan's merged aggregate state; the table
// path it replaced — ViewProcessor over the tables the same scan
// materializes (SharedScanState::PartialResults / FinalResults) — is the
// oracle. Every boundary estimate and every final ViewResult (keys, raw
// values, probabilities, utility) must match it bit for bit.
//
// The oracle scan runs the executor's phases over the same row ranges, on
// one thread, and retires nothing: retirement freezes only aggregates no
// live view reads, so each live view's state is the same in both scans.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/executor.h"
#include "core/view_processor.h"
#include "db/catalog.h"
#include "db/engine.h"
#include "db/shared_scan.h"
#include "util/random.h"

namespace seedb::core {
namespace {

struct Config {
  std::string name;
  DistanceMetric metric = DistanceMetric::kEarthMovers;
  OnlinePruner pruner = OnlinePruner::kNone;
  bool combined = true;
  double sample_fraction = 1.0;
  size_t phases = 6;
  size_t early_stop = 0;
  /// 1-based phase whose Step starts with the cancel token set; 0 = never.
  size_t cancel_at = 0;
};

void PrintTo(const Config& config, std::ostream* os) { *os << config.name; }

constexpr size_t kRows = 2400;
constexpr size_t kMorselRows = 256;

// Dimensions: s1 and s2 strings (vectorized sets; s1 has nulls, s2 holds
// the selection), i1 int64 and d1 double (hash-path sets, with nulls; d1
// holds both 0.0 and -0.0, two groups the tables' std::map folds into one
// key). Measures: m1 double with mostly negative values and some nulls,
// m2 int64.
db::Table MakeTable() {
  db::Schema schema({
      db::ColumnDef::Dimension("s1"),
      db::ColumnDef::Dimension("s2"),
      db::ColumnDef::Dimension("i1", db::ValueType::kInt64),
      db::ColumnDef::Dimension("d1", db::ValueType::kDouble),
      db::ColumnDef::Measure("m1"),
      db::ColumnDef::Measure("m2", db::ValueType::kInt64),
  });
  db::Table table(schema);
  Random rng(7);
  const char* s1_values[] = {"a", "b", "c", "d", "e", "f"};
  const char* s2_values[] = {"x", "y", "z"};
  const double d1_values[] = {-1.5, -0.0, 0.0, 0.5, 2.0};
  for (size_t r = 0; r < kRows; ++r) {
    std::vector<db::Value> row;
    row.push_back(rng.Bernoulli(0.05) ? db::Value()
                                      : db::Value(s1_values[rng.Uniform(6)]));
    row.push_back(db::Value(s2_values[rng.Uniform(3)]));
    row.push_back(rng.Bernoulli(0.05)
                      ? db::Value()
                      : db::Value(static_cast<int64_t>(rng.Uniform(5) * 10)));
    row.push_back(rng.Bernoulli(0.05) ? db::Value()
                                      : db::Value(d1_values[rng.Uniform(5)]));
    row.push_back(rng.Bernoulli(0.03)
                      ? db::Value()
                      : db::Value(rng.UniformDouble(-50.0, 30.0)));
    row.push_back(db::Value(rng.UniformInt(1, 100)));
    EXPECT_TRUE(table.AppendRow(row).ok());
  }
  return table;
}

std::vector<ViewDescriptor> AllViews() {
  std::vector<ViewDescriptor> views;
  for (const char* dim : {"s1", "s2", "i1", "d1"}) {
    for (const char* measure : {"m1", "m2"}) {
      for (db::AggregateFunction f : db::AllAggregateFunctions()) {
        views.emplace_back(dim, measure, f);
      }
    }
    views.emplace_back(dim, "", db::AggregateFunction::kCount);
  }
  return views;
}

void ExpectSameBits(double got, double want, const std::string& what) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
      << what << ": " << got << " vs " << want;
}

void ExpectSameBits(const std::vector<double>& got,
                    const std::vector<double>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ExpectSameBits(got[i], want[i], what + "[" + std::to_string(i) + "]");
  }
}

// Keys compare by type and, for doubles, by bit pattern: 0.0 and -0.0 are
// equal Values but not the same key.
void ExpectSameKeys(const std::vector<db::Value>& got,
                    const std::vector<db::Value>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].type(), want[i].type()) << what << " key " << i;
    if (got[i].type() == db::ValueType::kDouble) {
      ExpectSameBits(got[i].AsDouble(), want[i].AsDouble(),
                     what + " key " + std::to_string(i));
    } else {
      EXPECT_EQ(got[i], want[i]) << what << " key " << i;
    }
  }
}

// The table path: ViewProcessor over materialized tables, fed only the
// slots of `live` views.
Result<std::vector<ViewResult>> OracleScore(
    const ExecutionPlan& plan, DistanceMetric metric,
    std::vector<std::vector<db::Table>> tables,
    const std::set<std::string>& live, bool allow_partial) {
  ViewProcessor processor(metric);
  for (size_t q = 0; q < plan.queries.size(); ++q) {
    PlannedQuery filtered;
    filtered.query = plan.queries[q].query;
    filtered.half = plan.queries[q].half;
    for (const ViewSlot& slot : plan.queries[q].slots) {
      if (live.count(slot.view.Id())) filtered.slots.push_back(slot);
    }
    if (filtered.slots.empty()) continue;
    SEEDB_RETURN_IF_ERROR(processor.Consume(filtered, std::move(tables[q])));
  }
  return processor.Finish(allow_partial);
}

std::vector<std::vector<db::Table>> PartialTables(
    const db::SharedScanState& scan) {
  std::vector<std::vector<db::Table>> tables;
  for (size_t q = 0; q < scan.num_queries(); ++q) {
    tables.push_back(scan.PartialResults(q).ValueOrDie());
  }
  return tables;
}

class StateScorerTest : public ::testing::TestWithParam<Config> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.AddTable("t", MakeTable()).ok());
    table_ = catalog_.GetTable("t").ValueOrDie();
  }

  ExecutionPlan Plan(const Config& config) {
    OptimizerOptions optimizer;
    optimizer.combine_target_comparison = config.combined;
    optimizer.sample_fraction = config.sample_fraction;
    optimizer.sample_seed = 11;
    const db::TableStats* stats = catalog_.GetStats("t").ValueOrDie();
    return BuildExecutionPlan(AllViews(), "t", selection_, *stats, optimizer)
        .ValueOrDie();
  }

  // Runs `config` through the executor and the oracle side by side, checking
  // every boundary, and returns the executor's final results.
  std::vector<ViewResult> RunAndCompare(const Config& config) {
    const ExecutionPlan plan = Plan(config);
    std::atomic<bool> cancel{false};
    ExecutorOptions exec;
    exec.strategy = ExecutionStrategy::kPhasedSharedScan;
    exec.parallelism = 1;
    exec.morsel_rows = kMorselRows;
    exec.cancel = &cancel;
    exec.online_pruning.num_phases = config.phases;
    exec.online_pruning.pruner = config.pruner;
    exec.online_pruning.keep_k = 3;
    exec.online_pruning.early_stop_stable_phases = config.early_stop;
    if (config.pruner == OnlinePruner::kConfidenceInterval) {
      exec.online_pruning.delta = 0.5;
      exec.online_pruning.utility_range = 0.1;
    }
    db::Engine engine(&catalog_);
    PhasedPlanExecution run =
        PhasedPlanExecution::Begin(&engine, plan, config.metric, exec)
            .ValueOrDie();

    std::vector<db::GroupingSetsQuery> queries;
    for (const PlannedQuery& pq : plan.queries) queries.push_back(pq.query);
    db::SharedScanOptions scan_options;
    scan_options.num_threads = 1;
    scan_options.morsel_rows = kMorselRows;
    scan_options.cancel = &cancel;
    db::SharedScanState oracle =
        db::SharedScanState::Create(*table_, queries, scan_options)
            .ValueOrDie();

    std::set<std::string> live;
    for (const PlannedQuery& pq : plan.queries) {
      for (const ViewSlot& slot : pq.slots) live.insert(slot.view.Id());
    }
    size_t phase = 0;
    while (!run.done()) {
      if (phase + 1 == config.cancel_at) cancel.store(true);
      const size_t begin = kRows * phase / config.phases;
      const size_t end = kRows * (phase + 1) / config.phases;
      Result<PhaseSnapshot> snap = run.Step(/*collect_estimates=*/true);
      EXPECT_TRUE(snap.ok()) << snap.status();
      if (!snap.ok()) return {};
      EXPECT_TRUE(oracle.RunPhase(begin, end).ok());
      ++phase;
      const std::string where = "phase " + std::to_string(phase);
      if (snap->cancelled) {
        EXPECT_TRUE(oracle.cancelled()) << where;
        break;
      }
      EXPECT_EQ(run.rows_consumed(), oracle.rows_consumed()) << where;

      // What the executor scored at this boundary: the survivors, and the
      // views it pruned here with the estimates that pruned them.
      std::vector<std::pair<std::string, double>> survivors;
      for (const ViewEstimate& e : snap->estimates) {
        survivors.emplace_back(e.view.Id(), e.utility);
      }
      std::vector<std::pair<std::string, double>> pruned_here;
      for (const OnlinePrunedView& p : run.online_pruned()) {
        if (p.pruned_at_phase == snap->phase) {
          pruned_here.emplace_back(p.view.Id(), p.partial_utility);
        }
      }
      Result<std::vector<ViewResult>> want =
          OracleScore(plan, config.metric, PartialTables(oracle), live,
                      /*allow_partial=*/false);
      if (!want.ok()) {
        // A view with no groups yet has no utility: the boundary is skipped.
        EXPECT_FALSE(snap->has_estimates) << where;
        EXPECT_TRUE(pruned_here.empty()) << where;
        ++skipped_boundaries_;
      } else {
        EXPECT_TRUE(snap->has_estimates) << where;
        EXPECT_EQ(survivors.size() + pruned_here.size(), want->size())
            << where;
        size_t s = 0;
        size_t p = 0;
        for (const ViewResult& vr : *want) {
          const std::string id = vr.view.Id();
          if (p < pruned_here.size() && pruned_here[p].first == id) {
            ExpectSameBits(pruned_here[p++].second, vr.utility,
                           where + " pruned " + id);
          } else {
            EXPECT_LT(s, survivors.size()) << where << " " << id;
            if (s == survivors.size()) return {};
            EXPECT_EQ(survivors[s].first, id) << where;
            ExpectSameBits(survivors[s++].second, vr.utility,
                           where + " " + id);
          }
        }
        ++scored_boundaries_;
      }
      for (const auto& [id, utility] : pruned_here) live.erase(id);
    }

    ExecutionReport report;
    Result<std::vector<ViewResult>> got = run.Finish(&report);
    const bool partial = run.cancelled() || oracle.rows_consumed() < kRows;
    Result<std::vector<std::vector<db::Table>>> tables =
        oracle.FinalResults();
    EXPECT_TRUE(tables.ok()) << tables.status();
    Result<std::vector<ViewResult>> want =
        OracleScore(plan, config.metric, std::move(tables).ValueOrDie(), live,
                    /*allow_partial=*/partial);
    EXPECT_EQ(got.ok(), want.ok()) << got.status() << " / " << want.status();
    if (!got.ok() || !want.ok()) return {};
    EXPECT_EQ(got->size(), want->size());
    for (size_t i = 0; i < std::min(got->size(), want->size()); ++i) {
      const ViewResult& g = (*got)[i];
      const ViewResult& w = (*want)[i];
      const std::string id = w.view.Id();
      EXPECT_EQ(g.view.Id(), id) << "result " << i;
      ExpectSameKeys(g.distributions.target.keys,
                     w.distributions.target.keys, id + " target keys");
      ExpectSameKeys(g.distributions.comparison.keys,
                     w.distributions.comparison.keys,
                     id + " comparison keys");
      ExpectSameBits(g.distributions.target_raw, w.distributions.target_raw,
                     id + " target_raw");
      ExpectSameBits(g.distributions.comparison_raw,
                     w.distributions.comparison_raw, id + " comparison_raw");
      ExpectSameBits(g.distributions.target.probabilities,
                     w.distributions.target.probabilities,
                     id + " target probabilities");
      ExpectSameBits(g.distributions.comparison.probabilities,
                     w.distributions.comparison.probabilities,
                     id + " comparison probabilities");
      ExpectSameBits(g.utility, w.utility, id + " utility");
    }
    return std::move(got).ValueOrDie();
  }

  db::Catalog catalog_;
  const db::Table* table_ = nullptr;
  const db::PredicatePtr selection_ = std::make_shared<db::ComparisonPredicate>(
      "s2", db::CompareOp::kEq, db::Value("y"));
  size_t scored_boundaries_ = 0;
  size_t skipped_boundaries_ = 0;
};

TEST_P(StateScorerTest, MatchesTablePathBitForBit) {
  const Config& config = GetParam();
  const std::vector<ViewResult> results = RunAndCompare(config);
  if (config.cancel_at == 1) {
    // Cancelled before any row: every view lacks data, and allow_partial
    // drops them all instead of failing.
    EXPECT_TRUE(results.empty());
    return;
  }
  EXPECT_FALSE(results.empty());
  EXPECT_GT(scored_boundaries_, 0u);
}

std::vector<Config> Matrix() {
  std::vector<Config> configs;
  const std::pair<OnlinePruner, const char*> pruners[] = {
      {OnlinePruner::kNone, "none"},
      {OnlinePruner::kConfidenceInterval, "ci"},
      {OnlinePruner::kMultiArmedBandit, "mab"}};
  for (DistanceMetric metric : AllDistanceMetrics()) {
    for (const auto& [pruner, pruner_name] : pruners) {
      for (bool combined : {true, false}) {
        Config c;
        c.name = std::string(DistanceMetricToString(metric)) + "_" +
                 pruner_name + (combined ? "_combined" : "_split");
        c.metric = metric;
        c.pruner = pruner;
        c.combined = combined;
        configs.push_back(c);
      }
    }
  }
  Config sampled;
  sampled.name = "where_and_sampling_split";
  sampled.combined = false;
  sampled.sample_fraction = 0.5;
  sampled.pruner = OnlinePruner::kConfidenceInterval;
  configs.push_back(sampled);
  Config early_stop;
  early_stop.name = "mab_early_stop";
  early_stop.pruner = OnlinePruner::kMultiArmedBandit;
  early_stop.phases = 10;
  early_stop.early_stop = 2;
  configs.push_back(early_stop);
  for (bool combined : {true, false}) {
    Config cancelled;
    cancelled.name =
        std::string("cancel_mid_run") + (combined ? "_combined" : "_split");
    cancelled.combined = combined;
    cancelled.cancel_at = 4;
    configs.push_back(cancelled);
    cancelled.name =
        std::string("cancel_before_rows") + (combined ? "_combined" : "_split");
    cancelled.cancel_at = 1;
    configs.push_back(cancelled);
  }
  return configs;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, StateScorerTest, ::testing::ValuesIn(Matrix()),
    [](const ::testing::TestParamInfo<Config>& info) {
      return info.param.name;
    });

// A sample so thin that the first phases see no row: a set with no groups
// makes the view's utility undefined, and both paths skip those boundaries.
TEST_F(StateScorerTest, BoundariesBeforeAnyGroupAreSkipped) {
  for (bool combined : {true, false}) {
    SCOPED_TRACE(combined ? "combined" : "split");
    Config config;
    config.combined = combined;
    config.sample_fraction = 0.001;
    config.phases = 12;
    scored_boundaries_ = 0;
    skipped_boundaries_ = 0;
    RunAndCompare(config);
    EXPECT_GT(skipped_boundaries_, 0u);
    EXPECT_GT(scored_boundaries_, 0u);
  }
}

// d1 holds 0.0 and -0.0: the scan keeps them as two groups (bit patterns
// differ), the tables' std::map folds them into one key keeping the later
// row's value, and the scorer must fold them the same way.
TEST_F(StateScorerTest, SignedZeroGroupsFoldIntoOneKey) {
  Config config;
  config.phases = 1;
  const std::vector<ViewResult> results = RunAndCompare(config);
  bool saw_d1 = false;
  for (const ViewResult& vr : results) {
    if (vr.view.dimension != "d1") continue;
    saw_d1 = true;
    // -1.5, one zero, 0.5, 2.0 and null: five keys from six groups.
    EXPECT_EQ(vr.distributions.target.keys.size(), 5u) << vr.view.Id();
  }
  EXPECT_TRUE(saw_d1);
}

}  // namespace
}  // namespace seedb::core
