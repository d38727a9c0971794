#include "db/statistics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "../test_util.h"
#include "util/histogram.h"
#include "util/random.h"

namespace seedb::db {
namespace {

TEST(ColumnStatsTest, NumericProfile) {
  Schema schema({ColumnDef::Measure("m")});
  Table t(schema);
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    ASSERT_TRUE(t.AppendRow({Value(v)}).ok());
  }
  ColumnStats cs = ComputeColumnStats(t, 0);
  EXPECT_EQ(cs.row_count, 4u);
  EXPECT_EQ(cs.distinct_count, 4u);
  EXPECT_EQ(cs.min, 1.0);
  EXPECT_EQ(cs.max, 4.0);
  EXPECT_DOUBLE_EQ(cs.mean, 2.5);
  EXPECT_DOUBLE_EQ(cs.variance, 1.25);
}

TEST(ColumnStatsTest, DiversityOfUniformColumn) {
  Schema schema({ColumnDef::Dimension("d")});
  Table t(schema);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value(i % 4 == 0   ? "a"
                           : i % 4 == 1 ? "b"
                           : i % 4 == 2 ? "c"
                                        : "d")})
            .ok());
  }
  ColumnStats cs = ComputeColumnStats(t, 0);
  // Uniform over 4 values: diversity = 1 - 4*(1/4)^2 = 0.75, entropy = 1.
  EXPECT_NEAR(cs.diversity, 0.75, 1e-9);
  EXPECT_NEAR(cs.normalized_entropy, 1.0, 1e-9);
}

TEST(ColumnStatsTest, DiversityOfConstantColumnIsZero) {
  Schema schema({ColumnDef::Dimension("d")});
  Table t(schema);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.AppendRow({Value("only")}).ok());
  }
  ColumnStats cs = ComputeColumnStats(t, 0);
  EXPECT_EQ(cs.diversity, 0.0);
  EXPECT_EQ(cs.normalized_entropy, 0.0);
  EXPECT_EQ(cs.distinct_count, 1u);
}

TEST(ColumnStatsTest, NearConstantHasLowDiversity) {
  Schema schema({ColumnDef::Dimension("d")});
  Table t(schema);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(i < 97 ? "no" : "yes")}).ok());
  }
  ColumnStats cs = ComputeColumnStats(t, 0);
  EXPECT_LT(cs.diversity, 0.06);
  EXPECT_GT(cs.diversity, 0.0);
}

TEST(ColumnStatsTest, NullsExcluded) {
  Schema schema({ColumnDef::Measure("m")});
  Table t(schema);
  ASSERT_TRUE(t.AppendRow({Value(2.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(t.AppendRow({Value(4.0)}).ok());
  ColumnStats cs = ComputeColumnStats(t, 0);
  EXPECT_EQ(cs.null_count, 1u);
  EXPECT_EQ(cs.distinct_count, 2u);
  EXPECT_DOUBLE_EQ(cs.mean, 3.0);
}

TEST(ColumnStatsTest, TopValuesSortedByCount) {
  Schema schema({ColumnDef::Dimension("d")});
  Table t(schema);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(t.AppendRow({Value("big")}).ok());
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(t.AppendRow({Value("mid")}).ok());
  ASSERT_TRUE(t.AppendRow({Value("small")}).ok());
  ColumnStats cs = ComputeColumnStats(t, 0);
  ASSERT_EQ(cs.top_values.size(), 3u);
  EXPECT_EQ(cs.top_values[0].first, Value("big"));
  EXPECT_EQ(cs.top_values[0].second, 5u);
  EXPECT_EQ(cs.top_values[1].first, Value("mid"));
  EXPECT_EQ(cs.top_values[2].first, Value("small"));
}

// --- Differential check against a naive map-based reference. ---

// The profile the statistics must reproduce, computed the obvious way: one
// ordered map over every non-null boxed value. Frequencies sum in dictionary
// (first-seen) order for strings and in ascending value order for numerics,
// the orders ComputeColumnStats promises.
ColumnStats ReferenceStats(const Table& table, size_t c) {
  const Column& col = table.column(c);
  ColumnStats ref;
  ref.name = table.schema().column(c).name;
  ref.type = table.schema().column(c).type;
  ref.role = table.schema().column(c).role;
  ref.row_count = col.size();
  ref.null_count = col.null_count();
  std::map<Value, size_t> counts;
  std::vector<Value> first_seen;
  RunningStats rs;
  for (size_t i = 0; i < col.size(); ++i) {
    if (col.IsNull(i)) continue;
    const Value v = col.GetValue(i);
    if (counts[v]++ == 0) first_seen.push_back(v);
    if (v.is_numeric()) rs.Add(col.NumericAt(i));
  }
  if (col.type() != ValueType::kString) {
    ref.min = rs.min();
    ref.max = rs.max();
    ref.mean = rs.mean();
    ref.variance = rs.variance();
  }
  ref.distinct_count = counts.size();
  std::vector<size_t> freqs;
  if (col.type() == ValueType::kString) {
    for (const Value& v : first_seen) freqs.push_back(counts[v]);
  } else {
    for (const auto& [v, n] : counts) freqs.push_back(n);
  }
  size_t total = 0;
  for (size_t f : freqs) total += f;
  if (total > 0) {
    double sum_p2 = 0.0;
    double entropy = 0.0;
    for (size_t f : freqs) {
      const double p = static_cast<double>(f) / static_cast<double>(total);
      sum_p2 += p * p;
      entropy -= p * std::log(p);
    }
    ref.diversity = 1.0 - sum_p2;
    ref.normalized_entropy =
        freqs.size() > 1 ? entropy / std::log(static_cast<double>(freqs.size()))
                         : 0.0;
  }
  std::vector<std::pair<Value, size_t>> sorted(counts.begin(), counts.end());
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  if (sorted.size() > ColumnStats::kTopValues) {
    sorted.resize(ColumnStats::kTopValues);
  }
  ref.top_values = std::move(sorted);
  return ref;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectStatsIdentical(const ColumnStats& got, const ColumnStats& want) {
  const std::string& col = want.name;
  EXPECT_EQ(got.name, want.name);
  EXPECT_EQ(got.type, want.type) << col;
  EXPECT_EQ(got.role, want.role) << col;
  EXPECT_EQ(got.row_count, want.row_count) << col;
  EXPECT_EQ(got.null_count, want.null_count) << col;
  EXPECT_EQ(got.distinct_count, want.distinct_count) << col;
  EXPECT_TRUE(SameBits(got.min, want.min)) << col;
  EXPECT_TRUE(SameBits(got.max, want.max)) << col;
  EXPECT_TRUE(SameBits(got.mean, want.mean)) << col;
  EXPECT_TRUE(SameBits(got.variance, want.variance)) << col;
  EXPECT_TRUE(SameBits(got.diversity, want.diversity))
      << col << ": " << got.diversity << " vs " << want.diversity;
  EXPECT_TRUE(SameBits(got.normalized_entropy, want.normalized_entropy))
      << col << ": " << got.normalized_entropy << " vs "
      << want.normalized_entropy;
  ASSERT_EQ(got.top_values.size(), want.top_values.size()) << col;
  for (size_t i = 0; i < want.top_values.size(); ++i) {
    const Value& g = got.top_values[i].first;
    const Value& w = want.top_values[i].first;
    ASSERT_EQ(g.type(), w.type()) << col << " top " << i;
    EXPECT_EQ(g, w) << col << " top " << i;
    if (w.type() == ValueType::kDouble) {
      EXPECT_TRUE(SameBits(g.AsDouble(), w.AsDouble()))
          << col << " top " << i << ": sign of zero";
    }
    EXPECT_EQ(got.top_values[i].second, want.top_values[i].second)
        << col << " top " << i;
  }
}

// String, int64 and double columns with nulls, ties around the top-10 cut
// (exact ones in `w` and `k`, where `w`'s lexicographic order differs from
// its first-seen order), -0.0 / +0.0 cells (the first zero seen is -0.0,
// whose boxed value the reference's map keeps), all-distinct measures and an
// all-null column.
TEST(ColumnStatsTest, MatchesNaiveMapReferenceBitForBit) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Schema schema({
        ColumnDef::Dimension("s"),
        ColumnDef::Dimension("i", ValueType::kInt64),
        ColumnDef::Measure("d"),
        ColumnDef::Measure("z"),
        ColumnDef::Measure("u"),
        ColumnDef::Measure("n"),
        ColumnDef::Dimension("w"),
        ColumnDef::Dimension("k", ValueType::kInt64),
    });
    Table t(schema);
    Random rng(seed);
    const size_t rows = 2000 + 500 * seed;
    for (size_t r = 0; r < rows; ++r) {
      // 14 strings with pairwise-equal weights: ties straddle the top 10.
      Value s = rng.Uniform(10) == 0
                    ? Value::Null()
                    : Value("v" + std::to_string(rng.Uniform(7) * 2 +
                                                 rng.Uniform(2)));
      Value i = rng.Uniform(8) == 0 ? Value::Null()
                                    : Value(rng.UniformInt(-12, 12));
      Value d = rng.Uniform(6) == 0
                    ? Value::Null()
                    : Value(static_cast<double>(rng.UniformInt(-20, 20)) / 4);
      Value z = r == 0 ? Value(-0.0)
                       : (rng.Uniform(3) == 0 ? Value(0.0)
                                              : Value(rng.Uniform(2) == 0
                                                          ? -0.0
                                                          : 1.5));
      Value u = rng.Uniform(20) == 0 ? Value::Null()
                                     : Value(rng.UniformDouble(-1e6, 1e6));
      const Value w("k" + std::to_string(r % 12));
      const Value k(static_cast<int64_t>(r % 13) - 6);
      ASSERT_TRUE(t.AppendRow({s, i, d, z, u, Value::Null(), w, k}).ok());
    }
    for (size_t c = 0; c < t.num_columns(); ++c) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      ExpectStatsIdentical(ComputeColumnStats(t, c), ReferenceStats(t, c));
    }
    // -0.0 came first, so it names the merged zero run.
    const ColumnStats z = ComputeColumnStats(t, 3);
    bool found = false;
    for (const auto& [v, n] : z.top_values) {
      if (v.AsDouble() == 0.0) {
        EXPECT_TRUE(std::signbit(v.AsDouble()));
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(ColumnStatsTest, EmptyTableMatchesReference) {
  Schema schema({ColumnDef::Dimension("s"), ColumnDef::Measure("d")});
  Table t(schema);
  for (size_t c = 0; c < t.num_columns(); ++c) {
    ExpectStatsIdentical(ComputeColumnStats(t, c), ReferenceStats(t, c));
  }
}

TEST(TableStatsTest, CoversAllColumnsAndFind) {
  Table t = ::seedb::testing::MakeTinyTable();
  TableStats stats = ComputeTableStats(t, "tiny");
  EXPECT_EQ(stats.table_name, "tiny");
  EXPECT_EQ(stats.num_rows, 6u);
  EXPECT_EQ(stats.columns.size(), 4u);
  EXPECT_TRUE(stats.Find("m1").ok());
  EXPECT_EQ((*stats.Find("m1"))->role, ColumnRole::kMeasure);
  EXPECT_FALSE(stats.Find("zzz").ok());
  EXPECT_GT(stats.memory_bytes, 0u);
}

TEST(CramersVTest, PerfectlyCorrelatedColumns) {
  Schema schema(
      {ColumnDef::Dimension("a"), ColumnDef::Dimension("b")});
  Table t(schema);
  Random rng(3);
  const char* va[] = {"x", "y", "z"};
  const char* vb[] = {"X", "Y", "Z"};
  for (int i = 0; i < 300; ++i) {
    size_t k = rng.Uniform(3);
    ASSERT_TRUE(t.AppendRow({Value(va[k]), Value(vb[k])}).ok());
  }
  double v = CramersV(t, "a", "b").ValueOrDie();
  EXPECT_NEAR(v, 1.0, 1e-9);
}

TEST(CramersVTest, IndependentColumnsNearZero) {
  Schema schema(
      {ColumnDef::Dimension("a"), ColumnDef::Dimension("b")});
  Table t(schema);
  Random rng(5);
  const char* vals[] = {"p", "q", "r", "s"};
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(vals[rng.Uniform(4)]),
                             Value(vals[rng.Uniform(4)])})
                    .ok());
  }
  double v = CramersV(t, "a", "b").ValueOrDie();
  EXPECT_LT(v, 0.05);
}

TEST(CramersVTest, DegenerateSingleValueColumnsGiveZero) {
  Schema schema(
      {ColumnDef::Dimension("a"), ColumnDef::Dimension("b")});
  Table t(schema);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.AppendRow({Value("only"), Value(i % 2 ? "u" : "v")}).ok());
  }
  EXPECT_EQ(CramersV(t, "a", "b").ValueOrDie(), 0.0);
}

TEST(CramersVTest, RejectsNumericDoubleColumns) {
  Table t = ::seedb::testing::MakeTinyTable();
  EXPECT_FALSE(CramersV(t, "d", "m1").ok());
}

TEST(CramersVTest, SymmetricInArguments) {
  Table t = ::seedb::testing::MakeTinyTable();
  double ab = CramersV(t, "d", "e").ValueOrDie();
  double ba = CramersV(t, "e", "d").ValueOrDie();
  EXPECT_NEAR(ab, ba, 1e-12);
}

}  // namespace
}  // namespace seedb::db
