// Vectorized-vs-hash equivalence: the dense kernel path of the fused scan
// (db/vec/) must produce BIT-identical results to the hash fallback across
// a seeded matrix of nulls x dictionary shapes x multi-attribute group-bys
// x morsel boundaries. Not "close" — identical: both paths accumulate and
// merge in the same float order by construction, and this suite is the pin
// that keeps that true.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "db/grouping_sets.h"
#include "db/predicate.h"
#include "db/shared_scan.h"
#include "db/table.h"
#include "db/vec/simd/simd.h"
#include "util/random.h"

namespace seedb::db {
namespace {

// Seeded table: three string dimensions (one with nulls — including rows
// whose dictionary code would be 0 — one with a wide dictionary), an int64
// measure with nulls, and a double measure. Values are deterministic per
// seed so failures reproduce.
Table MakeMatrixTable(uint64_t seed, size_t rows) {
  Schema schema({
      ColumnDef::Dimension("d_small"),
      ColumnDef::Dimension("d_nullable"),
      ColumnDef::Dimension("d_wide"),
      ColumnDef::Measure("m_int", ValueType::kInt64),
      ColumnDef::Measure("m_double"),
  });
  Table table(schema);
  Random rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    std::vector<Value> row;
    row.emplace_back("s" + std::to_string(rng.UniformInt(0, 3)));
    // ~20% nulls; "n0" interns at dictionary code 0, so null-vs-code-0
    // disambiguation is actually exercised.
    if (rng.Bernoulli(0.2)) {
      row.emplace_back();
    } else {
      row.emplace_back("n" + std::to_string(rng.UniformInt(0, 4)));
    }
    row.emplace_back("w" + std::to_string(rng.UniformInt(0, 40)));
    if (rng.Bernoulli(0.15)) {
      row.emplace_back();
    } else {
      row.emplace_back(static_cast<int64_t>(rng.UniformInt(-50, 50)));
    }
    row.emplace_back(rng.UniformDouble(-50.0, 50.0));
    EXPECT_TRUE(table.AppendRow(row).ok());
  }
  return table;
}

std::vector<GroupingSetsQuery> MatrixQueries() {
  std::vector<GroupingSetsQuery> queries;

  GroupingSetsQuery plain;
  plain.table = "t";
  plain.grouping_sets = {{"d_small"}, {"d_nullable"}, {}};
  plain.aggregates = {
      AggregateSpec::Count(),
      AggregateSpec::Make(AggregateFunction::kCount, "m_int"),
      AggregateSpec::Make(AggregateFunction::kSum, "m_int"),
      AggregateSpec::Make(AggregateFunction::kAvg, "m_double"),
      AggregateSpec::Make(AggregateFunction::kMin, "m_double"),
      AggregateSpec::Make(AggregateFunction::kMax, "m_int"),
  };
  queries.push_back(plain);

  GroupingSetsQuery filtered;
  filtered.table = "t";
  filtered.where = PredicatePtr(Gt("m_double", Value(-20.0)));
  filtered.grouping_sets = {{"d_nullable", "d_small"}, {"d_wide"}};
  filtered.aggregates = {
      AggregateSpec::Make(AggregateFunction::kSum, "m_double"),
      AggregateSpec::Make(AggregateFunction::kSum, "m_int", "t_half",
                          PredicatePtr(Eq("d_small", Value("s1")))),
  };
  queries.push_back(filtered);

  GroupingSetsQuery multi;
  multi.table = "t";
  multi.where = PredicatePtr(Ne("d_wide", Value("w7")));
  multi.grouping_sets = {{"d_small", "d_nullable", "d_wide"}};
  multi.aggregates = {
      AggregateSpec::Make(AggregateFunction::kSum, "m_double"),
      AggregateSpec::Count(),
  };
  queries.push_back(multi);

  GroupingSetsQuery sampled;
  sampled.table = "t";
  sampled.grouping_sets = {{"d_nullable"}};
  sampled.aggregates = {AggregateSpec::Make(AggregateFunction::kSum, "m_int")};
  sampled.sample_fraction = 0.6;
  sampled.sample_seed = 17;
  queries.push_back(sampled);

  // int64-column WHERE: fuses to the typed int64 compare recipe on the
  // vectorized path (the literal is integral and small, so the int64-domain
  // compare provably matches EvaluateMask's double-domain semantics).
  GroupingSetsQuery int_where;
  int_where.table = "t";
  int_where.where = PredicatePtr(Ge("m_int", Value(static_cast<int64_t>(3))));
  int_where.grouping_sets = {{"d_small"}, {}};
  int_where.aggregates = {
      AggregateSpec::Count(),
      AggregateSpec::Make(AggregateFunction::kSum, "m_double"),
  };
  queries.push_back(int_where);

  // Sampled AND filtered: the fused compare must Refine by the sample mask
  // after the compare, matching the combined-mask path exactly.
  GroupingSetsQuery sampled_where;
  sampled_where.table = "t";
  sampled_where.where = PredicatePtr(Lt("m_double", Value(10.0)));
  sampled_where.grouping_sets = {{"d_small", "d_nullable"}};
  sampled_where.aggregates = {
      AggregateSpec::Make(AggregateFunction::kSum, "m_int")};
  sampled_where.sample_fraction = 0.5;
  sampled_where.sample_seed = 23;
  queries.push_back(sampled_where);

  return queries;
}

// Bit-exact table comparison: doubles compare by ==, not by tolerance.
void ExpectTablesBitIdentical(const Table& got, const Table& want,
                              const std::string& label) {
  ASSERT_EQ(got.num_rows(), want.num_rows()) << label;
  ASSERT_EQ(got.num_columns(), want.num_columns()) << label;
  for (size_t r = 0; r < got.num_rows(); ++r) {
    for (size_t c = 0; c < got.num_columns(); ++c) {
      EXPECT_EQ(got.ValueAt(r, c), want.ValueAt(r, c))
          << label << " row " << r << " col " << c;
    }
  }
}

class VecEquivalenceTest : public ::testing::TestWithParam<
                               std::tuple<uint64_t, size_t, size_t>> {};

TEST_P(VecEquivalenceTest, VectorizedMatchesHashBitForBit) {
  const auto [seed, rows, morsel_rows] = GetParam();
  Table table = MakeMatrixTable(seed, rows);
  std::vector<GroupingSetsQuery> queries = MatrixQueries();

  SharedScanOptions vec_options;
  vec_options.num_threads = 1;
  vec_options.morsel_rows = morsel_rows;
  vec_options.enable_vectorized = true;

  SharedScanOptions hash_options = vec_options;
  hash_options.enable_vectorized = false;

  SharedScanStats vec_stats, hash_stats;
  auto vec = ExecuteSharedScan(table, queries, vec_options, &vec_stats);
  auto hash = ExecuteSharedScan(table, queries, hash_options, &hash_stats);
  ASSERT_TRUE(vec.ok()) << vec.status().ToString();
  ASSERT_TRUE(hash.ok()) << hash.status().ToString();

  // The fast path must actually engage (and never when disabled).
  EXPECT_GT(vec_stats.vectorized_morsels, 0u);
  EXPECT_EQ(vec_stats.vectorized_morsels, vec_stats.morsels);
  EXPECT_EQ(hash_stats.vectorized_morsels, 0u);

  ASSERT_EQ(vec->size(), hash->size());
  for (size_t q = 0; q < vec->size(); ++q) {
    ASSERT_EQ((*vec)[q].size(), (*hash)[q].size()) << "query " << q;
    for (size_t s = 0; s < (*vec)[q].size(); ++s) {
      ExpectTablesBitIdentical((*vec)[q][s], (*hash)[q][s],
                               "query " + std::to_string(q) + " set " +
                                   std::to_string(s));
    }
  }
}

// Morsel sizes straddle group/null runs every which way: 7 leaves nulls
// split across many tiny morsels, 256/1000 exercise partial tail morsels,
// 0 = adaptive sizing.
INSTANTIATE_TEST_SUITE_P(
    SeededMatrix, VecEquivalenceTest,
    ::testing::Values(std::make_tuple(uint64_t{1}, size_t{997}, size_t{7}),
                      std::make_tuple(uint64_t{2}, size_t{2048}, size_t{256}),
                      std::make_tuple(uint64_t{3}, size_t{3001}, size_t{1000}),
                      std::make_tuple(uint64_t{4}, size_t{512}, size_t{0})));

// Multi-threaded runs must agree with the single-threaded ones exactly for
// a fixed morsel grid... they cannot in general (merge order follows worker
// assignment), but vectorized and hash paths under the SAME thread count
// and morsel grid see identical worker-to-morsel assignment only when
// threads = 1. What CAN be pinned for threads > 1 is vec-vs-hash value
// equality within the usual float tolerance; do that here so the
// multi-threaded integration is still covered.
TEST(VecEquivalenceThreadedTest, VectorizedMatchesHashWithinUlps) {
  Table table = MakeMatrixTable(11, 4096);
  std::vector<GroupingSetsQuery> queries = MatrixQueries();

  SharedScanOptions vec_options;
  vec_options.num_threads = 4;
  vec_options.morsel_rows = 128;
  vec_options.enable_vectorized = true;
  SharedScanOptions hash_options = vec_options;
  hash_options.enable_vectorized = false;

  auto vec = ExecuteSharedScan(table, queries, vec_options, nullptr);
  auto hash = ExecuteSharedScan(table, queries, hash_options, nullptr);
  ASSERT_TRUE(vec.ok()) << vec.status().ToString();
  ASSERT_TRUE(hash.ok()) << hash.status().ToString();
  for (size_t q = 0; q < vec->size(); ++q) {
    for (size_t s = 0; s < (*vec)[q].size(); ++s) {
      const Table& g = (*vec)[q][s];
      const Table& w = (*hash)[q][s];
      ASSERT_EQ(g.num_rows(), w.num_rows());
      for (size_t r = 0; r < g.num_rows(); ++r) {
        for (size_t c = 0; c < g.num_columns(); ++c) {
          Value gv = g.ValueAt(r, c);
          Value wv = w.ValueAt(r, c);
          if (gv.type() == ValueType::kDouble) {
            EXPECT_NEAR(gv.ToDouble().ValueOrDie(),
                        wv.ToDouble().ValueOrDie(),
                        1e-9 + 1e-12 * std::abs(wv.ToDouble().ValueOrDie()))
                << "query " << q << " set " << s << " row " << r;
          } else {
            EXPECT_EQ(gv, wv);
          }
        }
      }
    }
  }
}

// A string dimension whose dictionary outgrows kDenseSlotBudget takes the
// hash loop even with vectorization on, while the small dimension beside it
// stays vectorized. Every path must agree bit for bit: vectorized on,
// vectorized off (all hash), and query-at-a-time ExecuteGroupingSets.
TEST(VecEquivalenceTest, SlotBudgetFallbackStaysCorrect) {
  constexpr size_t kWide = kDenseSlotBudget + 616;  // distinct d_huge values
  Table table(Schema({
      ColumnDef::Dimension("d_small"),
      ColumnDef::Dimension("d_huge"),
      ColumnDef::Measure("m_int", ValueType::kInt64),
      ColumnDef::Measure("m_double"),
  }));
  Random rng(5);
  for (size_t i = 0; i < kWide + 2000; ++i) {
    std::vector<Value> row;
    row.emplace_back("s" + std::to_string(rng.UniformInt(0, 3)));
    // Rows [0, kWide) hold every wide value once, in scrambled order (7919
    // is prime to kWide); the rest repeat values or are null.
    if (i < kWide) {
      row.emplace_back("h" + std::to_string(i * 7919 % kWide));
    } else if (rng.Bernoulli(0.5)) {
      row.emplace_back();
    } else {
      row.emplace_back("h" + std::to_string(rng.UniformInt(0, 99)));
    }
    if (rng.Bernoulli(0.15)) {
      row.emplace_back();
    } else {
      row.emplace_back(static_cast<int64_t>(rng.UniformInt(-50, 50)));
    }
    row.emplace_back(rng.UniformDouble(-50.0, 50.0));
    ASSERT_TRUE(table.AppendRow(row).ok());
  }
  ASSERT_EQ(table.ColumnByName("d_huge").ValueOrDie()->dict_size(), kWide);

  GroupingSetsQuery plain;
  plain.table = "t";
  plain.grouping_sets = {{"d_huge"}, {"d_small"}, {}};
  plain.aggregates = {
      AggregateSpec::Count(),
      AggregateSpec::Make(AggregateFunction::kSum, "m_int"),
      AggregateSpec::Make(AggregateFunction::kAvg, "m_double"),
      AggregateSpec::Make(AggregateFunction::kMin, "m_double"),
      AggregateSpec::Make(AggregateFunction::kMax, "m_int"),
      AggregateSpec::Make(AggregateFunction::kSum, "m_double", "t_half",
                          PredicatePtr(Eq("d_small", Value("s1")))),
  };
  GroupingSetsQuery filtered;
  filtered.table = "t";
  filtered.where = PredicatePtr(Gt("m_double", Value(-20.0)));
  filtered.grouping_sets = {{"d_huge", "d_small"}, {"d_small"}};
  filtered.aggregates = {
      AggregateSpec::Make(AggregateFunction::kSum, "m_double"),
      AggregateSpec::Count(),
  };
  const std::vector<GroupingSetsQuery> queries = {plain, filtered};

  SharedScanOptions vec_on;
  vec_on.num_threads = 1;
  vec_on.morsel_rows = 997;
  SharedScanOptions vec_off = vec_on;
  vec_off.enable_vectorized = false;

  SharedScanStats on_stats, off_stats;
  auto on = ExecuteSharedScan(table, queries, vec_on, &on_stats);
  auto off = ExecuteSharedScan(table, queries, vec_off, &off_stats);
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  // The small dimension and the global set still vectorize beside the wide
  // one; with vectorization off nothing does.
  EXPECT_GT(on_stats.vectorized_morsels, 0u);
  EXPECT_EQ(off_stats.vectorized_morsels, 0u);
  for (size_t q = 0; q < queries.size(); ++q) {
    auto oracle = ExecuteGroupingSets(table, queries[q], nullptr);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    ASSERT_EQ((*on)[q].size(), oracle->size());
    for (size_t s = 0; s < oracle->size(); ++s) {
      const std::string label =
          "query " + std::to_string(q) + " set " + std::to_string(s);
      ExpectTablesBitIdentical((*on)[q][s], (*oracle)[s],
                               label + " (vectorized on vs oracle)");
      ExpectTablesBitIdentical((*off)[q][s], (*oracle)[s],
                               label + " (vectorized off vs oracle)");
    }
  }
}

// The explicit-SIMD tier is a third leg of the equivalence matrix: with the
// tier enabled, disabled, and the whole vectorized path off, results must
// be BIT-identical — the simd kernels share the scalar kernels' exact
// accumulation order by construction, and this is the pin.
TEST(VecEquivalenceTest, SimdTierMatchesScalarTierBitForBit) {
  Table table = MakeMatrixTable(7, 2500);
  std::vector<GroupingSetsQuery> queries = MatrixQueries();

  SharedScanOptions simd_on;
  simd_on.num_threads = 1;
  simd_on.morsel_rows = 333;  // partial tail morsel
  simd_on.enable_simd = true;

  SharedScanOptions simd_off = simd_on;
  simd_off.enable_simd = false;

  SharedScanOptions hash = simd_on;
  hash.enable_vectorized = false;

  SharedScanStats on_stats, off_stats, hash_stats;
  auto with_simd = ExecuteSharedScan(table, queries, simd_on, &on_stats);
  auto without = ExecuteSharedScan(table, queries, simd_off, &off_stats);
  auto hashed = ExecuteSharedScan(table, queries, hash, &hash_stats);
  ASSERT_TRUE(with_simd.ok()) << with_simd.status().ToString();
  ASSERT_TRUE(without.ok()) << without.status().ToString();
  ASSERT_TRUE(hashed.ok()) << hashed.status().ToString();

  // The tier engages on every vectorized morsel when the build and CPU
  // support it, never when switched off (and never on the hash path).
  if (vec::simd::Available()) {
    EXPECT_EQ(on_stats.simd_morsels, on_stats.morsels);
    EXPECT_GT(on_stats.simd_morsels, 0u);
  } else {
    EXPECT_EQ(on_stats.simd_morsels, 0u);
  }
  EXPECT_EQ(off_stats.simd_morsels, 0u);
  EXPECT_EQ(hash_stats.simd_morsels, 0u);

  ASSERT_EQ(with_simd->size(), without->size());
  for (size_t q = 0; q < with_simd->size(); ++q) {
    for (size_t s = 0; s < (*with_simd)[q].size(); ++s) {
      const std::string label =
          "query " + std::to_string(q) + " set " + std::to_string(s);
      ExpectTablesBitIdentical((*with_simd)[q][s], (*without)[q][s],
                               label + " (simd vs scalar tier)");
      ExpectTablesBitIdentical((*with_simd)[q][s], (*hashed)[q][s],
                               label + " (simd vs hash)");
    }
  }
}

// Slab reuse across phases: a two-phase run must allocate each worker's
// dense slabs exactly once — the second phase reuses them via the
// capacity-preserving Reset instead of reallocating.
TEST(VecEquivalenceTest, PhasedRunAllocatesWorkerSlabsOnce) {
  Table table = MakeMatrixTable(9, 2000);
  std::vector<GroupingSetsQuery> queries = MatrixQueries();

  SharedScanOptions options;
  options.num_threads = 1;
  options.morsel_rows = 128;
  auto scan = SharedScanState::Create(table, queries, options);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();

  ASSERT_TRUE(scan->RunPhase(0, 1000).ok());
  const size_t after_one = scan->stats().agg_slab_allocations;
  EXPECT_GT(after_one, 0u);
  ASSERT_TRUE(scan->RunPhase(1000, 2000).ok());
  EXPECT_EQ(scan->stats().agg_slab_allocations, after_one)
      << "second phase must reuse the first phase's slabs";

  // One allocation per (query, vectorized set) for the single worker.
  size_t vec_sets = 0;
  SharedScanOptions probe_opts = options;
  {
    SharedScanStats stats;
    auto probe = ExecuteSharedScan(table, queries, probe_opts, &stats);
    ASSERT_TRUE(probe.ok());
    vec_sets = stats.agg_slab_allocations;
  }
  EXPECT_EQ(after_one, vec_sets);

  // And the reused-slab results still match a hash-path run with the SAME
  // phase structure bit for bit (phased vs one-shot may differ by float
  // reassociation at the phase boundary — that is documented — but vec vs
  // hash under identical phases must not).
  auto phased = scan->FinalResults();
  ASSERT_TRUE(phased.ok());
  SharedScanOptions hash_options = options;
  hash_options.enable_vectorized = false;
  auto hash_scan = SharedScanState::Create(table, queries, hash_options);
  ASSERT_TRUE(hash_scan.ok());
  ASSERT_TRUE(hash_scan->RunPhase(0, 1000).ok());
  ASSERT_TRUE(hash_scan->RunPhase(1000, 2000).ok());
  auto hash_results = hash_scan->FinalResults();
  ASSERT_TRUE(hash_results.ok());
  for (size_t q = 0; q < phased->size(); ++q) {
    for (size_t s = 0; s < (*phased)[q].size(); ++s) {
      ExpectTablesBitIdentical((*phased)[q][s], (*hash_results)[q][s],
                               "phased query " + std::to_string(q) + " set " +
                                   std::to_string(s));
    }
  }
}

// Null-mask aggregation at morsel granularity: a morsel consisting entirely
// of null measures (and null dimensions) must create the right groups with
// empty accumulators, and null runs straddling a morsel boundary must not
// double- or under-count — with morsel_rows = 4 the 12-row layout below
// puts an all-null morsel in the middle and splits a null run across the
// second boundary.
TEST(VecEquivalenceTest, AllNullMorselAndStraddlingNullRuns) {
  Schema schema({
      ColumnDef::Dimension("d"),
      ColumnDef::Measure("m"),
  });
  Table table(schema);
  // Rows 0-3: normal. Rows 4-7: all null (both columns). Rows 8-9 null,
  // 10-11 normal — the null run crosses the morsel boundary at row 8.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(table.AppendRow({Value("a"), Value(1.0 + i)}).ok());
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(table.AppendRow({Value(), Value()}).ok());
  }
  ASSERT_TRUE(table.AppendRow({Value("b"), Value()}).ok());
  ASSERT_TRUE(table.AppendRow({Value(), Value(5.0)}).ok());
  ASSERT_TRUE(table.AppendRow({Value("b"), Value(7.0)}).ok());
  ASSERT_TRUE(table.AppendRow({Value("a"), Value(9.0)}).ok());

  GroupingSetsQuery query;
  query.table = "t";
  query.grouping_sets = {{"d"}, {}};
  query.aggregates = {
      AggregateSpec::Count(),
      AggregateSpec::Make(AggregateFunction::kCount, "m"),
      AggregateSpec::Make(AggregateFunction::kSum, "m"),
      AggregateSpec::Make(AggregateFunction::kMin, "m"),
  };

  SharedScanOptions options;
  options.num_threads = 1;
  options.morsel_rows = 4;
  SharedScanStats stats;
  auto got = ExecuteSharedScan(table, {query}, options, &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(stats.vectorized_morsels, 3u);

  SharedScanOptions hash_options = options;
  hash_options.enable_vectorized = false;
  auto hash = ExecuteSharedScan(table, {query}, hash_options, nullptr);
  ASSERT_TRUE(hash.ok());
  for (size_t s = 0; s < (*got)[0].size(); ++s) {
    ExpectTablesBitIdentical((*got)[0][s], (*hash)[0][s],
                             "set " + std::to_string(s));
  }

  // Spot-check the by-dimension set: keys sort null < "a" < "b".
  const Table& by_d = (*got)[0][0];
  ASSERT_EQ(by_d.num_rows(), 3u);
  EXPECT_TRUE(by_d.ValueAt(0, 0).is_null());
  EXPECT_EQ(by_d.ValueAt(0, 1), Value(5.0));  // COUNT(*): 4 all-null + row 9
  EXPECT_EQ(by_d.ValueAt(0, 2), Value(1.0));  // COUNT(m): only row 9
  EXPECT_EQ(by_d.ValueAt(0, 3), Value(5.0));  // SUM(m)
  EXPECT_EQ(by_d.ValueAt(1, 0), Value("a"));
  EXPECT_EQ(by_d.ValueAt(1, 1), Value(5.0));
  EXPECT_EQ(by_d.ValueAt(1, 3), Value(1.0 + 2.0 + 3.0 + 4.0 + 9.0));
  EXPECT_EQ(by_d.ValueAt(1, 4), Value(1.0));  // MIN(m)
  EXPECT_EQ(by_d.ValueAt(2, 0), Value("b"));
  EXPECT_EQ(by_d.ValueAt(2, 1), Value(2.0));
  EXPECT_EQ(by_d.ValueAt(2, 2), Value(1.0));  // row 8's m is null
}

}  // namespace
}  // namespace seedb::db
