// E13 — Vectorized kernel subsystem (db/vec/): per-kernel throughput and
// the fused-plan wall clock of the dense inner loop vs the hash path vs
// ExecuteGroupingSets' aggregate-major loop.
//
// The ROADMAP regression this closes: the single-query fused plan used to
// be SLOWER than ExecuteGroupingSets on one core (per-row boxed hash inner
// loop). With selection vectors + dense group-id + flat-slab kernels the
// fused plan must win on one core — pinned by CI reading
// BENCH_vectorized.json (which also asserts the fast path actually engaged
// via vectorized_morsels >= 1).
//
// The explicit-SIMD tier (db/vec/simd/) adds simd-vs-scalar rows for the
// compare/select kernels plus a fused WHERE'd plan pair, and the summary
// records simd_isa / speedups / fused_simd_morsels — CI asserts the tier
// engaged on AVX2 legs, and tools/perf_gate.py warns whenever the simd
// compare kernel fails to beat the scalar one.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "data/workload.h"
#include "db/grouping_sets.h"
#include "db/predicate.h"
#include "db/shared_scan.h"
#include "db/vec/aggregate_kernels.h"
#include "db/vec/group_ids.h"
#include "db/vec/selection_vector.h"
#include "db/vec/simd/simd.h"
#include "util/random.h"

namespace {

using namespace seedb;  // NOLINT

constexpr size_t kKernelRows = 1 << 20;

// One micro-kernel measurement: lower-median seconds over reps -> rows/sec.
double KernelRowsPerSec(const std::function<void()>& fn, size_t rows,
                        int reps = 5) {
  double secs = bench::MedianSeconds(fn, reps);
  return secs > 0.0 ? static_cast<double>(rows) / secs : 0.0;
}

void RunExperiment() {
  bench::Banner("E13 (vectorized kernels)",
                "selection-vector + dense group-id + flat-slab aggregation "
                "as the shared scan's inner loop",
                "the single-query fused plan with dense kernels beats "
                "ExecuteGroupingSets' aggregate-major loop on one core; the "
                "hash fallback shows what the dense path saves");

  bench::JsonWriter json;
  json.BeginObject()
      .Key("bench").Value("vectorized")
      .Key("kernel_rows").Value(kKernelRows)
      .Key("runs").BeginArray();

  auto emit = [&json](const char* name, double total_ms, double rows_per_sec,
                      size_t vectorized_morsels) {
    std::printf("%28s  %10.2f ms  %12.1f Mrows/s  vec_morsels=%zu\n", name,
                total_ms, rows_per_sec / 1e6, vectorized_morsels);
    json.BeginObject()
        .Key("name").Value(name)
        .Key("total_ms").Value(total_ms)
        .Key("rows_per_sec").Value(rows_per_sec)
        .Key("vectorized_morsels").Value(vectorized_morsels)
        .EndObject();
  };

  // --- Per-kernel throughput over synthetic arrays. ---
  double simd_compare_speedup = 0.0;
  {
    Random rng(7);
    std::vector<uint8_t> mask(kKernelRows);
    std::vector<int32_t> codes(kKernelRows);
    std::vector<double> values(kKernelRows);
    std::vector<int64_t> ints(kKernelRows);
    for (size_t i = 0; i < kKernelRows; ++i) {
      mask[i] = rng.Bernoulli(0.5) ? 1 : 0;
      codes[i] = static_cast<int32_t>(rng.UniformInt(0, 23));
      values[i] = rng.UniformDouble(-100.0, 100.0);
      ints[i] = rng.UniformInt(-1000, 1000);
    }
    db::vec::SelectionVector sel;
    double rps = KernelRowsPerSec(
        [&] { db::vec::SelectFromMask(mask.data(), 0, kKernelRows, &sel); },
        kKernelRows);
    emit("kernel:select_from_mask", kKernelRows / rps * 1e3, rps, 0);
    rps = KernelRowsPerSec(
        [&] {
          db::vec::simd::SelectFromMask(mask.data(), 0, kKernelRows, &sel);
        },
        kKernelRows);
    emit("kernel:select_from_mask_simd", kKernelRows / rps * 1e3, rps, 0);

    double scalar_cmp = KernelRowsPerSec(
        [&] {
          db::vec::SelectCompareDouble(values.data(), nullptr,
                                       db::CompareOp::kGt, 0.0, 0,
                                       kKernelRows, &sel);
        },
        kKernelRows);
    emit("kernel:select_compare_double", kKernelRows / scalar_cmp * 1e3,
         scalar_cmp, 0);
    double simd_cmp = KernelRowsPerSec(
        [&] {
          db::vec::simd::SelectCompareDouble(values.data(), nullptr,
                                             db::CompareOp::kGt, 0.0, 0,
                                             kKernelRows, &sel);
        },
        kKernelRows);
    emit("kernel:select_compare_double_simd", kKernelRows / simd_cmp * 1e3,
         simd_cmp, 0);
    simd_compare_speedup = scalar_cmp > 0.0 ? simd_cmp / scalar_cmp : 0.0;

    rps = KernelRowsPerSec(
        [&] {
          db::vec::SelectCompareInt64(ints.data(), nullptr, db::CompareOp::kLt,
                                      0, 0, kKernelRows, &sel);
        },
        kKernelRows);
    emit("kernel:select_compare_int64", kKernelRows / rps * 1e3, rps, 0);
    rps = KernelRowsPerSec(
        [&] {
          db::vec::simd::SelectCompareInt64(ints.data(), nullptr,
                                            db::CompareOp::kLt, 0, 0,
                                            kKernelRows, &sel);
        },
        kKernelRows);
    emit("kernel:select_compare_int64_simd", kKernelRows / rps * 1e3, rps, 0);

    db::vec::DenseDim dim{codes.data(), nullptr, 25};
    std::vector<uint32_t> gids(kKernelRows);
    rps = KernelRowsPerSec(
        [&] {
          db::vec::GroupIdsRange(&dim, 1, 0, kKernelRows, gids.data());
        },
        kKernelRows);
    emit("kernel:group_ids_range", kKernelRows / rps * 1e3, rps, 0);

    db::vec::DenseAggTable slab;
    rps = KernelRowsPerSec(
        [&] {
          slab.Init(25, 1);
          db::vec::AccumulateDoubleRange(gids.data(), 0, kKernelRows,
                                         values.data(), nullptr, nullptr,
                                         slab.slab(0));
        },
        kKernelRows);
    emit("kernel:accumulate_double", kKernelRows / rps * 1e3, rps, 0);
  }

  // --- Fused single-query plan vs ExecuteGroupingSets, one core. ---
  data::WorkloadSpec spec;
  spec.rows = 400000;
  spec.num_dims = 4;
  spec.num_measures = 2;
  auto workload = data::BuildWorkload(spec).ValueOrDie();
  const db::Table* table =
      workload.catalog->GetTable(workload.table_name).ValueOrDie();

  // The §3.3 combined query shape: every dimension a grouping set, target
  // half under FILTER, comparison half unconditional.
  db::GroupingSetsQuery query;
  query.table = workload.table_name;
  query.grouping_sets = {{"dim0"}, {"dim1"}, {"dim2"}, {"dim3"}};
  query.aggregates = {
      db::AggregateSpec::Make(db::AggregateFunction::kSum, "m0",
                              "target", workload.selection),
      db::AggregateSpec::Make(db::AggregateFunction::kSum, "m0",
                              "comparison"),
  };

  std::printf("\nfused single-query plan: %zu rows, %zu grouping sets, "
              "%zu aggregates, 1 thread\n\n",
              table->num_rows(), query.grouping_sets.size(),
              query.aggregates.size());

  double gs_ms =
      bench::MedianSeconds(
          [&] {
            auto r = db::ExecuteGroupingSets(*table, query, nullptr);
            (void)r.ValueOrDie();
          },
          3) *
      1e3;
  emit("fused:grouping_sets", gs_ms,
       table->num_rows() / (gs_ms / 1e3), 0);

  db::SharedScanOptions hash_options;
  hash_options.num_threads = 1;
  hash_options.enable_vectorized = false;
  db::SharedScanStats hash_stats;
  double hash_ms =
      bench::MedianSeconds(
          [&] {
            auto r = db::ExecuteSharedScan(*table, {query}, hash_options,
                                           &hash_stats);
            (void)r.ValueOrDie();
          },
          3) *
      1e3;
  emit("fused:shared_scan_hash", hash_ms, table->num_rows() / (hash_ms / 1e3),
       hash_stats.vectorized_morsels);

  db::SharedScanOptions vec_options;
  vec_options.num_threads = 1;
  db::SharedScanStats vec_stats;
  double vec_ms =
      bench::MedianSeconds(
          [&] {
            auto r = db::ExecuteSharedScan(*table, {query}, vec_options,
                                           &vec_stats);
            (void)r.ValueOrDie();
          },
          3) *
      1e3;
  emit("fused:shared_scan_vectorized", vec_ms,
       table->num_rows() / (vec_ms / 1e3), vec_stats.vectorized_morsels);

  // --- Fused WHERE'd plan: predicate->selection fusion, simd vs scalar. ---
  // The WHERE comparison fuses into selection building on the vectorized
  // path (no byte mask is materialized), so this pair exercises the typed
  // compare kernels end to end inside the scan.
  db::GroupingSetsQuery where_query = query;
  where_query.where = db::PredicatePtr(db::Gt("m0", db::Value(0.0)));

  db::SharedScanOptions simd_off = vec_options;
  simd_off.enable_simd = false;
  db::SharedScanStats where_scalar_stats;
  double where_scalar_ms =
      bench::MedianSeconds(
          [&] {
            auto r = db::ExecuteSharedScan(*table, {where_query}, simd_off,
                                           &where_scalar_stats);
            (void)r.ValueOrDie();
          },
          3) *
      1e3;
  emit("fused:where_scan_scalar", where_scalar_ms,
       table->num_rows() / (where_scalar_ms / 1e3),
       where_scalar_stats.vectorized_morsels);

  db::SharedScanStats where_simd_stats;
  double where_simd_ms =
      bench::MedianSeconds(
          [&] {
            auto r = db::ExecuteSharedScan(*table, {where_query}, vec_options,
                                           &where_simd_stats);
            (void)r.ValueOrDie();
          },
          3) *
      1e3;
  emit("fused:where_scan_simd", where_simd_ms,
       table->num_rows() / (where_simd_ms / 1e3),
       where_simd_stats.vectorized_morsels);

  json.EndArray()
      .Key("fused_vectorized_morsels").Value(vec_stats.vectorized_morsels)
      .Key("vec_beats_grouping_sets").Value(vec_ms < gs_ms)
      .Key("speedup_vs_grouping_sets").Value(gs_ms / vec_ms)
      .Key("speedup_vs_hash").Value(hash_ms / vec_ms)
      .Key("simd_isa").Value(db::vec::simd::IsaName())
      .Key("simd_compare_speedup").Value(simd_compare_speedup)
      .Key("fused_simd_morsels").Value(where_simd_stats.simd_morsels)
      .Key("simd_beats_scalar_compare").Value(simd_compare_speedup > 1.0)
      .Key("where_speedup_simd_vs_scalar")
      .Value(where_scalar_ms / where_simd_ms)
      .EndObject();
  json.WriteFile("BENCH_vectorized.json");

  std::printf("\nspeedup: %.2fx vs ExecuteGroupingSets, %.2fx vs the hash "
              "inner loop (%s)\n",
              gs_ms / vec_ms, hash_ms / vec_ms,
              vec_ms < gs_ms ? "dense kernels WIN on one core"
                             : "REGRESSION: dense kernels lost");
  std::printf("simd tier (%s): compare %.2fx vs the scalar kernel; "
              "WHERE'd fused plan %.2fx (simd_morsels=%zu)\n",
              db::vec::simd::IsaName(), simd_compare_speedup,
              where_scalar_ms / where_simd_ms, where_simd_stats.simd_morsels);
  bench::Footer();
}

void BM_FusedVectorized(benchmark::State& state) {
  data::WorkloadSpec spec;
  spec.rows = 100000;
  spec.num_dims = 4;
  spec.num_measures = 1;
  auto workload = data::BuildWorkload(spec).ValueOrDie();
  const db::Table* table =
      workload.catalog->GetTable(workload.table_name).ValueOrDie();
  db::GroupingSetsQuery query;
  query.table = workload.table_name;
  query.grouping_sets = {{"dim0"}, {"dim1"}, {"dim2"}, {"dim3"}};
  query.aggregates = {
      db::AggregateSpec::Make(db::AggregateFunction::kSum, "m0")};
  db::SharedScanOptions options;
  options.num_threads = 1;
  options.enable_vectorized = state.range(0) != 0;
  for (auto _ : state) {
    auto r = db::ExecuteSharedScan(*table, {query}, options, nullptr);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * table->num_rows());
}
BENCHMARK(BM_FusedVectorized)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  RunExperiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
