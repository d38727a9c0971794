// Unit tests for the vectorized kernel subsystem (db/vec/): selection
// vectors, batch filter kernels, dense group-id composition, and flat-slab
// aggregation kernels — the pieces db/shared_scan.cc wires into its morsel
// inner loop — plus the explicit-SIMD selection and compare tier
// (db/vec/simd/), which must agree with the scalar-vectorized kernels BIT
// for bit on every input shape: lane-width tails, unaligned range starts,
// validity masks, all-null runs.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "db/vec/aggregate_kernels.h"
#include "db/vec/group_ids.h"
#include "db/vec/selection_vector.h"
#include "db/vec/simd/simd.h"
#include "util/random.h"

namespace seedb::db::vec {
namespace {

std::vector<uint32_t> Rows(const SelectionVector& sel) {
  std::vector<uint32_t> out;
  for (size_t i = 0; i < sel.size(); ++i) out.push_back(sel[i]);
  return out;
}

TEST(SelectionVectorTest, FromMaskPicksSetBytesWithinRange) {
  const std::vector<uint8_t> mask = {1, 0, 1, 1, 0, 0, 1, 0};
  SelectionVector sel;
  SelectFromMask(mask.data(), 0, mask.size(), &sel);
  EXPECT_EQ(Rows(sel), (std::vector<uint32_t>{0, 2, 3, 6}));

  SelectFromMask(mask.data(), 2, 6, &sel);
  EXPECT_EQ(Rows(sel), (std::vector<uint32_t>{2, 3}));

  SelectFromMask(mask.data(), 4, 4, &sel);
  EXPECT_TRUE(sel.empty());
}

TEST(SelectionVectorTest, SelectAllAndRefine) {
  SelectionVector sel;
  SelectAll(3, 7, &sel);
  EXPECT_EQ(Rows(sel), (std::vector<uint32_t>{3, 4, 5, 6}));

  const std::vector<uint8_t> mask = {0, 0, 0, 1, 0, 1, 0, 1};
  Refine(mask.data(), &sel);
  EXPECT_EQ(Rows(sel), (std::vector<uint32_t>{3, 5}));
}

TEST(SelectionVectorTest, CompareInt64AllOps) {
  const std::vector<int64_t> data = {5, 1, 3, 5, 9};
  SelectionVector sel;
  SelectCompareInt64(data.data(), nullptr, CompareOp::kEq, 5, 0, 5, &sel);
  EXPECT_EQ(Rows(sel), (std::vector<uint32_t>{0, 3}));
  SelectCompareInt64(data.data(), nullptr, CompareOp::kNe, 5, 0, 5, &sel);
  EXPECT_EQ(Rows(sel), (std::vector<uint32_t>{1, 2, 4}));
  SelectCompareInt64(data.data(), nullptr, CompareOp::kLt, 5, 0, 5, &sel);
  EXPECT_EQ(Rows(sel), (std::vector<uint32_t>{1, 2}));
  SelectCompareInt64(data.data(), nullptr, CompareOp::kLe, 5, 0, 5, &sel);
  EXPECT_EQ(Rows(sel), (std::vector<uint32_t>{0, 1, 2, 3}));
  SelectCompareInt64(data.data(), nullptr, CompareOp::kGt, 5, 0, 5, &sel);
  EXPECT_EQ(Rows(sel), (std::vector<uint32_t>{4}));
  SelectCompareInt64(data.data(), nullptr, CompareOp::kGe, 5, 0, 5, &sel);
  EXPECT_EQ(Rows(sel), (std::vector<uint32_t>{0, 3, 4}));
}

TEST(SelectionVectorTest, CompareSkipsNullRows) {
  const std::vector<double> data = {1.0, 2.0, 3.0, 4.0};
  const std::vector<uint8_t> validity = {1, 0, 1, 0};
  SelectionVector sel;
  SelectCompareDouble(data.data(), validity.data(), CompareOp::kGe, 0.0, 0, 4,
                      &sel);
  EXPECT_EQ(Rows(sel), (std::vector<uint32_t>{0, 2}));
}

TEST(SelectionVectorTest, CompareCodeUsesTruthTableAndValidity) {
  const std::vector<int32_t> codes = {0, 1, 2, 0, 1};
  const std::vector<uint8_t> code_match = {1, 0, 1};
  SelectionVector sel;
  SelectCompareCode(codes.data(), nullptr, code_match.data(), 0, 5, &sel);
  EXPECT_EQ(Rows(sel), (std::vector<uint32_t>{0, 2, 3}));

  // Null rows never match, even when their slot holds a matching code 0.
  const std::vector<uint8_t> validity = {0, 1, 1, 1, 1};
  SelectCompareCode(codes.data(), validity.data(), code_match.data(), 0, 5,
                    &sel);
  EXPECT_EQ(Rows(sel), (std::vector<uint32_t>{2, 3}));
}

TEST(GroupIdsTest, SlotCountIsRadixProductWithBudget) {
  DenseDim a{nullptr, nullptr, 5};
  DenseDim b{nullptr, nullptr, 7};
  EXPECT_EQ(DenseSlotCount({}, 100), 1u);  // global aggregate
  EXPECT_EQ(DenseSlotCount({a}, 100), 5u);
  EXPECT_EQ(DenseSlotCount({a, b}, 100), 35u);
  EXPECT_EQ(DenseSlotCount({a, b}, 34), 0u);  // over budget -> hash fallback
  DenseDim huge{nullptr, nullptr, 1u << 31};
  EXPECT_EQ(DenseSlotCount({huge, huge, huge}, 1u << 20), 0u);  // no overflow
}

TEST(GroupIdsTest, SingleDimensionNullTakesLastSlot) {
  const std::vector<int32_t> codes = {2, 0, 1, 0};
  const std::vector<uint8_t> validity = {1, 1, 1, 0};  // row 3 null, code 0
  DenseDim dim{codes.data(), validity.data(), 4};      // dict_size 3 + null
  std::vector<uint32_t> gids(4);
  GroupIdsRange(&dim, 1, 0, 4, gids.data());
  EXPECT_EQ(gids, (std::vector<uint32_t>{2, 0, 1, 3}));  // null != code 0
}

TEST(GroupIdsTest, MultiDimensionRadixComposition) {
  // gid = c0 * slots1 + c1, null of dim1 = slot slots1-1.
  const std::vector<int32_t> c0 = {0, 1, 1};
  const std::vector<int32_t> c1 = {1, 0, 0};
  const std::vector<uint8_t> v1 = {1, 1, 0};
  DenseDim dims[2] = {{c0.data(), nullptr, 2}, {c1.data(), v1.data(), 3}};
  std::vector<uint32_t> gids(3);
  GroupIdsRange(dims, 2, 0, 3, gids.data());
  EXPECT_EQ(gids, (std::vector<uint32_t>{1, 3, 5}));

  SelectionVector sel;
  SelectAll(1, 3, &sel);
  GroupIdsSel(dims, 2, sel, gids.data());
  EXPECT_EQ(gids[0], 3u);
  EXPECT_EQ(gids[1], 5u);
}

TEST(AggregateKernelsTest, TouchRecordsFirstSeenOrderAndRepRows) {
  DenseAggTable t;
  t.Init(4, 1);
  const std::vector<uint32_t> gids = {2, 0, 2, 1, 0};
  TouchGroupsRange(gids.data(), 10, gids.size(), &t);
  EXPECT_EQ(t.touched, (std::vector<uint32_t>{2, 0, 1}));
  EXPECT_EQ(t.rep_row, (std::vector<uint32_t>{10, 11, 13}));
}

TEST(AggregateKernelsTest, CountKernelHonorsFilterAndValidity) {
  DenseAggTable t;
  t.Init(2, 1);
  const std::vector<uint32_t> gids = {0, 1, 0, 1};
  const std::vector<uint8_t> filter = {1, 1, 0, 1};
  const std::vector<uint8_t> validity = {1, 0, 1, 1};
  AccumulateCountRange(gids.data(), 0, 4, filter.data(), validity.data(),
                       t.slab(0));
  EXPECT_EQ(t.slab(0)[0].count, 1);  // row 2 filtered out
  EXPECT_EQ(t.slab(0)[1].count, 1);  // row 1 null input
  // COUNT(*): no validity — every filtered-in row counts.
  DenseAggTable star;
  star.Init(2, 1);
  AccumulateCountRange(gids.data(), 0, 4, nullptr, nullptr, star.slab(0));
  EXPECT_EQ(star.slab(0)[0].count, 2);
  EXPECT_EQ(star.slab(0)[1].count, 2);
}

TEST(AggregateKernelsTest, TypedAccumulationMatchesAggStateAdd) {
  DenseAggTable t;
  t.Init(2, 2);
  const std::vector<uint32_t> gids = {0, 1, 0};
  const std::vector<int64_t> ints = {4, -2, 10};
  const std::vector<double> doubles = {0.5, 2.5, -1.5};
  AccumulateInt64Range(gids.data(), 0, 3, ints.data(), nullptr, nullptr,
                       t.slab(0));
  AccumulateDoubleRange(gids.data(), 0, 3, doubles.data(), nullptr, nullptr,
                        t.slab(1));

  AggState want_int;
  want_int.Add(4.0);
  want_int.Add(10.0);
  EXPECT_EQ(t.slab(0)[0].count, want_int.count);
  EXPECT_EQ(t.slab(0)[0].sum, want_int.sum);
  EXPECT_EQ(t.slab(0)[0].min, want_int.min);
  EXPECT_EQ(t.slab(0)[0].max, want_int.max);
  EXPECT_EQ(t.slab(1)[0].sum, -1.0);
  EXPECT_EQ(t.slab(1)[0].min, -1.5);
  EXPECT_EQ(t.slab(1)[0].max, 0.5);
  EXPECT_EQ(t.slab(1)[1].count, 1);
}

TEST(AggregateKernelsTest, SelVariantsWalkSelectedRowsOnly) {
  DenseAggTable t;
  t.Init(3, 1);
  const std::vector<double> data = {1.0, 2.0, 4.0, 8.0};
  // Select rows 1 and 3; gids are sel-aligned.
  SelectionVector sel;
  sel.Append(1);
  sel.Append(3);
  const std::vector<uint32_t> gids = {2, 2};
  TouchGroupsSel(gids.data(), sel, &t);
  AccumulateDoubleSel(gids.data(), sel, data.data(), nullptr, nullptr,
                      t.slab(0));
  EXPECT_EQ(t.touched, (std::vector<uint32_t>{2}));
  EXPECT_EQ(t.rep_row, (std::vector<uint32_t>{1}));
  EXPECT_EQ(t.slab(0)[2].count, 2);
  EXPECT_EQ(t.slab(0)[2].sum, 10.0);
  EXPECT_EQ(t.slab(0)[0].count, 0);
}

TEST(AggregateKernelsTest, AllNullInputLeavesEmptyAccumulators) {
  DenseAggTable t;
  t.Init(1, 1);
  const std::vector<uint32_t> gids = {0, 0, 0};
  const std::vector<double> data = {1.0, 2.0, 3.0};
  const std::vector<uint8_t> validity = {0, 0, 0};
  TouchGroupsRange(gids.data(), 0, 3, &t);
  AccumulateDoubleRange(gids.data(), 0, 3, data.data(), nullptr,
                        validity.data(), t.slab(0));
  // The group exists (selected rows touch it) but no value accumulated —
  // exactly the scalar path's semantics for an all-null morsel.
  EXPECT_EQ(t.touched.size(), 1u);
  EXPECT_EQ(t.slab(0)[0].count, 0);
  EXPECT_EQ(t.slab(0)[0].sum, 0.0);
}

TEST(AggregateKernelsTest, ResetReusesSlabWithoutReallocating) {
  DenseAggTable t;
  t.Init(8, 2);
  EXPECT_EQ(t.allocations, 1u);
  const AggState* slab_before = t.slab(0);

  const std::vector<uint32_t> gids = {3, 5, 3};
  const std::vector<double> data = {1.0, 2.0, 4.0};
  TouchGroupsRange(gids.data(), 0, 3, &t);
  AccumulateDoubleRange(gids.data(), 0, 3, data.data(), nullptr, nullptr,
                        t.slab(0));
  ASSERT_EQ(t.touched, (std::vector<uint32_t>{3, 5}));
  EXPECT_EQ(t.slab(0)[3].sum, 5.0);

  t.Reset();
  EXPECT_EQ(t.allocations, 1u);        // Reset never reallocates
  EXPECT_EQ(t.slab(0), slab_before);   // same slab memory
  EXPECT_TRUE(t.touched.empty());
  EXPECT_TRUE(t.rep_row.empty());
  // Every previously touched slot is back to the empty accumulator, in both
  // aggregates' slabs.
  for (uint32_t slot : {3u, 5u}) {
    for (uint32_t a = 0; a < 2; ++a) {
      EXPECT_EQ(t.slab(a)[slot].count, 0) << "agg " << a << " slot " << slot;
      EXPECT_EQ(t.slab(a)[slot].sum, 0.0);
      EXPECT_EQ(t.seen[slot], 0);
    }
  }
  // The table accumulates correctly again after Reset.
  TouchGroupsRange(gids.data(), 0, 3, &t);
  AccumulateDoubleRange(gids.data(), 0, 3, data.data(), nullptr, nullptr,
                        t.slab(0));
  EXPECT_EQ(t.slab(0)[3].count, 2);
  EXPECT_EQ(t.slab(0)[3].sum, 5.0);
}

// -- Explicit-SIMD tier equivalence -----------------------------------------
//
// Every simd:: kernel must emit exactly what its vec:: counterpart emits —
// same rows, same order, same accumulator BITS — across a fuzz matrix of
// sizes chosen to hit every lane-width tail (0..2·lane+3), range offsets
// that misalign the 8-row blocks, and validity shapes including all-null
// and null runs straddling the 8-byte mask words the AVX2 path consumes.

constexpr CompareOp kAllOps[] = {CompareOp::kEq, CompareOp::kNe,
                                 CompareOp::kLt, CompareOp::kLe,
                                 CompareOp::kGt, CompareOp::kGe};

void ExpectSameSelection(const SelectionVector& got,
                         const SelectionVector& want,
                         const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << label << " index " << i;
  }
}

TEST(SimdEquivalenceTest, SelectFromMaskMatchesScalarOnAllShapes) {
  Random rng(101);
  for (size_t n : {0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 70, 257}) {
    for (size_t offset : {0, 1, 3, 13}) {
      std::vector<uint8_t> mask(offset + n);
      for (auto& b : mask) b = rng.Bernoulli(0.4) ? 1 : 0;
      SelectionVector simd_sel, scalar_sel;
      simd::SelectFromMask(mask.data(), offset, offset + n, &simd_sel);
      SelectFromMask(mask.data(), offset, offset + n, &scalar_sel);
      ExpectSameSelection(simd_sel, scalar_sel,
                          "mask n=" + std::to_string(n) +
                              " off=" + std::to_string(offset));
      // Degenerate shapes the block loops special-case: all-zero, all-one.
      std::fill(mask.begin(), mask.end(), 0);
      simd::SelectFromMask(mask.data(), offset, offset + n, &simd_sel);
      EXPECT_TRUE(simd_sel.empty());
      std::fill(mask.begin(), mask.end(), 1);
      simd::SelectFromMask(mask.data(), offset, offset + n, &simd_sel);
      SelectFromMask(mask.data(), offset, offset + n, &scalar_sel);
      ExpectSameSelection(simd_sel, scalar_sel,
                          "all-ones n=" + std::to_string(n));
    }
  }
}

TEST(SimdEquivalenceTest, RefineMatchesScalarOnAllShapes) {
  Random rng(102);
  for (size_t n : {0, 1, 7, 8, 9, 31, 32, 33, 70}) {
    std::vector<uint8_t> base(2 * n + 8, 0), refine(2 * n + 8, 0);
    for (auto& b : base) b = rng.Bernoulli(0.6) ? 1 : 0;
    for (auto& b : refine) b = rng.Bernoulli(0.5) ? 1 : 0;
    SelectionVector simd_sel, scalar_sel;
    simd::SelectFromMask(base.data(), 0, n, &simd_sel);
    SelectFromMask(base.data(), 0, n, &scalar_sel);
    simd::Refine(refine.data(), &simd_sel);
    Refine(refine.data(), &scalar_sel);
    ExpectSameSelection(simd_sel, scalar_sel, "refine n=" + std::to_string(n));
  }
}

TEST(SimdEquivalenceTest, CompareKernelsMatchScalarOnAllOpsAndShapes) {
  Random rng(103);
  for (size_t n : {0, 1, 3, 7, 8, 9, 15, 16, 17, 33, 64, 67}) {
    for (size_t offset : {0, 1, 3}) {
      const size_t total = offset + n;
      std::vector<int64_t> i64(total);
      std::vector<double> f64(total);
      std::vector<int32_t> codes(total);
      std::vector<uint8_t> validity(total);
      for (size_t i = 0; i < total; ++i) {
        i64[i] = rng.UniformInt(-5, 5);
        f64[i] = rng.Bernoulli(0.1) ? std::numeric_limits<double>::quiet_NaN()
                                    : rng.UniformDouble(-5.0, 5.0);
        codes[i] = static_cast<int32_t>(rng.UniformInt(0, 3));
        validity[i] = rng.Bernoulli(0.25) ? 0 : 1;
      }
      const std::vector<uint8_t> code_match = {1, 0, 1, 0};
      for (const uint8_t* v :
           {(const uint8_t*)validity.data(), (const uint8_t*)nullptr}) {
        for (CompareOp op : kAllOps) {
          const std::string label =
              "n=" + std::to_string(n) + " off=" + std::to_string(offset) +
              " op=" + std::to_string(static_cast<int>(op)) +
              (v ? " valid" : " novalid");
          SelectionVector simd_sel, scalar_sel;
          simd::SelectCompareInt64(i64.data(), v, op, 1, offset, total,
                                   &simd_sel);
          SelectCompareInt64(i64.data(), v, op, 1, offset, total,
                             &scalar_sel);
          ExpectSameSelection(simd_sel, scalar_sel, "i64 " + label);
          // NaN rows must never be selected, matching scalar semantics for
          // every op — including kNe.
          simd::SelectCompareDouble(f64.data(), v, op, 0.5, offset, total,
                                    &simd_sel);
          SelectCompareDouble(f64.data(), v, op, 0.5, offset, total,
                              &scalar_sel);
          ExpectSameSelection(simd_sel, scalar_sel, "f64 " + label);
        }
        SelectionVector simd_sel, scalar_sel;
        simd::SelectCompareCode(codes.data(), v, code_match.data(), offset,
                                total, &simd_sel);
        SelectCompareCode(codes.data(), v, code_match.data(), offset, total,
                          &scalar_sel);
        ExpectSameSelection(simd_sel, scalar_sel,
                            "code n=" + std::to_string(n));
      }
      // All-null: nothing selected on either tier.
      std::vector<uint8_t> none(total, 0);
      SelectionVector simd_sel;
      simd::SelectCompareInt64(i64.data(), none.data(), CompareOp::kGe,
                               -100, offset, total, &simd_sel);
      EXPECT_TRUE(simd_sel.empty());
    }
  }
}

TEST(SimdEquivalenceTest, IsaNameIsConsistentWithAvailability) {
  // Whatever the build/CPU, the pair (IsaName, Available) must be coherent:
  // a scalar build never reports available, and an available tier reports
  // a vector ISA name.
  if (simd::Available()) {
    EXPECT_NE(std::string(simd::IsaName()), "scalar");
  }
  if (std::string(simd::IsaName()) == "scalar") {
    EXPECT_FALSE(simd::Available());
  }
}

}  // namespace
}  // namespace seedb::db::vec
