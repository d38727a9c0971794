#include "db/statistics.h"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <unordered_map>

#include "util/histogram.h"

namespace seedb::db {
namespace {

// A column's value distribution, built without a node per row: string
// columns count dictionary codes in one array; numeric columns sort one copy
// of their non-null values, whose runs are the distinct values.
struct Distribution {
  size_t distinct = 0;
  /// Occurrences of each distinct non-null value: in dictionary-code order
  /// for strings, in ascending value order for numerics.
  std::vector<size_t> freqs;
  /// The kTopValues most frequent values: count descending, then value
  /// ascending.
  std::vector<std::pair<Value, size_t>> top;
};

// Keeps the kTopValues best runs of a sorted column as the runs arrive in
// ascending value order: a later run displaces a kept one only with a
// strictly larger count, so equal counts go to the smaller value.
class TopRuns {
 public:
  /// `first` is the run's index into the sorted values.
  void Offer(size_t count, size_t first) {
    if (top_.size() == ColumnStats::kTopValues && count <= top_.back().first) {
      return;
    }
    auto pos = std::upper_bound(
        top_.begin(), top_.end(), count,
        [](size_t c, const std::pair<size_t, size_t>& e) {
          return c > e.first;
        });
    top_.insert(pos, {count, first});
    if (top_.size() > ColumnStats::kTopValues) top_.pop_back();
  }
  const std::vector<std::pair<size_t, size_t>>& runs() const { return top_; }

 private:
  std::vector<std::pair<size_t, size_t>> top_;  // (count, first index)
};

Distribution StringDistribution(const Column& col) {
  Distribution d;
  d.distinct = col.CountDistinct();
  std::vector<size_t> counts(col.dict_size(), 0);
  for (size_t i = 0; i < col.size(); ++i) {
    if (!col.IsNull(i)) ++counts[col.codes()[i]];
  }
  std::vector<int32_t> seen;
  for (size_t c = 0; c < counts.size(); ++c) {
    if (counts[c] == 0) continue;  // codes backing only null slots
    d.freqs.push_back(counts[c]);
    seen.push_back(static_cast<int32_t>(c));
  }
  const size_t k = std::min(seen.size(), ColumnStats::kTopValues);
  std::partial_sort(seen.begin(), seen.begin() + k, seen.end(),
                    [&](int32_t a, int32_t b) {
                      if (counts[a] != counts[b]) return counts[a] > counts[b];
                      return col.dict_value(a) < col.dict_value(b);
                    });
  for (size_t i = 0; i < k; ++i) {
    d.top.emplace_back(Value(col.dict_value(seen[i])), counts[seen[i]]);
  }
  return d;
}

// Distinct values are the runs of equal values in the sorted copy (-0.0 and
// +0.0 are one value, as under ==). A NaN equals nothing, so each NaN is a
// distinct value of its own, ordered after every number.
template <typename T>
Distribution NumericDistribution(const Column& col,
                                 const std::vector<T>& data) {
  std::vector<T> sorted;
  sorted.reserve(col.size() - col.null_count());
  for (size_t i = 0; i < col.size(); ++i) {
    if (!col.IsNull(i)) sorted.push_back(data[i]);
  }
  auto numbers_end = std::partition(sorted.begin(), sorted.end(),
                                    [](T v) { return v == v; });
  std::sort(sorted.begin(), numbers_end);
  const size_t numbers = static_cast<size_t>(numbers_end - sorted.begin());

  Distribution d;
  TopRuns top;
  for (size_t first = 0; first < sorted.size();) {
    size_t last = first + 1;
    if (first < numbers) {
      while (last < numbers && sorted[last] == sorted[first]) ++last;
    }
    d.freqs.push_back(last - first);
    top.Offer(last - first, first);
    first = last;
  }
  d.distinct = d.freqs.size();
  for (const auto& [count, first] : top.runs()) {
    T value = sorted[first];
    if (std::is_floating_point_v<T> && value == T{0}) {
      // The zero run may mix -0.0 and +0.0; report the sign of the first
      // zero in row order.
      for (size_t i = 0; i < col.size(); ++i) {
        if (!col.IsNull(i) && data[i] == T{0}) {
          value = data[i];
          break;
        }
      }
    }
    d.top.emplace_back(Value(value), count);
  }
  return d;
}

Distribution ValueDistribution(const Column& col) {
  switch (col.type()) {
    case ValueType::kString:
      return StringDistribution(col);
    case ValueType::kInt64:
      return NumericDistribution(col, col.int64_data());
    case ValueType::kDouble:
      return NumericDistribution(col, col.double_data());
    case ValueType::kNull:
      break;
  }
  return Distribution{};
}

}  // namespace

ColumnStats ComputeColumnStats(const Table& table, size_t col_index) {
  const Column& col = table.column(col_index);
  const ColumnDef& def = table.schema().column(col_index);
  ColumnStats stats;
  stats.name = def.name;
  stats.type = def.type;
  stats.role = def.role;
  stats.row_count = col.size();
  stats.null_count = col.null_count();

  if (col.type() == ValueType::kInt64 || col.type() == ValueType::kDouble) {
    RunningStats rs;
    for (size_t i = 0; i < col.size(); ++i) {
      if (!col.IsNull(i)) rs.Add(col.NumericAt(i));
    }
    stats.min = rs.min();
    stats.max = rs.max();
    stats.mean = rs.mean();
    stats.variance = rs.variance();
  }

  Distribution dist = ValueDistribution(col);
  stats.distinct_count = dist.distinct;
  // Diversity and entropy over the value distribution.
  size_t total = 0;
  for (size_t f : dist.freqs) total += f;
  if (total > 0) {
    double sum_p2 = 0.0;
    double entropy = 0.0;
    for (size_t f : dist.freqs) {
      double p = static_cast<double>(f) / static_cast<double>(total);
      sum_p2 += p * p;
      entropy -= p * std::log(p);
    }
    stats.diversity = 1.0 - sum_p2;
    stats.normalized_entropy =
        dist.freqs.size() > 1
            ? entropy / std::log(static_cast<double>(dist.freqs.size()))
            : 0.0;
  }
  stats.top_values = std::move(dist.top);
  return stats;
}

TableStats ComputeTableStats(const Table& table, const std::string& name) {
  TableStats stats;
  stats.table_name = name;
  stats.num_rows = table.num_rows();
  stats.memory_bytes = table.MemoryBytes();
  stats.columns.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    stats.columns.push_back(ComputeColumnStats(table, c));
  }
  return stats;
}

Result<const ColumnStats*> TableStats::Find(const std::string& column) const {
  for (const auto& c : columns) {
    if (c.name == column) return &c;
  }
  return Status::NotFound("no stats for column '" + column + "'");
}

Result<double> CramersV(const Table& table, const std::string& col_a,
                        const std::string& col_b) {
  SEEDB_ASSIGN_OR_RETURN(const Column* a, table.ColumnByName(col_a));
  SEEDB_ASSIGN_OR_RETURN(const Column* b, table.ColumnByName(col_b));
  auto code_of = [](const Column& c, size_t row) -> Result<int64_t> {
    switch (c.type()) {
      case ValueType::kString:
        return static_cast<int64_t>(c.codes()[row]);
      case ValueType::kInt64:
        return c.int64_data()[row];
      default:
        return Status::InvalidArgument(
            "Cramér's V requires categorical (string/int64) columns");
    }
  };

  // Contingency table over non-null pairs.
  std::unordered_map<int64_t, size_t> a_ids, b_ids;
  std::unordered_map<int64_t, size_t> cell_counts;  // (a_id << 32) | b_id
  std::vector<size_t> row_totals, col_totals;
  size_t n = 0;
  for (size_t i = 0; i < table.num_rows(); ++i) {
    if (a->IsNull(i) || b->IsNull(i)) continue;
    SEEDB_ASSIGN_OR_RETURN(int64_t av, code_of(*a, i));
    SEEDB_ASSIGN_OR_RETURN(int64_t bv, code_of(*b, i));
    auto [ita, ia] = a_ids.emplace(av, a_ids.size());
    auto [itb, ib] = b_ids.emplace(bv, b_ids.size());
    (void)ia;
    (void)ib;
    size_t ai = ita->second, bi = itb->second;
    if (ai >= row_totals.size()) row_totals.resize(ai + 1, 0);
    if (bi >= col_totals.size()) col_totals.resize(bi + 1, 0);
    ++row_totals[ai];
    ++col_totals[bi];
    ++cell_counts[static_cast<int64_t>((ai << 32) | bi)];
    ++n;
  }
  size_t r = row_totals.size();
  size_t k = col_totals.size();
  if (n == 0 || r < 2 || k < 2) {
    // Degenerate tables carry no association signal; report 0 rather than
    // failing so pruning can proceed.
    return 0.0;
  }

  double chi2 = 0.0;
  for (size_t ai = 0; ai < r; ++ai) {
    for (size_t bi = 0; bi < k; ++bi) {
      double expected = static_cast<double>(row_totals[ai]) *
                        static_cast<double>(col_totals[bi]) /
                        static_cast<double>(n);
      auto it = cell_counts.find(static_cast<int64_t>((ai << 32) | bi));
      double observed =
          it == cell_counts.end() ? 0.0 : static_cast<double>(it->second);
      double d = observed - expected;
      if (expected > 0) chi2 += d * d / expected;
    }
  }
  double denom = static_cast<double>(n) * static_cast<double>(std::min(r, k) - 1);
  double v = std::sqrt(chi2 / denom);
  return std::min(1.0, v);
}

}  // namespace seedb::db
