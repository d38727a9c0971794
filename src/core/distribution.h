// Probability distributions over group keys (§2).
//
// "We normalize each result table into a probability distribution, such that
// the values of f(m) sum to 1." Target and comparison views may see
// different group sets (a group can be absent from D_Q), so the pair is
// *aligned* on the union of keys with absent groups contributing 0.

#ifndef SEEDB_CORE_DISTRIBUTION_H_
#define SEEDB_CORE_DISTRIBUTION_H_

#include <string>
#include <vector>

#include "db/table.h"
#include "util/result.h"

namespace seedb::core {

/// \brief A discrete probability distribution over named group keys.
///
/// Keys are sorted ascending (deterministic order); probabilities sum to 1
/// unless the source was entirely empty/zero, in which case the distribution
/// is uniform over its keys (documented fallback so downstream distance
/// computations stay well-defined).
struct Distribution {
  std::vector<db::Value> keys;
  std::vector<double> probabilities;

  size_t size() const { return keys.size(); }
  bool empty() const { return keys.empty(); }

  /// "key: p" pairs for diagnostics.
  std::string ToString() const;
};

/// \brief Target and comparison distributions aligned on the same key set.
struct AlignedPair {
  Distribution target;
  Distribution comparison;
  /// Raw (un-normalized) aggregate values aligned with keys, for display.
  std::vector<double> target_raw;
  std::vector<double> comparison_raw;
};

/// Normalizes raw aggregate values into probabilities.
///
/// Aggregates can be negative (e.g. SUM(profit)); negative mass has no
/// probability reading, so when any value is negative the vector is
/// normalized by magnitude (|v_i| / sum |v_j|) — a big loss is as
/// distribution-defining as a big gain. An all-zero vector becomes uniform.
/// Both rules are deterministic and shared by every metric.
std::vector<double> NormalizeToProbabilities(const std::vector<double>& raw);

/// The same, into `p`, whose capacity is reused.
void NormalizeToProbabilities(const std::vector<double>& raw,
                              std::vector<double>* p);

/// Builds an aligned pair from two single-view result tables (group key in
/// column 0, values in the given columns); keys missing from one side get
/// raw value 0.
Result<AlignedPair> AlignFromTables(const db::Table& target,
                                    size_t target_value_col,
                                    const db::Table& comparison,
                                    size_t comparison_value_col);

/// Convenience overload for plain two-column view results (value column 1).
inline Result<AlignedPair> AlignFromTables(const db::Table& target,
                                           const db::Table& comparison) {
  return AlignFromTables(target, 1, comparison, 1);
}

/// Builds an aligned pair from one *combined-query* result table holding the
/// group key in column 0 and the named target/comparison value columns.
Result<AlignedPair> AlignFromCombined(const db::Table& combined,
                                      const std::string& target_col,
                                      const std::string& comparison_col);

}  // namespace seedb::core

#endif  // SEEDB_CORE_DISTRIBUTION_H_
