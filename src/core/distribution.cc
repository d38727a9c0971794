#include "core/distribution.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/string_util.h"

namespace seedb::core {

std::string Distribution::ToString() const {
  std::string out;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i) out += ", ";
    out += keys[i].ToString() + ": " + FormatDouble(probabilities[i], 4);
  }
  return out;
}

std::vector<double> NormalizeToProbabilities(const std::vector<double>& raw) {
  std::vector<double> p;
  NormalizeToProbabilities(raw, &p);
  return p;
}

void NormalizeToProbabilities(const std::vector<double>& raw,
                              std::vector<double>* out) {
  std::vector<double>& p = *out;
  p.assign(raw.begin(), raw.end());
  if (p.empty()) return;
  // Signed aggregates (e.g. SUM(profit)) normalize by magnitude: a group
  // with a large loss carries as much probability mass as one with an
  // equally large gain. (Shifting by -min instead would zero out the most
  // negative group and amplify noise in every other bin whenever the total
  // is negative.)
  bool any_negative =
      std::any_of(p.begin(), p.end(), [](double v) { return v < 0.0; });
  if (any_negative) {
    for (double& v : p) v = std::abs(v);
  }
  double total = 0.0;
  for (double v : p) total += v;
  if (total <= 0.0 || !std::isfinite(total)) {
    double uniform = 1.0 / static_cast<double>(p.size());
    std::fill(p.begin(), p.end(), uniform);
    return;
  }
  for (double& v : p) v /= total;
}

namespace {

// Collects (key, value) pairs from a single-view result table.
Result<std::map<db::Value, double>> TableToMap(const db::Table& table,
                                               size_t value_col) {
  if (table.num_columns() < 2 || value_col >= table.num_columns()) {
    return Status::InvalidArgument("view result needs key + value columns");
  }
  std::map<db::Value, double> out;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    db::Value key = table.ValueAt(r, 0);
    db::Value val = table.ValueAt(r, value_col);
    double v = 0.0;
    if (!val.is_null()) {
      SEEDB_ASSIGN_OR_RETURN(v, val.ToDouble());
    }
    out[key] = v;
  }
  return out;
}

AlignedPair BuildAligned(const std::map<db::Value, double>& target,
                         const std::map<db::Value, double>& comparison) {
  // Union of keys, ascending (std::map order).
  std::vector<db::Value> keys;
  for (const auto& [k, _] : comparison) keys.push_back(k);
  for (const auto& [k, _] : target) {
    if (!comparison.count(k)) keys.push_back(k);
  }
  std::sort(keys.begin(), keys.end());

  AlignedPair pair;
  pair.target.keys = keys;
  pair.comparison.keys = keys;
  pair.target_raw.reserve(keys.size());
  pair.comparison_raw.reserve(keys.size());
  for (const auto& k : keys) {
    auto it = target.find(k);
    pair.target_raw.push_back(it == target.end() ? 0.0 : it->second);
    auto ic = comparison.find(k);
    pair.comparison_raw.push_back(ic == comparison.end() ? 0.0 : ic->second);
  }
  pair.target.probabilities = NormalizeToProbabilities(pair.target_raw);
  pair.comparison.probabilities =
      NormalizeToProbabilities(pair.comparison_raw);
  return pair;
}

}  // namespace

Result<AlignedPair> AlignFromTables(const db::Table& target,
                                    size_t target_value_col,
                                    const db::Table& comparison,
                                    size_t comparison_value_col) {
  SEEDB_ASSIGN_OR_RETURN(auto target_map, TableToMap(target, target_value_col));
  SEEDB_ASSIGN_OR_RETURN(auto comparison_map,
                         TableToMap(comparison, comparison_value_col));
  return BuildAligned(target_map, comparison_map);
}

Result<AlignedPair> AlignFromCombined(const db::Table& combined,
                                      const std::string& target_col,
                                      const std::string& comparison_col) {
  SEEDB_ASSIGN_OR_RETURN(size_t t_idx,
                         combined.schema().FindColumn(target_col));
  SEEDB_ASSIGN_OR_RETURN(size_t c_idx,
                         combined.schema().FindColumn(comparison_col));
  std::map<db::Value, double> target_map, comparison_map;
  for (size_t r = 0; r < combined.num_rows(); ++r) {
    db::Value key = combined.ValueAt(r, 0);
    db::Value tv = combined.ValueAt(r, t_idx);
    db::Value cv = combined.ValueAt(r, c_idx);
    if (!tv.is_null()) {
      SEEDB_ASSIGN_OR_RETURN(double t, tv.ToDouble());
      target_map[key] = t;
    }
    if (!cv.is_null()) {
      SEEDB_ASSIGN_OR_RETURN(double c, cv.ToDouble());
      comparison_map[key] = c;
    }
  }
  return BuildAligned(target_map, comparison_map);
}

}  // namespace seedb::core
