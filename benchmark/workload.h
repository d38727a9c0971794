// The benchmark's four workloads and the request streams they send.
//
// One definition serves the wire load generator (loadgen.cc) and the
// in-process layer replay (layers.cc), so both see exactly the same table
// and the same requests for a given seed. The seed picks the predicates
// (window and warm-up) and the arrival times; the program under test only
// ever sees the generated table and the request lines.
//
// Table sizes are a fifth of the sizes the workloads were first sketched
// at: the harness must set the server up three times per run and finish
// ninety-odd runs in under an hour, and at 1M rows catalog statistics
// alone take ~9 s. Each workload keeps the property it exists for (see
// README.md).

#ifndef SEEDB_BENCHMARK_WORKLOAD_H_
#define SEEDB_BENCHMARK_WORKLOAD_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "data/synthetic.h"
#include "server/protocol.h"
#include "util/random.h"

namespace seedb::benchmark {

/// How a workload's analyst predicates are drawn.
enum class PredicateKind {
  /// `dim0 = <random value> AND m<filter_measure> > <fresh literal>`: no two
  /// requests share a predicate, so the result cache only ever misses.
  kMeasureRange,
  /// `dim0 = a AND dim2 = b` over the 625 (a, b) pairs, drawn Zipf(s=1)
  /// over a seeded permutation: a mix of first-seen and repeat predicates.
  kZipfPairs,
};

struct Workload {
  const char* name;
  // Table shape (seedb_server --synthetic ROWS,DIMS,MEASURES,25,42).
  size_t rows;
  size_t dims;
  size_t measures;
  // Request options.
  size_t k;
  size_t phases;
  const char* pruner;  // "" = no online pruner
  size_t early_stop;
  size_t parallelism;  // 0 = server default
  PredicateKind predicates;
  size_t filter_measure;
  // Load shape. The window opens with `open_share` of its length as an open
  // loop at `open_rate` sessions/s (none when 0), and spends the rest as a
  // closed loop of `connections` x `outstanding` sessions in flight.
  size_t connections;
  size_t outstanding;
  double open_rate;
  double open_share;
  /// Latency percentile reported as session_ms_tail (needs 10 samples
  /// beyond it: 1000 sessions for p99, 200 for p95).
  double tail_quantile;
  /// No pruner: the top-k must equal the exhaustive answer exactly.
  bool exact;
  /// Wire sessions in a traced run, and in-process sessions it replays.
  size_t trace_sessions;
  size_t replay_sessions;
};

inline constexpr size_t kCardinality = 25;
inline constexpr const char* kTable = "synth";
/// Predicates re-run exhaustively after each window; a run has three
/// windows, so about twenty per run.
inline constexpr size_t kVerifyPredicates = 7;

inline constexpr Workload kWorkloads[] = {
    {"scan_heavy", 200000, 6, 3, 5, 4, "", 0, 4,
     PredicateKind::kMeasureRange, 2, 1, 1, 0.0, 0.0, 0.95, true, 120, 40},
    {"many_small", 20000, 4, 2, 3, 4, "", 0, 0,
     PredicateKind::kMeasureRange, 1, 4, 8, 300.0, 0.7, 0.99, true, 1200,
     300},
    {"zipf_repeat", 200000, 4, 2, 3, 4, "ci", 0, 0,
     PredicateKind::kZipfPairs, 0, 1, 1, 0.0, 0.0, 0.95, false, 400, 400},
    {"pruned_wide", 100000, 12, 4, 5, 10, "mab", 2, 1,
     PredicateKind::kMeasureRange, 3, 4, 1, 0.0, 0.0, 0.95, false, 120, 40},
};

inline const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Every table is built from one fixed seed, seedb_server's own default:
/// the benchmark seed varies the requests, not the data. The data decides
/// where glibc's heap ends up after catalog statistics. On some tables the
/// freed statistics memory is returned and on others it stays pinned,
/// which moves the server's peak RSS by about 10 MiB (49 against 60 MiB on
/// zipf_repeat); with a table per seed, peak_rss_mb spread by up to 0.22
/// over ten seeds.
inline constexpr uint64_t kTableSeed = 42;

/// Independent sub-seeds of the benchmark seed.
inline uint64_t PredicateSeed(uint64_t seed) {
  return Random(seed ^ 0x5eedb0001ULL).Next();
}
inline uint64_t ArrivalSeed(uint64_t seed) {
  return Random(seed ^ 0x5eedb0002ULL).Next();
}
inline uint64_t WarmupSeed(uint64_t seed) {
  return Random(seed ^ 0x5eedb0003ULL).Next();
}

/// Rows of the table at `scale` (1 = full size; --smoke uses 1/20).
inline size_t ScaledRows(const Workload& w, double scale) {
  return std::max<size_t>(
      500, static_cast<size_t>(std::llround(static_cast<double>(w.rows) * scale)));
}

/// The table spec seedb_server builds from `--synthetic <SyntheticArg>`.
inline std::string SyntheticArg(const Workload& w, double scale) {
  return std::to_string(ScaledRows(w, scale)) + "," + std::to_string(w.dims) +
         "," + std::to_string(w.measures) + "," +
         std::to_string(kCardinality) + "," + std::to_string(kTableSeed);
}

/// The same spec for an in-process replay (mirrors seedb_server's
/// LoadSynthetic).
inline data::SyntheticSpec TableSpec(const Workload& w, double scale) {
  return data::SyntheticSpec::Simple(ScaledRows(w, scale), w.dims, w.measures,
                                     kCardinality, kTableSeed);
}

/// One analyst request: its SQL and an id equal across repeats of the same
/// predicate (the cache-key proxy for the hit/miss split).
struct Request {
  std::string sql;
  uint64_t key = 0;
};

/// The seeded, endless request sequence of a workload.
class RequestStream {
 public:
  /// The stream a workload's timed window sends.
  RequestStream(const Workload& w, uint64_t seed)
      : RequestStream(w, PredicateSeed(seed), w.predicates) {}

  /// The warm-up stream: fresh measure-range predicates that share no cache
  /// key with the window's, so warming up leaves the window's cache state
  /// (all misses, or zipf_repeat's deterministic hit pattern) as it was.
  static RequestStream Warmup(const Workload& w, uint64_t seed) {
    return RequestStream(w, WarmupSeed(seed), PredicateKind::kMeasureRange);
  }

  Request Next() {
    Request r;
    char sql[256];
    if (kind_ == PredicateKind::kZipfPairs) {
      const size_t pair = pairs_[zipf_.Sample(&rng_)];
      std::snprintf(sql, sizeof(sql),
                    "SELECT * FROM %s WHERE dim0 = 'dim0_v%zu' AND "
                    "dim2 = 'dim2_v%zu'",
                    kTable, pair / kCardinality, pair % kCardinality);
      r.key = pair;
    } else {
      // The literal walks the golden-ratio sequence over mean +/- one
      // stddev of the measure: every request gets a literal no earlier one
      // had, however many requests a window sends.
      const double mean = 100.0 + 10.0 * static_cast<double>(w_->filter_measure);
      const double frac = std::fmod(
          offset_ + 0.6180339887498949 * static_cast<double>(count_), 1.0);
      const size_t dim0 = static_cast<size_t>(rng_.Uniform(kCardinality));
      std::snprintf(sql, sizeof(sql),
                    "SELECT * FROM %s WHERE dim0 = 'dim0_v%zu' AND m%zu > %.12f",
                    kTable, dim0, w_->filter_measure,
                    mean - 15.0 + 30.0 * frac);
      r.key = count_ + (uint64_t{1} << 32);
    }
    ++count_;
    r.sql = sql;
    return r;
  }

 private:
  RequestStream(const Workload& w, uint64_t stream_seed, PredicateKind kind)
      : w_(&w), kind_(kind), rng_(stream_seed), zipf_(kCardinality * kCardinality, 1.0) {
    offset_ = rng_.NextDouble();
    pairs_.resize(kCardinality * kCardinality);
    for (size_t i = 0; i < pairs_.size(); ++i) pairs_[i] = i;
    rng_.Shuffle(&pairs_);
  }

  const Workload* w_;
  PredicateKind kind_;
  Random rng_;
  ZipfDistribution zipf_;
  std::vector<size_t> pairs_;
  double offset_ = 0.0;
  uint64_t count_ = 0;
};

/// The planted predicate: data::SyntheticSpec::Simple multiplies m0 by 5 on
/// the rows it selects whose dim1 value has an odd index.
inline std::string PlantedSql() {
  return std::string("SELECT * FROM ") + kTable + " WHERE dim0 = 'dim0_v0'";
}

/// The `open` a workload sends for `sql`.
inline server::OpenSpec SessionSpec(const Workload& w, const std::string& sql) {
  server::OpenSpec spec;
  spec.sql = sql;
  spec.k = w.k;
  spec.strategy = "phased-shared-scan";
  spec.phases = w.phases;
  spec.pruner = w.pruner;
  spec.early_stop = w.early_stop;
  spec.parallelism = w.parallelism;
  return spec;
}

/// The exhaustive reference for `sql`: every planned query on its own table
/// pass (no shared scan, no result cache, no pruner), so the check does not
/// compare the fused path or the cache against itself.
inline server::OpenSpec ExhaustiveSpec(const Workload& w,
                                       const std::string& sql) {
  server::OpenSpec spec;
  spec.sql = sql;
  spec.k = w.k;
  spec.strategy = "per-query";
  spec.parallelism = 4;
  return spec;
}

/// The planted check: exhaustive, under L1, where the top-1 view must group
/// by dim1 over m0. The workloads' default metric (EMD) reads dim1's 25
/// values as an ordered axis, so the odd/even pattern only moves mass
/// between neighbours and on some seeds loses to noise in other views.
inline server::OpenSpec PlantedSpec(const Workload& w) {
  server::OpenSpec spec = ExhaustiveSpec(w, PlantedSql());
  spec.metric = "l1";
  return spec;
}

}  // namespace seedb::benchmark

#endif  // SEEDB_BENCHMARK_WORKLOAD_H_
