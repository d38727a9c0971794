#include "server/protocol.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/executor.h"
#include "core/metrics.h"
#include "core/online_pruning.h"

namespace seedb::server {
namespace {

// Applies a wire strategy name to `request`; true for "shared-scan" (or
// "shared"), the one-pass fused scan, whose phase count the caller settles
// once every field is read.
Result<bool> ApplyStrategy(const std::string& name,
                           core::SeeDBRequest* request) {
  if (name == "per-query" || name == "perquery") {
    request->WithStrategy(core::ExecutionStrategy::kPerQuery);
    return false;
  }
  const bool one_pass = name == "shared-scan" || name == "shared";
  if (one_pass || name == "phased-shared-scan" || name == "phased") {
    request->WithStrategy(core::ExecutionStrategy::kPhasedSharedScan);
    return one_pass;
  }
  return Status::InvalidArgument(
      "unknown strategy '" + name +
      "' (expected per-query|shared-scan|phased-shared-scan)");
}

// A count field of an `open` request. Absent, non-numeric or below 1 reads
// as 0 ("server default"); above `max` is InvalidArgument. The bound is
// checked on the JSON double before any integer cast, so no number can
// overflow it.
Result<size_t> BoundedCount(const JsonValue& request, const char* key,
                            size_t max) {
  const JsonValue* field = request.Find(key);
  if (field == nullptr || !field->is_number()) return size_t{0};
  const double value = field->AsDouble();
  if (value > static_cast<double>(max)) {
    return Status::InvalidArgument("\"" + std::string(key) +
                                   "\" must be at most " +
                                   std::to_string(max));
  }
  return value >= 1.0 ? static_cast<size_t>(value) : size_t{0};
}

JsonValue ViewToJson(const core::ProvisionalView& pv) {
  JsonValue v = JsonValue::Object();
  v.Set("view", JsonValue::Str(pv.view.Id()));
  v.Set("dimension", JsonValue::Str(pv.view.dimension));
  v.Set("measure", JsonValue::Str(pv.view.measure));
  v.Set("utility", JsonValue::Number(pv.utility));
  if (std::isfinite(pv.lower)) v.Set("lower", JsonValue::Number(pv.lower));
  if (std::isfinite(pv.upper)) v.Set("upper", JsonValue::Number(pv.upper));
  return v;
}

JsonValue RecommendationToJson(const core::Recommendation& rec) {
  JsonValue v = JsonValue::Object();
  v.Set("rank", JsonValue::Number(static_cast<double>(rec.rank)));
  v.Set("view", JsonValue::Str(rec.view().Id()));
  v.Set("dimension", JsonValue::Str(rec.view().dimension));
  v.Set("measure", JsonValue::Str(rec.view().measure));
  v.Set("utility", JsonValue::Number(rec.utility()));
  v.Set("target_sql", JsonValue::Str(rec.target_sql));
  v.Set("comparison_sql", JsonValue::Str(rec.comparison_sql));
  v.Set("combined_sql", JsonValue::Str(rec.combined_sql));
  return v;
}

RemoteRecommendation RecommendationFromJson(const JsonValue& v) {
  RemoteRecommendation rec;
  rec.rank = static_cast<size_t>(v.GetInt("rank"));
  rec.view_id = v.GetString("view");
  rec.dimension = v.GetString("dimension");
  rec.measure = v.GetString("measure");
  rec.utility = v.GetDouble("utility");
  rec.target_sql = v.GetString("target_sql");
  rec.comparison_sql = v.GetString("comparison_sql");
  rec.combined_sql = v.GetString("combined_sql");
  return rec;
}

}  // namespace

const char* StatusCodeToken(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kAlreadyExists:
      return "already_exists";
    case StatusCode::kOutOfRange:
      return "out_of_range";
    case StatusCode::kNotImplemented:
      return "not_implemented";
    case StatusCode::kIOError:
      return "io_error";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kUnavailable:
      return "busy";
  }
  return "internal";
}

StatusCode StatusCodeFromToken(const std::string& token) {
  if (token == "ok") return StatusCode::kOk;
  if (token == "invalid_argument") return StatusCode::kInvalidArgument;
  if (token == "not_found") return StatusCode::kNotFound;
  if (token == "already_exists") return StatusCode::kAlreadyExists;
  if (token == "out_of_range") return StatusCode::kOutOfRange;
  if (token == "not_implemented") return StatusCode::kNotImplemented;
  if (token == "io_error") return StatusCode::kIOError;
  if (token == "busy") return StatusCode::kUnavailable;
  return StatusCode::kInternal;
}

JsonValue ErrorResponse(const Status& status, const std::string& id) {
  JsonValue v = JsonValue::Object();
  v.Set("ok", JsonValue::Bool(false));
  if (!id.empty()) v.Set("id", JsonValue::Str(id));
  v.Set("error", JsonValue::Str(status.message()));
  v.Set("code", JsonValue::Str(StatusCodeToken(status.code())));
  return v;
}

Status StatusFromErrorResponse(const JsonValue& response) {
  StatusCode code = StatusCodeFromToken(response.GetString("code", "internal"));
  std::string message = response.GetString("error", "server error");
  if (code == StatusCode::kOk) code = StatusCode::kInternal;
  return Status(code, std::move(message));
}

JsonValue HelloRequestToJson(int version,
                             const std::vector<std::string>& capabilities) {
  JsonValue v = JsonValue::Object();
  v.Set("op", JsonValue::Str("hello"));
  v.Set("version", JsonValue::Number(static_cast<double>(version)));
  JsonValue caps = JsonValue::Array();
  for (const std::string& cap : capabilities) caps.Append(JsonValue::Str(cap));
  v.Set("capabilities", std::move(caps));
  return v;
}

Handshake NegotiateHello(const JsonValue& request) {
  Handshake hs;
  int64_t requested = request.GetInt("version", 1);
  if (requested < 1) requested = 1;
  hs.version = static_cast<int>(
      std::min<int64_t>(requested, kProtocolVersion));
  if (hs.version >= 2) {
    if (const JsonValue* caps = request.Find("capabilities");
        caps != nullptr && caps->is_array()) {
      for (const JsonValue& cap : caps->items()) {
        // Only `push` is supported; `binary_frames` and anything unknown are
        // silently dropped from the intersection.
        if (cap.is_string() && cap.AsString() == kCapPush) hs.push = true;
      }
    }
  }
  return hs;
}

JsonValue HelloResponseToJson(const Handshake& handshake) {
  JsonValue v = JsonValue::Object();
  v.Set("ok", JsonValue::Bool(true));
  v.Set("type", JsonValue::Str("hello"));
  v.Set("version", JsonValue::Number(static_cast<double>(handshake.version)));
  JsonValue caps = JsonValue::Array();
  if (handshake.push) caps.Append(JsonValue::Str(kCapPush));
  v.Set("capabilities", std::move(caps));
  return v;
}

Result<Handshake> HandshakeFromJson(const JsonValue& response) {
  if (response.GetString("type") != "hello") {
    return Status::InvalidArgument("not a hello frame: " + response.Dump());
  }
  Handshake hs;
  hs.version = static_cast<int>(response.GetInt("version", 1));
  if (const JsonValue* caps = response.Find("capabilities");
      caps != nullptr && caps->is_array()) {
    for (const JsonValue& cap : caps->items()) {
      if (cap.is_string() && cap.AsString() == kCapPush) hs.push = true;
    }
  }
  return hs;
}

JsonValue OpenRequestToJson(const std::string& id, const OpenSpec& spec) {
  JsonValue v = JsonValue::Object();
  v.Set("op", JsonValue::Str("open"));
  v.Set("id", JsonValue::Str(id));
  if (!spec.sql.empty()) v.Set("sql", JsonValue::Str(spec.sql));
  if (!spec.table.empty()) v.Set("table", JsonValue::Str(spec.table));
  if (spec.k > 0) v.Set("k", JsonValue::Number(static_cast<double>(spec.k)));
  if (spec.bottom_k > 0) {
    v.Set("bottom_k", JsonValue::Number(static_cast<double>(spec.bottom_k)));
  }
  if (!spec.metric.empty()) v.Set("metric", JsonValue::Str(spec.metric));
  if (!spec.strategy.empty()) v.Set("strategy", JsonValue::Str(spec.strategy));
  if (spec.phases > 0) {
    v.Set("phases", JsonValue::Number(static_cast<double>(spec.phases)));
  }
  if (!spec.pruner.empty()) v.Set("pruner", JsonValue::Str(spec.pruner));
  if (spec.early_stop > 0) {
    v.Set("early_stop",
          JsonValue::Number(static_cast<double>(spec.early_stop)));
  }
  if (spec.delta >= 0.0) v.Set("delta", JsonValue::Number(spec.delta));
  if (spec.utility_range >= 0.0) {
    v.Set("utility_range", JsonValue::Number(spec.utility_range));
  }
  if (spec.memory_budget > 0) {
    v.Set("memory_budget",
          JsonValue::Number(static_cast<double>(spec.memory_budget)));
  }
  if (spec.parallelism > 0) {
    v.Set("parallelism",
          JsonValue::Number(static_cast<double>(spec.parallelism)));
  }
  if (spec.trace) v.Set("trace", JsonValue::Bool(true));
  return v;
}

Result<core::SeeDBRequest> OpenRequestFromJson(const JsonValue& request) {
  const std::string sql = request.GetString("sql");
  const std::string table = request.GetString("table");
  std::optional<core::SeeDBRequest> req;
  if (!sql.empty()) {
    SEEDB_ASSIGN_OR_RETURN(core::SeeDBRequest parsed,
                           core::SeeDBRequest::FromSql(sql));
    req.emplace(std::move(parsed));
  } else if (!table.empty()) {
    req.emplace(table);
  } else {
    return Status::InvalidArgument("open needs \"sql\" or \"table\"");
  }

  if (const JsonValue* k = request.Find("k"); k != nullptr) {
    if (!k->is_number() || k->AsInt() < 1) {
      return Status::InvalidArgument("\"k\" must be a positive number");
    }
    req->WithTopK(static_cast<size_t>(k->AsInt()));
  }
  if (int64_t bottom_k = request.GetInt("bottom_k"); bottom_k > 0) {
    req->WithBottomK(static_cast<size_t>(bottom_k));
  }
  if (const std::string metric = request.GetString("metric"); !metric.empty()) {
    SEEDB_ASSIGN_OR_RETURN(core::DistanceMetric m,
                           core::ParseDistanceMetric(metric));
    req->WithMetric(m);
  }
  bool one_pass = false;
  if (const std::string strategy = request.GetString("strategy");
      !strategy.empty()) {
    SEEDB_ASSIGN_OR_RETURN(one_pass, ApplyStrategy(strategy, &*req));
  }
  SEEDB_ASSIGN_OR_RETURN(size_t phases,
                         BoundedCount(request, "phases", kMaxOpenPhases));
  if (phases > 0) req->WithPhases(phases);
  if (const std::string pruner = request.GetString("pruner"); !pruner.empty()) {
    SEEDB_ASSIGN_OR_RETURN(core::OnlinePruner p,
                           core::ParseOnlinePruner(pruner));
    req->WithOnlinePruner(p);
  }
  if (int64_t early_stop = request.GetInt("early_stop"); early_stop > 0) {
    req->WithEarlyStop(static_cast<size_t>(early_stop));
  }
  // The one-pass scan is the phased strategy with one phase. Like any
  // strategy name, it yields to the fields that ask for a phased run —
  // `phases`, a pruner, early stop — which keep their phase count.
  if (const core::OnlinePruningOptions& pruning =
          req->options().online_pruning;
      one_pass && phases == 0 && pruning.pruner == core::OnlinePruner::kNone &&
      pruning.early_stop_stable_phases == 0) {
    req->WithPhases(1);
  }
  // The Hoeffding knobs have no fluent setter (they are expert-only);
  // rebuild the options payload for them.
  const JsonValue* delta = request.Find("delta");
  const JsonValue* range = request.Find("utility_range");
  if (delta != nullptr || range != nullptr) {
    core::SeeDBOptions options = req->options();
    if (delta != nullptr && delta->is_number()) {
      options.online_pruning.delta = delta->AsDouble();
    }
    if (range != nullptr && range->is_number()) {
      options.online_pruning.utility_range = range->AsDouble();
    }
    req->WithOptions(options);
  }
  if (int64_t budget = request.GetInt("memory_budget"); budget > 0) {
    req->WithMemoryBudget(static_cast<size_t>(budget));
  }
  SEEDB_ASSIGN_OR_RETURN(
      size_t parallelism,
      BoundedCount(request, "parallelism", kMaxOpenParallelism));
  if (parallelism > 0) req->WithParallelism(parallelism);
  if (request.GetBool("trace")) req->WithTrace(true);
  return std::move(*req);
}

JsonValue MetricsRequestToJson() {
  JsonValue v = JsonValue::Object();
  v.Set("op", JsonValue::Str("metrics"));
  return v;
}

JsonValue MetricsToJson(const obs::Snapshot& snapshot) {
  JsonValue v = JsonValue::Object();
  v.Set("ok", JsonValue::Bool(true));
  v.Set("type", JsonValue::Str("metrics"));
  JsonValue counters = JsonValue::Object();
  for (const obs::CounterValue& c : snapshot.counters) {
    counters.Set(c.name, JsonValue::Number(static_cast<double>(c.value)));
  }
  v.Set("counters", std::move(counters));
  JsonValue gauges = JsonValue::Object();
  for (const obs::GaugeValue& g : snapshot.gauges) {
    gauges.Set(g.name, JsonValue::Number(static_cast<double>(g.value)));
  }
  v.Set("gauges", std::move(gauges));
  JsonValue histograms = JsonValue::Object();
  for (const obs::HistogramValue& h : snapshot.histograms) {
    const obs::HistogramSnapshot& s = h.snapshot;
    JsonValue hist = JsonValue::Object();
    hist.Set("count", JsonValue::Number(static_cast<double>(s.count)));
    hist.Set("sum_us", JsonValue::Number(static_cast<double>(s.sum_us)));
    hist.Set("mean_us", JsonValue::Number(s.MeanUs()));
    hist.Set("p50_us",
             JsonValue::Number(static_cast<double>(s.QuantileUs(0.50))));
    hist.Set("p95_us",
             JsonValue::Number(static_cast<double>(s.QuantileUs(0.95))));
    hist.Set("p99_us",
             JsonValue::Number(static_cast<double>(s.QuantileUs(0.99))));
    JsonValue bounds = JsonValue::Array();
    JsonValue counts = JsonValue::Array();
    for (size_t b = 0; b < obs::kHistogramBuckets; ++b) {
      bounds.Append(JsonValue::Number(
          static_cast<double>(obs::BucketUpperBoundUs(b))));
      counts.Append(JsonValue::Number(static_cast<double>(s.buckets[b])));
    }
    hist.Set("bucket_le_us", std::move(bounds));
    hist.Set("bucket_counts", std::move(counts));
    histograms.Set(h.name, std::move(hist));
  }
  v.Set("histograms", std::move(histograms));
  return v;
}

JsonValue ProgressToJson(const std::string& id,
                         const core::ProgressUpdate& update) {
  JsonValue v = JsonValue::Object();
  v.Set("ok", JsonValue::Bool(true));
  v.Set("id", JsonValue::Str(id));
  v.Set("type", JsonValue::Str("progress"));
  v.Set("phase", JsonValue::Number(static_cast<double>(update.phase)));
  v.Set("total_phases",
        JsonValue::Number(static_cast<double>(update.total_phases)));
  v.Set("phase_seconds", JsonValue::Number(update.phase_seconds));
  v.Set("rows_scanned",
        JsonValue::Number(static_cast<double>(update.rows_scanned)));
  v.Set("total_rows",
        JsonValue::Number(static_cast<double>(update.total_rows)));
  v.Set("views_active",
        JsonValue::Number(static_cast<double>(update.views_active)));
  v.Set("views_pruned",
        JsonValue::Number(static_cast<double>(update.views_pruned_online)));
  if (std::isfinite(update.ci_half_width)) {
    v.Set("ci_half_width", JsonValue::Number(update.ci_half_width));
  }
  v.Set("memory_bytes",
        JsonValue::Number(static_cast<double>(update.memory_bytes)));
  if (update.early_stopped) v.Set("early_stopped", JsonValue::Bool(true));
  if (update.cancelled) v.Set("cancelled", JsonValue::Bool(true));
  JsonValue top = JsonValue::Array();
  for (const core::ProvisionalView& pv : update.top_views) {
    top.Append(ViewToJson(pv));
  }
  v.Set("top", std::move(top));
  return v;
}

Result<RemoteProgress> ProgressFromJson(const JsonValue& frame) {
  if (frame.GetString("type") != "progress") {
    return Status::InvalidArgument("not a progress frame: " + frame.Dump());
  }
  RemoteProgress p;
  p.phase = static_cast<size_t>(frame.GetInt("phase"));
  p.total_phases = static_cast<size_t>(frame.GetInt("total_phases"));
  p.phase_seconds = frame.GetDouble("phase_seconds");
  p.rows_scanned = static_cast<uint64_t>(frame.GetInt("rows_scanned"));
  p.total_rows = static_cast<uint64_t>(frame.GetInt("total_rows"));
  p.views_active = static_cast<size_t>(frame.GetInt("views_active"));
  p.views_pruned = static_cast<size_t>(frame.GetInt("views_pruned"));
  p.ci_half_width = frame.GetDouble(
      "ci_half_width", std::numeric_limits<double>::infinity());
  p.memory_bytes = static_cast<uint64_t>(frame.GetInt("memory_bytes"));
  p.early_stopped = frame.GetBool("early_stopped");
  p.cancelled = frame.GetBool("cancelled");
  if (const JsonValue* top = frame.Find("top");
      top != nullptr && top->is_array()) {
    const double inf = std::numeric_limits<double>::infinity();
    for (const JsonValue& item : top->items()) {
      RemoteView view;
      view.id = item.GetString("view");
      view.dimension = item.GetString("dimension");
      view.measure = item.GetString("measure");
      view.utility = item.GetDouble("utility");
      view.lower = item.GetDouble("lower", -inf);
      view.upper = item.GetDouble("upper", inf);
      p.top.push_back(std::move(view));
    }
  }
  return p;
}

JsonValue ResultToJson(const std::string& id,
                       const core::RecommendationSet& set) {
  JsonValue v = JsonValue::Object();
  v.Set("ok", JsonValue::Bool(true));
  v.Set("id", JsonValue::Str(id));
  v.Set("type", JsonValue::Str("result"));
  v.Set("metric", JsonValue::Str(core::DistanceMetricToString(set.metric)));
  JsonValue top = JsonValue::Array();
  for (const core::Recommendation& rec : set.top_views) {
    top.Append(RecommendationToJson(rec));
  }
  v.Set("top", std::move(top));
  if (!set.low_utility_views.empty()) {
    JsonValue low = JsonValue::Array();
    for (const core::Recommendation& rec : set.low_utility_views) {
      low.Append(RecommendationToJson(rec));
    }
    v.Set("low", std::move(low));
  }
  if (!set.online_pruned_views.empty()) {
    JsonValue pruned = JsonValue::Array();
    for (const core::OnlinePrunedView& pv : set.online_pruned_views) {
      JsonValue item = JsonValue::Object();
      item.Set("view", JsonValue::Str(pv.view.Id()));
      item.Set("partial_utility", JsonValue::Number(pv.partial_utility));
      item.Set("pruned_at_phase",
               JsonValue::Number(static_cast<double>(pv.pruned_at_phase)));
      item.Set("rows_seen",
               JsonValue::Number(static_cast<double>(pv.rows_seen)));
      pruned.Append(std::move(item));
    }
    v.Set("pruned_online", std::move(pruned));
  }
  const core::ExecutionProfile& prof = set.profile;
  JsonValue profile = JsonValue::Object();
  profile.Set("views_enumerated",
              JsonValue::Number(static_cast<double>(prof.views_enumerated)));
  profile.Set("views_pruned",
              JsonValue::Number(static_cast<double>(prof.views_pruned)));
  profile.Set("views_executed",
              JsonValue::Number(static_cast<double>(prof.views_executed)));
  profile.Set(
      "views_pruned_online",
      JsonValue::Number(static_cast<double>(prof.views_pruned_online)));
  profile.Set(
      "examined_view_count",
      JsonValue::Number(static_cast<double>(prof.examined_view_count)));
  profile.Set("phases_executed",
              JsonValue::Number(static_cast<double>(prof.phases_executed)));
  profile.Set("queries_issued",
              JsonValue::Number(static_cast<double>(prof.queries_issued)));
  profile.Set("table_scans",
              JsonValue::Number(static_cast<double>(prof.table_scans)));
  profile.Set("rows_scanned",
              JsonValue::Number(static_cast<double>(prof.scan.rows_scanned)));
  profile.Set("cache_hits",
              JsonValue::Number(static_cast<double>(prof.scan.cache_hits)));
  profile.Set("cache_misses",
              JsonValue::Number(static_cast<double>(prof.scan.cache_misses)));
  profile.Set("early_stopped", JsonValue::Bool(prof.early_stopped));
  profile.Set("cancelled", JsonValue::Bool(prof.cancelled));
  profile.Set("budget_exceeded", JsonValue::Bool(prof.budget_exceeded));
  v.Set("profile", std::move(profile));
  return v;
}

Result<RemoteResult> ResultFromJson(const JsonValue& frame) {
  if (frame.GetString("type") != "result") {
    return Status::InvalidArgument("not a result frame: " + frame.Dump());
  }
  RemoteResult result;
  result.metric = frame.GetString("metric");
  if (const JsonValue* top = frame.Find("top");
      top != nullptr && top->is_array()) {
    for (const JsonValue& item : top->items()) {
      result.top.push_back(RecommendationFromJson(item));
    }
  }
  if (const JsonValue* low = frame.Find("low");
      low != nullptr && low->is_array()) {
    for (const JsonValue& item : low->items()) {
      result.low.push_back(RecommendationFromJson(item));
    }
  }
  if (const JsonValue* pruned = frame.Find("pruned_online");
      pruned != nullptr && pruned->is_array()) {
    for (const JsonValue& item : pruned->items()) {
      RemotePrunedView pv;
      pv.view_id = item.GetString("view");
      pv.partial_utility = item.GetDouble("partial_utility");
      pv.pruned_at_phase = static_cast<size_t>(item.GetInt("pruned_at_phase"));
      pv.rows_seen = static_cast<uint64_t>(item.GetInt("rows_seen"));
      result.pruned_online.push_back(std::move(pv));
    }
  }
  if (const JsonValue* profile = frame.Find("profile");
      profile != nullptr && profile->is_object()) {
    RemoteProfile& p = result.profile;
    p.views_enumerated =
        static_cast<size_t>(profile->GetInt("views_enumerated"));
    p.views_pruned = static_cast<size_t>(profile->GetInt("views_pruned"));
    p.views_executed = static_cast<size_t>(profile->GetInt("views_executed"));
    p.views_pruned_online =
        static_cast<size_t>(profile->GetInt("views_pruned_online"));
    p.examined_view_count =
        static_cast<size_t>(profile->GetInt("examined_view_count"));
    p.phases_executed =
        static_cast<size_t>(profile->GetInt("phases_executed"));
    p.queries_issued = static_cast<size_t>(profile->GetInt("queries_issued"));
    p.table_scans = static_cast<size_t>(profile->GetInt("table_scans"));
    p.rows_scanned = static_cast<uint64_t>(profile->GetInt("rows_scanned"));
    p.cache_hits = static_cast<uint64_t>(profile->GetInt("cache_hits"));
    p.cache_misses = static_cast<uint64_t>(profile->GetInt("cache_misses"));
    p.early_stopped = profile->GetBool("early_stopped");
    p.cancelled = profile->GetBool("cancelled");
    p.budget_exceeded = profile->GetBool("budget_exceeded");
  }
  return result;
}

Result<RemoteStatus> StatusFromJson(const JsonValue& frame) {
  if (frame.GetString("type") != "status") {
    return Status::InvalidArgument("not a status frame: " + frame.Dump());
  }
  RemoteStatus status;
  status.session = frame.GetBool("session");
  status.done = frame.GetBool("done");
  status.cancelled = frame.GetBool("cancelled");
  status.budget_exceeded = frame.GetBool("budget_exceeded");
  status.phases_run = static_cast<size_t>(frame.GetInt("phases_run"));
  status.memory_bytes = static_cast<uint64_t>(frame.GetInt("memory_bytes"));
  status.sessions = static_cast<size_t>(frame.GetInt("sessions"));
  status.requests = static_cast<uint64_t>(frame.GetInt("requests"));
  status.cache_enabled = frame.GetBool("cache_enabled");
  status.cache_hits = static_cast<uint64_t>(frame.GetInt("cache_hits"));
  status.cache_misses = static_cast<uint64_t>(frame.GetInt("cache_misses"));
  status.cache_bytes = static_cast<uint64_t>(frame.GetInt("cache_bytes"));
  status.cache_evictions =
      static_cast<uint64_t>(frame.GetInt("cache_evictions"));
  return status;
}

}  // namespace seedb::server
