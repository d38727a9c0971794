// loadgen — the benchmark's wire load generator.
//
// Drives a running seedb_server over its unix socket the way an analyst's
// frontend does: protocol v2 with push, request lines built with
// server::OpenRequestToJson, frames parsed with server::ParseJson. One
// thread polls at most four connections, so the generator never competes
// with the server for more cores than the load itself needs.
//
//   loadgen --describe --workload W --seed N [--scale F]
//       the table spec and host facts the harness needs
//   loadgen --warmup --socket P --workload W --seed N
//       waits for the server, runs one session of the workload on the
//       planted predicate, reports the steady-clock instant its result
//       arrived (the end of set-up), then runs the untimed planted check
//   loadgen --window --socket P --workload W --seed N --seconds S
//           [--server-pid PID]
//       an untimed warm-up burst, the timed window, the server's peak RSS,
//       then the untimed verification pass
//   loadgen --traced --socket P --workload W --seed N --trace-out FILE
//       the warm-up burst, a fixed session count with every other session
//       traced, a repeat probe of cache hits, then the verification pass
//
// Every mode prints one JSON object on stdout. A session is timed from the
// instant its `open` was due (in a closed loop, the instant the previous
// session on its connection finished) to the instant its `result` frame
// arrived; a failed or refused session counts as infinitely slow.

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "trace_log.h"
#include "workload.h"
#include "db/vec/simd/simd.h"
#include "server/json.h"
#include "server/protocol.h"

namespace {

using namespace seedb;             // NOLINT
using namespace seedb::benchmark;  // NOLINT
using server::JsonValue;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int64_t kNsPerSec = 1000000000;
/// Sessions still in flight after this long without a frame fail.
constexpr int64_t kDrainNs = 20 * kNsPerSec;
/// The untimed burst before a window. A fresh server runs its first second
/// of load several times slower than the rest (allocator and worker pool
/// warm-up); timing that would make each figure depend on how long the
/// window is and on how fast the server gets past it.
constexpr double kWarmupBurstSeconds = 1.0;

/// Nearest-rank quantile; +inf (failed sessions) sorts last.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double total = 0.0;
  for (double x : v) total += x;
  return total / static_cast<double>(v.size());
}

JsonValue Num(double v) {
  return std::isfinite(v) ? JsonValue::Number(v) : JsonValue::Null();
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// --- Connections -----------------------------------------------------------

class Conn {
 public:
  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// Connects, retrying until `deadline_ns` while the server still loads.
  bool Connect(const std::string& path, int64_t deadline_ns) {
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path)) return false;
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    while (true) {
      int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0) return false;
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
        fd_ = fd;
        return true;
      }
      ::close(fd);
      if (NowNs() >= deadline_ns) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  bool Send(const JsonValue& frame) {
    std::string line = frame.Dump();
    line.push_back('\n');
    size_t sent = 0;
    while (sent < line.size()) {
      ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// One read() of what is available; complete lines go to `lines`.
  /// False once the peer closed or the read failed.
  bool ReadLines(std::vector<std::string>* lines) {
    char chunk[65536];
    ssize_t got = ::read(fd_, chunk, sizeof(chunk));
    if (got <= 0) return false;
    rbuf_.append(chunk, static_cast<size_t>(got));
    size_t start = 0;
    for (size_t end = rbuf_.find('\n'); end != std::string::npos;
         end = rbuf_.find('\n', start)) {
      lines->push_back(rbuf_.substr(start, end - start));
      start = end + 1;
    }
    rbuf_.erase(0, start);
    return true;
  }

  /// Sends `request` and blocks for the next non-push frame.
  Result<JsonValue> Call(const JsonValue& request) {
    if (!Send(request)) return Status::IOError("send failed");
    std::vector<std::string> lines;
    while (true) {
      for (const std::string& line : lines) {
        SEEDB_ASSIGN_OR_RETURN(JsonValue frame, server::ParseJson(line));
        if (!frame.GetBool("push")) return frame;
      }
      lines.clear();
      if (!ReadLines(&lines)) return Status::IOError("connection closed");
    }
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string rbuf_;
};

bool Hello(Conn* conn) {
  Result<JsonValue> hello =
      conn->Call(server::HelloRequestToJson(2, {server::kCapPush}));
  if (!hello.ok()) return false;
  Result<server::Handshake> handshake = server::HandshakeFromJson(*hello);
  return handshake.ok() && handshake->push;
}

/// Runs one push session to its result on an otherwise idle connection.
Result<server::RemoteResult> RunOne(Conn* conn, const std::string& id,
                                    const server::OpenSpec& spec) {
  if (!conn->Send(server::OpenRequestToJson(id, spec))) {
    return Status::IOError("send failed");
  }
  std::vector<std::string> lines;
  while (true) {
    for (const std::string& line : lines) {
      SEEDB_ASSIGN_OR_RETURN(JsonValue frame, server::ParseJson(line));
      if (!frame.GetBool("ok")) return server::StatusFromErrorResponse(frame);
      const std::string type = frame.GetString("type");
      if (type == "drained") {
        JsonValue finish = JsonValue::Object();
        finish.Set("op", JsonValue::Str("finish"));
        finish.Set("id", JsonValue::Str(id));
        if (!conn->Send(finish)) return Status::IOError("send failed");
      } else if (type == "result") {
        return server::ResultFromJson(frame);
      }
    }
    lines.clear();
    if (!conn->ReadLines(&lines)) return Status::IOError("connection closed");
  }
}

// --- Server-side counters -------------------------------------------------

struct ServerCounters {
  JsonValue status;
  JsonValue metrics;
};

Result<ServerCounters> ReadCounters(Conn* conn) {
  ServerCounters c;
  JsonValue status = JsonValue::Object();
  status.Set("op", JsonValue::Str("status"));
  SEEDB_ASSIGN_OR_RETURN(c.status, conn->Call(status));
  SEEDB_ASSIGN_OR_RETURN(c.metrics, conn->Call(server::MetricsRequestToJson()));
  return c;
}

const JsonValue* FindHistogramField(const ServerCounters& c, const std::string& name,
                                    const char* field) {
  const JsonValue* hists = c.metrics.Find("histograms");
  const JsonValue* h = hists != nullptr ? hists->Find(name) : nullptr;
  return h != nullptr ? h->Find(field) : nullptr;
}

/// A quantile of one server histogram over the window only: the bucket
/// counts after minus before, interpolated linearly inside the bucket that
/// holds the rank (the server's own snapshot reports that bucket's upper
/// bound, a power of two that rarely moves between runs).
double WindowHistogramQuantile(const ServerCounters& before,
                               const ServerCounters& after,
                               const std::string& name, double q) {
  const JsonValue* bounds = FindHistogramField(after, name, "bucket_le_us");
  const JsonValue* counts = FindHistogramField(after, name, "bucket_counts");
  const JsonValue* earlier = FindHistogramField(before, name, "bucket_counts");
  if (bounds == nullptr || counts == nullptr || counts->size() != bounds->size()) {
    return 0.0;
  }
  std::vector<double> window(counts->size());
  double total = 0.0;
  for (size_t i = 0; i < window.size(); ++i) {
    window[i] = counts->at(i).AsDouble();
    if (earlier != nullptr && i < earlier->size()) window[i] -= earlier->at(i).AsDouble();
    total += window[i];
  }
  if (total <= 0.0) return 0.0;
  const double rank = std::max(1.0, std::ceil(q * total));
  double seen = 0.0;
  for (size_t i = 0; i < window.size(); ++i) {
    if (window[i] > 0.0 && seen + window[i] >= rank) {
      const double hi = bounds->at(i).AsDouble();
      const double lo = i == 0 ? 0.0 : bounds->at(i - 1).AsDouble();
      return lo + (hi - lo) * (rank - seen) / window[i];
    }
    seen += window[i];
  }
  return bounds->at(bounds->size() - 1).AsDouble();
}

/// The server's peak resident set (VmHWM) so far, in MiB; 0 if unknown.
double PeakRssMb(int pid) {
  if (pid <= 0) return 0.0;
  const std::string path = "/proc/" + std::to_string(pid) + "/status";
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  return kb / 1024.0;
}

double StatusDelta(const ServerCounters& before, const ServerCounters& after,
                   const char* field) {
  return after.status.GetDouble(field) - before.status.GetDouble(field);
}

// --- The generator -------------------------------------------------------

struct Session {
  size_t index = 0;
  size_t conn = 0;
  Request request;
  bool open_loop = false;
  bool traced = false;
  /// The predicate appeared earlier in this process (a cache-hit candidate).
  bool repeat = false;
  int64_t due = 0;
  int64_t sent = 0;
  int64_t opened = 0;
  int64_t first = 0;
  int64_t finish_sent = 0;
  int64_t result = 0;
  size_t result_bytes = 0;
  bool done = false;
  bool failed = false;
  std::vector<server::RemoteRecommendation> top;

  double LatencyMs() const { return failed ? kInf : Ms(result - due); }
};

class Generator {
 public:
  /// Session ids are `tag` plus an index, so frames of one generator's
  /// sessions are never taken for another's.
  Generator(const Workload& w, RequestStream stream, char tag,
            std::vector<Conn*> conns, SpanLog* spans)
      : w_(w),
        stream_(std::move(stream)),
        tag_(tag),
        conns_(std::move(conns)),
        dead_(conns_.size(), false),
        spans_(spans) {}

  /// Poisson arrivals at `rate`/s, round-robin over the connections, for
  /// `seconds` or until `max_sessions` arrived; then drains.
  void OpenLoop(double rate, double seconds, size_t max_sessions,
                uint64_t arrival_seed) {
    arrivals_ = Arrivals{Random(arrival_seed), rate, NowNs(), 0, 0, max_sessions};
    arrivals_.end = arrivals_.due + static_cast<int64_t>(seconds * kNsPerSec);
    arrivals_.Advance();
    open_active_ = true;
    while (true) {
      IssueDue();
      const int64_t now = NowNs();
      if (!arrivals_.pending() &&
          (inflight_ == 0 || now > std::max(arrivals_.due, last_event_) + kDrainNs)) {
        break;
      }
      Pump(arrivals_.pending() ? std::max<int64_t>(0, arrivals_.due - now)
                               : 50'000'000);
    }
    open_active_ = false;
    FailInflight();
  }

  /// `per_conn` sessions in flight on each of `num_conns` connections until
  /// `seconds` elapse (no limit when 0) or `max_sessions` were issued;
  /// returns the sessions that completed inside the window.
  size_t ClosedLoop(size_t num_conns, size_t per_conn, double seconds,
                    size_t max_sessions) {
    const int64_t start = NowNs();
    closed_end_ = seconds > 0
                      ? start + static_cast<int64_t>(seconds * kNsPerSec)
                      : std::numeric_limits<int64_t>::max();
    closed_budget_ = max_sessions;
    closed_active_ = true;
    closed_issued_ = 0;
    closed_completed_ = 0;
    for (size_t c = 0; c < num_conns; ++c) {
      for (size_t i = 0; i < per_conn; ++i) IssueClosed(c, start);
    }
    last_event_ = start;
    while (inflight_ > 0 && NowNs() < last_event_ + kDrainNs) {
      Pump(50'000'000);
    }
    closed_active_ = false;
    FailInflight();
    return closed_completed_;
  }

  const std::vector<Session>& sessions() const { return sessions_; }

 private:
  /// A closed-loop session is due when the one before it on its connection
  /// finished, so the generator's own delay counts as lag there too.
  void IssueClosed(size_t conn, int64_t due) {
    if (dead_[conn] || due >= closed_end_) return;
    if (closed_budget_ > 0 && closed_issued_ >= closed_budget_) return;
    ++closed_issued_;
    Issue(conn, due, /*open_loop=*/false);
  }

  void Issue(size_t conn, int64_t due, bool open_loop) {
    Session s;
    s.index = sessions_.size();
    s.conn = conn;
    s.request = stream_.Next();
    s.open_loop = open_loop;
    s.traced = spans_ != nullptr && s.index % 2 == 0;
    s.repeat = !seen_.insert(s.request.key).second;
    s.due = due;
    sessions_.push_back(std::move(s));
    Session& live = sessions_.back();
    ++inflight_;
    const JsonValue open = server::OpenRequestToJson(
        tag_ + std::to_string(live.index), SessionSpec(w_, live.request.sql));
    live.sent = NowNs();
    if (dead_[conn] || !conns_[conn]->Send(open)) {
      dead_[conn] = true;
      Fail(&live, live.sent);
      return;
    }
    if (live.traced) {
      spans_->Add("gen.lag", Tid(live), "wire.session", live.due, live.sent, 1);
    }
  }

  /// Sends every open-loop arrival that is due by now.
  void IssueDue() {
    if (!open_active_) return;
    while (arrivals_.pending() && arrivals_.due <= NowNs()) {
      Issue(arrivals_.issued % conns_.size(), arrivals_.due, /*open_loop=*/true);
      ++arrivals_.issued;
      arrivals_.Advance();
    }
  }

  static uint64_t Tid(const Session& s) { return s.index + 1; }

  /// Polls every connection once, waiting at most `timeout_ns`.
  void Pump(int64_t timeout_ns) {
    std::vector<pollfd> pfds;
    for (size_t c = 0; c < conns_.size(); ++c) {
      // A negative fd makes poll() skip a dropped connection.
      pfds.push_back(pollfd{dead_[c] ? -1 : conns_[c]->fd(), POLLIN, 0});
    }
    timespec ts{static_cast<time_t>(timeout_ns / kNsPerSec),
                static_cast<long>(timeout_ns % kNsPerSec)};
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) return;
    for (size_t c = 0; c < pfds.size(); ++c) {
      if (dead_[c] || (pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      std::vector<std::string> lines;
      const bool alive = conns_[c]->ReadLines(&lines);
      const int64_t now = NowNs();
      last_event_ = now;
      for (const std::string& line : lines) HandleFrame(c, line, now);
      if (!alive) DropConnection(c, now);
      // Arrivals that fell due while this batch was handled go out before
      // the next connection's batch.
      IssueDue();
    }
  }

  void HandleFrame(size_t conn, const std::string& line, int64_t now) {
    Result<JsonValue> parsed = server::ParseJson(line);
    if (!parsed.ok()) return;
    const JsonValue& frame = *parsed;
    const std::string id = frame.GetString("id");
    if (id.size() < 2 || id[0] != tag_) return;
    const size_t index = std::strtoul(id.c_str() + 1, nullptr, 10);
    if (index >= sessions_.size()) return;
    Session& s = sessions_[index];
    if (s.done) return;
    const std::string type = frame.GetString("type");
    if (!frame.GetBool("ok")) {
      // A pushed error still ends in `drained`; fail the session there so
      // the server-side session is finished either way. A refused `open` or
      // a failed `finish` ends it now.
      s.failed = true;
      if (!frame.GetBool("push")) Fail(&s, now);
      return;
    }
    if (type == "opened") {
      s.opened = now;
      if (s.traced) spans_->Add("server.open_ack", Tid(s), "wire.session", s.sent, now, 1);
    } else if (type == "progress") {
      if (s.first == 0) {
        s.first = now;
        if (s.traced) {
          spans_->Add("server.first_phase", Tid(s), "server.phases", s.opened, now, 2);
        }
      }
    } else if (type == "drained") {
      if (s.traced) spans_->Add("server.phases", Tid(s), "wire.session", s.opened, now, 1);
      JsonValue finish = JsonValue::Object();
      finish.Set("op", JsonValue::Str("finish"));
      finish.Set("id", JsonValue::Str(id));
      s.finish_sent = NowNs();
      if (!conns_[conn]->Send(finish)) {
        dead_[conn] = true;
        Fail(&s, s.finish_sent);
        return;
      }
      // The generator's own delay: frames ahead of `drained` in the same
      // read are handled first.
      if (s.traced) spans_->Add("gen.finish_send", Tid(s), "wire.session", now, s.finish_sent, 1);
    } else if (type == "result") {
      s.result = now;
      s.result_bytes = line.size() + 1;
      Result<server::RemoteResult> result = server::ResultFromJson(frame);
      if (result.ok()) s.top = std::move(result->top);
      if (s.traced) spans_->Add("server.result", Tid(s), "wire.session", s.finish_sent, now, 1);
      Complete(&s, now);
    }
  }

  void Complete(Session* s, int64_t now) {
    s->done = true;
    --inflight_;
    if (s->traced) spans_->Add("wire.session", Tid(*s), "", s->due, now, 0);
    if (!s->open_loop && closed_active_) {
      if (!s->failed && now <= closed_end_) ++closed_completed_;
      IssueClosed(s->conn, now);
    }
  }

  void Fail(Session* s, int64_t now) {
    s->failed = true;
    if (s->result == 0) s->result = now;
    Complete(s, now);
  }

  void DropConnection(size_t conn, int64_t now) {
    dead_[conn] = true;
    for (Session& s : sessions_) {
      if (!s.done && s.conn == conn) Fail(&s, now);
    }
  }

  void FailInflight() {
    const int64_t now = NowNs();
    for (Session& s : sessions_) {
      if (!s.done) Fail(&s, now);
    }
  }

  const Workload& w_;
  RequestStream stream_;
  char tag_;
  std::vector<Conn*> conns_;
  std::vector<bool> dead_;
  SpanLog* spans_;
  std::vector<Session> sessions_;
  std::set<uint64_t> seen_;

  /// The open loop's seeded Poisson schedule.
  struct Arrivals {
    Random rng;
    double rate = 0.0;
    int64_t due = 0;
    int64_t end = 0;
    size_t issued = 0;
    size_t max_sessions = 0;

    bool pending() const {
      return due < end && (max_sessions == 0 || issued < max_sessions);
    }
    void Advance() {
      due += static_cast<int64_t>(-std::log(1.0 - rng.NextDouble()) / rate *
                                  kNsPerSec);
    }
  };
  Arrivals arrivals_{Random(0)};
  bool open_active_ = false;
  size_t inflight_ = 0;
  /// Last frame arrival; sessions stuck this long past it fail.
  int64_t last_event_ = 0;
  bool closed_active_ = false;
  int64_t closed_end_ = 0;
  size_t closed_budget_ = 0;
  size_t closed_issued_ = 0;
  size_t closed_completed_ = 0;
};

// --- Modes ---------------------------------------------------------------

struct Args {
  std::string mode;
  std::string socket;
  std::string trace_out;
  int server_pid = 0;
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  double scale = 1.0;
};

bool PlantedTopOk(const server::RemoteResult& result) {
  return !result.top.empty() && result.top[0].dimension == "dim1" &&
         result.top[0].measure == "m0";
}

int Describe(const Args& args) {
  JsonValue out = JsonValue::Object();
  out.Set("synthetic", JsonValue::Str(SyntheticArg(*args.workload, args.scale)));
  out.Set("isa", JsonValue::Str(db::vec::simd::IsaName()));
  out.Set("simd_available", JsonValue::Bool(db::vec::simd::Available()));
  out.Set("build_type", JsonValue::Str(SEEDB_BENCHMARK_BUILD_TYPE));
  out.Set("tail_quantile", JsonValue::Number(args.workload->tail_quantile));
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

int Warmup(const Args& args) {
  Conn conn;
  if (!conn.Connect(args.socket, NowNs() + 60 * kNsPerSec) || !Hello(&conn)) {
    std::fprintf(stderr, "loadgen: cannot reach the server at %s\n",
                 args.socket.c_str());
    return 1;
  }
  Result<server::RemoteResult> warm =
      RunOne(&conn, "warmup", SessionSpec(*args.workload, PlantedSql()));
  const int64_t ready = NowNs();
  if (!warm.ok()) {
    std::fprintf(stderr, "loadgen: warm-up session failed: %s\n",
                 warm.status().ToString().c_str());
    return 1;
  }
  Result<server::RemoteResult> planted =
      RunOne(&conn, "planted", PlantedSpec(*args.workload));
  if (!planted.ok()) {
    std::fprintf(stderr, "loadgen: planted check failed: %s\n",
                 planted.status().ToString().c_str());
    return 1;
  }
  JsonValue out = JsonValue::Object();
  out.Set("ready_ns", JsonValue::Number(static_cast<double>(ready)));
  out.Set("planted_ok", JsonValue::Bool(PlantedTopOk(*planted)));
  out.Set("planted_top", JsonValue::Str(planted->top.empty() ? "" : planted->top[0].view_id));
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

/// Re-runs up to kVerifyPredicates distinct window predicates exhaustively
/// and scores the window's answers against them.
JsonValue Verify(const Workload& w, Conn* conn,
                 const std::vector<Session>& sessions) {
  std::set<uint64_t> checked;
  std::vector<double> recalls;
  size_t mismatches = 0;
  size_t errors = 0;
  std::string first_mismatch;
  for (const Session& s : sessions) {
    if (checked.size() >= kVerifyPredicates) break;
    if (s.failed || !checked.insert(s.request.key).second) continue;
    Result<server::RemoteResult> reference = RunOne(
        conn, "v" + std::to_string(s.index), ExhaustiveSpec(w, s.request.sql));
    if (!reference.ok()) {
      ++errors;
      continue;
    }
    const auto& want = reference->top;
    size_t hits = 0;
    for (const auto& rec : s.top) {
      for (const auto& ref : want) hits += rec.view_id == ref.view_id ? 1 : 0;
    }
    recalls.push_back(want.empty() ? 1.0
                                   : static_cast<double>(hits) /
                                         static_cast<double>(want.size()));
    bool same = s.top.size() == want.size();
    for (size_t i = 0; same && i < want.size(); ++i) {
      const double a = s.top[i].utility;
      const double b = want[i].utility;
      same = s.top[i].view_id == want[i].view_id &&
             std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b)) + 1e-300;
    }
    if (!same) {
      ++mismatches;
      if (first_mismatch.empty()) first_mismatch = s.request.sql;
    }
  }
  JsonValue out = JsonValue::Object();
  out.Set("checked", JsonValue::Number(static_cast<double>(recalls.size())));
  out.Set("errors", JsonValue::Number(static_cast<double>(errors)));
  out.Set("recall", JsonValue::Number(Mean(recalls)));
  out.Set("mismatches", JsonValue::Number(static_cast<double>(mismatches)));
  out.Set("first_mismatch", JsonValue::Str(first_mismatch));
  const bool ok = errors == 0 && !recalls.empty() && (!w.exact || mismatches == 0);
  out.Set("ok", JsonValue::Bool(ok));
  return out;
}

/// Re-sends, one at a time, up to kVerifyPredicates predicates the window
/// saw first: sessions whose partial aggregates the result cache holds.
/// Returns their latencies. Only zipf_repeat repeats predicates by itself;
/// this gives every workload a cache-hit sample.
std::vector<double> RepeatProbe(const Workload& w, Conn* conn,
                                const std::vector<Session>& sessions) {
  std::vector<double> latency;
  for (const Session& s : sessions) {
    if (latency.size() >= kVerifyPredicates) break;
    if (s.failed || s.repeat) continue;
    const int64_t start = NowNs();
    if (RunOne(conn, "p" + std::to_string(s.index), SessionSpec(w, s.request.sql)).ok()) {
      latency.push_back(Ms(NowNs() - start));
    }
  }
  return latency;
}

/// Latency and server-side figures over `sessions` (those of the measured
/// part of the window); `probe_ms` are extra cache-hit latencies. Session
/// and first-frame latencies go out whole, so the harness can pool the
/// windows of several servers before it takes percentiles.
JsonValue Summarize(const std::vector<const Session*>& sessions,
                    const std::vector<double>& probe_ms) {
  JsonValue latency = JsonValue::Array();
  JsonValue first = JsonValue::Array();
  std::vector<double> ack, result_ms, bytes, miss;
  std::vector<double> hit = probe_ms;
  std::vector<double> lag, traced, untraced;
  size_t failed = 0;
  for (const Session* s : sessions) {
    latency.Append(Num(s->LatencyMs()));
    first.Append(Num(s->failed || s->first == 0 ? kInf : Ms(s->first - s->due)));
    lag.push_back(Ms(s->sent - s->due));
    if (s->failed) {
      ++failed;
      continue;
    }
    ack.push_back(Ms(s->opened - s->sent));
    result_ms.push_back(Ms(s->result - s->finish_sent));
    bytes.push_back(static_cast<double>(s->result_bytes));
    (s->repeat ? hit : miss).push_back(s->LatencyMs());
    (s->traced ? traced : untraced).push_back(s->LatencyMs());
  }
  JsonValue out = JsonValue::Object();
  out.Set("failed", JsonValue::Number(static_cast<double>(failed)));
  out.Set("session_ms", std::move(latency));
  out.Set("first_frame_ms", std::move(first));
  out.Set("open_ack_ms_p50", Num(Quantile(ack, 0.5)));
  out.Set("result_ms_p50", Num(Quantile(result_ms, 0.5)));
  out.Set("result_bytes_mean", Num(Mean(bytes)));
  out.Set("hit_session_ms_p50", Num(Quantile(hit, 0.5)));
  out.Set("miss_session_ms_p50", Num(Quantile(miss, 0.5)));
  out.Set("hit_sessions", JsonValue::Number(static_cast<double>(hit.size())));
  out.Set("gen_lag_ms_p99", Num(Quantile(lag, 0.99)));
  out.Set("traced_session_ms_p50", Num(Quantile(traced, 0.5)));
  out.Set("untraced_session_ms_p50", Num(Quantile(untraced, 0.5)));
  return out;
}

int Window(const Args& args, bool traced) {
  const Workload& w = *args.workload;
  std::vector<std::unique_ptr<Conn>> owned;
  std::vector<Conn*> conns;
  for (size_t c = 0; c < w.connections; ++c) {
    owned.push_back(std::make_unique<Conn>());
    if (!owned.back()->Connect(args.socket, NowNs() + 10 * kNsPerSec) ||
        !Hello(owned.back().get())) {
      std::fprintf(stderr, "loadgen: cannot connect to %s\n", args.socket.c_str());
      return 1;
    }
    conns.push_back(owned.back().get());
  }
  Generator warmup(w, RequestStream::Warmup(w, args.seed), 'u', conns, nullptr);
  warmup.ClosedLoop(w.connections, w.outstanding, kWarmupBurstSeconds, 0);
  Result<ServerCounters> before = ReadCounters(conns[0]);
  if (!before.ok()) {
    std::fprintf(stderr, "loadgen: %s\n", before.status().ToString().c_str());
    return 1;
  }

  SpanLog spans;
  const int64_t origin = NowNs();
  Generator gen(w, RequestStream(w, args.seed), 'w', conns, traced ? &spans : nullptr);
  size_t measured_end = 0;
  size_t closed_completed = 0;
  double closed_seconds = 0.0;
  if (traced) {
    // A fixed session count: the traced run compares layers, not rates.
    if (w.open_rate > 0) {
      gen.OpenLoop(w.open_rate, 1e9, w.trace_sessions, ArrivalSeed(args.seed));
    } else {
      gen.ClosedLoop(w.connections, w.outstanding, 0.0, w.trace_sessions);
    }
    measured_end = gen.sessions().size();
  } else if (w.open_rate > 0) {
    gen.OpenLoop(w.open_rate, args.seconds * w.open_share, 0, ArrivalSeed(args.seed));
    measured_end = gen.sessions().size();
    closed_seconds = args.seconds * (1.0 - w.open_share);
    closed_completed = gen.ClosedLoop(w.connections, w.outstanding, closed_seconds, 0);
  } else {
    closed_seconds = args.seconds;
    closed_completed = gen.ClosedLoop(w.connections, w.outstanding, closed_seconds, 0);
    measured_end = gen.sessions().size();
  }
  const double peak_rss_mb = PeakRssMb(args.server_pid);

  Result<ServerCounters> after = ReadCounters(conns[0]);
  if (!after.ok()) {
    std::fprintf(stderr, "loadgen: %s\n", after.status().ToString().c_str());
    return 1;
  }
  const std::vector<Session>& sessions = gen.sessions();
  std::vector<const Session*> measured;
  size_t failed = 0;
  for (size_t i = 0; i < sessions.size(); ++i) {
    if (i < measured_end) measured.push_back(&sessions[i]);
    failed += sessions[i].failed ? 1 : 0;
  }
  for (const Session& s : warmup.sessions()) failed += s.failed ? 1 : 0;
  const size_t attempted = sessions.size() + warmup.sessions().size();

  const std::vector<double> probe_ms =
      traced ? RepeatProbe(w, conns[0], sessions) : std::vector<double>();
  JsonValue out = Summarize(measured, probe_ms);
  out.Set("attempted", JsonValue::Number(static_cast<double>(attempted)));
  out.Set("failed_total", JsonValue::Number(static_cast<double>(failed)));
  out.Set("closed_completed", JsonValue::Number(static_cast<double>(closed_completed)));
  out.Set("closed_seconds", JsonValue::Number(closed_seconds));
  out.Set("peak_rss_mb", JsonValue::Number(peak_rss_mb));
  out.Set("outbox_flush_us_p99",
          Num(WindowHistogramQuantile(*before, *after, "server.outbox.flush_us", 0.99)));
  out.Set("tick_lag_us_p99",
          Num(WindowHistogramQuantile(*before, *after, "server.loop.tick_lag_us", 0.99)));
  out.Set("open_dispatch_us_p99",
          Num(WindowHistogramQuantile(*before, *after, "server.request.open_us", 0.99)));
  const double hits = StatusDelta(*before, *after, "cache_hits");
  const double misses = StatusDelta(*before, *after, "cache_misses");
  out.Set("cache_hit_ratio", JsonValue::Number(hits + misses > 0 ? hits / (hits + misses) : 0.0));
  out.Set("cache_bytes", JsonValue::Number(after->status.GetDouble("cache_bytes")));
  out.Set("cache_evictions", JsonValue::Number(after->status.GetDouble("cache_evictions")));
  out.Set("verify", Verify(w, conns[0], sessions));
  if (traced) {
    if (!spans.Write(args.trace_out, origin)) {
      std::fprintf(stderr, "loadgen: cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
  }
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: loadgen --describe|--warmup|--window|--traced "
               "--workload W [--seed N] [--scale F] [--socket PATH]\n"
               "               [--seconds S] [--trace-out FILE] [--server-pid PID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--describe" || arg == "--warmup" || arg == "--window" ||
        arg == "--traced") {
      args.mode = arg.substr(2);
    } else if (arg == "--workload" && has_value) {
      args.workload = FindWorkload(argv[++i]);
      if (args.workload == nullptr) {
        std::fprintf(stderr, "loadgen: unknown workload '%s'\n", argv[i]);
        return 2;
      }
    } else if (arg == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      args.seconds = std::atof(argv[++i]);
    } else if (arg == "--scale" && has_value) {
      args.scale = std::atof(argv[++i]);
    } else if (arg == "--socket" && has_value) {
      args.socket = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      args.trace_out = argv[++i];
    } else if (arg == "--server-pid" && has_value) {
      args.server_pid = std::atoi(argv[++i]);
    } else {
      return Usage();
    }
  }
  if (args.workload == nullptr || args.mode.empty()) return Usage();
  if (args.mode == "describe") return Describe(args);
  if (args.socket.empty()) return Usage();
  if (args.mode == "warmup") return Warmup(args);
  if (args.mode == "traced" && args.trace_out.empty()) return Usage();
  return Window(args, args.mode == "traced");
}
