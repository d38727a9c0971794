#include "server/server.h"

#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/net_util.h"

namespace seedb::server {
namespace {

/// Per-request-type wall-time histogram ("server.request.<op>_us") and a
/// string-literal span name for the dispatch trace — looked up once, cached
/// for the life of the process. Unknown / unnamed ops return {nullptr,
/// nullptr}: still counted by requests_, just not histogrammed.
struct OpInstruments {
  obs::Histogram* latency = nullptr;
  const char* span_name = nullptr;
};

OpInstruments InstrumentsForOp(const std::string& op) {
  obs::Registry& reg = obs::Registry::Global();
  static obs::Histogram* open_us =
      reg.GetHistogram("server.request.open_us");
  static obs::Histogram* next_us =
      reg.GetHistogram("server.request.next_us");
  static obs::Histogram* cancel_us =
      reg.GetHistogram("server.request.cancel_us");
  static obs::Histogram* resume_us =
      reg.GetHistogram("server.request.resume_us");
  static obs::Histogram* finish_us =
      reg.GetHistogram("server.request.finish_us");
  if (op == "open") return {open_us, "server.open"};
  if (op == "next") return {next_us, "server.next"};
  if (op == "cancel") return {cancel_us, "server.cancel"};
  if (op == "resume") return {resume_us, "server.resume"};
  if (op == "finish") return {finish_us, "server.finish"};
  return {};
}

/// Wheel granularity for a given idle timeout: fine enough that eviction
/// lands within ~a quarter of the timeout, never busier than 10ms ticks.
uint64_t EvictionTick(uint64_t idle_timeout_ms) {
  if (idle_timeout_ms == 0) return 100;
  return std::clamp<uint64_t>(idle_timeout_ms / 4, 10, 100);
}

/// The hint a `busy` rejection carries: when to retry the `open`.
constexpr int kRetryAfterMs = 100;

}  // namespace

RecommendationServer::RecommendationServer(db::Engine* engine,
                                           ServerOptions options)
    : engine_(engine),
      seedb_(engine),
      options_(std::move(options)),
      wheel_(EvictionTick(options_.session_idle_timeout_ms)) {}

RecommendationServer::~RecommendationServer() { Stop(); }

int64_t RecommendationServer::NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t RecommendationServer::NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status RecommendationServer::Start() {
  if (running_.load()) return Status::Internal("server already started");
  if (!options_.unix_path.empty()) {
    sockaddr_un addr{};
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: " +
                                     options_.unix_path);
    }
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return ErrnoStatus("socket(AF_UNIX)");
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(options_.unix_path.c_str());  // stale socket from a prior run
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      Status s = ErrnoStatus("bind(" + options_.unix_path + ")");
      ::close(listen_fd_);
      listen_fd_ = -1;
      return s;
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return ErrnoStatus("socket(AF_INET)");
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(options_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      Status s = ErrnoStatus("bind(127.0.0.1:" +
                             std::to_string(options_.tcp_port) + ")");
      ::close(listen_fd_);
      listen_fd_ = -1;
      return s;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0) {
      port_ = ntohs(bound.sin_port);
    }
  }
  Status nonblock = SetNonBlocking(listen_fd_);
  if (!nonblock.ok() || ::listen(listen_fd_, 256) != 0) {
    Status s = nonblock.ok() ? ErrnoStatus("listen") : nonblock;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    Status s = ErrnoStatus(epoll_fd_ < 0 ? "epoll_create1" : "eventfd");
    Stop();
    return s;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  size_t threads = options_.worker_threads;
  if (threads == 0) {
    threads = std::clamp<size_t>(std::thread::hardware_concurrency(), 2, 8);
  }
  workers_ = std::make_unique<ThreadPool>(threads);
  running_.store(true);
  loop_thread_ = std::thread([this] { EventLoop(); });
  return Status::OK();
}

void RecommendationServer::Stop() {
  if (!running_.exchange(false)) {
    // Never started (or already stopped): nothing to unwind beyond
    // possibly half-open descriptors.
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    listen_fd_ = epoll_fd_ = wake_fd_ = -1;
    return;
  }
  // Expedite in-flight phases: flip every session's cancel token so a long
  // scan stops at the next morsel instead of holding up shutdown. This also
  // ends push-driver chains — a cancelled session drains on its next phase
  // job, and PostJob refuses re-enqueues once running_ is false.
  {
    base::MutexLock lock(&sessions_mu_);
    for (auto& [id, session] : sessions_) session->session.Cancel();
  }
  WakeLoop();
  if (loop_thread_.joinable()) loop_thread_.join();
  // Drains queued handler / phase jobs; their output lands in outboxes the
  // (now dead) loop never flushes, which is fine at shutdown.
  workers_.reset();
  for (auto& [fd, conn] : conns_) {
    conn->closed.store(true, std::memory_order_release);
    ::close(fd);
  }
  conns_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  listen_fd_ = epoll_fd_ = wake_fd_ = -1;
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
  base::MutexLock lock(&sessions_mu_);
  sessions_.clear();
  inflight_sessions_.store(0);
}

ServerStats RecommendationServer::stats() const {
  ServerStats s;
  s.connections = connections_.load();
  s.requests = requests_.load();
  s.errors = errors_.load();
  s.sessions_opened = sessions_opened_.load();
  s.sessions_finished = sessions_finished_.load();
  s.sessions_evicted = sessions_evicted_.load();
  s.sessions_rejected = sessions_rejected_.load();
  s.push_frames_sent = push_frames_sent_.load();
  return s;
}

size_t RecommendationServer::open_sessions() const {
  base::MutexLock lock(&sessions_mu_);
  return sessions_.size();
}

// --- Event loop -----------------------------------------------------------

void RecommendationServer::EventLoop() {
  const int timeout_ms =
      options_.session_idle_timeout_ms > 0
          ? static_cast<int>(std::min<uint64_t>(wheel_.tick_ms(), 100))
          : 100;
  std::vector<epoll_event> events(128);
  // Tick lag: how long each loop iteration spends servicing events before
  // it can block in epoll again — the time a freshly readable connection
  // can wait for the loop's attention.
  static obs::Histogram* tick_lag =
      obs::Registry::Global().GetHistogram("server.loop.tick_lag_us");
  while (running_.load()) {
    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()), timeout_ms);
    if (!running_.load()) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    obs::ScopedTimer tick_timer(tick_lag);
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t ev = events[i].events;
      if (fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      if (fd == wake_fd_) {
        uint64_t buf;
        while (::read(wake_fd_, &buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      std::shared_ptr<Conn> conn = it->second;
      if (ev & (EPOLLERR | EPOLLHUP)) {
        CloseConn(conn);
        continue;
      }
      if (ev & EPOLLIN) ReadReady(conn);
      if (conn->closed.load(std::memory_order_acquire)) continue;
      if (ev & EPOLLOUT) FlushConn(conn);
    }
    // Output queued by workers since the last pass.
    std::vector<std::weak_ptr<Conn>> dirty;
    {
      base::MutexLock lock(&dirty_mu_);
      dirty.swap(dirty_);
    }
    for (auto& weak : dirty) {
      if (std::shared_ptr<Conn> conn = weak.lock();
          conn != nullptr && !conn->closed.load(std::memory_order_acquire)) {
        FlushConn(conn);
      }
    }
    if (options_.session_idle_timeout_ms > 0) AdvanceWheel();
  }
}

void RecommendationServer::AcceptReady() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: accepted everything pending
    }
    connections_.fetch_add(1);
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conns_[fd] = std::move(conn);
  }
}

void RecommendationServer::ReadReady(const std::shared_ptr<Conn>& conn) {
  char chunk[16384];
  bool eof = false;
  while (true) {
    ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn->rbuf.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    eof = true;  // hard error: treat as hangup
    break;
  }
  // Frame complete lines into the strand's queue.
  std::vector<std::string> fresh;
  size_t start = 0;
  size_t newline;
  while ((newline = conn->rbuf.find('\n', start)) != std::string::npos) {
    std::string line = conn->rbuf.substr(start, newline - start);
    start = newline + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) fresh.push_back(std::move(line));
  }
  conn->rbuf.erase(0, start);
  bool schedule = false;
  if (!fresh.empty()) {
    base::MutexLock lock(&conn->mu);
    for (std::string& line : fresh) conn->lines.push_back(std::move(line));
    if (!conn->strand_scheduled) {
      conn->strand_scheduled = true;
      schedule = true;
    }
  }
  if (schedule) {
    PostJob([this, conn] { RunStrand(conn); });
  }
  if (conn->rbuf.size() > options_.max_line_bytes) {
    // A request line that long is hostile or broken either way; answer
    // once and drop the connection rather than buffering without bound.
    std::string response =
        ErrorResponse(Status::InvalidArgument("request line too long"), "")
            .Dump();
    response.push_back('\n');
    {
      base::MutexLock lock(&conn->mu);
      conn->outbox += response;
      conn->close_after_flush = true;
    }
    ::shutdown(conn->fd, SHUT_RD);
    conn->read_shut = true;
    FlushConn(conn);
    return;
  }
  if (eof) {
    bool pending;
    {
      base::MutexLock lock(&conn->mu);
      pending = !conn->outbox.empty() || !conn->lines.empty() ||
                conn->strand_scheduled;
      if (pending) conn->close_after_flush = true;
    }
    if (!pending) {
      CloseConn(conn);
    } else {
      // Half-close: stop reading, deliver the remaining responses, then
      // close once the strand and outbox drain.
      conn->read_shut = true;
      UpdateWriteInterest(conn, conn->want_write);
    }
  }
}

void RecommendationServer::FlushConn(const std::shared_ptr<Conn>& conn) {
  bool close_now = false;
  bool want = false;
  {
    base::MutexLock lock(&conn->mu);
    size_t off = 0;
    while (off < conn->outbox.size()) {
      ssize_t n = ::send(conn->fd, conn->outbox.data() + off,
                         conn->outbox.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      close_now = true;  // peer gone or socket error
      break;
    }
    conn->outbox.erase(0, off);
    if (conn->outbox.empty() && conn->outbox_since_us != 0) {
      // Queue fully drained: the oldest queued frame waited this long
      // between enqueue and its last byte entering the socket buffer.
      static obs::Histogram* flush_us =
          obs::Registry::Global().GetHistogram("server.outbox.flush_us");
      flush_us->Observe(static_cast<uint64_t>(NowUs()) -
                        conn->outbox_since_us);
      conn->outbox_since_us = 0;
    }
    if (conn->overflowed) close_now = true;
    if (!close_now && conn->outbox.empty() && conn->close_after_flush &&
        conn->lines.empty() && !conn->strand_scheduled) {
      close_now = true;
    }
    want = !close_now && !conn->outbox.empty();
  }
  if (close_now) {
    CloseConn(conn);
    return;
  }
  UpdateWriteInterest(conn, want);
}

void RecommendationServer::UpdateWriteInterest(
    const std::shared_ptr<Conn>& conn, bool want) {
  if (want == conn->want_write && !conn->read_shut) return;
  conn->want_write = want;
  epoll_event ev{};
  ev.events = (conn->read_shut ? 0u : static_cast<uint32_t>(EPOLLIN)) |
              (want ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void RecommendationServer::CloseConn(const std::shared_ptr<Conn>& conn) {
  if (conn->closed.exchange(true, std::memory_order_acq_rel)) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conns_.erase(conn->fd);
  // Push sessions bound to this connection are NOT torn down here: the
  // phase driver notices the dead connection on its next phase, cancels the
  // session, and leaves it in the registry — resumable from a reconnect,
  // evictable by the wheel.
}

// --- Worker-side plumbing -------------------------------------------------

void RecommendationServer::PostJob(std::function<void()> job) {
  if (!running_.load(std::memory_order_acquire) || workers_ == nullptr) return;
  workers_->Submit(std::move(job));
}

void RecommendationServer::WakeLoop() {
  if (wake_fd_ < 0) return;
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void RecommendationServer::MarkDirty(const std::shared_ptr<Conn>& conn) {
  {
    base::MutexLock lock(&dirty_mu_);
    dirty_.push_back(conn);
  }
  WakeLoop();
}

void RecommendationServer::EnqueueOutput(const std::shared_ptr<Conn>& conn,
                                         std::string frame) {
  {
    base::MutexLock lock(&conn->mu);
    if (conn->closed.load(std::memory_order_acquire)) return;
    if (conn->outbox.empty()) {
      conn->outbox_since_us = static_cast<uint64_t>(NowUs());
    }
    conn->outbox += frame;
    if (conn->outbox.size() > options_.max_write_queue_bytes) {
      // A reader this far behind must not pin memory; the loop drops it.
      conn->overflowed = true;
    }
  }
  MarkDirty(conn);
}

void RecommendationServer::RunStrand(std::shared_ptr<Conn> conn) {
  while (true) {
    std::string line;
    {
      base::MutexLock lock(&conn->mu);
      if (conn->lines.empty()) {
        conn->strand_scheduled = false;
        break;
      }
      line = std::move(conn->lines.front());
      conn->lines.pop_front();
    }
    ReqCtx ctx;
    ctx.conn = conn;
    std::string response = HandleLineOnConn(line, &ctx);
    response.push_back('\n');
    EnqueueOutput(conn, std::move(response));
    // Deferred work (starting a push driver) runs only after the response
    // is in the outbox, so the first push frame cannot overtake the ack.
    if (ctx.after_send) ctx.after_send();
  }
  bool flush_close;
  {
    base::MutexLock lock(&conn->mu);
    flush_close = conn->close_after_flush;
  }
  // A draining connection waits on this strand; re-check the close now.
  if (flush_close) MarkDirty(conn);
}

// --- Push driving ---------------------------------------------------------

bool RecommendationServer::PushFrameLocked(ServerSession* entry,
                                           JsonValue frame,
                                           bool even_if_evicted) {
  // An evicted session's terminal `drained` is pushed by EvictSession
  // itself; everything else this incarnation still emits (an in-flight
  // Next's progress, a queued phase job's frames) is dropped so `drained`
  // stays the last frame the subscriber sees for this id.
  if (entry->evicted.load(std::memory_order_acquire) && !even_if_evicted) {
    return false;
  }
  std::shared_ptr<Conn> conn = entry->push_conn.lock();
  if (conn == nullptr || conn->closed.load(std::memory_order_acquire)) {
    return false;
  }
  frame.Set("push", JsonValue::Bool(true));
  frame.Set("seq", JsonValue::Number(static_cast<double>(++entry->push_seq)));
  // Send stamp (steady clock, µs): bench_server measures frame-delivery
  // latency as receive time minus this.
  frame.Set("ts_us", JsonValue::Number(static_cast<double>(NowUs())));
  std::string line = frame.Dump();
  line.push_back('\n');
  EnqueueOutput(conn, std::move(line));
  push_frames_sent_.fetch_add(1);
  return true;
}

void RecommendationServer::PushProgress(ServerSession* entry,
                                        const std::string& id,
                                        const core::ProgressUpdate& update) {
  // The sink fires inside entry->session.Next()/Finish(), whose call sites
  // (DrivePhase, HandleNext, HandleFinish) all hold entry->mu — see the
  // declaration for why this is asserted rather than REQUIRES'd.
  PushFrameLocked(entry, ProgressToJson(id, update));
}

void RecommendationServer::MarkDrained(
    const std::shared_ptr<ServerSession>& entry) {
  if (entry->counted_inflight.exchange(false)) {
    inflight_sessions_.fetch_sub(1);
  }
}

void RecommendationServer::StartDrivingLocked(
    ServerSession* entry, const std::shared_ptr<Conn>& conn) {
  entry->push_conn = conn;
  entry->driving = true;
  if (!entry->counted_inflight.exchange(true)) {
    inflight_sessions_.fetch_add(1);
  }
}

void RecommendationServer::DrivePhase(std::shared_ptr<ServerSession> entry,
                                      std::string id) {
  bool requeue = false;
  ServerSession* s = entry.get();
  {
    base::MutexLock lock(&s->mu);
    if (s->finished || !s->driving ||
        s->evicted.load(std::memory_order_acquire)) {
      s->driving = false;
      return;
    }
    std::shared_ptr<Conn> conn = s->push_conn.lock();
    if (conn == nullptr || conn->closed.load(std::memory_order_acquire)) {
      // The subscriber disconnected mid-run: stop scanning on its behalf
      // but keep the session (cancelled, resumable from a reconnect).
      s->driving = false;
      s->session.Cancel();
      MarkDrained(entry);
      return;
    }
    s->last_active_ms.store(NowMs(), std::memory_order_relaxed);
    Result<std::optional<core::ProgressUpdate>> update = s->session.Next();
    s->last_active_ms.store(NowMs(), std::memory_order_relaxed);
    if (!update.ok()) {
      // Budget breach (OutOfRange) or execution failure: push the error,
      // then drained — the client surfaces the Status and `finish` still
      // returns partial results.
      PushFrameLocked(s, ErrorResponse(update.status(), id));
    }
    if (update.ok() && update->has_value() && !s->session.done()) {
      // The sink already pushed this phase's frame; more phases remain.
      requeue = true;
    } else {
      JsonValue drained = JsonValue::Object();
      drained.Set("ok", JsonValue::Bool(true));
      drained.Set("id", JsonValue::Str(id));
      drained.Set("type", JsonValue::Str("drained"));
      if (PushFrameLocked(s, std::move(drained))) s->drained_sent = true;
      s->driving = false;
      MarkDrained(entry);
    }
  }
  if (requeue) {
    // One phase per job: sessions on a saturated pool interleave fairly
    // instead of the first open monopolizing a worker to the end.
    PostJob([this, entry = std::move(entry), id = std::move(id)]() mutable {
      DrivePhase(std::move(entry), std::move(id));
    });
  }
}

// --- Admission / eviction -------------------------------------------------

bool RecommendationServer::AdmitOpen() const {
  return options_.max_inflight_phases == 0 ||
         inflight_sessions_.load(std::memory_order_relaxed) <
             options_.max_inflight_phases;
}

void RecommendationServer::Touch(ServerSession* entry) {
  entry->last_active_ms.store(NowMs(), std::memory_order_relaxed);
}

void RecommendationServer::AdvanceWheel() {
  const int64_t now = NowMs();
  std::vector<std::string> expired;
  {
    base::MutexLock lock(&wheel_mu_);
    wheel_.Advance(static_cast<uint64_t>(now), &expired);
  }
  const int64_t timeout =
      static_cast<int64_t>(options_.session_idle_timeout_ms);
  for (const std::string& id : expired) {
    std::shared_ptr<ServerSession> entry = FindSession(id);
    if (entry == nullptr) continue;  // finished since its timer was armed
    const int64_t idle =
        now - entry->last_active_ms.load(std::memory_order_relaxed);
    if (idle >= timeout) {
      EvictSession(id, entry);
    } else {
      // Lazy re-arm: the session was touched since the timer was set;
      // sleep out the remainder instead of rescheduling on every touch.
      base::MutexLock lock(&wheel_mu_);
      wheel_.Schedule(id, static_cast<uint64_t>(now),
                      static_cast<uint64_t>(timeout - idle));
    }
  }
}

void RecommendationServer::EvictSession(
    const std::string& id, const std::shared_ptr<ServerSession>& entry) {
  {
    base::MutexLock lock(&sessions_mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end() || it->second != entry) return;
    sessions_.erase(it);
  }
  // Cancel first, lock-free: an in-flight phase observes the token at
  // morsel granularity, so the entry->mu wait below is bounded by one
  // morsel, not a whole phase. The evicted flag then mutes every frame this
  // incarnation might still emit (a queued phase job, a Next mid-cut).
  entry->session.Cancel();
  entry->evicted.store(true, std::memory_order_release);
  {
    base::MutexLock lock(&entry->mu);
    if (!entry->drained_sent) {
      // Tell the v2 subscriber NOW that the stream is over — before the
      // fix, a queued phase job delivered `drained` arbitrarily late (or
      // emitted frames after it when the id was reopened).
      JsonValue drained = JsonValue::Object();
      drained.Set("ok", JsonValue::Bool(true));
      drained.Set("id", JsonValue::Str(id));
      drained.Set("type", JsonValue::Str("drained"));
      entry->drained_sent =
          PushFrameLocked(entry.get(), std::move(drained),
                          /*even_if_evicted=*/true);
    }
    entry->driving = false;
  }
  MarkDrained(entry);
  sessions_evicted_.fetch_add(1);
  static obs::Counter* evictions =
      obs::Registry::Global().GetCounter("server.evictions");
  evictions->Add();
}

// --- Request dispatch -----------------------------------------------------

std::string RecommendationServer::HandleLine(const std::string& line) {
  ReqCtx ctx;  // no connection: legacy v1 semantics, nowhere to push
  return HandleLineOnConn(line, &ctx);
}

std::string RecommendationServer::HandleLineOnConn(const std::string& line,
                                                   ReqCtx* ctx) {
  requests_.fetch_add(1);
  std::string id;
  // Every request line, socketless or on a connection's strand, passes
  // here: a handler that throws is answered `internal` and the strand goes
  // on to its next line, instead of unwinding out of RunStrand with
  // strand_scheduled still set and leaving the connection unanswered.
  try {
    Result<JsonValue> parsed = ParseJson(line);
    if (!parsed.ok()) {
      errors_.fetch_add(1);
      return ErrorResponse(parsed.status(), "").Dump();
    }
    if (!parsed->is_object()) {
      errors_.fetch_add(1);
      return ErrorResponse(
                 Status::InvalidArgument("request must be a JSON object"), "")
          .Dump();
    }
    id = parsed->GetString("id");
    JsonValue response = Dispatch(*parsed, ctx);
    if (!response.GetBool("ok")) errors_.fetch_add(1);
    return response.Dump();
  } catch (const std::exception& e) {
    errors_.fetch_add(1);
    ctx->after_send = nullptr;  // the request failed; start nothing
    return ErrorResponse(
               Status::Internal(std::string("request failed: ") + e.what()),
               id)
        .Dump();
  }
}

JsonValue RecommendationServer::Dispatch(const JsonValue& request,
                                         ReqCtx* ctx) {
  const std::string op = request.GetString("op");
  const std::string id = request.GetString("id");
  if (op.empty()) {
    return ErrorResponse(
        Status::InvalidArgument("missing \"op\" (expected "
                                "hello|open|next|cancel|resume|finish|"
                                "status|metrics)"),
        id);
  }
  // Per-request-type wall time (error paths included — they are served
  // requests too) and, when a recorder is active, a dispatch span.
  const OpInstruments instruments = InstrumentsForOp(op);
  obs::ScopedTimer request_timer(instruments.latency);
  SEEDB_TRACE_SPAN_IF(dispatch_span,
                      instruments.span_name != nullptr
                          ? instruments.span_name
                          : "server.dispatch",
                      0, obs::TraceRecorder::Enabled());
  if (op == "hello") return HandleHello(request, ctx);
  if (op == "status") return HandleStatus(id);
  if (op == "metrics") return HandleMetrics();
  if (id.empty()) {
    return ErrorResponse(
        Status::InvalidArgument("op \"" + op + "\" needs a session \"id\""),
        id);
  }
  if (op == "open") return HandleOpen(id, request, ctx);
  if (op == "next") return HandleNext(id);
  if (op == "cancel") return HandleCancel(id);
  if (op == "resume") return HandleResume(id, ctx);
  if (op == "finish") return HandleFinish(id);
  return ErrorResponse(Status::InvalidArgument("unknown op \"" + op + "\""),
                       id);
}

JsonValue RecommendationServer::HandleMetrics() {
  return MetricsToJson(obs::Registry::Global().TakeSnapshot());
}

std::shared_ptr<RecommendationServer::ServerSession>
RecommendationServer::FindSession(const std::string& id) {
  base::MutexLock lock(&sessions_mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

JsonValue RecommendationServer::HandleHello(const JsonValue& request,
                                            ReqCtx* ctx) {
  Handshake handshake = NegotiateHello(request);
  // Strand state: only this connection's (single) strand worker reads it.
  if (ctx->conn != nullptr) ctx->conn->handshake = handshake;
  return HelloResponseToJson(handshake);
}

JsonValue RecommendationServer::HandleOpen(const std::string& id,
                                           const JsonValue& request,
                                           ReqCtx* ctx) {
  Result<core::SeeDBRequest> parsed = OpenRequestFromJson(request);
  if (!parsed.ok()) return ErrorResponse(parsed.status(), id);
  {
    // Early refusal so an over-limit or duplicate open skips the planning
    // work; the authoritative checks repeat at insert time below.
    base::MutexLock lock(&sessions_mu_);
    if (sessions_.count(id) > 0) {
      return ErrorResponse(
          Status::AlreadyExists("session \"" + id + "\" already open"), id);
    }
    if (!AdmitOpen()) {
      // Admission control: shed instead of queueing unbounded sessions on a
      // saturated Engine. Structured so clients can back off and retry.
      sessions_rejected_.fetch_add(1);
      static obs::Counter* busy_sheds =
          obs::Registry::Global().GetCounter("server.admission.busy_sheds");
      busy_sheds->Add();
      JsonValue busy = ErrorResponse(
          Status::Unavailable(
              "server at capacity (" +
              std::to_string(options_.max_inflight_phases) +
              " sessions in flight); retry later"),
          id);
      busy.Set("retry_after_ms",
               JsonValue::Number(static_cast<double>(kRetryAfterMs)));
      return busy;
    }
    if (sessions_.size() >= options_.max_sessions) {
      return ErrorResponse(
          Status::OutOfRange("server session limit reached (" +
                             std::to_string(options_.max_sessions) + ")"),
          id);
    }
  }
  // Planning runs outside the registry lock — it scans catalog statistics
  // and may take a while. Racing opens all plan; the losers are refused at
  // insert, where the duplicate-id and session-cap checks are re-run under
  // the same lock acquisition that inserts.
  Result<core::RecommendationSession> session = seedb_.Open(*parsed);
  if (!session.ok()) return ErrorResponse(session.status(), id);
  std::shared_ptr<ServerSession> entry;
  {
    base::MutexLock lock(&sessions_mu_);
    if (sessions_.size() >= options_.max_sessions) {
      return ErrorResponse(
          Status::OutOfRange("server session limit reached (" +
                             std::to_string(options_.max_sessions) + ")"),
          id);
    }
    auto [it, inserted] = sessions_.emplace(
        id, std::make_shared<ServerSession>(std::move(*session)));
    if (!inserted) {
      return ErrorResponse(
          Status::AlreadyExists("session \"" + id + "\" already open"), id);
    }
    entry = it->second;
  }
  Touch(entry.get());
  if (!entry->counted_inflight.exchange(true)) {
    inflight_sessions_.fetch_add(1);
  }
  sessions_opened_.fetch_add(1);
  if (options_.session_idle_timeout_ms > 0) {
    base::MutexLock lock(&wheel_mu_);
    wheel_.Schedule(id, static_cast<uint64_t>(NowMs()),
                    options_.session_idle_timeout_ms);
  }
  if (ctx->conn != nullptr && ctx->conn->handshake.push) {
    // Protocol v2: the server drives this session. The session's sink
    // serializes every ProgressUpdate straight into the bound connection's
    // write queue; the phase jobs below only sequence Next() calls.
    std::weak_ptr<ServerSession> weak = entry;
    entry->session.SetProgressSink(
        [this, weak, id](const core::ProgressUpdate& update) {
          std::shared_ptr<ServerSession> e = weak.lock();
          if (e == nullptr) return;
          PushProgress(e.get(), id, update);
        });
    {
      ServerSession* s = entry.get();
      base::MutexLock lock(&s->mu);
      StartDrivingLocked(s, ctx->conn);
    }
    ctx->after_send = [this, entry, id] {
      PostJob([this, entry, id] { DrivePhase(entry, id); });
    };
  }
  JsonValue response = JsonValue::Object();
  response.Set("ok", JsonValue::Bool(true));
  response.Set("id", JsonValue::Str(id));
  response.Set("type", JsonValue::Str("opened"));
  return response;
}

JsonValue RecommendationServer::HandleNext(const std::string& id) {
  std::shared_ptr<ServerSession> entry = FindSession(id);
  if (entry == nullptr) {
    return ErrorResponse(Status::NotFound("unknown session \"" + id + "\""),
                         id);
  }
  Touch(entry.get());
  base::MutexLock lock(&entry->mu);
  Result<std::optional<core::ProgressUpdate>> update = entry->session.Next();
  if (!update.ok()) return ErrorResponse(update.status(), id);
  if (!update->has_value()) {
    JsonValue response = JsonValue::Object();
    response.Set("ok", JsonValue::Bool(true));
    response.Set("id", JsonValue::Str(id));
    response.Set("type", JsonValue::Str("drained"));
    return response;
  }
  return ProgressToJson(id, **update);
}

JsonValue RecommendationServer::HandleCancel(const std::string& id) {
  std::shared_ptr<ServerSession> entry = FindSession(id);
  if (entry == nullptr) {
    return ErrorResponse(Status::NotFound("unknown session \"" + id + "\""),
                         id);
  }
  Touch(entry.get());
  // No session lock: Cancel only flips the shared atomic token, which is
  // exactly how a cancel reaches a phase in flight on another connection —
  // or on the server's own push driver.
  entry->session.Cancel();
  JsonValue response = JsonValue::Object();
  response.Set("ok", JsonValue::Bool(true));
  response.Set("id", JsonValue::Str(id));
  response.Set("type", JsonValue::Str("ack"));
  return response;
}

JsonValue RecommendationServer::HandleResume(const std::string& id,
                                             ReqCtx* ctx) {
  std::shared_ptr<ServerSession> entry = FindSession(id);
  if (entry == nullptr) {
    return ErrorResponse(Status::NotFound("unknown session \"" + id + "\""),
                         id);
  }
  Touch(entry.get());
  bool start_driving = false;
  {
    ServerSession* s = entry.get();
    base::MutexLock lock(&s->mu);
    if (s->finished) {
      return ErrorResponse(
          Status::NotFound("session \"" + id + "\" already finished"), id);
    }
    Status resumed = s->session.Resume();
    if (!resumed.ok()) return ErrorResponse(resumed, id);
    if (ctx->conn != nullptr && ctx->conn->handshake.push) {
      // Rebind the push stream to the resuming connection (it may be a
      // reconnect after the original subscriber went away).
      if (!s->driving) start_driving = true;
      StartDrivingLocked(s, ctx->conn);
    }
  }
  if (start_driving) {
    ctx->after_send = [this, entry, id] {
      PostJob([this, entry, id] { DrivePhase(entry, id); });
    };
  }
  JsonValue response = JsonValue::Object();
  response.Set("ok", JsonValue::Bool(true));
  response.Set("id", JsonValue::Str(id));
  response.Set("type", JsonValue::Str("ack"));
  return response;
}

JsonValue RecommendationServer::HandleFinish(const std::string& id) {
  std::shared_ptr<ServerSession> entry = FindSession(id);
  if (entry == nullptr) {
    return ErrorResponse(Status::NotFound("unknown session \"" + id + "\""),
                         id);
  }
  Touch(entry.get());
  JsonValue response;
  {
    base::MutexLock lock(&entry->mu);
    if (entry->finished) {
      return ErrorResponse(
          Status::NotFound("session \"" + id + "\" already finished"), id);
    }
    entry->finished = true;
    entry->driving = false;  // a queued phase job exits on `finished`
    Result<core::RecommendationSet> set = entry->session.Finish();
    response = set.ok() ? ResultToJson(id, *set)
                        : ErrorResponse(set.status(), id);
  }
  // The id is gone either way — a failed Finish() leaves no session worth
  // keeping, and later ops on it answer not_found.
  {
    base::MutexLock lock(&sessions_mu_);
    sessions_.erase(id);
  }
  {
    base::MutexLock lock(&wheel_mu_);
    wheel_.Cancel(id);
  }
  MarkDrained(entry);
  sessions_finished_.fetch_add(1);
  return response;
}

JsonValue RecommendationServer::HandleStatus(const std::string& id) {
  JsonValue response = JsonValue::Object();
  response.Set("ok", JsonValue::Bool(true));
  if (!id.empty()) response.Set("id", JsonValue::Str(id));
  response.Set("type", JsonValue::Str("status"));
  if (id.empty()) {
    std::vector<std::shared_ptr<ServerSession>> entries;
    {
      base::MutexLock lock(&sessions_mu_);
      entries.reserve(sessions_.size());
      for (auto& [sid, entry] : sessions_) entries.push_back(entry);
    }
    uint64_t memory = 0;
    for (auto& entry : entries) {
      base::MutexLock lock(&entry->mu);
      memory += entry->session.memory_bytes();
    }
    response.Set("sessions",
                 JsonValue::Number(static_cast<double>(entries.size())));
    response.Set("requests",
                 JsonValue::Number(static_cast<double>(requests_.load())));
    response.Set("memory_bytes",
                 JsonValue::Number(static_cast<double>(memory)));
    if (const db::PartialAggCache* cache = engine_->result_cache()) {
      const db::ScanCacheStats cs = cache->stats();
      response.Set("cache_enabled", JsonValue::Bool(true));
      response.Set("cache_hits",
                   JsonValue::Number(static_cast<double>(cs.hits)));
      response.Set("cache_misses",
                   JsonValue::Number(static_cast<double>(cs.misses)));
      response.Set("cache_bytes",
                   JsonValue::Number(static_cast<double>(cs.bytes)));
      response.Set("cache_evictions",
                   JsonValue::Number(static_cast<double>(cs.evictions)));
    }
    return response;
  }
  std::shared_ptr<ServerSession> entry = FindSession(id);
  if (entry == nullptr) {
    return ErrorResponse(Status::NotFound("unknown session \"" + id + "\""),
                         id);
  }
  Touch(entry.get());
  // Locked: phases_run / memory_bytes read execution state a concurrent
  // Next() mutates.
  base::MutexLock lock(&entry->mu);
  response.Set("session", JsonValue::Bool(true));
  response.Set("done", JsonValue::Bool(entry->session.done()));
  response.Set("cancelled", JsonValue::Bool(entry->session.cancelled()));
  response.Set("budget_exceeded",
               JsonValue::Bool(entry->session.budget_exceeded()));
  response.Set("phases_run",
               JsonValue::Number(
                   static_cast<double>(entry->session.phases_run())));
  response.Set("memory_bytes",
               JsonValue::Number(
                   static_cast<double>(entry->session.memory_bytes())));
  return response;
}

}  // namespace seedb::server
