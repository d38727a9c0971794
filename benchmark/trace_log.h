// In-memory span log for the benchmark's traced runs, written at exit as
// Chrome trace-event JSON (loads in Perfetto; checked by
// tools/validate_trace.py and summarized by trace_summary.py).
//
// A span is (name, session, parent, start, end). Spans of one session share
// a trace tid, so a session's spans nest on their own track even when the
// load generator has many sessions in flight at once.

#ifndef SEEDB_BENCHMARK_TRACE_LOG_H_
#define SEEDB_BENCHMARK_TRACE_LOG_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

namespace seedb::benchmark {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  /// Records a finished span. `depth` orders spans that share a start
  /// instant (a parent before its children).
  void Add(const char* name, uint64_t session, const char* parent,
           int64_t start_ns, int64_t end_ns, int depth) {
    spans_.push_back({name, parent, session, start_ns, end_ns, depth});
  }

  /// Writes B/E event pairs, one tid per session, timestamps in µs since
  /// `origin_ns`. Returns false when the file cannot be written.
  bool Write(const std::string& path, int64_t origin_ns) const {
    std::vector<Span> spans(spans_.begin(), spans_.end());
    std::stable_sort(spans.begin(), spans.end(),
                     [](const Span& a, const Span& b) {
                       if (a.session != b.session) return a.session < b.session;
                       if (a.start != b.start) return a.start < b.start;
                       if (a.end != b.end) return a.end > b.end;
                       return a.depth < b.depth;
                     });
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("[\n", f);
    bool first = true;
    auto emit = [&](const Span& s, char ph, int64_t at) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"%c\",\"ts\":%.3f,\"pid\":1,"
                   "\"tid\":%llu,\"args\":{\"session\":%llu,\"parent\":\"%s\"}}",
                   first ? "" : ",\n", s.name, ph,
                   static_cast<double>(at - origin_ns) / 1e3,
                   static_cast<unsigned long long>(s.session),
                   static_cast<unsigned long long>(s.session), s.parent);
      first = false;
    };
    std::vector<const Span*> open;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      while (!open.empty() &&
             (open.back()->session != s.session || open.back()->end <= s.start)) {
        emit(*open.back(), 'E', open.back()->end);
        open.pop_back();
      }
      emit(s, 'B', s.start);
      open.push_back(&s);
    }
    while (!open.empty()) {
      emit(*open.back(), 'E', open.back()->end);
      open.pop_back();
    }
    std::fputs("\n]\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    const char* parent;
    uint64_t session;
    int64_t start;
    int64_t end;
    int depth;
  };
  // A deque never moves what it holds when it grows: a vector's
  // reallocation would land in the enclosing span's self time.
  std::deque<Span> spans_;
};

/// RAII span for in-process calls: nests under the innermost live
/// ScopedSpan of the same log.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t session)
      : log_(log), name_(name), session_(session), start_(NowNs()) {
    parent_ = stack().empty() ? "" : stack().back();
    depth_ = static_cast<int>(stack().size());
    stack().push_back(name_);
  }
  ~ScopedSpan() {
    stack().pop_back();
    if (log_ != nullptr) {
      log_->Add(name_, session_, parent_, start_, NowNs(), depth_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  static std::vector<const char*>& stack() {
    thread_local std::vector<const char*> names;
    return names;
  }
  SpanLog* log_;
  const char* name_;
  const char* parent_ = "";
  uint64_t session_;
  int64_t start_;
  int depth_ = 0;
};

}  // namespace seedb::benchmark

#endif  // SEEDB_BENCHMARK_TRACE_LOG_H_
