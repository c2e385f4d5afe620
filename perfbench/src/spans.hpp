#pragma once
// In-memory span recorder for the traced benchmark run.
//
// A span is a named [start, end] interval on one thread.  Spans of one
// request share its request id, and a child names its parent span (the
// enclosing span of the same request), so a request's tree is rebuilt by
// (id, name).  Each recording thread appends to its own Tracer::Log without
// locking; the log merges into the Tracer when it is destroyed, and the
// Tracer writes everything out once the run ends, as Chrome trace-event JSON
// (load it in chrome://tracing or https://ui.perfetto.dev).
//
// With tracing off every add() is one predictable branch, so the same code
// path serves the untraced run.

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "measure.hpp"

namespace perfbench {

struct Span {
  const char* name = "";
  const char* parent = nullptr;  ///< enclosing span's name (same request), or null
  std::uint64_t req = 0;         ///< request id shared by the request's spans; 0 = none
  Clock::time_point t0{}, t1{};
  std::uint32_t tid = 0;
};

class Tracer {
 public:
  /// Spans one thread keeps; later ones are counted as dropped.
  static constexpr std::size_t kMaxSpansPerLog = 1u << 16;

  explicit Tracer(bool on) : on_(on) {}

  /// One thread's span buffer; merges into the tracer on destruction.
  class Log {
   public:
    Log(Tracer& tracer, std::uint32_t tid) : tracer_(tracer), tid_(tid) {}
    ~Log() { flush(); }
    Log(const Log&) = delete;
    Log& operator=(const Log&) = delete;

    /// Hands the spans recorded so far to the tracer.
    void flush() {
      tracer_.merge(spans_, dropped_);
      spans_.clear();
      dropped_ = 0;
    }

    void add(const char* name, const char* parent, std::uint64_t req, Clock::time_point t0,
             Clock::time_point t1) {
      if (!tracer_.on_) return;
      if (spans_.size() >= kMaxSpansPerLog) {
        ++dropped_;
        return;
      }
      spans_.push_back(Span{name, parent, req, t0, t1, tid_});
    }

   private:
    Tracer& tracer_;
    std::uint32_t tid_;
    std::vector<Span> spans_;
    std::size_t dropped_ = 0;
  };

  /// Durations of every merged span called `name`.
  [[nodiscard]] LatencyHistogram durations(std::string_view name) const {
    std::lock_guard lk(m_);
    LatencyHistogram h;
    for (const Span& s : spans_) {
      if (name == s.name) h.add(us_between(s.t0, s.t1));
    }
    return h;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lk(m_);
    return spans_.size();
  }
  [[nodiscard]] std::size_t dropped() const {
    std::lock_guard lk(m_);
    return dropped_;
  }

  /// Writes every merged span as Chrome trace-event JSON ("X" events, times
  /// in microseconds since `origin`).  Returns false when the file cannot be
  /// written.
  bool write_chrome_json(const std::string& path, Clock::time_point origin) const {
    std::lock_guard lk(m_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"req\":%llu,\"parent\":\"%s\"}}%s\n",
                   s.name, s.tid, us_between(origin, s.t0), us_between(s.t0, s.t1),
                   static_cast<unsigned long long>(s.req), s.parent ? s.parent : "",
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  void merge(std::vector<Span>& spans, std::size_t dropped) {
    if (!on_) return;
    std::lock_guard lk(m_);
    spans_.insert(spans_.end(), spans.begin(), spans.end());
    dropped_ += dropped;
  }

  const bool on_;
  mutable std::mutex m_;
  std::vector<Span> spans_;  ///< guarded by m_
  std::size_t dropped_ = 0;  ///< guarded by m_
};

}  // namespace perfbench
