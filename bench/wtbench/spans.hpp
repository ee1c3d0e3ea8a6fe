// Bench-side spans for the traced run: client requests (sampled), phases,
// and every replayed public call, kept in memory and written once at the
// end as Chrome trace_event JSON (chrome://tracing, Perfetto).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "obs/metrics.hpp"

namespace wtbench {

class SpanLog {
 public:
  struct Span {
    const char* name;  // "<layer>.<call>"; the layer becomes the category
    uint64_t id;
    uint64_t parent;  // 0 = root
    uint64_t start_ns;
    uint64_t end_ns;  // 0 while open
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }

  uint64_t Begin(const char* name, uint64_t parent) {
    if (!enabled_) return 0;
    spans_.push_back({name, spans_.size() + 1, parent, wt::obs::NowNanos(), 0});
    return spans_.back().id;
  }

  void End(uint64_t id) {
    if (id != 0) spans_[id - 1].end_ns = wt::obs::NowNanos();
  }

  /// A span whose interval is already known (a client request: from its
  /// scheduled send to its parsed reply).
  void Add(const char* name, uint64_t parent, uint64_t start_ns,
           uint64_t end_ns) {
    if (!enabled_) return;
    spans_.push_back({name, spans_.size() + 1, parent, start_ns, end_ns});
  }

  /// Every span closed, and every parent a span of this log.
  bool Validate(std::string* why) const {
    std::unordered_set<uint64_t> ids;
    for (const Span& s : spans_) ids.insert(s.id);
    for (const Span& s : spans_) {
      if (s.end_ns == 0 || s.end_ns < s.start_ns) {
        *why = std::string("span not closed: ") + s.name;
        return false;
      }
      if (s.parent != 0 && ids.count(s.parent) == 0) {
        *why = std::string("span parent missing: ") + s.name;
        return false;
      }
    }
    return true;
  }

  size_t size() const { return spans_.size(); }

  bool WriteChromeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string name = s.name;
      const std::string cat = name.substr(0, name.find('.'));
      const double ts = (double(s.start_ns) - double(t0)) / 1e3;
      std::fprintf(f,
                   "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                   "\"args\": {\"span_id\": %llu, \"parent_id\": %llu}}%s\n",
                   s.name, cat.c_str(), ts,
                   double(s.end_ns - s.start_ns) / 1e3,
                   cat == "client" ? 2 : 1, (unsigned long long)s.id,
                   (unsigned long long)s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span around one public call.
class ScopedBenchSpan {
 public:
  ScopedBenchSpan(SpanLog& log, const char* name, uint64_t parent)
      : log_(log), id_(log.Begin(name, parent)) {}
  ~ScopedBenchSpan() { log_.End(id_); }
  ScopedBenchSpan(const ScopedBenchSpan&) = delete;
  ScopedBenchSpan& operator=(const ScopedBenchSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  SpanLog& log_;
  const uint64_t id_;
};

}  // namespace wtbench
