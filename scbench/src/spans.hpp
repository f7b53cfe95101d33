// Benchmark-side spans. The traced run times its own calls into each
// layer's public functions (nothing inside src/ is traced) and records them
// here: name, start, end, the span that caused it (`parent`), and for
// serving spans the request id they share. Spans stay in memory and are
// written once at the end as chrome-trace JSON through obs::Tracer.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "bench.hpp"
#include "obs/trace.hpp"

namespace scbench {

/// Timeline rows of the artifact.
enum SpanRow : int { kRowCaller = 0, kRowGenerator = 1, kRowCollector = 2 };

class SpanLog {
 public:
  /// A disabled log records nothing and hands out id 0.
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// A fresh span id (0 when disabled), so a parent can be named before
  /// its own span is recorded (parents end after their children).
  std::uint64_t next_id() { return enabled_ ? next_id_.fetch_add(1) : 0; }

  /// Record a complete span. `request_id` 0 means "not a request span".
  void record(std::uint64_t id, std::string name, Clock::time_point t0,
              Clock::time_point t1, int row, std::uint64_t parent = 0,
              std::uint64_t request_id = 0);

  /// Write the chrome-trace JSON; false when the file cannot be opened.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::atomic<std::uint64_t> next_id_{1};
  scnn::obs::Tracer tracer_;
};

/// Structural check of a written trace: it re-parses through obs::json,
/// every span's parent exists and encloses it in time, every nn layer span
/// sits inside an "nn.forward" span, and each request id that has a
/// "serve.submit" span also has a "serve.request" span. Returns "" when
/// valid, else the first problem found.
std::string validate_trace(std::string_view json);

}  // namespace scbench
