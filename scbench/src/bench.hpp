// Shared types of the repository benchmark: run options, the result every
// workload returns, and small statistics helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "nn/tensor.hpp"

namespace scbench {

namespace nn = scnn::nn;

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// What one invocation runs.
struct Options {
  std::string workload;  ///< batch-cifar | serve-digits | tenants-swap
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< measured time of the main phase(s)
  bool trace = false;     ///< traced run: report per-layer metrics
  /// Directory for the result and trace artifacts ("" = write none).
  std::string out_dir;
  /// Self-test hook: flip one bit of one reference logit before measuring,
  /// so the run must report that operation as failed.
  bool corrupt_reference = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Outcome of one run. `metrics` holds the end-to-end metrics (untraced run)
/// or the per-layer metrics (traced run). `descriptor` and `tenants` are the
/// like-for-like fingerprint: what ran, at which rates, on which kernels.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> failures;  ///< failed ops by cause
  std::vector<std::pair<std::string, std::string>> descriptor;
  /// Per tenant: name -> {"describe": "...", "engine_config": {...}}.
  std::vector<std::pair<std::string, std::string>> tenants;
  std::string trace_path;  ///< traced run: the chrome-trace artifact
  std::uint64_t input_digest = 0;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& cause, std::uint64_t n = 1) {
    failed += n;
    failures[cause] += static_cast<double>(n);
  }
  [[nodiscard]] bool correct() const { return failed == 0; }
};

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty one.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Output verification: same shape and the same bits in every element.
inline bool same_bits(const nn::Tensor& a, const nn::Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data().data(), b.data().data(), a.size() * sizeof(float)) == 0;
}

/// Peak resident set of this process so far, MiB.
double rss_peak_mb();

/// Name of the first engine-steering environment variable that is set, or
/// "" when none is. The benchmark measures defaults, so it refuses to run
/// under any of them.
std::string steering_env_var();

/// Hardware threads of this machine (at least 1).
int hw_threads();

/// Run `opts.workload`. Throws std::invalid_argument on an unknown workload
/// or a thread budget this machine cannot meet.
Result run_workload(const Options& opts);

}  // namespace scbench
