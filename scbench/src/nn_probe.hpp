// The nn / nn.mac_engine / common layer breakdown of the traced run.
//
// Everything is measured from outside the library through public calls:
// InferenceSession::forward, each Network::layer(i).forward() in sequence
// (which must reproduce the session's logits bit-exactly), the conv layers'
// last_forward_stats(), an instrumented pass for the k histogram, and a
// serial replay of MacEngine::mac_rows on each conv layer's real weight
// codes and real patch codes.
#pragma once

#include <cstdint>

#include "bench.hpp"
#include "nn/inference_session.hpp"
#include "spans.hpp"

namespace scbench {

struct NnBreakdown {
  double conv_ms[3] = {0.0, 0.0, 0.0};  ///< per-batch medians, conv layers 1..3
  double pool_ms = 0.0, relu_ms = 0.0, dense_ms = 0.0;
  double forward_ms = 0.0;  ///< median session.forward() wall time
  double unattributed_share = 0.0;
  double products_per_img = 0.0, issued_share = 0.0, sat_per_kproduct = 0.0;
  double sc_cycles_per_img = 0.0, avg_k = 0.0, host_ns_per_sc_cycle = 0.0;
  double mac_rows_ns_per_issued_product = 0.0, mac_rows_share_of_conv = 0.0;
  double conv_speedup = 0.0;  ///< conv time at 1 thread / at hw_threads()
  std::uint64_t chain_mismatches = 0;    ///< layer chain != session.forward
  std::uint64_t mac_rows_mismatches = 0; ///< mac_rows != per-element mac()
};

/// Run the breakdown on `session` (engine set, calibrated) over `batch`,
/// spending about `budget_s` on the timed layer chain. The session's thread
/// count is restored afterwards and instrumentation is left off.
NnBreakdown probe_nn(nn::InferenceSession& session, const nn::Tensor& batch,
                     double budget_s, SpanLog& spans);

/// Put the breakdown into `r` under its per-layer metric names.
void report_nn(const NnBreakdown& b, double setup_engine_ms, double setup_calibrate_ms,
               Result& r);

}  // namespace scbench
