#include "nn_probe.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "common/fixed_point.hpp"
#include "nn/conv2d.hpp"

namespace scbench {

namespace {

/// Per-category wall time of one layer-by-layer pass.
struct ChainTimes {
  double conv[3] = {0.0, 0.0, 0.0};
  double conv_total = 0.0, pool = 0.0, relu = 0.0, dense = 0.0;
};

/// Forward `x` one public Layer::forward at a time, as Network::forward
/// does, timing each call. Returns the logits; `conv_inputs`, when given,
/// receives each conv layer's input.
nn::Tensor run_chain(nn::Network& net, const nn::Tensor& x, SpanLog& spans,
                     ChainTimes& times, std::vector<nn::Tensor>* conv_inputs) {
  const std::uint64_t fwd_id = spans.next_id();
  const auto f0 = Clock::now();
  nn::Tensor cur = x;
  int conv_index = 0;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    nn::Layer& layer = net.layer(i);
    const std::string name = layer.name();
    if (conv_inputs && name == "conv2d") conv_inputs->push_back(cur);
    const auto t0 = Clock::now();
    cur = layer.forward(cur);
    const auto t1 = Clock::now();
    const double ms = ms_between(t0, t1);
    if (name == "conv2d") {
      if (conv_index < 3) times.conv[conv_index] += ms;
      times.conv_total += ms;
      ++conv_index;
    } else if (name == "maxpool" || name == "avgpool") {
      times.pool += ms;
    } else if (name == "relu") {
      times.relu += ms;
    } else if (name == "dense") {
      times.dense += ms;
    }
    spans.record(spans.next_id(), "nn.layer." + name + "#" + std::to_string(i), t0, t1,
                 kRowCaller, fwd_id);
  }
  spans.record(fwd_id, "nn.forward", f0, Clock::now(), kRowCaller);
  return cur;
}

/// Median conv time of layer-chain passes at the session's current thread
/// count, over at least `min_reps` passes and about `budget_s`.
double chain_conv_ms(nn::InferenceSession& s, const nn::Tensor& x, SpanLog& spans,
                     int min_reps, double budget_s) {
  std::vector<double> conv;
  const auto start = Clock::now();
  while (static_cast<int>(conv.size()) < min_reps ||
         ms_between(start, Clock::now()) < budget_s * 1e3) {
    ChainTimes t;
    (void)run_chain(s.network(), x, spans, t, nullptr);
    conv.push_back(t.conv_total);
  }
  return median(conv);
}

struct Replay {
  double ms = 0.0;
  std::uint64_t issued = 0;
  std::uint64_t mismatches = 0;
};

/// Serial replay of the im2col conv's mac_rows calls for one conv layer on
/// its real input: quantize, gather each output row's patches, and drive
/// every filter row through MacEngine::mac_rows, timing only those calls.
/// The first output row of every sample is also checked element by element
/// against MacEngine::mac().
Replay replay_mac_rows(const nn::Conv2D& conv, const nn::Tensor& x) {
  Replay out;
  const nn::MacEngine* eng = conv.engine();
  if (!eng) return out;
  const int nbits = eng->bits();
  const std::vector<std::int32_t> wq = conv.quantized_weights(nbits);
  const nn::PackedRowCodes* packed =
      eng->zero_skip() ? &conv.packed_weight_codes(nbits) : nullptr;
  const float act = conv.activation_scale();
  std::vector<std::int32_t> xq(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) xq[i] = scnn::common::quantize(x[i] / act, nbits);

  const auto d = conv.dims_for(x);
  const int R = d.out_rows(), C = d.out_cols(), H = x.h(), W = x.w();
  const int K = conv.kernel(), S = conv.stride(), P = conv.pad(), Z = conv.in_channels();
  const std::size_t dd = static_cast<std::size_t>(Z) * K * K;
  const std::size_t plane = static_cast<std::size_t>(Z) * H * W;
  std::vector<std::int32_t> patches(static_cast<std::size_t>(C) * dd);
  std::vector<std::int64_t> accs(static_cast<std::size_t>(C));
  nn::MacStats stats;
  double ns = 0.0;
  for (int n = 0; n < x.n(); ++n) {
    for (int r = 0; r < R; ++r) {
      std::fill(patches.begin(), patches.end(), 0);
      for (int c = 0; c < C; ++c)
        for (int z = 0; z < Z; ++z)
          for (int i = 0; i < K; ++i)
            for (int j = 0; j < K; ++j) {
              const int yy = S * r + i - P, xx = S * c + j - P;
              if (yy < 0 || yy >= H || xx < 0 || xx >= W) continue;
              patches[static_cast<std::size_t>(c) * dd +
                      (static_cast<std::size_t>(z) * K + i) * K + j] =
                  xq[static_cast<std::size_t>(n) * plane +
                     (static_cast<std::size_t>(z) * H + yy) * W + xx];
            }
      for (int m = 0; m < conv.out_channels(); ++m) {
        const std::span<const std::int32_t> wrow =
            std::span<const std::int32_t>(wq).subspan(static_cast<std::size_t>(m) * dd, dd);
        const nn::WeightCodeView view = packed ? nn::WeightCodeView::packed_row(wrow, *packed, m)
                                               : nn::WeightCodeView(wrow);
        const auto t0 = Clock::now();
        eng->mac_rows(view, patches, accs, stats);
        ns += std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
        if (r == 0)
          for (int c = 0; c < C; ++c)
            if (accs[static_cast<std::size_t>(c)] !=
                eng->mac(wrow, std::span<const std::int32_t>(patches).subspan(
                                   static_cast<std::size_t>(c) * dd, dd)))
              ++out.mismatches;
      }
    }
  }
  out.ms = ns / 1e6;
  out.issued = stats.products - stats.skipped_products;
  return out;
}

}  // namespace

NnBreakdown probe_nn(nn::InferenceSession& session, const nn::Tensor& batch,
                     double budget_s, SpanLog& spans) {
  NnBreakdown b;
  const int threads = session.threads();
  nn::Network& net = session.network();
  (void)session.forward(batch);  // warm caches and lazy weight codes

  // Timed forwards interleaved with layer chains; every chain must equal
  // the forward it follows bit for bit.
  std::vector<double> fwd, conv[3], conv_total, pool, relu, dense, sum;
  const auto start = Clock::now();
  while (fwd.size() < 5 || ms_between(start, Clock::now()) < budget_s * 1e3) {
    const std::uint64_t id = spans.next_id();
    const auto t0 = Clock::now();
    const nn::Tensor logits = session.forward(batch);
    const auto t1 = Clock::now();
    spans.record(id, "nn.session.forward", t0, t1, kRowCaller);
    fwd.push_back(ms_between(t0, t1));
    ChainTimes t;
    if (!same_bits(run_chain(net, batch, spans, t, nullptr), logits)) ++b.chain_mismatches;
    for (int i = 0; i < 3; ++i) conv[i].push_back(t.conv[i]);
    conv_total.push_back(t.conv_total);
    pool.push_back(t.pool);
    relu.push_back(t.relu);
    dense.push_back(t.dense);
    sum.push_back(t.conv_total + t.pool + t.relu + t.dense);
  }
  for (int i = 0; i < 3; ++i) b.conv_ms[i] = median(conv[i]);
  b.pool_ms = median(pool);
  b.relu_ms = median(relu);
  b.dense_ms = median(dense);
  b.forward_ms = median(fwd);
  b.unattributed_share = 1.0 - median(sum) / b.forward_ms;
  const double conv_ms = median(conv_total);

  // Work counts of one forward at the workload's batch size.
  (void)session.forward(batch);
  const nn::MacStats st = session.last_forward_stats();
  const double imgs = batch.n();
  b.products_per_img = static_cast<double>(st.products) / imgs;
  if (st.products > 0) {
    b.issued_share = 1.0 - static_cast<double>(st.skipped_products) /
                               static_cast<double>(st.products);
    b.sat_per_kproduct =
        1e3 * static_cast<double>(st.saturations) / static_cast<double>(st.products);
  }

  // Modelled SC cycles: the k histogram of an instrumented pass at b = 1.
  session.set_instrumentation(true);
  (void)session.forward(nn::batch_slice(batch, 0, 1));
  const nn::MacStats one = session.last_forward_stats();
  session.set_instrumentation(false);
  const int bit_parallel = session.config() ? session.config()->bit_parallel : 1;
  b.sc_cycles_per_img =
      static_cast<double>(nn::estimated_sc_cycles(one.k_hist.sum, bit_parallel));
  b.avg_k = one.k_hist.mean();
  if (b.sc_cycles_per_img > 0)
    b.host_ns_per_sc_cycle = conv_ms * 1e6 / imgs / b.sc_cycles_per_img;

  // ThreadPool sharding: the same conv work at 1 thread and at every
  // hardware thread.
  session.set_threads(1);
  const double conv_1t = chain_conv_ms(session, batch, spans, 3, budget_s / 4);
  session.set_threads(hw_threads());
  const double conv_nt = chain_conv_ms(session, batch, spans, 3, budget_s / 4);
  session.set_threads(threads);
  b.conv_speedup = conv_nt > 0 ? conv_1t / conv_nt : 0.0;

  // mac_rows replay on each conv layer's real input.
  std::vector<nn::Tensor> conv_inputs;
  ChainTimes unused;
  (void)run_chain(net, batch, spans, unused, &conv_inputs);
  const std::vector<nn::Conv2D*> convs = net.conv_layers();
  std::vector<double> replay_ms;
  std::uint64_t issued = 0;
  for (int rep = 0; rep < 3; ++rep) {
    double ms = 0.0;
    issued = 0;
    for (std::size_t i = 0; i < convs.size(); ++i) {
      const Replay r = replay_mac_rows(*convs[i], conv_inputs[i]);
      ms += r.ms;
      issued += r.issued;
      if (rep == 0) b.mac_rows_mismatches += r.mismatches;
    }
    replay_ms.push_back(ms);
  }
  const double replay = median(replay_ms);
  if (issued > 0) b.mac_rows_ns_per_issued_product = replay * 1e6 / static_cast<double>(issued);
  if (conv_1t > 0) b.mac_rows_share_of_conv = replay / conv_1t;
  return b;
}

void report_nn(const NnBreakdown& b, double setup_engine_ms, double setup_calibrate_ms,
               Result& r) {
  for (int i = 0; i < 3; ++i)
    r.set("nn.conv" + std::to_string(i + 1) + ".ms", b.conv_ms[i], "ms");
  r.set("nn.pool.ms", b.pool_ms, "ms");
  r.set("nn.relu.ms", b.relu_ms, "ms");
  r.set("nn.dense.ms", b.dense_ms, "ms");
  r.set("nn.unattributed_share", b.unattributed_share, "share");
  r.set("nn.conv.products_per_img", b.products_per_img, "count");
  r.set("nn.conv.issued_share", b.issued_share, "share");
  r.set("nn.conv.sat_per_kproduct", b.sat_per_kproduct, "count");
  r.set("nn.conv.sc_cycles_per_img", b.sc_cycles_per_img, "count");
  r.set("nn.conv.avg_k", b.avg_k, "count");
  r.set("nn.conv.host_ns_per_sc_cycle", b.host_ns_per_sc_cycle, "ns");
  r.set("nn.setup.engine_ms", setup_engine_ms, "ms");
  r.set("nn.setup.calibrate_ms", setup_calibrate_ms, "ms");
  r.set("nn.mac_rows.ns_per_issued_product", b.mac_rows_ns_per_issued_product, "ns");
  r.set("nn.mac_rows.share_of_conv", b.mac_rows_share_of_conv, "share");
  r.set("common.pool.conv_speedup", b.conv_speedup, "x");
  if (b.chain_mismatches) r.fail("nn.chain_mismatch", b.chain_mismatches);
  if (b.mac_rows_mismatches) r.fail("nn.mac_rows_mismatch", b.mac_rows_mismatches);
}

}  // namespace scbench
