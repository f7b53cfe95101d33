#include "nn/network.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <string>

#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "nn/pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace scnn::nn {

Tensor Network::forward(const Tensor& input) {
  if (instrumented()) return forward_instrumented_(input);
  Tensor cur = input;
  for (auto& l : layers_) cur = l->forward(cur);
  return cur;
}

void Network::set_instrumentation(obs::Tracer* tracer, obs::Registry* metrics) {
  tracer_ = tracer;
  metrics_ = metrics;
}

Tensor Network::forward_instrumented_(const Tensor& input) {
  // A serving worker activates a TraceContext before calling forward; layer
  // spans then land on the worker's timeline row carrying the batch id, so
  // one chrome://tracing load correlates serving spans with layer spans.
  const obs::TraceContext& ctx = obs::trace_context();
  const int tid = ctx.active ? ctx.tid : 0;
  const auto pass_t0 = obs::Clock::now();
  Tensor cur = input;
  std::uint64_t pass_products = 0;
  MacStats pass_stats;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    Layer& l = *layers_[i];
    const auto t0 = obs::Clock::now();
    cur = l.forward(cur);
    const auto t1 = obs::Clock::now();

    const std::string label = l.name() + "#" + std::to_string(i);
    const std::uint64_t products = l.last_forward_products();
    pass_products += products;
    std::vector<obs::TraceArg> args;
    if (ctx.active) args.push_back({"batch_id", static_cast<double>(ctx.batch_id)});
    args.push_back({"products", static_cast<double>(products)});
    if (const auto* conv = dynamic_cast<const Conv2D*>(&l)) {
      const MacStats& s = conv->last_forward_stats();
      pass_stats += s;
      args.push_back({"macs", static_cast<double>(s.macs)});
      args.push_back({"saturations", static_cast<double>(s.saturations)});
      args.push_back({"skipped_products", static_cast<double>(s.skipped_products)});
      args.push_back({"uncertified", static_cast<double>(s.uncertified)});
      if (s.detail) {
        args.push_back({"sc_cycles", static_cast<double>(s.k_hist.sum)});
        args.push_back({"max_k", static_cast<double>(s.k_hist.max)});
        // Bucket 0 of the k histogram is exactly k == 0: products that issue
        // no SC enable cycles but still occupy a dense schedule slot — the
        // population zero-skip removes.
        args.push_back({"zero_products", static_cast<double>(s.k_hist.buckets[0])});
      }
    }
    if (tracer_) tracer_->record(label, t0, t1, std::move(args), tid);
    if (metrics_) {
      const auto ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
      metrics_->counter("time." + label + ".ns").add(ns, metrics_->this_shard());
    }
  }
  const auto pass_t1 = obs::Clock::now();
  if (tracer_) {
    std::vector<obs::TraceArg> pass_args;
    if (ctx.active)
      pass_args.push_back({"batch_id", static_cast<double>(ctx.batch_id)});
    pass_args.push_back({"images", static_cast<double>(input.n())});
    pass_args.push_back({"products", static_cast<double>(pass_products)});
    tracer_->record("forward", pass_t0, pass_t1, std::move(pass_args), tid);
  }
  if (metrics_) {
    const int shard = metrics_->this_shard();
    metrics_->counter("forward.passes").inc(shard);
    metrics_->counter("forward.images").add(static_cast<std::uint64_t>(input.n()), shard);
    metrics_->counter("mac.products").add(pass_products, shard);
    metrics_->counter("mac.macs").add(pass_stats.macs, shard);
    metrics_->counter("mac.saturations").add(pass_stats.saturations, shard);
    metrics_->counter("sc.skipped_products").add(pass_stats.skipped_products, shard);
    metrics_->counter("sc.uncertified_macs").add(pass_stats.uncertified, shard);
    if (pass_stats.detail) {
      metrics_->counter("sc.cycles").add(pass_stats.k_hist.sum, shard);
      metrics_->histogram("sc.k").record_hist(pass_stats.k_hist, shard);
    }
    metrics_->gauge("forward.last_ms")
        .set(std::chrono::duration<double, std::milli>(pass_t1 - pass_t0).count());
    metrics_->latency_histogram("forward.pass_us")
        .record(static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::microseconds>(pass_t1 -
                                                                          pass_t0)
                        .count()),
                shard);
  }
  return cur;
}

void Network::backward(const Tensor& grad_logits) {
  Tensor g = grad_logits;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) g = (*it)->backward(g);
}

void Network::zero_grad() {
  for (Parameter* p : parameters()) p->grad.zero();
}

std::vector<Parameter*> Network::parameters() {
  std::vector<Parameter*> out;
  for (auto& l : layers_)
    for (Parameter* p : l->parameters()) out.push_back(p);
  return out;
}

std::vector<Conv2D*> Network::conv_layers() {
  std::vector<Conv2D*> out;
  for (auto& l : layers_)
    if (auto* c = dynamic_cast<Conv2D*>(l.get())) out.push_back(c);
  return out;
}

void Network::set_thread_pool(common::ThreadPool* pool) {
  for (auto& l : layers_) l->set_thread_pool(pool);
}

std::vector<int> Network::predict(const Tensor& input) {
  const Tensor logits = forward(input);
  std::vector<int> out(static_cast<std::size_t>(logits.n()));
  for (int n = 0; n < logits.n(); ++n) {
    const auto row = logits.sample(n);
    out[static_cast<std::size_t>(n)] = static_cast<int>(
        std::max_element(row.begin(), row.end()) - row.begin());
  }
  return out;
}

double Network::accuracy(const Tensor& images, std::span<const int> labels, int batch_size) {
  assert(static_cast<std::size_t>(images.n()) == labels.size());
  int correct = 0;
  for (int first = 0; first < images.n(); first += batch_size) {
    const int count = std::min(batch_size, images.n() - first);
    const auto preds = predict(batch_slice(images, first, count));
    for (int i = 0; i < count; ++i)
      if (preds[static_cast<std::size_t>(i)] == labels[static_cast<std::size_t>(first + i)])
        ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(images.n());
}

Network make_deep_net(int input_hw, int channels, int width, std::uint64_t seed) {
  Network net;
  std::vector<Conv2D*> convs;
  int ch_in = channels;
  int hw = input_hw;
  int ch_out = 8 * width;
  for (int block = 0; block < 3; ++block) {
    convs.push_back(&net.add<Conv2D>(ch_in, ch_out, 3, 1, 1));
    net.add<ReLU>();
    convs.push_back(&net.add<Conv2D>(ch_out, ch_out, 3, 1, 1));
    net.add<ReLU>();
    net.add<MaxPool2D>(2);
    hw /= 2;
    ch_in = ch_out;
    ch_out *= 2;
  }
  auto& d1 = net.add<Dense>(ch_in * hw * hw, 64 * width);
  net.add<ReLU>();
  auto& d2 = net.add<Dense>(64 * width, 10);
  std::uint64_t s = seed;
  for (Conv2D* conv : convs) conv->init_weights(++s);
  d1.init_weights(++s);
  d2.init_weights(++s);
  return net;
}

std::vector<float> Network::save_parameters() {
  std::vector<float> out;
  for (Parameter* p : parameters())
    out.insert(out.end(), p->value.data().begin(), p->value.data().end());
  return out;
}

void Network::load_parameters(std::span<const float> packed) {
  std::size_t expected = 0;
  for (Parameter* p : parameters()) expected += p->value.size();
  if (packed.size() != expected)
    throw std::invalid_argument(
        "load_parameters: got " + std::to_string(packed.size()) +
        " floats, network has " + std::to_string(expected));
  std::size_t off = 0;
  for (Parameter* p : parameters()) {
    std::copy_n(packed.begin() + static_cast<std::ptrdiff_t>(off), p->value.size(),
                p->value.data().begin());
    p->mark_updated();
    off += p->value.size();
  }
}

Tensor batch_slice(const Tensor& images, int first, int count) {
  if (first < 0 || count <= 0 || first + count > images.n())
    throw std::invalid_argument("batch_slice: range out of bounds");
  Tensor out(count, images.c(), images.h(), images.w());
  const std::size_t f = images.features();
  std::copy_n(images.data().begin() + static_cast<std::ptrdiff_t>(first * f),
              static_cast<std::size_t>(count) * f, out.data().begin());
  return out;
}

Network make_mnist_net(int input_hw, int width, std::uint64_t seed) {
  // LeNet shape from Caffe's examples/mnist, channel counts scaled by
  // `width` to keep the single-core experiments tractable.
  Network net;
  auto& c1 = net.add<Conv2D>(1, 8 * width, 5);   // 28 -> 24
  net.add<MaxPool2D>(2);                          // 24 -> 12
  auto& c2 = net.add<Conv2D>(8 * width, 16 * width, 5);  // 12 -> 8
  net.add<MaxPool2D>(2);                          // 8 -> 4
  const int spatial = ((input_hw - 4) / 2 - 4) / 2;
  auto& d1 = net.add<Dense>(16 * width * spatial * spatial, 64 * width);
  net.add<ReLU>();
  auto& d2 = net.add<Dense>(64 * width, 10);
  c1.init_weights(seed + 1);
  c2.init_weights(seed + 2);
  d1.init_weights(seed + 3);
  d2.init_weights(seed + 4);
  return net;
}

Network make_cifar_net(int input_hw, int width, std::uint64_t seed) {
  // Caffe examples/cifar10 "quick" shape (conv-pool-relu, conv-relu-pool,
  // conv-relu-pool, dense, dense), channels scaled by `width`.
  Network net;
  auto& c1 = net.add<Conv2D>(3, 8 * width, 5, 1, 2);   // 32 -> 32
  net.add<MaxPool2D>(2);                                // 32 -> 16
  net.add<ReLU>();
  auto& c2 = net.add<Conv2D>(8 * width, 12 * width, 5, 1, 2);  // 16 -> 16
  net.add<ReLU>();
  net.add<AvgPool2D>(2);                                // 16 -> 8
  auto& c3 = net.add<Conv2D>(12 * width, 16 * width, 5, 1, 2);  // 8 -> 8
  net.add<ReLU>();
  net.add<AvgPool2D>(2);                                // 8 -> 4
  const int spatial = input_hw / 8;
  auto& d1 = net.add<Dense>(16 * width * spatial * spatial, 32 * width);
  net.add<ReLU>();
  auto& d2 = net.add<Dense>(32 * width, 10);
  c1.init_weights(seed + 1);
  c2.init_weights(seed + 2);
  c3.init_weights(seed + 3);
  d1.init_weights(seed + 4);
  d2.init_weights(seed + 5);
  return net;
}

}  // namespace scnn::nn
