#include "nn/inference_session.hpp"

#include <utility>

namespace scnn::nn {

InferenceSession::InferenceSession(Network net, int threads) : net_(std::move(net)) {
  set_threads(threads);
}

InferenceSession::InferenceSession(Network net, const EngineConfig& cfg)
    : net_(std::move(net)) {
  set_engine(cfg);
}

void InferenceSession::set_engine(const EngineConfig& cfg) {
  cfg.validate();
  engine_ = engines_.get(cfg);
  cfg_ = cfg;
  set_conv_engine(net_, engine_);
  set_threads(cfg.threads);
  set_instrumentation(cfg.instrument);
}

void InferenceSession::clear_engine() {
  engine_ = nullptr;
  cfg_.reset();
  set_conv_engine(net_, nullptr);
}

void InferenceSession::set_threads(int threads) {
  if (threads == 0) threads = EngineConfig{.threads = 0}.resolved_threads();
  if (threads < 1) threads = 1;
  if (threads == this->threads()) return;  // layers already wired (or serial)
  pool_ = threads == 1 ? nullptr : std::make_unique<common::ThreadPool>(threads);
  net_.set_thread_pool(pool_.get());
}

void InferenceSession::set_im2col(bool on) {
  im2col_ = on;
  set_conv_im2col(net_, on);
}

void InferenceSession::calibrate(const Tensor& calibration_batch) {
  calibrate_network(net_, calibration_batch);
}

void InferenceSession::set_instrumentation(bool on) {
  instrumented_ = on;
  if (on) {
    net_.set_instrumentation(&tracer(), &metrics());
    set_conv_cycle_accounting(net_, true);
  } else {
    net_.set_instrumentation(nullptr, nullptr);
    set_conv_cycle_accounting(net_, false);
  }
}

obs::Registry& InferenceSession::metrics() {
  if (!metrics_) metrics_ = std::make_unique<obs::Registry>();
  return *metrics_;
}

obs::Tracer& InferenceSession::tracer() {
  if (!tracer_) tracer_ = std::make_unique<obs::Tracer>();
  return *tracer_;
}

MacStats InferenceSession::last_forward_stats() const {
  MacStats total;
  // conv_layers() is non-const only because it hands out mutable pointers;
  // the walk itself does not modify the network.
  for (Conv2D* c : const_cast<Network&>(net_).conv_layers())
    total += c->last_forward_stats();
  return total;
}

}  // namespace scnn::nn
