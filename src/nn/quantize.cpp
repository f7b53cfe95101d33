#include "nn/quantize.hpp"

#include "nn/dense.hpp"

namespace scnn::nn {

void calibrate_network(Network& net, const Tensor& calibration_batch) {
  // Walk layers manually so each layer sees its own (float) input.
  Tensor cur = calibration_batch;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    Layer& l = net.layer(i);
    if (auto* conv = dynamic_cast<Conv2D*>(&l)) {
      const MacEngine* saved = conv->engine();
      conv->set_engine(nullptr);  // calibration happens in float
      conv->calibrate_scales(cur);
      cur = conv->forward(cur);
      conv->set_engine(saved);
    } else {
      if (auto* dense = dynamic_cast<Dense*>(&l)) dense->calibrate_scales(cur);
      cur = l.forward(cur);
    }
  }
}

void set_conv_engine(Network& net, const MacEngine* engine) {
  for (Conv2D* c : net.conv_layers()) c->set_engine(engine);
}

void set_conv_im2col(Network& net, bool on) {
  for (Conv2D* c : net.conv_layers()) c->set_im2col(on);
}

void set_conv_cycle_accounting(Network& net, bool on) {
  for (Conv2D* c : net.conv_layers()) c->set_cycle_accounting(on);
}

const MacEngine* EnginePool::get(const EngineConfig& cfg) {
  cfg.validate();
  // Everything that changes engine identity: kind + N (label), accumulator
  // width, the requested backend, and the requested sparsity mode (label
  // only carries non-default values, so spell both out — kAuto must not
  // alias kScalar/kDense). The backend request alone is not enough: kAuto
  // resolution reads the SCNN_BACKEND env — fold the *resolved* backend name
  // in so a pooled engine never survives a change of it.
  std::string resolved;
  try {
    resolved = resolved_backend(cfg).backend;
  } catch (const std::exception&) {
    resolved = "unresolved";  // make_engine below surfaces the real error
  }
  const std::string key = cfg.label() + "/A=" + std::to_string(cfg.accum_bits) +
                          "/B=" + to_string(cfg.backend) +
                          "/R=" + resolved +
                          "/S=" + to_string(cfg.sparsity);
  for (std::size_t i = 0; i < keys_.size(); ++i)
    if (keys_[i] == key) return engines_[i].get();
  engines_.push_back(make_engine(cfg));
  keys_.push_back(key);
  return engines_.back().get();
}

}  // namespace scnn::nn
