#include "gen.hpp"

#include <cmath>
#include <cstring>
#include <string>

#include "common/rng.hpp"
#include "data/synthetic_digits.hpp"
#include "data/synthetic_objects.hpp"

namespace scbench {

namespace {

/// Seed of the named stream for a run seed.
std::uint64_t stream_seed(std::uint64_t seed, std::string_view stream) {
  const std::uint64_t h = digest(std::as_bytes(std::span(stream.data(), stream.size())));
  scnn::common::SplitMix64 rng(seed ^ h);
  return rng.next();
}

}  // namespace

nn::Tensor object_images(std::uint64_t seed, std::string_view stream, int count) {
  return scnn::data::make_synthetic_objects(
             {.count = count, .seed = stream_seed(seed, stream)})
      .images;
}

nn::Tensor digit_images(std::uint64_t seed, std::string_view stream, int count) {
  return scnn::data::make_synthetic_digits(
             {.count = count, .seed = stream_seed(seed, stream)})
      .images;
}

std::vector<float> cifar_checkpoint(std::uint64_t seed, std::string_view stream) {
  return nn::make_cifar_net(32, 1, stream_seed(seed, stream)).save_parameters();
}

std::vector<float> mnist_checkpoint(std::uint64_t seed, std::string_view stream) {
  return nn::make_mnist_net(28, 1, stream_seed(seed, stream)).save_parameters();
}

std::vector<float> sparsify_conv_weights(nn::Network net, std::vector<float> params,
                                         double share, std::uint64_t seed,
                                         std::string_view stream) {
  net.load_parameters(params);
  scnn::common::SplitMix64 rng(stream_seed(seed, stream));
  for (nn::Conv2D* conv : net.conv_layers())
    for (float& w : conv->mutable_weight().data())
      if (rng.next_double() < share) w = 0.0f;
  return net.save_parameters();
}

namespace {

double exp_gap(scnn::common::SplitMix64& rng, double rate) {
  return -std::log(1.0 - rng.next_double()) / rate;
}

int pick(scnn::common::SplitMix64& rng, const std::vector<double>& weights) {
  double total = 0.0;
  for (const double w : weights) total += w;
  double u = rng.next_double() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (u < weights[i]) return static_cast<int>(i);
    u -= weights[i];
  }
  return static_cast<int>(weights.size()) - 1;
}

}  // namespace

std::vector<Arrival> poisson_schedule(double rate_rps, double duration_s, int images,
                                      std::uint64_t seed, std::string_view stream) {
  scnn::common::SplitMix64 rng(stream_seed(seed, stream));
  std::vector<Arrival> out;
  for (double t = exp_gap(rng, rate_rps); t < duration_s; t += exp_gap(rng, rate_rps))
    out.push_back({.t_s = t,
                   .tenant = 0,
                   .priority = 1,
                   .image = static_cast<int>(rng.next() % static_cast<std::uint64_t>(images))});
  return out;
}

std::vector<Arrival> burst_schedule(const BurstShape& shape, double duration_s,
                                    int images, std::uint64_t seed,
                                    std::string_view stream) {
  scnn::common::SplitMix64 rng(stream_seed(seed, stream));
  std::vector<Arrival> out;
  // Evenly paced inside each stretch: the rate steps are the only burstiness,
  // so a run's tail reflects the server, not how Poisson happened to cluster.
  for (double phase0 = 0.0; phase0 < duration_s; phase0 += shape.period_s) {
    const double bounds[3] = {phase0, phase0 + shape.on_s, phase0 + shape.period_s};
    for (int p = 0; p < 2; ++p) {
      const double gap = 1.0 / (p == 0 ? shape.on_rps : shape.off_rps);
      const double end = std::min(bounds[p + 1], duration_s);
      for (double t = bounds[p]; t < end; t += gap) {
        Arrival a;
        a.t_s = t;
        a.tenant = pick(rng, shape.tenant_share);
        a.priority = pick(rng, shape.class_share);
        a.image = static_cast<int>(rng.next() % static_cast<std::uint64_t>(images));
        out.push_back(a);
      }
    }
  }
  return out;
}

std::uint64_t digest(std::span<const std::byte> bytes, std::uint64_t h) {
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t digest(const nn::Tensor& t, std::uint64_t h) {
  return digest(t.data(), h);
}

std::uint64_t digest(std::span<const float> v, std::uint64_t h) {
  return digest(std::as_bytes(v), h);
}

std::uint64_t digest(std::span<const Arrival> s, std::uint64_t h) {
  for (const Arrival& a : s) {
    // Field by field: the struct has padding, whose bytes are unspecified.
    unsigned char buf[sizeof(double) + 3 * sizeof(int)];
    std::memcpy(buf, &a.t_s, sizeof(double));
    std::memcpy(buf + sizeof(double), &a.tenant, sizeof(int));
    std::memcpy(buf + sizeof(double) + sizeof(int), &a.priority, sizeof(int));
    std::memcpy(buf + sizeof(double) + 2 * sizeof(int), &a.image, sizeof(int));
    h = digest(std::as_bytes(std::span(buf)), h);
  }
  return h;
}

}  // namespace scbench
