// Deterministic input generation. Every input of a run — images, checkpoint
// weights, sparse masks, arrival schedules, the priority and tenant mix, the
// swap cadence — is a pure function of --seed, drawn from an independent
// SplitMix64 stream per purpose so adding one stream never shifts another.
// The program under test only ever sees the generated tensors.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "nn/network.hpp"

namespace scbench {

/// `count` synthetic-object (CIFAR-class, 3x32x32) / synthetic-digit
/// (MNIST-class, 1x28x28) images from the run seed.
nn::Tensor object_images(std::uint64_t seed, std::string_view stream, int count);
nn::Tensor digit_images(std::uint64_t seed, std::string_view stream, int count);

/// He-initialized parameters of a CIFAR-quick / MNIST network whose init
/// seed comes from the named stream.
std::vector<float> cifar_checkpoint(std::uint64_t seed, std::string_view stream);
std::vector<float> mnist_checkpoint(std::uint64_t seed, std::string_view stream);

/// Zero each conv weight of `params` (laid out for `net`) independently
/// with probability `share`, from the named stream. Biases and dense layers
/// are left alone: conv weights are what the zero-skip kernels skip.
std::vector<float> sparsify_conv_weights(nn::Network net, std::vector<float> params,
                                         double share, std::uint64_t seed,
                                         std::string_view stream);

/// One scheduled request of an open-loop run.
struct Arrival {
  double t_s = 0.0;  ///< due time, seconds after the phase starts
  int tenant = 0;
  int priority = 1;  ///< serve::Priority value (0 high, 1 normal, 2 batch)
  int image = 0;     ///< index into the tenant's image pool
};

/// Poisson arrivals at `rate_rps` over [0, duration_s): one tenant, normal
/// priority, images drawn uniformly from a pool of `images`.
std::vector<Arrival> poisson_schedule(double rate_rps, double duration_s, int images,
                                      std::uint64_t seed, std::string_view stream);

/// On/off bursts: evenly spaced arrivals at `on_rps` for the first `on_s` of
/// every `period_s`, at `off_rps` for the rest. Each request draws its tenant
/// from `tenant_share` (weights) and its class from `class_share`
/// (weights for high, normal, batch).
struct BurstShape {
  double period_s = 0.25;
  double on_s = 0.1;
  double on_rps = 1000.0;
  double off_rps = 250.0;
  std::vector<double> tenant_share{0.5, 0.5};
  std::vector<double> class_share{0.2, 0.5, 0.3};
};
std::vector<Arrival> burst_schedule(const BurstShape& shape, double duration_s,
                                    int images, std::uint64_t seed,
                                    std::string_view stream);

/// FNV-1a over raw bytes, chained through `h` — the input digest two runs
/// compare to prove they saw byte-identical inputs.
std::uint64_t digest(std::span<const std::byte> bytes,
                     std::uint64_t h = 0xcbf29ce484222325ull);
std::uint64_t digest(const nn::Tensor& t, std::uint64_t h);
std::uint64_t digest(std::span<const float> v, std::uint64_t h);
std::uint64_t digest(std::span<const Arrival> s, std::uint64_t h);

}  // namespace scbench
