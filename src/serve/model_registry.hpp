// Multi-tenant model registry: the table of named (checkpoint × EngineConfig
// × shard count) entries one serve::Server multiplexes over its shared
// worker pool and admission rings.
//
// The paper's economic argument — one cheap SC-MAC substrate amortized over
// many CNN workloads — only pays off at serving scale if several models
// share one process. The registry is that sharing point:
//
//  - Each tenant owns a pool of bit-interchangeable nn::InferenceSession
//    shards built from one NetworkFactory + one parameter blob + one
//    calibration batch (same recipe the single-model server used, so a
//    served response stays bit-identical to a direct single-session
//    forward on the same checkpoint).
//  - Parameters are versioned: every tenant holds an append-only list of
//    checkpoint generations, and an atomic `epoch` index naming the
//    current one. swap() appends a generation and publishes the new epoch
//    in one release store — the epoch barrier the server's hot-swap
//    semantics are built on (submit() stamps each request with the epoch
//    it was admitted under; a batch runs on exactly that generation).
//  - Shards reload lazily: acquire(tenant, epoch) hands out a free shard,
//    reloading its parameters (and recalibrating — calibration itself
//    always runs in float mode, so the order relative to set_engine does
//    not matter) only when the shard's loaded generation differs from the
//    requested one. Old and new generations can therefore coexist across
//    shards mid-swap, which is exactly what "in-flight batches finish on
//    the old model" requires.
//
// The registry is deliberately server-agnostic: it owns models and shard
// leases, never queues or priorities, mirroring the runner/loader split of
// the NN-CLI reference layout.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "nn/inference_session.hpp"
#include "nn/tensor.hpp"
#include "obs/trace.hpp"

namespace scnn::serve {

/// Declarative per-tenant deployment knobs — the JSON-visible half of a
/// tenant (the runtime half, factory + parameters, lives in TenantInit).
/// validate() throws std::invalid_argument naming the offending field,
/// mirroring nn::EngineConfig and ServerOptions.
struct TenantOptions {
  std::string name = "default";  ///< route key; [A-Za-z0-9_-], <= 32 chars
  std::string checkpoint;   ///< parameter file path for config-file loading
                            ///< (scnn_cli serve --tenants); the registry
                            ///< itself consumes TenantInit::params
  int shards = 0;           ///< session shards; 0 = one per server worker
  /// Engine for this tenant's shards (nullopt = float mode). `threads` and
  /// `instrument` inside it are overridden by the server, like
  /// ServerOptions::engine.
  std::optional<nn::EngineConfig> engine;

  static constexpr int kMaxShards = 256;
  static constexpr std::size_t kMaxNameLength = 32;

  void validate() const;
  [[nodiscard]] std::string to_json() const;
  /// Parses the flat object to_json() emits (engine delegated to
  /// nn::EngineConfig::from_json). Errors name the offending token.
  static TenantOptions from_json(std::string_view json);
};

/// Everything needed to stand up one tenant's shard pool.
struct TenantInit {
  TenantOptions options;
  std::function<nn::Network()> factory;  ///< deterministic topology builder
  std::vector<float> params;  ///< checkpoint blob; empty = the factory's
                              ///< own initial parameters
  std::optional<nn::Tensor> calibration;  ///< per-shard calibration batch
};

class ModelRegistry {
 public:
  /// Builds every tenant's shard pool eagerly (generation 0). `default_shards`
  /// resolves TenantOptions::shards == 0; `session_threads` sizes each
  /// shard's internal pool; a non-null `tracer` is attached to every shard's
  /// network (per-layer spans). Throws std::invalid_argument on invalid
  /// options, a duplicate/empty tenant name, or an empty tenant list.
  ModelRegistry(std::vector<TenantInit> tenants, int default_shards,
                int session_threads, obs::Tracer* tracer = nullptr);

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  [[nodiscard]] int count() const { return static_cast<int>(tenants_.size()); }
  /// Tenant index for `name`, or -1 when unknown. "" names tenant 0 (the
  /// single-model convenience default).
  [[nodiscard]] int index_of(std::string_view name) const;
  [[nodiscard]] const TenantOptions& options(int tenant) const;
  [[nodiscard]] int shard_count(int tenant) const;
  /// "a, b, c" — for error messages naming the known tenants.
  [[nodiscard]] std::string known_names() const;

  /// Current checkpoint generation (acquire; pairs with swap()'s release).
  [[nodiscard]] std::uint64_t epoch(int tenant) const;
  [[nodiscard]] std::uint64_t generation_count(int tenant) const;
  [[nodiscard]] std::size_t parameter_count(int tenant) const;
  /// Shard 0's engine description (startup/config reporting).
  [[nodiscard]] nn::MacEngine::Description backend(int tenant) const;

  /// Publish `params` as the tenant's next checkpoint generation and return
  /// the new epoch. Validates the parameter count against generation 0
  /// (same topology) eagerly, naming got/expected on a mismatch, and rejects
  /// a non-finite parameter naming its element index; either way the epoch
  /// does not move. Requests
  /// admitted after the returned epoch is published run on the new
  /// parameters; shards reload lazily on their next acquire.
  std::uint64_t swap(int tenant, std::vector<float> params);

  /// RAII shard lease. Move-only; releasing returns the shard to the
  /// tenant's free list and wakes one blocked acquire().
  class Lease {
   public:
    Lease(Lease&& other) noexcept
        : reg_(other.reg_), tenant_(other.tenant_), slot_(other.slot_),
          session_(other.session_) {
      other.reg_ = nullptr;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;
    ~Lease();
    [[nodiscard]] nn::InferenceSession& session() { return *session_; }

   private:
    friend class ModelRegistry;
    Lease(ModelRegistry* reg, int tenant, int slot, nn::InferenceSession* s)
        : reg_(reg), tenant_(tenant), slot_(slot), session_(s) {}
    ModelRegistry* reg_;
    int tenant_;
    int slot_;
    nn::InferenceSession* session_;
  };

  /// Lease one of the tenant's shards loaded with generation `epoch`'s
  /// parameters, blocking while every shard is leased out (never the case
  /// when shards >= server workers: at most one lease per worker exists).
  /// A stale shard reloads + recalibrates outside the tenant lock.
  [[nodiscard]] Lease acquire(int tenant, std::uint64_t epoch);

 private:
  struct Shard {
    std::unique_ptr<nn::InferenceSession> session;
    std::uint64_t loaded_epoch = 0;
  };
  // Atomics/mutexes make Tenant immovable; the registry vector holds
  // pointers so tenants_ itself stays assembleable.
  struct Tenant {
    TenantOptions options;
    std::optional<nn::Tensor> calibration;
    std::atomic<std::uint64_t> epoch{0};
    mutable std::mutex mu;  ///< guards generations, free_slots
    std::condition_variable free_cv;
    std::vector<std::shared_ptr<const std::vector<float>>> generations;
    std::vector<Shard> shards;
    std::vector<int> free_slots;
  };

  void release_(int tenant, int slot);

  std::vector<std::unique_ptr<Tenant>> tenants_;
};

}  // namespace scnn::serve
