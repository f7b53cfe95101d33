#include "serve/model_registry.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "serve/json_scan.hpp"

namespace scnn::serve {

namespace {

bool valid_name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '-';
}

// A tenant's metrics live under serve.<name>.*; these leaves already mean
// something there (priority classes and the server-wide counters), so a
// tenant may not claim them.
bool reserved_name(const std::string& name) {
  static constexpr const char* kReserved[] = {
      "high",      "normal",    "batch",           "submitted",
      "completed", "rejected",  "timed_out",       "shed",
      "batches",   "queue_depth", "queue_depth_peak", "batch_size",
      "latency_us", "queue_us"};
  for (const char* r : kReserved)
    if (name == r) return true;
  return false;
}

}  // namespace

void TenantOptions::validate() const {
  auto fail = [](const std::string& msg) {
    throw std::invalid_argument("TenantOptions: " + msg);
  };
  if (name.empty()) fail("name must not be empty");
  if (name.size() > kMaxNameLength)
    fail("name = \"" + name + "\" longer than " +
         std::to_string(kMaxNameLength) + " chars");
  for (const char c : name)
    if (!valid_name_char(c))
      fail("name = \"" + name + "\" contains '" + std::string(1, c) +
           "' (allowed: [A-Za-z0-9_-])");
  if (reserved_name(name))
    fail("name = \"" + name +
         "\" is reserved (collides with a serve.* metric or priority class)");
  if (shards < 0 || shards > kMaxShards)
    fail("shards = " + std::to_string(shards) + " out of range [0, " +
         std::to_string(kMaxShards) + "] (0 = one per server worker)");
  if (engine) engine->validate();
}

std::string TenantOptions::to_json() const {
  std::string out = "{\"name\":\"" + name + "\",\"checkpoint\":\"" +
                    checkpoint + "\",\"shards\":" + std::to_string(shards);
  if (engine) out += ",\"engine\":" + engine->to_json();
  return out + "}";
}

TenantOptions TenantOptions::from_json(std::string_view json) {
  TenantOptions opts;
  detail::JsonScanner in{json, 0, "TenantOptions"};
  in.expect('{');
  if (in.peek() != '}') {
    while (true) {
      const std::string key = in.parse_string();
      in.expect(':');
      if (key == "name") {
        opts.name = in.parse_string();
      } else if (key == "checkpoint") {
        opts.checkpoint = in.parse_string();
      } else if (key == "shards") {
        opts.shards = static_cast<int>(in.parse_int());
      } else if (key == "engine") {
        opts.engine = nn::EngineConfig::from_json(in.capture_object());
      } else {
        in.fail("unknown key \"" + key + "\"");
      }
      const char c = in.peek();
      if (c == ',') {
        ++in.i;
        continue;
      }
      if (c == '}') break;
      in.fail(std::string("expected ',' or '}', got '") + c + "' at offset " +
              std::to_string(in.i));
    }
  }
  in.expect('}');
  if (!in.at_end())
    in.fail("trailing characters after object: '" +
            std::string(json.substr(in.i)) + "'");
  return opts;
}

// ---------------------------------------------------------------------------

ModelRegistry::ModelRegistry(std::vector<TenantInit> tenants,
                             int default_shards, int session_threads,
                             obs::Tracer* tracer) {
  if (tenants.empty())
    throw std::invalid_argument("ModelRegistry: tenant list must not be empty");
  tenants_.reserve(tenants.size());
  for (TenantInit& init : tenants) {
    init.options.validate();
    for (const auto& existing : tenants_)
      if (existing->options.name == init.options.name)
        throw std::invalid_argument("ModelRegistry: duplicate tenant name \"" +
                                    init.options.name + "\"");
    if (!init.factory)
      throw std::invalid_argument("ModelRegistry: tenant \"" +
                                  init.options.name + "\" has no factory");

    auto tenant = std::make_unique<Tenant>();
    tenant->options = init.options;
    tenant->calibration = std::move(init.calibration);
    const int shards =
        init.options.shards > 0 ? init.options.shards : default_shards;
    tenant->shards.reserve(static_cast<std::size_t>(shards));
    for (int i = 0; i < shards; ++i) {
      // Same recipe as a direct single-model session, so a served response
      // stays bit-identical to InferenceSession::forward on this checkpoint:
      // load -> construct -> calibrate -> set_engine.
      nn::Network net = init.factory();
      if (!init.params.empty()) net.load_parameters(init.params);
      auto session =
          std::make_unique<nn::InferenceSession>(std::move(net), session_threads);
      if (tenant->calibration) session->calibrate(*tenant->calibration);
      if (init.options.engine) {
        nn::EngineConfig cfg = *init.options.engine;
        cfg.threads = session_threads;
        cfg.instrument = false;  // serving metrics live in the server registry
        session->set_engine(cfg);
      }
      if (tracer) {
        // After set_engine: set_engine re-applies cfg.instrument (= false),
        // which clears any network-level instrumentation. Tracer only — the
        // per-layer metrics sink stays off so MacStats/metrics are untouched.
        session->network().set_instrumentation(tracer, nullptr);
      }
      tenant->shards.push_back(Shard{std::move(session), 0});
      tenant->free_slots.push_back(i);
    }
    // Generation 0 is the checkpoint every shard was built from. When the
    // caller passed no blob, snapshot the factory's initial parameters so
    // swap() can validate sizes and stale shards can reload deterministically.
    auto gen0 = init.params.empty()
                    ? std::make_shared<const std::vector<float>>(
                          tenant->shards.front().session->network().save_parameters())
                    : std::make_shared<const std::vector<float>>(
                          std::move(init.params));
    tenant->generations.push_back(std::move(gen0));
    tenants_.push_back(std::move(tenant));
  }
}

int ModelRegistry::index_of(std::string_view name) const {
  if (name.empty()) return 0;
  for (std::size_t i = 0; i < tenants_.size(); ++i)
    if (tenants_[i]->options.name == name) return static_cast<int>(i);
  return -1;
}

const TenantOptions& ModelRegistry::options(int tenant) const {
  return tenants_[static_cast<std::size_t>(tenant)]->options;
}

int ModelRegistry::shard_count(int tenant) const {
  return static_cast<int>(tenants_[static_cast<std::size_t>(tenant)]->shards.size());
}

std::string ModelRegistry::known_names() const {
  std::string out;
  for (const auto& t : tenants_) {
    if (!out.empty()) out += ", ";
    out += t->options.name;
  }
  return out;
}

std::uint64_t ModelRegistry::epoch(int tenant) const {
  return tenants_[static_cast<std::size_t>(tenant)]->epoch.load(
      std::memory_order_acquire);
}

std::uint64_t ModelRegistry::generation_count(int tenant) const {
  Tenant& t = *tenants_[static_cast<std::size_t>(tenant)];
  std::lock_guard<std::mutex> lk(t.mu);
  return t.generations.size();
}

std::size_t ModelRegistry::parameter_count(int tenant) const {
  Tenant& t = *tenants_[static_cast<std::size_t>(tenant)];
  std::lock_guard<std::mutex> lk(t.mu);
  return t.generations.front()->size();
}

nn::MacEngine::Description ModelRegistry::backend(int tenant) const {
  return tenants_[static_cast<std::size_t>(tenant)]->shards.front().session->backend();
}

std::uint64_t ModelRegistry::swap(int tenant, std::vector<float> params) {
  Tenant& t = *tenants_[static_cast<std::size_t>(tenant)];
  std::uint64_t new_epoch = 0;
  {
    std::lock_guard<std::mutex> lk(t.mu);
    const std::size_t expected = t.generations.front()->size();
    if (params.size() != expected)
      throw std::invalid_argument(
          "ModelRegistry::swap: tenant \"" + t.options.name + "\": " +
          std::to_string(params.size()) + " parameters, expected " +
          std::to_string(expected));
    for (std::size_t i = 0; i < params.size(); ++i)
      if (!std::isfinite(params[i]))
        throw std::invalid_argument("ModelRegistry::swap: tenant \"" +
                                    t.options.name +
                                    "\": non-finite parameter at element " +
                                    std::to_string(i));
    t.generations.push_back(
        std::make_shared<const std::vector<float>>(std::move(params)));
    new_epoch = t.generations.size() - 1;
  }
  // The epoch barrier: everything admitted after this release-store resolves
  // on the new generation (submit() reads it with acquire before enqueue).
  t.epoch.store(new_epoch, std::memory_order_release);
  return new_epoch;
}

ModelRegistry::Lease ModelRegistry::acquire(int tenant, std::uint64_t epoch) {
  Tenant& t = *tenants_[static_cast<std::size_t>(tenant)];
  int slot = -1;
  std::shared_ptr<const std::vector<float>> gen;
  {
    std::unique_lock<std::mutex> lk(t.mu);
    t.free_cv.wait(lk, [&] { return !t.free_slots.empty(); });
    slot = t.free_slots.back();
    t.free_slots.pop_back();
    Shard& shard = t.shards[static_cast<std::size_t>(slot)];
    if (shard.loaded_epoch != epoch) {
      if (epoch >= t.generations.size())
        throw std::logic_error("ModelRegistry::acquire: tenant \"" +
                               t.options.name + "\": epoch " +
                               std::to_string(epoch) + " has no generation");
      gen = t.generations[static_cast<std::size_t>(epoch)];
    }
  }
  Shard& shard = t.shards[static_cast<std::size_t>(slot)];
  if (gen) {
    // Reload outside the tenant lock — the slot is exclusively ours, and a
    // recalibration forward should never serialize other shards' leases.
    // load_parameters bumps every Parameter's version, which invalidates the
    // engine-side weight-code caches; calibration always runs in float mode,
    // so running it with the engine still attached reproduces the
    // construction-time scales exactly.
    shard.session->network().load_parameters(*gen);
    if (t.calibration) shard.session->calibrate(*t.calibration);
    shard.loaded_epoch = epoch;
  }
  return Lease(this, tenant, slot, shard.session.get());
}

void ModelRegistry::release_(int tenant, int slot) {
  Tenant& t = *tenants_[static_cast<std::size_t>(tenant)];
  {
    std::lock_guard<std::mutex> lk(t.mu);
    t.free_slots.push_back(slot);
  }
  t.free_cv.notify_one();
}

ModelRegistry::Lease::~Lease() {
  if (reg_) reg_->release_(tenant_, slot_);
}

}  // namespace scnn::serve
