#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "serve/json_scan.hpp"

namespace scnn::serve {

namespace {

using Clock = std::chrono::steady_clock;

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

ServerOptions validated(ServerOptions opts) {
  opts.validate();
  return opts;
}

int argmax_of(std::span<const float> v) {
  if (v.empty()) return -1;
  return static_cast<int>(std::max_element(v.begin(), v.end()) - v.begin());
}

// Packed c/h/w shape key for the lock-free first-submit shape handshake:
// 21-bit fields, 0 = not yet established (a real input always has c >= 1).
std::uint64_t pack_shape(int c, int h, int w) {
  return (static_cast<std::uint64_t>(c) << 42) |
         (static_cast<std::uint64_t>(h) << 21) | static_cast<std::uint64_t>(w);
}

std::string shape_str(std::uint64_t key) {
  constexpr std::uint64_t mask = (1u << 21) - 1;
  return std::to_string((key >> 42) & mask) + "x" +
         std::to_string((key >> 21) & mask) + "x" + std::to_string(key & mask);
}

std::vector<TenantInit> single_tenant(const Server::NetworkFactory& factory,
                                      std::span<const float> params,
                                      const nn::Tensor* calibration) {
  TenantInit init;
  init.factory = factory;
  init.params.assign(params.begin(), params.end());
  if (calibration) init.calibration = *calibration;
  std::vector<TenantInit> tenants;
  tenants.push_back(std::move(init));
  return tenants;
}

}  // namespace

std::string to_string(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kQueueFull: return "queue-full";
    case Status::kTimedOut: return "timed-out";
    case Status::kShutdown: return "shutdown";
    case Status::kError: return "error";
    case Status::kShed: return "shed";
  }
  return "invalid";
}

std::string to_string(Priority p) {
  switch (p) {
    case Priority::kHigh: return "high";
    case Priority::kNormal: return "normal";
    case Priority::kBatch: return "batch";
  }
  return "invalid";
}

Priority priority_from_string(std::string_view s) {
  if (s == "high") return Priority::kHigh;
  if (s == "normal") return Priority::kNormal;
  if (s == "batch") return Priority::kBatch;
  throw std::invalid_argument("priority = \"" + std::string(s) +
                              "\" (expected high|normal|batch)");
}

bool Ticket::ready() const {
  return fut_.valid() &&
         fut_.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

void ServerOptions::validate() const {
  auto fail = [](const std::string& msg) {
    throw std::invalid_argument("ServerOptions: " + msg);
  };
  if (workers < 1 || workers > kMaxWorkers)
    fail("workers = " + std::to_string(workers) + " out of range [1, " +
         std::to_string(kMaxWorkers) + "]");
  if (session_threads < 0 || session_threads > nn::EngineConfig::kMaxThreads)
    fail("session_threads = " + std::to_string(session_threads) +
         " out of range [0, " + std::to_string(nn::EngineConfig::kMaxThreads) +
         "] (0 = auto)");
  if (max_batch < 1 || max_batch > kMaxBatch)
    fail("max_batch = " + std::to_string(max_batch) + " out of range [1, " +
         std::to_string(kMaxBatch) + "]");
  if (max_delay_us < 0 || max_delay_us > 10'000'000)
    fail("max_delay_us = " + std::to_string(max_delay_us) +
         " out of range [0, 10000000]");
  if (queue_capacity < 1 || queue_capacity > kMaxQueueCapacity)
    fail("queue_capacity = " + std::to_string(queue_capacity) +
         " out of range [1, " + std::to_string(kMaxQueueCapacity) + "]");
  if (default_deadline_us < 0)
    fail("default_deadline_us = " + std::to_string(default_deadline_us) +
         " must be >= 0 (0 = no deadline)");
  if (flight_capacity < 1 || flight_capacity > kMaxFlightCapacity)
    fail("flight_capacity = " + std::to_string(flight_capacity) +
         " out of range [1, " + std::to_string(kMaxFlightCapacity) + "]");
  if (reject_burst < 0)
    fail("reject_burst = " + std::to_string(reject_burst) +
         " must be >= 0 (0 = no burst dump)");
  if (engine) engine->validate();
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    tenants[i].validate();
    for (std::size_t j = 0; j < i; ++j)
      if (tenants[j].name == tenants[i].name)
        fail("tenants: duplicate name \"" + tenants[i].name + "\"");
  }
}

std::string ServerOptions::to_json() const {
  std::string out =
      "{\"workers\":" + std::to_string(workers) +
      ",\"session_threads\":" + std::to_string(session_threads) +
      ",\"max_batch\":" + std::to_string(max_batch) +
      ",\"max_delay_us\":" + std::to_string(max_delay_us) +
      ",\"queue_capacity\":" + std::to_string(queue_capacity) +
      ",\"default_deadline_us\":" + std::to_string(default_deadline_us) +
      ",\"start_paused\":" + (start_paused ? "true" : "false") +
      ",\"trace\":" + (trace ? "true" : "false") +
      ",\"flight_recorder\":" + (flight_recorder ? "true" : "false") +
      ",\"flight_capacity\":" + std::to_string(flight_capacity) +
      ",\"reject_burst\":" + std::to_string(reject_burst) +
      ",\"flight_dump_prefix\":\"" + flight_dump_prefix + "\"";
  if (engine) out += ",\"engine\":" + engine->to_json();
  out += ",\"tenants\":[";
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    if (i) out += ",";
    out += tenants[i].to_json();
  }
  return out + "]}";
}

ServerOptions ServerOptions::from_json(std::string_view json) {
  ServerOptions opts;
  detail::JsonScanner in{json, 0, "ServerOptions"};
  in.expect('{');
  if (in.peek() != '}') {
    while (true) {
      const std::string key = in.parse_string();
      in.expect(':');
      if (key == "workers") {
        opts.workers = static_cast<int>(in.parse_int());
      } else if (key == "session_threads") {
        opts.session_threads = static_cast<int>(in.parse_int());
      } else if (key == "max_batch") {
        opts.max_batch = static_cast<int>(in.parse_int());
      } else if (key == "max_delay_us") {
        opts.max_delay_us = static_cast<int>(in.parse_int());
      } else if (key == "queue_capacity") {
        opts.queue_capacity = static_cast<int>(in.parse_int());
      } else if (key == "default_deadline_us") {
        opts.default_deadline_us = in.parse_int();
      } else if (key == "start_paused") {
        opts.start_paused = in.parse_bool();
      } else if (key == "trace") {
        opts.trace = in.parse_bool();
      } else if (key == "flight_recorder") {
        opts.flight_recorder = in.parse_bool();
      } else if (key == "flight_capacity") {
        opts.flight_capacity = static_cast<int>(in.parse_int());
      } else if (key == "reject_burst") {
        opts.reject_burst = static_cast<int>(in.parse_int());
      } else if (key == "flight_dump_prefix") {
        opts.flight_dump_prefix = in.parse_string();
      } else if (key == "engine") {
        opts.engine = nn::EngineConfig::from_json(in.capture_object());
      } else if (key == "tenants") {
        in.expect('[');
        opts.tenants.clear();
        if (in.peek() != ']') {
          while (true) {
            opts.tenants.push_back(TenantOptions::from_json(in.capture_object()));
            const char c = in.peek();
            if (c == ',') {
              ++in.i;
              continue;
            }
            if (c == ']') break;
            in.fail(std::string("expected ',' or ']', got '") + c +
                    "' at offset " + std::to_string(in.i));
          }
        }
        in.expect(']');
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

Server::Server(std::vector<TenantInit> tenants, const ServerOptions& opts)
    : opts_(validated(opts)),
      // Workers own flight shards [0, workers); submitter threads hash onto
      // four extra tail shards so admission events never contend with batch
      // events for a ring cursor.
      flight_(opts_.flight_recorder
                  ? std::make_unique<obs::FlightRecorder>(opts_.workers + 4,
                                                          opts_.flight_capacity)
                  : nullptr),
      submitted_(registry_metrics_.counter("serve.submitted")),
      completed_(registry_metrics_.counter("serve.completed")),
      rejected_(registry_metrics_.counter("serve.rejected")),
      timed_out_(registry_metrics_.counter("serve.timed_out")),
      shed_(registry_metrics_.counter("serve.shed")),
      batches_(registry_metrics_.counter("serve.batches")),
      queue_depth_gauge_(registry_metrics_.gauge("serve.queue_depth")),
      queue_depth_peak_(registry_metrics_.gauge("serve.queue_depth_peak")),
      batch_size_hist_(registry_metrics_.latency_histogram("serve.batch_size")),
      latency_us_hist_(registry_metrics_.latency_histogram("serve.latency_us")),
      queue_us_hist_(registry_metrics_.latency_histogram("serve.queue_us")),
      paused_(opts_.start_paused) {
  // A tenant without its own engine inherits the server-wide one.
  for (TenantInit& t : tenants)
    if (!t.options.engine) t.options.engine = opts_.engine;
  registry_ = std::make_unique<ModelRegistry>(std::move(tenants), opts_.workers,
                                              opts_.session_threads,
                                              opts_.trace ? &tracer_ : nullptr);
  // options().tenants (and to_json()) reflect what was actually deployed.
  opts_.tenants.clear();
  for (int t = 0; t < registry_->count(); ++t)
    opts_.tenants.push_back(registry_->options(t));
  init_metrics_and_workers_();
}

Server::Server(const NetworkFactory& factory, const ServerOptions& opts,
               std::span<const float> params, const nn::Tensor* calibration)
    : Server(single_tenant(factory, params, calibration), opts) {}

void Server::init_metrics_and_workers_() {
  for (int c = 0; c < kPriorityCount; ++c) {
    const std::string prefix =
        "serve." + to_string(static_cast<Priority>(c)) + ".";
    ClassMetrics& m = class_metrics_[c];
    m.submitted = &registry_metrics_.counter(prefix + "submitted");
    m.completed = &registry_metrics_.counter(prefix + "completed");
    m.shed = &registry_metrics_.counter(prefix + "shed");
    m.timed_out = &registry_metrics_.counter(prefix + "timed_out");
    m.latency_us = &registry_metrics_.latency_histogram(prefix + "latency_us");
  }
  const int tenants = registry_->count();
  tenant_metrics_.resize(static_cast<std::size_t>(tenants));
  for (int t = 0; t < tenants; ++t) {
    const std::string prefix = "serve." + registry_->options(t).name + ".";
    TenantMetrics& m = tenant_metrics_[static_cast<std::size_t>(t)];
    m.submitted = &registry_metrics_.counter(prefix + "submitted");
    m.completed = &registry_metrics_.counter(prefix + "completed");
    m.rejected = &registry_metrics_.counter(prefix + "rejected");
    m.shed = &registry_metrics_.counter(prefix + "shed");
    m.timed_out = &registry_metrics_.counter(prefix + "timed_out");
    m.swaps = &registry_metrics_.counter(prefix + "swaps");
    m.queue_depth = &registry_metrics_.gauge(prefix + "queue_depth");
    m.epoch = &registry_metrics_.gauge(prefix + "epoch");
    m.latency_us = &registry_metrics_.latency_histogram(prefix + "latency_us");
    for (int c = 0; c < kPriorityCount; ++c) {
      const std::string cprefix =
          prefix + to_string(static_cast<Priority>(c)) + ".";
      ClassMetrics& cm = m.classes[c];
      cm.submitted = &registry_metrics_.counter(cprefix + "submitted");
      cm.completed = &registry_metrics_.counter(cprefix + "completed");
      cm.shed = &registry_metrics_.counter(cprefix + "shed");
      cm.timed_out = &registry_metrics_.counter(cprefix + "timed_out");
      cm.latency_us = &registry_metrics_.latency_histogram(cprefix + "latency_us");
    }
    if (flight_) {
      const nn::MacEngine::Description desc = registry_->backend(t);
      flight_->record(t % opts_.workers, obs::FlightEventKind::kConfig,
                      t % opts_.workers, 0, 0,
                      static_cast<std::uint64_t>(desc.lanes),
                      static_cast<std::uint64_t>(registry_->shard_count(t)),
                      registry_->options(t).name + ":" + desc.backend, t);
    }
  }
  shape_keys_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(static_cast<std::size_t>(tenants));
  for (int t = 0; t < tenants; ++t)
    shape_keys_[static_cast<std::size_t>(t)].store(0, std::memory_order_relaxed);
  tenant_queued_.resize(static_cast<std::size_t>(tenants));
  stash_.resize(static_cast<std::size_t>(opts_.workers));

  pool_ = std::make_unique<common::ThreadPool>(opts_.workers);
  worker_done_.reserve(static_cast<std::size_t>(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i)
    worker_done_.push_back(pool_->submit([this, i] {
      try {
        worker_loop_(i);
      } catch (...) {
        // A worker-loop failure must still count as an exit or drain()
        // would wait forever; the exception reaches drain() via the future.
        {
          std::lock_guard<std::mutex> lk(mu_);
          ++exited_workers_;
        }
        idle_cv_.notify_all();
        throw;
      }
    }));
}

Server::~Server() {
  try {
    drain();
  } catch (...) {
    // Worker-loop failures were already surfaced to the affected tickets;
    // the destructor must not throw.
  }
}

int Server::submit_flight_shard_() const {
  return opts_.workers + (registry_metrics_.this_shard() & 3);
}

void Server::check_shape_(int tenant, const nn::Tensor& input) {
  const std::uint64_t key = pack_shape(input.c(), input.h(), input.w());
  std::atomic<std::uint64_t>& slot = shape_keys_[static_cast<std::size_t>(tenant)];
  std::uint64_t established = 0;
  // The winning first submit establishes the tenant's shape — before any
  // load-dependent check, so a mismatched request throws deterministically
  // even when the server is full or draining, and so two concurrent first
  // submits with different shapes can never both enter the queue.
  if (slot.compare_exchange_strong(established, key)) return;
  if (established == key) return;
  throw std::invalid_argument(
      "serve::Request.input: shape " + shape_str(key) +
      " does not match tenant \"" + registry_->options(tenant).name +
      "\"'s established shape " + shape_str(established));
}

Server::Admit Server::push_locked_(Pending&& req, std::optional<Pending>& victim) {
  const int cls = static_cast<int>(req.priority);
  const int tenant = req.tenant;
  Admit result = Admit::kAdmitted;
  if (queued_ >= static_cast<std::size_t>(opts_.queue_capacity)) {
    // Shed the oldest request of the strictly lowest class below ours.
    for (int c = kPriorityCount - 1; c > cls && !victim; --c) {
      std::deque<Pending>& q = queue_[static_cast<std::size_t>(c)];
      if (q.empty()) continue;
      victim = std::move(q.front());
      q.pop_front();
      --tenant_queued_[static_cast<std::size_t>(victim->tenant)];
      publish_depth_locked_(victim->tenant);
    }
    if (!victim) return Admit::kFull;
    result = Admit::kShed;  // one out, one in: queued_ unchanged
  } else {
    ++queued_;
  }
  queue_[static_cast<std::size_t>(cls)].push_back(std::move(req));
  ++tenant_queued_[static_cast<std::size_t>(tenant)];
  publish_depth_locked_(tenant);
  return result;
}

bool Server::pop_locked_(Pending& out) {
  for (std::deque<Pending>& q : queue_) {
    if (q.empty()) continue;
    out = std::move(q.front());
    q.pop_front();
    --queued_;
    --tenant_queued_[static_cast<std::size_t>(out.tenant)];
    publish_depth_locked_(out.tenant);
    return true;
  }
  return false;
}

void Server::publish_depth_locked_(int tenant) {
  queue_depth_gauge_.set(static_cast<double>(queued_));
  tenant_metrics_[static_cast<std::size_t>(tenant)].queue_depth->set(
      static_cast<double>(tenant_queued_[static_cast<std::size_t>(tenant)]));
}

void Server::note_overload_event_() {
  // Overload forensics: a sustained run of rejections/sheds dumps the ring
  // once, capturing the admission pattern that led into the burst.
  const int streak = reject_streak_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (flight_ && opts_.reject_burst > 0 && streak >= opts_.reject_burst &&
      !burst_dumped_.exchange(true, std::memory_order_relaxed)) {
    flight_->dump(opts_.flight_dump_prefix + "_overload.json",
                  "reject burst: " + std::to_string(streak) +
                      " consecutive rejections");
  }
}

void Server::resolve_shed_(Pending&& victim, std::uint64_t by_request_id) {
  const int cls = static_cast<int>(victim.priority);
  const int shard = registry_metrics_.this_shard();
  shed_.inc(shard);
  class_metrics_[cls].shed->inc(shard);
  TenantMetrics& tm = tenant_metrics_[static_cast<std::size_t>(victim.tenant)];
  tm.shed->inc(shard);
  tm.classes[cls].shed->inc(shard);
  note_overload_event_();
  if (flight_)
    flight_->record(submit_flight_shard_(), obs::FlightEventKind::kShed, -1,
                    victim.id, 0, static_cast<std::uint64_t>(cls),
                    by_request_id, to_string(victim.priority), victim.tenant);
  Response r;
  r.status = Status::kShed;
  r.request_id = victim.id;
  r.priority = victim.priority;
  r.tenant = registry_->options(victim.tenant).name;
  r.epoch = victim.epoch;
  r.queue_us = micros(Clock::now() - victim.enqueued);
  r.total_us = r.queue_us;
  victim.promise.set_value(std::move(r));
}

Ticket Server::submit(Request request) {
  const int tenant = registry_->index_of(request.tenant);
  if (tenant < 0)
    throw std::invalid_argument("serve::Request.tenant = \"" + request.tenant +
                                "\" (known tenants: " +
                                registry_->known_names() + ")");
  if (request.input.n() != 1)
    throw std::invalid_argument("serve::Request.input: n() = " +
                                std::to_string(request.input.n()) +
                                " (one sample per request)");
  if (request.deadline_us < -1)
    throw std::invalid_argument(
        "serve::Request.deadline_us = " + std::to_string(request.deadline_us) +
        " (-1 = server default, 0 = no deadline)");
  const std::span<const float> values = request.input.data();
  for (std::size_t i = 0; i < values.size(); ++i)
    if (!std::isfinite(values[i]))
      throw std::invalid_argument(
          "serve::Request.input: non-finite value at element " + std::to_string(i));
  check_shape_(tenant, request.input);
  const std::int64_t deadline_us = request.deadline_us < 0
                                       ? opts_.default_deadline_us
                                       : request.deadline_us;

  const Clock::time_point now = Clock::now();
  const std::uint64_t id =
      request.request_id != 0
          ? request.request_id
          : next_request_id_.fetch_add(1, std::memory_order_relaxed);
  const int cls = static_cast<int>(request.priority);
  const std::string tenant_name = registry_->options(tenant).name;

  auto reject = [&](std::promise<Response>&& promise, Status status,
                    std::uint64_t epoch) {
    const int shard = registry_metrics_.this_shard();
    rejected_.inc(shard);
    tenant_metrics_[static_cast<std::size_t>(tenant)].rejected->inc(shard);
    if (flight_)
      flight_->record(submit_flight_shard_(), obs::FlightEventKind::kReject, -1,
                      id, 0, static_cast<std::uint64_t>(status),
                      static_cast<std::uint64_t>(cls), to_string(status),
                      tenant);
    if (status == Status::kQueueFull) note_overload_event_();
    Response r;
    r.status = status;
    r.request_id = id;
    r.priority = request.priority;
    r.tenant = tenant_name;
    r.epoch = epoch;
    promise.set_value(std::move(r));
  };

  Pending req;
  req.input = std::move(request.input);
  req.id = id;
  req.tenant = tenant;
  req.priority = request.priority;
  req.enqueued = now;
  req.has_deadline = deadline_us > 0;
  if (req.has_deadline) req.deadline = now + std::chrono::microseconds(deadline_us);
  std::future<Response> fut = req.promise.get_future();

  // stopping_ is checked under the same lock as the push, so once drain()
  // has set it no request can enter the queue behind the workers' backs.
  std::optional<Pending> victim;
  Admit result = Admit::kFull;
  bool shutdown = false;
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    // The epoch stamp IS the hot-swap barrier: everything admitted after a
    // swap's release-store resolves on the new generation, everything
    // stamped before it finishes on the old one. For a fixed submission
    // order the old/new partition is therefore a pure function of that order.
    req.epoch = registry_->epoch(tenant);
    shutdown = stopping_.load();
    if (!shutdown) result = push_locked_(std::move(req), victim);
    depth = queued_;
  }
  if (victim) resolve_shed_(std::move(*victim), id);
  if (shutdown || result == Admit::kFull) {
    reject(std::move(req.promise), shutdown ? Status::kShutdown : Status::kQueueFull,
           req.epoch);
    return Ticket(std::move(fut));
  }
  work_cv_.notify_one();

  queue_depth_peak_.max(static_cast<double>(depth));
  const int shard = registry_metrics_.this_shard();
  submitted_.inc(shard);
  class_metrics_[cls].submitted->inc(shard);
  TenantMetrics& tm = tenant_metrics_[static_cast<std::size_t>(tenant)];
  tm.submitted->inc(shard);
  tm.classes[cls].submitted->inc(shard);
  if (result == Admit::kAdmitted)
    reject_streak_.store(0, std::memory_order_relaxed);  // clean, shed-free admit
  if (flight_)
    flight_->record(submit_flight_shard_(), obs::FlightEventKind::kAdmit, -1, id,
                    0, static_cast<std::uint64_t>(depth),
                    static_cast<std::uint64_t>(cls), {}, tenant);
  return Ticket(std::move(fut));
}

std::uint64_t Server::swap(std::string_view tenant, std::vector<float> params) {
  const int t = registry_->index_of(tenant);
  if (t < 0)
    throw std::invalid_argument("serve::Server::swap: tenant = \"" +
                                std::string(tenant) + "\" (known tenants: " +
                                registry_->known_names() + ")");
  const std::uint64_t epoch = registry_->swap(t, std::move(params));
  const int shard = registry_metrics_.this_shard();
  TenantMetrics& tm = tenant_metrics_[static_cast<std::size_t>(t)];
  tm.swaps->inc(shard);
  tm.epoch->set(static_cast<double>(epoch));
  if (flight_)
    flight_->record(submit_flight_shard_(), obs::FlightEventKind::kSwap, -1, 0,
                    0, epoch, registry_->generation_count(t),
                    registry_->options(t).name, t);
  return epoch;
}

void Server::pause() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    paused_.store(true);
  }
  work_cv_.notify_all();  // a forming batch flushes with what it has
}

void Server::resume() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    paused_.store(false);
  }
  work_cv_.notify_all();
}

bool Server::accepting() const { return !stopping_.load(); }

std::size_t Server::queue_depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queued_;
}

std::size_t Server::queue_depth(std::string_view tenant) const {
  const int t = registry_->index_of(tenant);
  if (t < 0)
    throw std::invalid_argument("serve::Server::queue_depth: tenant = \"" +
                                std::string(tenant) + "\" (known tenants: " +
                                registry_->known_names() + ")");
  std::lock_guard<std::mutex> lk(mu_);
  return tenant_queued_[static_cast<std::size_t>(t)];
}

void Server::sweep_shutdown_locked_() {
  Pending req;
  while (pop_locked_(req)) {
    Response r;
    r.status = Status::kShutdown;
    r.request_id = req.id;
    r.priority = req.priority;
    r.tenant = registry_->options(req.tenant).name;
    r.epoch = req.epoch;
    r.queue_us = micros(Clock::now() - req.enqueued);
    r.total_us = r.queue_us;
    req.promise.set_value(std::move(r));
  }
}

void Server::drain() {
  std::lock_guard<std::mutex> serialize(drain_mu_);
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_.store(true);
    paused_.store(false);  // a paused server must still complete admitted work
  }
  work_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lk(mu_);
    idle_cv_.wait(lk, [&] { return exited_workers_ == opts_.workers; });
  }
  pool_.reset();  // joins the workers
  std::vector<std::future<void>> done = std::move(worker_done_);
  worker_done_.clear();
  {
    // Workers only exit on an empty queue, and no push follows stopping_, so
    // this finds requests only when a worker loop died with work queued.
    std::lock_guard<std::mutex> lk(mu_);
    sweep_shutdown_locked_();
  }
  for (auto& f : done) f.get();  // surfaces the first worker-loop exception
}

std::string Server::dump_flight(const std::string& path,
                                std::string_view reason) const {
  if (!flight_) return "";
  return flight_->dump(path, reason);
}

bool Server::resolve_if_expired_(Pending& req, int worker, std::uint64_t batch_id,
                                 Clock::time_point now) {
  req.popped = now;
  if (!req.has_deadline || now <= req.deadline) return false;
  const int cls = static_cast<int>(req.priority);
  timed_out_.inc(worker);
  class_metrics_[cls].timed_out->inc(worker);
  TenantMetrics& tm = tenant_metrics_[static_cast<std::size_t>(req.tenant)];
  tm.timed_out->inc(worker);
  tm.classes[cls].timed_out->inc(worker);
  Response r;
  r.status = Status::kTimedOut;
  r.request_id = req.id;
  r.priority = req.priority;
  r.tenant = registry_->options(req.tenant).name;
  r.epoch = req.epoch;
  r.queue_us = micros(now - req.enqueued);
  r.total_us = r.queue_us;
  if (flight_)
    flight_->record(worker, obs::FlightEventKind::kDeadlineExpired, worker, req.id,
                    batch_id, static_cast<std::uint64_t>(r.queue_us), 0, {},
                    req.tenant);
  if (opts_.trace)
    tracer_.record("queue", req.enqueued, now,
                   {{"request_id", static_cast<double>(req.id)},
                    {"timed_out", 1.0}},
                   0);
  req.promise.set_value(std::move(r));
  return true;
}

void Server::worker_loop_(int worker) {
  std::optional<Pending>& stash = stash_[static_cast<std::size_t>(worker)];
  for (;;) {
    Pending first;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] {
        return stopping_.load() || (!paused_.load() && (stash || queued_ > 0));
      });
      if (stash) {
        // The request that closed the previous batch (other tenant/epoch)
        // seeds this one. Consumed before the exit below, so a worker never
        // exits with a stashed request pending.
        first = std::move(*stash);
        stash.reset();
      } else if (!pop_locked_(first)) {
        break;  // draining and the queue is dry: exit
      }
    }
    form_and_run_(worker, std::move(first));
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++exited_workers_;
  }
  idle_cv_.notify_all();
}

void Server::form_and_run_(int worker, Pending&& first) {
  // Open a batch with the first live request, then keep filling it until it
  // is full or max_delay_us has elapsed since it opened. While we wait,
  // submit() wakes us; during drain (or pause) the flush is immediate. A
  // popped request of another (tenant, epoch) closes the batch — batches
  // are tenant- and generation-pure — and parks in this worker's stash as
  // the seed of its next batch.
  const std::uint64_t batch_id = next_batch_id_.fetch_add(1, std::memory_order_relaxed);
  std::vector<Pending> batch;
  batch.reserve(static_cast<std::size_t>(opts_.max_batch));
  const Clock::time_point opened = Clock::now();
  const Clock::time_point flush_at =
      opened + std::chrono::microseconds(opts_.max_delay_us);
  bool window_elapsed = false;
  bool tenant_switch = false;

  if (!resolve_if_expired_(first, worker, batch_id, opened)) {
    if (flight_)
      flight_->record(worker, obs::FlightEventKind::kPop, worker, first.id,
                      batch_id, 0, 0, {}, first.tenant);
    batch.push_back(std::move(first));
  }
  while (static_cast<int>(batch.size()) < opts_.max_batch) {
    Pending req;
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (queued_ == 0) {
        if (batch.empty()) break;  // everything popped so far had expired
        if (opts_.max_delay_us == 0) break;
        if (!work_cv_.wait_until(lk, flush_at, [&] {
              return stopping_.load() || paused_.load() || queued_ > 0;
            })) {
          window_elapsed = true;
          break;
        }
        if (queued_ == 0) break;  // stopping or paused: flush now
      }
      pop_locked_(req);
    }
    if (resolve_if_expired_(req, worker, batch_id, Clock::now())) continue;
    if (!batch.empty() && (req.tenant != batch.front().tenant ||
                           req.epoch != batch.front().epoch)) {
      stash_[static_cast<std::size_t>(worker)] = std::move(req);
      tenant_switch = true;
      break;
    }
    if (flight_)
      flight_->record(worker, obs::FlightEventKind::kPop, worker, req.id,
                      batch_id, 0, 0, {}, req.tenant);
    batch.push_back(std::move(req));
  }

  if (flight_ && !batch.empty()) {
    const auto reason = static_cast<int>(batch.size()) >= opts_.max_batch
                            ? obs::FlushReason::kFull
                        : tenant_switch     ? obs::FlushReason::kTenantSwitch
                        : stopping_.load()  ? obs::FlushReason::kStopping
                        : window_elapsed    ? obs::FlushReason::kDelay
                                            : obs::FlushReason::kImmediate;
    flight_->record(worker, obs::FlightEventKind::kFlush, worker, 0, batch_id,
                    static_cast<std::uint64_t>(reason), batch.size(), {},
                    batch.front().tenant);
  }
  if (batch.empty()) return;
  run_batch_(worker, batch_id, batch);
}

void Server::run_batch_(int worker, std::uint64_t batch_id,
                        std::vector<Pending>& batch) {
  const int tenant = batch.front().tenant;
  const std::uint64_t epoch = batch.front().epoch;
  const std::string& tenant_name = registry_->options(tenant).name;
  const int b = static_cast<int>(batch.size());
  const int trace_tid = worker + 1;  // row 0 is the admission timeline
  if (flight_)
    flight_->record(worker, obs::FlightEventKind::kBatchStart, worker, 0, batch_id,
                    static_cast<std::uint64_t>(b), epoch, {}, tenant);
  const Clock::time_point t0 = Clock::now();
  nn::Tensor logits;
  std::string error;
  try {
    // Lease one of the tenant's shards loaded with exactly the generation
    // this batch was admitted under (the other half of the swap barrier).
    ModelRegistry::Lease lease = registry_->acquire(tenant, epoch);
    const nn::Tensor& first = batch.front().input;
    nn::Tensor input(b, first.c(), first.h(), first.w());
    for (int i = 0; i < b; ++i) {
      const auto src = batch[static_cast<std::size_t>(i)].input.sample(0);
      std::copy(src.begin(), src.end(), input.sample(i).begin());
    }
    if (opts_.trace) {
      // Per-layer spans recorded inside this forward inherit the worker's
      // timeline row and the batch id through the thread-local context.
      const obs::ScopedTraceContext ctx(batch_id, trace_tid);
      logits = lease.session().forward(input);
    } else {
      logits = lease.session().forward(input);
    }
  } catch (const std::exception& e) {
    error = e.what();
  } catch (...) {
    error = "unknown exception in batch forward";
  }
  const Clock::time_point t1 = Clock::now();
  const double run_us = micros(t1 - t0);

  if (flight_) {
    if (!error.empty())
      flight_->record(worker, obs::FlightEventKind::kWorkerException, worker, 0,
                      batch_id, static_cast<std::uint64_t>(b), 0, error, tenant);
    else
      flight_->record(worker, obs::FlightEventKind::kBatchDone, worker, 0, batch_id,
                      static_cast<std::uint64_t>(b),
                      static_cast<std::uint64_t>(run_us), {}, tenant);
  }

  batches_.inc(worker);
  batch_size_hist_.record(static_cast<std::uint64_t>(b), worker);
  TenantMetrics& tm = tenant_metrics_[static_cast<std::size_t>(tenant)];
  for (int i = 0; i < b; ++i) {
    Pending& req = batch[static_cast<std::size_t>(i)];
    const int cls = static_cast<int>(req.priority);
    Response r;
    r.batch_size = b;
    r.request_id = req.id;
    r.priority = req.priority;
    r.tenant = tenant_name;
    r.epoch = epoch;
    r.queue_us = micros(t0 - req.enqueued);
    r.run_us = run_us;
    if (!error.empty()) {
      r.status = Status::kError;
      r.error = error;
      if (flight_)
        flight_->record(worker, obs::FlightEventKind::kResolveError, worker, req.id,
                        batch_id, 0, 0, {}, tenant);
    } else {
      r.status = Status::kOk;
      r.logits = nn::Tensor(1, logits.c(), logits.h(), logits.w());
      const auto src = logits.sample(i);
      std::copy(src.begin(), src.end(), r.logits.sample(0).begin());
      r.predicted = argmax_of(src);
      completed_.inc(worker);
      class_metrics_[cls].completed->inc(worker);
      tm.completed->inc(worker);
      tm.classes[cls].completed->inc(worker);
      queue_us_hist_.record(static_cast<std::uint64_t>(r.queue_us), worker);
    }
    const Clock::time_point resolved = Clock::now();
    r.total_us = micros(resolved - req.enqueued);
    if (r.status == Status::kOk) {
      latency_us_hist_.record(static_cast<std::uint64_t>(r.total_us), worker);
      class_metrics_[cls].latency_us->record(
          static_cast<std::uint64_t>(r.total_us), worker);
      tm.latency_us->record(static_cast<std::uint64_t>(r.total_us), worker);
      tm.classes[cls].latency_us->record(static_cast<std::uint64_t>(r.total_us),
                                         worker);
    }
    if (opts_.trace) {
      // The request's span tree: queue (admission row) -> batch_wait ->
      // request envelope on the worker row, all carrying request_id +
      // batch_id so a trace viewer (or the serve_test parser) can stitch
      // them to the batch/run/per-layer spans below.
      const std::vector<obs::TraceArg> ids{
          {"request_id", static_cast<double>(req.id)},
          {"batch_id", static_cast<double>(batch_id)}};
      tracer_.record("queue", req.enqueued, req.popped, ids, 0);
      tracer_.record("batch_wait", req.popped, t0, ids, trace_tid);
      tracer_.record("request", req.enqueued, resolved, ids, trace_tid);
    }
    req.promise.set_value(std::move(r));
  }
  if (opts_.trace) {
    tracer_.record("run", t0, t1,
                   {{"batch_id", static_cast<double>(batch_id)},
                    {"size", static_cast<double>(b)}},
                   trace_tid);
    tracer_.record("batch", batch.front().popped, t1,
                   {{"batch_id", static_cast<double>(batch_id)},
                    {"size", static_cast<double>(b)}},
                   trace_tid);
  }

  // Forensics: a batch-forward exception dumps the ring immediately, naming
  // the failing batch's requests via the kResolveError events above.
  if (flight_ && !error.empty())
    flight_->dump(opts_.flight_dump_prefix + "_error_w" + std::to_string(worker) +
                      ".json",
                  "worker exception: " + error);
}

}  // namespace scnn::serve
