// Batched inference serving runtime — the admission path in front of the
// inference stack.
//
// serve::Server is the shared front door for one OR SEVERAL models: a
// bounded request queue feeding a ModelRegistry of named tenants, each
// a (checkpoint × EngineConfig × shard count) entry with its own pool of
// bit-interchangeable sessions, all multiplexed over one worker pool. The
// shape mirrors the paper's BISC-MVM argument (Sec. 3): throughput comes
// from batching work over shared machinery — there `p` SC-MACs share one
// FSM/down-counter across an output tile; here requests share one forward
// pass, one LUT row walk, and one worker wake-up, and tenants share the
// admission plane and the ThreadPool.
//
// Semantics, all deterministic and tested:
//  - Requests: one typed struct — serve::Request{tenant, input, priority,
//    deadline_us, request_id} — replaces the old positional submit()
//    overloads. Validation errors name the offending field.
//  - Admission: submit() never blocks. The queue is bounded by
//    queue_capacity across ALL priority classes and tenants; a full queue
//    either sheds a queued lower-class request (see below) or rejects the
//    newcomer with Status::kQueueFull (backpressure, never a silent drop);
//    a drained server rejects with Status::kShutdown.
//  - One lock: the admission queue is a deque per priority class plus the
//    total and per-tenant queued counts, all guarded by the server's own
//    mutex. Push, pop, shed and every worker wait predicate share that
//    lock, so no wake-up can be lost and the per-tenant depths are exact.
//  - Priority classes: every request carries a Priority {kHigh, kNormal,
//    kBatch}. Workers serve strictly highest-class-first, FIFO within a
//    class, regardless of tenant. Under overload an arriving request evicts
//    the OLDEST queued request of the STRICTLY LOWEST class below its own
//    (kHigh sheds from kBatch first, then kNormal; kNormal sheds only from
//    kBatch; kBatch never sheds anyone and takes the kQueueFull itself).
//    The victim resolves with Status::kShed. Given one submission order,
//    the shed/reject set is a pure function of that order — independent of
//    worker count and tenant mix — which serve_test pins across runs.
//  - Batching: a worker pops the first waiting request, then keeps popping
//    until it has max_batch requests or max_delay_us has elapsed since the
//    batch opened. A popped request belonging to a different (tenant,
//    epoch) than the batch closes the batch and is stashed per-worker as
//    the seed of that worker's next batch, so every batch is tenant- and
//    generation-pure while the admission order stays globally FIFO within
//    a class. The batch stacks into one tensor and runs a single session
//    forward; per-sample logits are bit-identical to a direct
//    single-request InferenceSession::forward on the same input against
//    the same checkpoint, which bench_serve asserts on every response.
//  - Hot swap: swap(tenant, params) publishes a new checkpoint generation
//    behind a deterministic epoch barrier: submit() stamps every request
//    with its tenant's current epoch at admission, and a batch runs on
//    exactly the generation its requests were admitted under. In-flight
//    and already-queued requests finish on the old model; every request
//    admitted after swap() returns resolves on the new one. For a fixed
//    submission order the old/new partition is a pure function of that
//    order (pinned across 10 runs by serve_test).
//  - Deadlines: a request whose deadline has passed by the time a worker
//    pops it resolves with Status::kTimedOut instead of running.
//  - pause()/resume(): a paused server admits (and sheds) normally but
//    workers stop opening new batches; a batch already forming flushes
//    with what it has. Tests and the soak harness use this to stage
//    deterministic overload states mid-run.
//  - drain(): stops admission, completes every admitted request (timed-out
//    ones as kTimedOut), then joins the workers. The destructor drains.
//
// Observability (request-scoped, four layers):
//  - Metrics: the server owns an obs::Registry — serve.queue_depth /
//    serve.queue_depth_peak gauges, serve.batch_size / serve.latency_us /
//    serve.queue_us quantile histograms (p50/p90/p99/p999), and
//    serve.{submitted,completed,rejected,timed_out,shed,batches} counters —
//    plus the same counters and a latency histogram per priority class
//    under serve.<class>.* (class ∈ high|normal|batch), and per tenant
//    under serve.<tenant>.* (with nested serve.<tenant>.<class>.* and a
//    serve.<tenant>.queue_depth gauge fed by the exact per-tenant queued
//    count, plus serve.<tenant>.epoch / serve.<tenant>.swaps for the
//    hot-swap trajectory).
//  - Traces (opt-in, options().trace): submit() mints a monotonic request
//    id; the server's obs::Tracer records an id-correlated span tree per
//    request — request / queue / batch_wait on top of per-batch batch / run
//    spans — and attaches itself to every shard's Network so per-layer spans
//    land on the same worker timeline row carrying the batch id (see
//    obs::TraceContext). Tracing off is the default and leaves the forward
//    path exactly as uninstrumented: logits and MacStats are bit-identical.
//  - Flight recorder (on by default, options().flight_recorder): every
//    admission, rejection, shed, deadline expiry, pop, flush, batch
//    start/end, swap, and worker exception lands in a lock-free
//    obs::FlightRecorder ring, tenant-tagged. The server dumps it to a
//    stamped JSON file automatically on a batch-forward exception or a
//    sustained reject/shed burst, and on demand via dump_flight()
//    (`scnn_cli serve --dump-flight=`).
//  - Trajectory: BENCH_serve.json carries the quantiles + hardware
//    fingerprint that tools/bench_compare diffs PR-over-PR.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.hpp"
#include "nn/inference_session.hpp"
#include "nn/tensor.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/model_registry.hpp"

namespace scnn::serve {

/// Terminal state of one request. kOk carries logits; the rejection /
/// expiry / eviction states are the server's explicit overload semantics.
enum class Status {
  kOk,        ///< ran in a batch; logits + latency populated
  kQueueFull, ///< rejected at submit(): bounded queue at capacity and no
              ///< lower-priority victim to shed
  kTimedOut,  ///< admitted, but its deadline passed before a worker ran it
  kShutdown,  ///< rejected at submit(): server is draining / drained
  kError,     ///< the batch forward threw; `error` holds the message
  kShed,      ///< admitted, then evicted by a higher-priority arrival
              ///< under overload (strictly lowest-class-first, FIFO within
              ///< the class)
};

[[nodiscard]] std::string to_string(Status s);

/// Request priority class. Order matters: lower enumerator = more
/// important. Under overload the queue sheds strictly lowest-class-first;
/// workers serve strictly highest-class-first, FIFO within a class.
enum class Priority : std::uint8_t {
  kHigh = 0,    ///< latency-sensitive; never shed while any kNormal/kBatch
                ///< request is queued
  kNormal = 1,  ///< the default
  kBatch = 2,   ///< best-effort / offline; first to be shed
};
inline constexpr int kPriorityCount = 3;

[[nodiscard]] std::string to_string(Priority p);
/// Parses "high" | "normal" | "batch"; throws std::invalid_argument naming
/// the value otherwise.
[[nodiscard]] Priority priority_from_string(std::string_view s);

/// One admission request — THE submit() argument (designated-initializer
/// friendly; the old positional submit(tensor, deadline, priority)
/// overloads are gone, see the README migration note). submit() validates
/// every field and throws std::invalid_argument naming the offending one.
struct Request {
  std::string tenant;  ///< routing key into the model registry; "" routes
                       ///< to the first (single-model: only) tenant
  nn::Tensor input;    ///< exactly one sample: input.n() == 1
  Priority priority = Priority::kNormal;
  std::int64_t deadline_us = -1;  ///< -1 = ServerOptions::default_deadline_us;
                                  ///< 0 = this request never expires
  std::uint64_t request_id = 0;   ///< 0 = the server mints a monotonic id;
                                  ///< nonzero = caller-chosen correlation id
                                  ///< (uniqueness is the caller's problem)
};

/// What a Ticket resolves to.
struct Response {
  Status status = Status::kOk;
  std::uint64_t request_id = 0;  ///< minted at submit(); correlates traces,
                                 ///< flight events, and this response
  Priority priority = Priority::kNormal;  ///< class the request ran (or was
                                          ///< rejected/shed) as
  std::string tenant;      ///< resolved tenant name the request routed to
  std::uint64_t epoch = 0; ///< checkpoint generation the request was
                           ///< admitted under (and, for kOk, ran against)
  nn::Tensor logits;       ///< n() == 1; empty unless status == kOk
  int predicted = -1;      ///< argmax over logits (kOk only)
  int batch_size = 0;      ///< size of the micro-batch this request ran in
  double queue_us = 0.0;   ///< admission -> popped by a worker
  double run_us = 0.0;     ///< the batch's forward wall time
  double total_us = 0.0;   ///< admission -> response resolved
  std::string error;       ///< kError only
};

/// Future handle for one submitted request. get() blocks until the request
/// resolves (it always does: rejections resolve immediately, admitted
/// requests are completed by a worker, shed by an arrival, or swept by
/// drain()). One-shot.
class Ticket {
 public:
  Ticket() = default;
  [[nodiscard]] bool valid() const { return fut_.valid(); }
  /// True once the response can be read without blocking.
  [[nodiscard]] bool ready() const;
  [[nodiscard]] Response get() { return fut_.get(); }

 private:
  friend class Server;
  explicit Ticket(std::future<Response> fut) : fut_(std::move(fut)) {}
  std::future<Response> fut_;
};

/// Server tuning knobs. validate() throws std::invalid_argument naming the
/// offending field and value, mirroring nn::EngineConfig.
struct ServerOptions {
  int workers = 1;          ///< batch workers; also the default per-tenant
                            ///< shard count (TenantOptions::shards == 0)
  int session_threads = 1;  ///< worker threads *inside* each shard's session
  int max_batch = 8;        ///< flush a batch at this many requests
  int max_delay_us = 200;   ///< ... or this long after the batch opened
  int queue_capacity = 64;  ///< bounded admission queue, summed over all
                            ///< priority classes and tenants (backpressure)
  std::int64_t default_deadline_us = 0;  ///< 0 = requests never expire
  /// Default engine for tenants that don't set TenantOptions::engine
  /// (nullopt = float mode). `threads` and `instrument` inside it are
  /// overridden by the server (session_threads / its own registry policy).
  std::optional<nn::EngineConfig> engine;
  bool start_paused = false;  ///< admit but do not serve until resume();
                              ///< tests use this to stage deterministic
                              ///< overload / deadline-expiry states

  /// Record the per-request span tree (and per-layer spans) into tracer().
  /// Off by default: the traced and untraced forward paths produce
  /// bit-identical logits, but span capture itself costs allocations.
  bool trace = false;
  /// Keep the lock-free forensic event ring (see obs::FlightRecorder). On by
  /// default — it is the layer that must already be running when something
  /// goes wrong, and bench_serve pins its cost below 2% throughput.
  bool flight_recorder = true;
  int flight_capacity = 256;  ///< ring slots per recorder shard
  /// Auto-dump the flight ring after this many consecutive overload events
  /// (kQueueFull rejections and kShed evictions both count; a clean,
  /// shed-free admit resets the streak); 0 disables the burst trigger.
  int reject_burst = 0;
  /// Filename prefix for automatic dumps: <prefix>_error_w<worker>.json on a
  /// batch-forward exception, <prefix>_overload.json on a reject burst.
  std::string flight_dump_prefix = "flight";
  /// Declarative tenant table — the config-file face of the deployment
  /// (`scnn_cli serve --tenants=FILE`). The Server constructor taking
  /// TenantInit overwrites this with the options actually deployed, so
  /// options().tenants and to_json() always reflect reality.
  std::vector<TenantOptions> tenants;

  static constexpr int kMaxWorkers = 256;
  static constexpr int kMaxBatch = 4096;
  static constexpr int kMaxQueueCapacity = 1 << 20;
  static constexpr int kMaxFlightCapacity = 1 << 16;

  void validate() const;
  /// JSON round-trip consistent with nn::EngineConfig — one flat object
  /// plus the nested "engine" object and "tenants" array. from_json errors
  /// name the offending token.
  [[nodiscard]] std::string to_json() const;
  static ServerOptions from_json(std::string_view json);
};

class Server {
 public:
  /// Builds a fresh Network per shard (must be deterministic topology).
  using NetworkFactory = std::function<nn::Network()>;

  /// Multi-tenant server: stands up every tenant's shard pool (see
  /// ModelRegistry) over opts.workers batch workers. Tenants without their
  /// own TenantOptions::engine inherit opts.engine. Workers start serving
  /// immediately unless opts.start_paused.
  Server(std::vector<TenantInit> tenants, const ServerOptions& opts);

  /// Single-model convenience: one tenant named "default" built from
  /// `factory`. When `params` is non-empty every shard loads it (the "one
  /// checkpoint" of the pool); when `calibration` is non-null every shard
  /// calibrates on it (same batch => identical scales => shards are
  /// interchangeable bit-exactly).
  Server(const NetworkFactory& factory, const ServerOptions& opts,
         std::span<const float> params = {},
         const nn::Tensor* calibration = nullptr);

  /// Drains (completes every admitted request) and joins the workers.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admit one request (see serve::Request for the field contract; input
  /// c/h/w must match every other request OF THE SAME TENANT — the tenant's
  /// first submitted request establishes its shape, and a mismatch throws
  /// std::invalid_argument naming both shapes, even when the queue is full
  /// or the server is draining; a non-finite input value throws naming its
  /// element index, before any counter or queue slot moves).
  /// Never blocks: a full queue resolves the returned Ticket immediately
  /// with kQueueFull (after trying to shed a strictly-lower-priority queued
  /// request, whose own ticket then resolves kShed); a draining server
  /// resolves it with kShutdown.
  Ticket submit(Request req);

  /// Publish `params` as `tenant`'s next checkpoint generation (mid-flight
  /// hot swap; see the header comment for the epoch barrier) and return the
  /// new epoch. Throws std::invalid_argument on an unknown tenant, a
  /// parameter-count mismatch or a non-finite parameter. Thread-safe;
  /// callable while serving.
  std::uint64_t swap(std::string_view tenant, std::vector<float> params);

  /// Stop opening new batches (requests keep being admitted and shed; a
  /// forming batch flushes with what it has). Idempotent.
  void pause();

  /// Start (or restart, after pause()) serving. No-op when already serving.
  void resume();

  /// Stop admission, complete every admitted request, join the workers.
  /// Idempotent; safe to call from multiple threads. Rethrows the first
  /// worker-loop exception, if any (batch-forward errors do NOT end a
  /// worker — they resolve that batch's requests with kError).
  void drain();

  /// False once drain() has begun: subsequent submits resolve kShutdown.
  [[nodiscard]] bool accepting() const;

  [[nodiscard]] std::size_t queue_depth() const;
  /// Queued requests of one tenant (exact: counted under the queue's lock).
  [[nodiscard]] std::size_t queue_depth(std::string_view tenant) const;
  [[nodiscard]] const ServerOptions& options() const { return opts_; }
  [[nodiscard]] int workers() const { return opts_.workers; }

  /// The tenant table (names, epochs, shard pools).
  [[nodiscard]] const ModelRegistry& registry() const { return *registry_; }

  /// Serving metrics (see the header comment for the metric names).
  [[nodiscard]] obs::Registry& metrics() { return registry_metrics_; }

  /// Per-request / per-layer span capture; empty unless options().trace.
  [[nodiscard]] obs::Tracer& tracer() { return tracer_; }

  /// The forensic event ring; nullptr when options().flight_recorder is off.
  [[nodiscard]] const obs::FlightRecorder* flight_recorder() const {
    return flight_.get();
  }

  /// Dump the flight ring to `path` (stamped JSON). Returns the written
  /// path, or "" when the recorder is disabled or the file can't be opened.
  std::string dump_flight(const std::string& path,
                          std::string_view reason = "manual dump") const;

 private:
  using Clock = std::chrono::steady_clock;

  /// The queued form of a Request: resolved tenant index, stamped epoch,
  /// admission timestamps, and the promise feeding the Ticket.
  struct Pending {
    nn::Tensor input;  // n() == 1
    std::uint64_t id = 0;
    int tenant = 0;
    std::uint64_t epoch = 0;
    Priority priority = Priority::kNormal;
    Clock::time_point enqueued;
    Clock::time_point popped;    // set when a worker takes it into a batch
    Clock::time_point deadline;  // only meaningful when has_deadline
    bool has_deadline = false;
    std::promise<Response> promise;
  };

  enum class Admit {
    kAdmitted,  ///< queued, nothing evicted
    kShed,      ///< queued; the evicted lower-class request is in `victim`
    kFull,      ///< NOT queued: at capacity with no lower-class victim
  };

  /// Per-priority-class counter/histogram bundle (serve.<class>.* and
  /// serve.<tenant>.<class>.*).
  struct ClassMetrics {
    obs::Counter* submitted = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* timed_out = nullptr;
    obs::LatencyHistogram* latency_us = nullptr;
  };

  /// Per-tenant bundle (serve.<tenant>.*).
  struct TenantMetrics {
    obs::Counter* submitted = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* timed_out = nullptr;
    obs::Counter* swaps = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* epoch = nullptr;
    obs::LatencyHistogram* latency_us = nullptr;
    ClassMetrics classes[kPriorityCount];
  };

  void init_metrics_and_workers_();
  void worker_loop_(int worker);
  /// Fill a batch starting from `first`, then run it. Expired requests
  /// resolve kTimedOut as they are popped; a request of another (tenant,
  /// epoch) closes the batch and parks in stash_[worker].
  void form_and_run_(int worker, Pending&& first);
  /// Resolve `req` kTimedOut if its deadline passed; true when it did.
  bool resolve_if_expired_(Pending& req, int worker, std::uint64_t batch_id,
                           Clock::time_point now);
  void run_batch_(int worker, std::uint64_t batch_id, std::vector<Pending>& batch);
  /// Resolve a shed victim kShed and record the eviction (metrics + flight).
  void resolve_shed_(Pending&& victim, std::uint64_t by_request_id);
  /// Count one overload event (kQueueFull reject or kShed eviction) toward
  /// the reject-burst forensic dump.
  void note_overload_event_();
  /// Queue `req` under the shared capacity, evicting the oldest request of
  /// the strictly lowest class below its own when full. On kFull `req` is
  /// left intact. Caller holds mu_.
  Admit push_locked_(Pending&& req, std::optional<Pending>& victim);
  /// Pop the oldest request of the highest non-empty class; false when the
  /// queue is empty. Caller holds mu_.
  bool pop_locked_(Pending& out);
  /// Publish the total and `tenant`'s queue-depth gauges. Caller holds mu_.
  void publish_depth_locked_(int tenant);
  /// Pop every queued request and resolve it kShutdown. Caller holds mu_.
  void sweep_shutdown_locked_();
  /// CAS-establish / validate the tenant's admitted input shape. Throws
  /// std::invalid_argument naming both shapes on a mismatch.
  void check_shape_(int tenant, const nn::Tensor& input);
  /// Shard index for submit-path flight events (workers own shards
  /// [0, workers); submitters hash onto the tail shards).
  [[nodiscard]] int submit_flight_shard_() const;

  ServerOptions opts_;
  std::unique_ptr<ModelRegistry> registry_;

  obs::Registry registry_metrics_;
  obs::Tracer tracer_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  obs::Counter& submitted_;
  obs::Counter& completed_;
  obs::Counter& rejected_;
  obs::Counter& timed_out_;
  obs::Counter& shed_;
  obs::Counter& batches_;
  obs::Gauge& queue_depth_gauge_;
  obs::Gauge& queue_depth_peak_;
  obs::LatencyHistogram& batch_size_hist_;
  obs::LatencyHistogram& latency_us_hist_;
  obs::LatencyHistogram& queue_us_hist_;
  ClassMetrics class_metrics_[kPriorityCount];
  std::vector<TenantMetrics> tenant_metrics_;

  std::atomic<std::uint64_t> next_request_id_{1};
  std::atomic<std::uint64_t> next_batch_id_{1};
  std::atomic<int> reject_streak_{0};
  std::atomic<bool> burst_dumped_{false};
  /// Packed established input shape per tenant: (c << 42) | (h << 21) | w,
  /// 21-bit fields; 0 = not yet established. CAS'd by the tenant's first
  /// submit so concurrent first submits agree without a lock.
  std::unique_ptr<std::atomic<std::uint64_t>[]> shape_keys_;

  // The admission queue and the serving state, all guarded by mu_. paused_
  // and stopping_ are atomic only so accepting() and flush-reason reads can
  // skip the lock; every write and every wait predicate holds mu_.
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers: work available / state change
  std::condition_variable idle_cv_;  // drain(): all workers exited
  std::atomic<bool> paused_{false};
  std::atomic<bool> stopping_{false};
  std::array<std::deque<Pending>, kPriorityCount> queue_;  // FIFO per class
  std::size_t queued_ = 0;                   // total, <= queue_capacity
  std::vector<std::size_t> tenant_queued_;   // per tenant, sums to queued_
  int exited_workers_ = 0;
  /// One slot per worker: the request that closed the previous batch
  /// because its (tenant, epoch) differed — it seeds the next batch. Only
  /// its owning worker touches a slot, and workers consume their stash
  /// before exiting, so drain() still completes every admitted request.
  std::vector<std::optional<Pending>> stash_;

  std::mutex drain_mu_;  // serializes drain() callers
  std::vector<std::future<void>> worker_done_;
  std::unique_ptr<common::ThreadPool> pool_;
};

}  // namespace scnn::serve
