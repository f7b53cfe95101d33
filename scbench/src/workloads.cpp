// The three workloads. Each builds its inputs from the seed, times set-up
// (program construction only), precomputes reference logits, runs its
// measured phase(s), and reports either the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run). See README.md for why each
// workload exists and how each metric is defined on it.
#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <functional>
#include <map>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "gen.hpp"
#include "nn/network.hpp"
#include "nn_probe.hpp"
#include "open_loop.hpp"

namespace scbench {

double rss_peak_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string steering_env_var() {
  for (const char* name :
       {"SCNN_BACKEND", "SCNN_SPARSITY", "SCNN_TUNE_FILE", "SCNN_POPCOUNT_SCALAR"})
    if (std::getenv(name)) return name;
  return "";
}

int hw_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

namespace {

using nn::EngineConfig;
using nn::EngineKind;

// Serving shape shared by both open-loop workloads: two batch workers with
// one session thread each, plus the generator and the collector = 4 threads.
constexpr int kWorkers = 2;
constexpr int kMaxBatch = 8;
constexpr int kServeThreads = kWorkers + 2;
constexpr double kNnProbeBudgetS = 1.5;
// A core of a shared host can run at half speed for seconds at a time, so an
// untraced run is cut into rounds: each round measures a block and then
// takes set-up (and swap) samples, and every end-to-end metric is a median
// over samples spread across the whole run rather than one stretch of it.
constexpr int kRounds = 10;
constexpr int kSetupReps = 3;      // set-ups before the run (the last one is kept)
constexpr int kSetupPerRound = 2;  // set-up probes after each round
// Calibration images per model. Calibration is a float forward, the part of
// set-up and reload that a busy host slows most, so the set stays small.
constexpr int kCalibImages = 4;

void check_thread_budget(int threads) {
  if (threads > hw_threads())
    throw std::invalid_argument("workload needs " + std::to_string(threads) +
                                " threads but this machine has " +
                                std::to_string(hw_threads()));
}

/// The self-test hook: flip the lowest mantissa bit of one reference logit.
void corrupt(nn::Tensor& ref) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &ref.data()[0], sizeof bits);
  bits ^= 1u;
  std::memcpy(&ref.data()[0], &bits, sizeof bits);
}

struct SessionSetup {
  std::unique_ptr<nn::InferenceSession> session;
  double total_s = 0.0, calibrate_ms = 0.0, engine_ms = 0.0;
};

/// Construct a ready-to-serve session the way the model registry builds a
/// shard: load parameters, construct, calibrate, set the engine.
SessionSetup build_session(nn::Network net, std::span<const float> params,
                           const nn::Tensor& calib, const EngineConfig& cfg) {
  SessionSetup s;
  const auto t0 = Clock::now();
  net.load_parameters(params);
  s.session = std::make_unique<nn::InferenceSession>(std::move(net), 1);
  const auto t1 = Clock::now();
  s.session->calibrate(calib);
  const auto t2 = Clock::now();
  s.session->set_engine(cfg);
  const auto t3 = Clock::now();
  s.total_s = ms_between(t0, t3) / 1e3;
  s.calibrate_ms = ms_between(t1, t2);
  s.engine_ms = ms_between(t2, t3);
  return s;
}

std::string describe_json(const nn::MacEngine::Description& d, const std::string& cfg_json) {
  return "{\"backend\": \"" + d.backend + "\", \"lanes\": " + std::to_string(d.lanes) +
         ", \"sparsity\": \"" + d.sparsity + "\", \"engine_config\": " + cfg_json + "}";
}

std::vector<nn::Tensor> singles(const nn::Tensor& images) {
  std::vector<nn::Tensor> out;
  for (int i = 0; i < images.n(); ++i) out.push_back(nn::batch_slice(images, i, 1));
  return out;
}

/// Reference logits of every image, one direct single-image forward each,
/// on a fresh session with the tenant's parameters and engine.
std::vector<nn::Tensor> single_refs(nn::Network net, std::span<const float> params,
                                    const nn::Tensor& calib, const EngineConfig& cfg,
                                    const std::vector<nn::Tensor>& images) {
  SessionSetup s = build_session(std::move(net), params, calib, cfg);
  std::vector<nn::Tensor> out;
  for (const nn::Tensor& img : images) out.push_back(s.session->forward(img));
  return out;
}

void set_swap_metrics(const SwapVisibility& v, Result& r) {
  r.set("swap.call_us_p50", median(v.call_us), "us");
  r.set("swap.first_run_ms_p50", median(v.first_run_ms), "ms");
}

void set_failure_metrics(Result& r) {
  for (const char* cause : {"queue_full", "shed", "timed_out", "error", "mismatch"}) {
    const auto it = r.failures.find(cause);
    r.set(std::string("serve.failed.") + cause, it == r.failures.end() ? 0.0 : it->second,
          "count");
  }
}

/// Latency metrics of open-loop records: all verified requests, and the
/// high class (every request when the workload has one class).
void set_latency_metrics(const std::vector<Record>& recs, Result& r) {
  std::vector<double> all, high;
  bool has_high = false;
  for (const Record& rec : recs) has_high |= rec.priority == 0;
  for (const Record& rec : recs) {
    if (!rec.match) continue;
    all.push_back(rec.latency_ms());
    if (!has_high || rec.priority == 0) high.push_back(rec.latency_ms());
  }
  r.set("latency_ms_p50", quantile(all, 0.5), "ms");
  r.set("latency_ms_p99", quantile(all, 0.99), "ms");
  r.set("latency_ms_p99_high", quantile(high, 0.99), "ms");
}

void set_batch_metrics(const std::vector<Record>& recs, Result& r) {
  std::vector<double> run_ms;
  for (const BatchSample& b : distinct_batches(recs)) run_ms.push_back(b.run_us / 1e3);
  r.set("batch_ms_p50", quantile(run_ms, 0.5), "ms");
  r.set("batch_ms_p90", quantile(run_ms, 0.9), "ms");
}

double served_per_s(const PhaseOutcome& p) {
  std::uint64_t ok = 0;
  for (const Record& rec : p.records) ok += rec.match;
  return p.duration_s > 0 ? static_cast<double>(ok) / p.duration_s : 0.0;
}

PhaseOutcome merge(const std::vector<PhaseOutcome>& parts) {
  PhaseOutcome out;
  for (const PhaseOutcome& p : parts) {
    out.records.insert(out.records.end(), p.records.begin(), p.records.end());
    out.swaps.insert(out.swaps.end(), p.swaps.begin(), p.swaps.end());
    out.duration_s += p.duration_s;
  }
  return out;
}

/// The open-loop end-to-end metrics as medians over blocks, each pooling
/// `rounds_per_block` consecutive rounds. A slow stretch of the host then
/// spoils one block's tail rather than the run's.
void set_open_loop_metrics(const std::vector<PhaseOutcome>& rounds, std::size_t rounds_per_block,
                           Result& r) {
  std::map<std::string, std::vector<double>> values;
  Result one;
  for (std::size_t b = 0; b < rounds.size(); b += rounds_per_block) {
    const auto first = rounds.begin() + static_cast<std::ptrdiff_t>(b);
    const PhaseOutcome block = merge(std::vector<PhaseOutcome>(
        first, first + static_cast<std::ptrdiff_t>(std::min(rounds_per_block, rounds.size() - b))));
    set_batch_metrics(block.records, one);
    set_latency_metrics(block.records, one);
    one.set("imgs_per_s", served_per_s(block), "imgs/s");
    for (const auto& [name, m] : one.metrics) values[name].push_back(m.value);
  }
  for (const auto& [name, v] : values) r.set(name, median(v), one.metrics[name].unit);
}

/// The p99 of each window of `window` consecutive samples (none when
/// fewer than `window` remain).
std::vector<double> window_p99s(const std::vector<double>& v, std::size_t window) {
  std::vector<double> out;
  for (std::size_t i = 0; i + window <= v.size(); i += window) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(i);
    out.push_back(quantile(std::vector<double>(first, first + static_cast<std::ptrdiff_t>(window)), 0.99));
  }
  return out;
}

/// The median of the window p99s; the plain p99 of a sample shorter than
/// one window. A host stall of a few milliseconds then spoils the windows it
/// hits, not the statistic: the p99 of a long block sits on the edge of the
/// stall tail and moves with how often the host stalls.
double windowed_p99(const std::vector<double>& v, std::size_t window) {
  const std::vector<double> p99 = window_p99s(v, window);
  return p99.empty() ? quantile(v, 0.99) : median(p99);
}

/// The latency p99s of one-class open-loop rounds as the median over
/// windows of `window` consecutive requests within each round.
void set_windowed_tails(const std::vector<PhaseOutcome>& rounds, std::size_t window, Result& r) {
  std::vector<double> p99;
  for (const PhaseOutcome& round : rounds) {
    std::vector<double> lat;
    for (const Record& rec : round.records)
      if (rec.match) lat.push_back(rec.latency_ms());
    const std::vector<double> w = window_p99s(lat, window);
    p99.insert(p99.end(), w.begin(), w.end());
  }
  r.set("latency_ms_p99", median(p99), "ms");
  r.set("latency_ms_p99_high", median(p99), "ms");
}

double p50_latency(const PhaseOutcome& p) {
  std::vector<double> v;
  for (const Record& rec : p.records)
    if (rec.match) v.push_back(rec.latency_ms());
  return median(v);
}

void set_overhead(double untraced, double traced, Result& r) {
  r.set("trace_overhead_pct", untraced > 0 ? (traced - untraced) / untraced * 100.0 : 0.0,
        "%");
}

void finish_trace(const Options& o, const SpanLog& spans, Result& r) {
  if (o.out_dir.empty()) return;
  r.trace_path = o.out_dir + "/trace-" + o.workload + "-seed" + std::to_string(o.seed) + ".json";
  if (!spans.write(r.trace_path)) {
    r.fail("trace_artifact");
    return;
  }
  std::FILE* f = std::fopen(r.trace_path.c_str(), "rb");
  std::string text;
  if (f) {
    char buf[1 << 16];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) text.append(buf, n);
    std::fclose(f);
  }
  if (const std::string problem = validate_trace(text); !problem.empty()) {
    std::fprintf(stderr, "scbench: invalid trace artifact: %s\n", problem.c_str());
    r.fail("trace_artifact");
  }
}

// ---------------------------------------------------------------------------
// batch-cifar: one caller, closed loop, fixed-size batches through CIFAR-quick.

Result batch_cifar(const Options& o) {
  Result r;
  const int threads = hw_threads();
  check_thread_budget(threads);
  constexpr int kBatch = 16, kBatches = 8;
  const nn::Tensor images = object_images(o.seed, "cifar.images", kBatch * kBatches);
  const nn::Tensor calib = object_images(o.seed, "cifar.calib", kCalibImages);
  const std::vector<float> ckpt[2] = {cifar_checkpoint(o.seed, "cifar.ckpt.a"),
                                      cifar_checkpoint(o.seed, "cifar.ckpt.b")};
  r.input_digest = digest(ckpt[1], digest(ckpt[0], digest(calib, digest(images, 0))));
  const EngineConfig cfg{.kind = EngineKind::kProposed, .n_bits = 8, .accum_bits = 2,
                         .threads = threads};
  std::vector<nn::Tensor> batches;
  for (int b = 0; b < kBatches; ++b) batches.push_back(nn::batch_slice(images, b * kBatch, kBatch));

  // Set-up: the session, ready to serve, several times.
  std::vector<double> setup_s, calib_ms, engine_ms;
  const auto setup_once = [&] {
    SessionSetup s = build_session(nn::make_cifar_net(), ckpt[0], calib, cfg);
    setup_s.push_back(s.total_s);
    calib_ms.push_back(s.calibrate_ms);
    engine_ms.push_back(s.engine_ms);
    return s;
  };
  SessionSetup s;
  for (int rep = 0; rep < kSetupReps; ++rep) s = setup_once();
  nn::InferenceSession& session = *s.session;

  // References: the scalar kernel with dense scheduling.
  EngineConfig ref_cfg = cfg;
  ref_cfg.backend = nn::MacBackend::kScalar;
  ref_cfg.sparsity = nn::Sparsity::kDense;
  std::vector<nn::Tensor> refs;
  {
    SessionSetup ref = build_session(nn::make_cifar_net(), ckpt[0], calib, ref_cfg);
    for (const nn::Tensor& b : batches) refs.push_back(ref.session->forward(b));
  }
  const nn::Tensor ref_b =
      build_session(nn::make_cifar_net(), ckpt[1], calib, ref_cfg).session->forward(batches[0]);
  if (o.corrupt_reference) corrupt(refs[0]);

  r.descriptor = {{"batch", std::to_string(kBatch)},
                  {"batches_in_pool", std::to_string(kBatches)},
                  {"session_threads", std::to_string(threads)},
                  {"loop", "closed, 1 caller"}};
  r.tenants = {{"cifar", describe_json(session.backend(), cfg.to_json())}};

  // The closed loop. A traced run measures its first half untraced and its
  // second half traced; the difference is the tracing overhead.
  SpanLog spans(o.trace);
  SpanLog no_spans(false);
  struct Loop {
    std::vector<double> batch_ms;
    double wall_s = 0.0;
    int images = 0;
  };
  const auto closed_loop = [&](double seconds, SpanLog& log) {
    Loop l;
    const auto start = Clock::now();
    for (std::size_t i = 0; ms_between(start, Clock::now()) < seconds * 1e3; ++i) {
      const std::size_t b = i % batches.size();
      const std::uint64_t id = log.next_id();
      const auto t0 = Clock::now();
      const nn::Tensor logits = session.forward(batches[b]);
      const auto t1 = Clock::now();
      log.record(id, "nn.session.forward", t0, t1, kRowCaller);
      l.batch_ms.push_back(ms_between(t0, t1));
      l.images += kBatch;
      ++r.attempted;
      if (!same_bits(logits, refs[b])) r.fail("mismatch");
    }
    l.wall_s = ms_between(start, Clock::now()) / 1e3;
    return l;
  };
  (void)session.forward(batches[0]);  // lazy weight codes, scratch arenas

  // A checkpoint reload as a caller does it: load, recalibrate, forward.
  // Each probe alternates the two checkpoints and ends on the first.
  constexpr int kReloadsPerRound = 4;
  std::vector<double> visible;
  const auto reload_probe = [&] {
    for (int rep = 0; rep < kReloadsPerRound; ++rep) {
      const int which = (rep + 1) % 2;
      const auto t0 = Clock::now();
      session.network().load_parameters(ckpt[which]);
      session.calibrate(calib);
      const nn::Tensor logits = session.forward(batches[0]);
      visible.push_back(ms_between(t0, Clock::now()));
      ++r.attempted;
      if (!same_bits(logits, which ? ref_b : refs[0])) r.fail("mismatch");
    }
  };

  if (!o.trace) {
    std::map<std::string, std::vector<double>> v;
    for (int round = 0; round < kRounds; ++round) {
      const Loop l = closed_loop(o.seconds / kRounds, no_spans);
      v["imgs_per_s"].push_back(l.images / l.wall_s);
      v["batch_ms_p50"].push_back(quantile(l.batch_ms, 0.5));
      v["batch_ms_p90"].push_back(quantile(l.batch_ms, 0.9));
      v["batch_ms_p99"].push_back(quantile(l.batch_ms, 0.99));
      reload_probe();
      for (int rep = 0; rep < kSetupPerRound; ++rep) (void)setup_once();
    }
    // One caller and no queue: each image's latency is its batch's forward
    // time, the only class is its own high class, and the closed loop's
    // throughput is the highest rate it sustains.
    r.set("setup_s", median(setup_s), "s");
    r.set("imgs_per_s", median(v["imgs_per_s"]), "imgs/s");
    r.set("batch_ms_p50", median(v["batch_ms_p50"]), "ms");
    r.set("batch_ms_p90", median(v["batch_ms_p90"]), "ms");
    r.set("latency_ms_p50", median(v["batch_ms_p50"]), "ms");
    r.set("latency_ms_p99", median(v["batch_ms_p99"]), "ms");
    r.set("latency_ms_p99_high", median(v["batch_ms_p99"]), "ms");
    r.set("max_rate_rps", median(v["imgs_per_s"]), "req/s");
    r.set("swap_visible_ms_p50", median(visible), "ms");
    r.set("rss_peak_mb", rss_peak_mb(), "MiB");
    return r;
  }

  const Loop plain = closed_loop(o.seconds / 2, no_spans);
  const Loop traced = closed_loop(o.seconds / 2, spans);
  set_overhead(quantile(plain.batch_ms, 0.5), quantile(traced.batch_ms, 0.5), r);
  const NnBreakdown nb = probe_nn(session, batches[0], kNnProbeBudgetS, spans);
  report_nn(nb, median(engine_ms), median(calib_ms), r);
  report_serve(PhaseOutcome{}, {}, nullptr, kMaxBatch, r);
  set_swap_metrics(SwapVisibility{}, r);
  finish_trace(o, spans, r);
  return r;
}

// ---------------------------------------------------------------------------
// Serving helpers shared by serve-digits and tenants-swap.

serve::ServerOptions server_options() {
  serve::ServerOptions so;
  so.workers = kWorkers;
  so.session_threads = 1;
  so.max_batch = kMaxBatch;
  return so;
}

/// Construct a server from fresh TenantInits, appending its construction
/// time to `setup_s`.
std::unique_ptr<serve::Server> timed_server(
    const std::function<std::vector<serve::TenantInit>()>& tenants,
    const serve::ServerOptions& so, std::vector<double>& setup_s) {
  std::vector<serve::TenantInit> inits = tenants();
  const auto t0 = Clock::now();
  auto server = std::make_unique<serve::Server>(std::move(inits), so);
  setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  return server;
}

/// kSetupReps timed constructions; the last server is kept.
std::unique_ptr<serve::Server> build_server(
    const std::function<std::vector<serve::TenantInit>()>& tenants,
    const serve::ServerOptions& so, std::vector<double>& setup_s) {
  std::unique_ptr<serve::Server> server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    server = timed_server(tenants, so, setup_s);
  }
  return server;
}

/// kSetupPerRound timed constructions of throwaway servers, taken between
/// rounds while the measured server idles.
void probe_server_setup(const std::function<std::vector<serve::TenantInit>()>& tenants,
                        const serve::ServerOptions& so, std::vector<double>& setup_s) {
  for (int rep = 0; rep < kSetupPerRound; ++rep) (void)timed_server(tenants, so, setup_s);
}

std::vector<std::pair<std::string, std::string>> describe_tenants(const serve::Server& server) {
  std::vector<std::pair<std::string, std::string>> out;
  const serve::ModelRegistry& reg = server.registry();
  for (int i = 0; i < reg.count(); ++i) {
    const auto& engine = reg.options(i).engine;
    out.emplace_back(reg.options(i).name,
                     describe_json(reg.backend(i), engine ? engine->to_json() : "null"));
  }
  return out;
}

/// A swap of `tenant` every `every_s` from `first_s` until `until_s`, each
/// moved to just before the first arrival for that tenant at or after its
/// planned time. swap_visible then measures the server, not how long the
/// next request happened to take to arrive.
std::vector<SwapPlan> swaps_every(double first_s, double every_s, double until_s, int tenant,
                                  std::span<const Arrival> schedule) {
  constexpr double kLeadS = 0.5e-3;
  std::vector<SwapPlan> out;
  for (double t = first_s; t < until_s; t += every_s) {
    const auto next = std::find_if(schedule.begin(), schedule.end(), [&](const Arrival& a) {
      return a.tenant == tenant && a.t_s >= t;
    });
    if (next != schedule.end()) out.push_back({std::max(0.0, next->t_s - kLeadS), tenant});
  }
  return out;
}

/// The nn breakdown on a side session equal to one shard of a tenant.
void nn_probe_for(const std::function<nn::Network()>& factory, std::span<const float> params,
                  const nn::Tensor& calib, const EngineConfig& cfg, const nn::Tensor& batch,
                  SpanLog& spans, Result& r) {
  std::vector<double> calib_ms, engine_ms;
  SessionSetup s;
  for (int rep = 0; rep < 3; ++rep) {
    s = build_session(factory(), params, calib, cfg);
    calib_ms.push_back(s.calibrate_ms);
    engine_ms.push_back(s.engine_ms);
  }
  report_nn(probe_nn(*s.session, batch, kNnProbeBudgetS, spans), median(engine_ms),
            median(calib_ms), r);
}

// ---------------------------------------------------------------------------
// serve-digits: one MNIST tenant, Poisson arrivals, a nominal rate and a
// ladder of fixed absolute rates.

constexpr double kNominalRps = 500.0;
// The limit sits well above the windowed tail of a lightly loaded server
// (about 1.5-5 ms on a 4-vCPU host), so steps fail on queueing, not noise.
constexpr double kLatencyLimitMs = 20.0;
constexpr double kLateShare = 0.1;  // a step is invalid past 10% of the limit
// Fixed absolute rates, 7% apart (well inside max_rate_rps's bound).
constexpr double kLadderRps[] = {1020, 1090, 1160, 1250, 1330, 1430, 1530, 1630, 1750, 1870,
                                 2000, 2140, 2290, 2450, 2620, 2800, 3000, 3210, 3430,
                                 3670, 3930, 4200, 4500, 4810, 5150, 5510, 5900, 6310};
constexpr std::size_t kLadderFirstStart = 10;  // 2000 req/s
// A step below this many under the knee found so far opens each later pass.
constexpr std::size_t kLadderLead = 2;
// A pass whose opening step misses drops this many steps and tries again.
constexpr std::size_t kLadderDrop = 3;
constexpr double kStepS = 0.6;
constexpr int kLadderPasses = 4;
constexpr std::size_t kAbortDepth = 32;
// Time split: 50% at the nominal rate, 10% in swap probes at the nominal
// rate, the rest on the ladder. A nominal block then holds about 1100
// requests, 22 windows of kTailWindow.
constexpr double kNominalShare = 0.5;
constexpr double kProbeShare = 0.1;
// Requests per window of the windowed p99s: about 0.1 s at the nominal rate.
constexpr std::size_t kTailWindow = 50;

Result serve_digits(const Options& o) {
  Result r;
  check_thread_budget(kServeThreads);
  constexpr int kImages = 64;
  const nn::Tensor images = digit_images(o.seed, "digits.images", kImages);
  const nn::Tensor calib = digit_images(o.seed, "digits.calib", kCalibImages);
  const EngineConfig cfg{.kind = EngineKind::kProposed, .n_bits = 8, .threads = 1};
  std::vector<TenantLoad> tenants(1);
  TenantLoad& t = tenants[0];
  t.name = "digits";
  t.ckpts = {mnist_checkpoint(o.seed, "digits.ckpt.a"), mnist_checkpoint(o.seed, "digits.ckpt.b")};
  t.images = singles(images);
  // Each round runs one nominal block and one swap probe; a ladder pass
  // follows every few rounds.
  const double nominal_s = kNominalShare * o.seconds / kRounds;
  const double probe_s = kProbeShare * o.seconds / kRounds;
  std::vector<std::vector<Arrival>> nominal, probe;
  std::vector<std::vector<SwapPlan>> probe_swaps;
  std::uint64_t h = digest(t.ckpts[1], digest(t.ckpts[0], digest(calib, digest(images, 0))));
  for (int b = 0; b < kRounds; ++b) {
    nominal.push_back(poisson_schedule(kNominalRps, nominal_s, kImages, o.seed,
                                       "digits.nominal." + std::to_string(b)));
    probe.push_back(poisson_schedule(kNominalRps, probe_s, kImages, o.seed,
                                     "digits.swap-probe." + std::to_string(b)));
    probe_swaps.push_back(swaps_every(0.025, 0.05, probe_s - 0.02, 0, probe.back()));
    h = digest(probe.back(), digest(nominal.back(), h));
  }
  r.input_digest = h;

  const serve::ServerOptions so = server_options();
  std::vector<double> setup_s;
  const auto inits = [&] {
    std::vector<serve::TenantInit> out(1);
    out[0].options.name = t.name;
    out[0].options.engine = cfg;
    out[0].factory = [] { return nn::make_mnist_net(); };
    out[0].params = t.ckpts[0];
    out[0].calibration = calib;
    return out;
  };
  std::unique_ptr<serve::Server> server = build_server(inits, so, setup_s);

  for (const auto& ck : t.ckpts)
    t.refs.push_back(single_refs(nn::make_mnist_net(), ck, calib, cfg, t.images));
  if (o.corrupt_reference) corrupt(t.refs[0][0]);

  std::string ladder;
  for (const double rps : kLadderRps) ladder += (ladder.empty() ? "" : ",") + std::to_string(static_cast<int>(rps));
  r.descriptor = {{"loop", "open, Poisson, 1 generator + 1 collector"},
                  {"workers", std::to_string(kWorkers)},
                  {"session_threads", "1"},
                  {"max_batch", std::to_string(kMaxBatch)},
                  {"max_delay_us", std::to_string(so.max_delay_us)},
                  {"nominal_rps", std::to_string(static_cast<int>(kNominalRps))},
                  {"ladder_rps", ladder},
                  {"ladder_step_s", std::to_string(kStepS)},
                  {"ladder_passes", std::to_string(kLadderPasses)},
                  {"ladder_first_open_rps", std::to_string(static_cast<int>(kLadderRps[kLadderFirstStart]))},
                  {"ladder_lead_steps", std::to_string(kLadderLead)},
                  {"ladder_drop_steps", std::to_string(kLadderDrop)},
                  {"nominal_share", std::to_string(kNominalShare)},
                  {"latency_p99_window_requests", std::to_string(kTailWindow)},
                  {"latency_limit_ms_p99", std::to_string(kLatencyLimitMs)},
                  {"late_share_of_limit", std::to_string(kLateShare)}};
  r.tenants = describe_tenants(*server);

  std::uint64_t rid = 1;
  SpanLog spans(o.trace);
  SpanLog no_spans(false);

  if (!o.trace) {
    std::vector<PhaseOutcome> nom, sw;
    // The ladder: ascending fixed rates until two steps in a row miss. The
    // knee of an open loop is noisy, so the ladder runs up to kLadderPasses
    // times within its budget and max_rate_rps is the median of the passes
    // that finished with a passing step. A pass the budget cut short, or one
    // in which no step passed (on a host so busy that the generator itself
    // falls behind, every step is invalid), counts only when no pass
    // finished with one.
    // The first pass opens at 2000 req/s and each later one kLadderLead
    // steps below the previous knee; a pass whose opening step misses drops
    // kLadderDrop steps until one passes. Every pass thus climbs through the
    // knee without spending its budget on the rates far below it.
    const double ladder_budget_s = o.seconds - kRounds * (nominal_s + probe_s);
    double ladder_used_s = 0.0;
    std::vector<double> pass_max, partial_max;
    std::size_t open = kLadderFirstStart;
    const auto ladder_pass = [&](int pass) {
      const auto pass_start = Clock::now();
      const auto in_budget = [&] {
        return ladder_used_s + ms_between(pass_start, Clock::now()) / 1e3 < ladder_budget_s;
      };
      if (!in_budget()) return;
      // One step: its served rate when it passes. An invalid step (the
      // generator fell behind) says nothing about the server, so it is run
      // once more before it counts as a miss.
      const auto step = [&](std::size_t k) -> std::optional<double> {
        const auto sched = poisson_schedule(kLadderRps[k], kStepS, kImages, o.seed,
                                            "digits.ladder." + std::to_string(pass) + "." +
                                                std::to_string(k));
        for (int attempt = 0;; ++attempt) {
          const PhaseOutcome phase =
              run_phase(*server, tenants, sched, {}, no_spans, rid, kAbortDepth);
          Result step_r;
          account(phase, step_r);
          account(phase, r);
          std::vector<double> lat, late;
          for (const Record& rec : phase.records) {
            lat.push_back(rec.match ? rec.latency_ms() : 1e9);  // a failure misses the limit
            late.push_back(rec.late_ms());
          }
          // Both p99s are windowed like latency_ms_p99, so a step fails on
          // queueing rather than on a host stall.
          const double p99 = windowed_p99(lat, kTailWindow);
          const double late_p99 = windowed_p99(late, kTailWindow);
          const StepVerdict v =
              judge_step(p99, late_p99, step_r.failed, phase.aborted,
                         phase.queue_depth_end > 2 * kMaxBatch, kLatencyLimitMs, kLateShare);
          std::fprintf(stderr, "scbench: ladder %5.0f req/s  p99 %.3f ms  late p99 %.3f ms  %s\n",
                       kLadderRps[k], p99, late_p99,
                       !v.valid ? "invalid" : v.passed ? "pass" : "fail");
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          if (!v.valid && attempt == 0) continue;
          return v.passed ? std::optional<double>(served_per_s(phase)) : std::nullopt;
        }
      };
      double max_rate = 0.0;
      std::size_t k = open, top = 0;
      bool finished = false;
      for (;; k = k > kLadderDrop ? k - kLadderDrop : 0) {
        if (!in_budget()) break;
        if (const auto served = step(k)) {
          max_rate = *served;
          top = k;
          break;
        }
        if (k == 0) {
          finished = true;  // not even the lowest rate passed
          break;
        }
      }
      int misses = 0;
      for (k = top + 1; max_rate > 0 && !finished && in_budget(); ++k) {
        if (k == std::size(kLadderRps) || misses == 2) {
          finished = true;
          break;
        }
        if (const auto served = step(k)) {
          max_rate = *served;
          top = k;
          misses = 0;
        } else {
          ++misses;
        }
      }
      if (finished && max_rate > 0) {
        pass_max.push_back(max_rate);
        open = top > kLadderLead ? top - kLadderLead : 0;
      } else {
        partial_max.push_back(max_rate);
      }
      ladder_used_s += ms_between(pass_start, Clock::now()) / 1e3;
    };
    for (int round = 0; round < kRounds; ++round) {
      nom.push_back(run_phase(*server, tenants, nominal[round], {}, no_spans, rid));
      account(nom.back(), r);
      sw.push_back(run_phase(*server, tenants, probe[round], probe_swaps[round], no_spans, rid));
      account(sw.back(), r);
      probe_server_setup(inits, so, setup_s);
      // A pass after the 3rd, 5th, 8th and 10th of the 10 rounds.
      const int pass = (round + 1) * kLadderPasses / kRounds;
      if (pass > round * kLadderPasses / kRounds) ladder_pass(pass - 1);
    }

    r.set("setup_s", median(setup_s), "s");
    // One round per block, about 1100 requests each; the p99s over windows
    // of kTailWindow requests (about 0.1 s), since at this rate the tail is
    // wake-ups and host stalls.
    set_open_loop_metrics(nom, 1, r);
    set_windowed_tails(nom, kTailWindow, r);
    r.set("max_rate_rps", median(pass_max.empty() ? partial_max : pass_max), "req/s");
    r.set("swap_visible_ms_p50", median(swap_visibility(merge(sw)).visible_ms), "ms");
    r.set("rss_peak_mb", rss_peak_mb(), "MiB");
    return r;
  }

  // Traced run: half the nominal blocks untraced, half traced, then every
  // swap probe traced; no ladder.
  std::vector<PhaseOutcome> plain, traced, sw;
  for (int b = 0; b < kRounds; ++b) {
    const bool untraced = b < kRounds / 2;
    (untraced ? plain : traced)
        .push_back(run_phase(*server, tenants, nominal[b], {}, untraced ? no_spans : spans, rid));
    account(untraced ? plain.back() : traced.back(), r);
  }
  for (int b = 0; b < kRounds; ++b) {
    sw.push_back(run_phase(*server, tenants, probe[b], probe_swaps[b], spans, rid));
    account(sw.back(), r);
  }
  set_overhead(p50_latency(merge(plain)), p50_latency(merge(traced)), r);
  report_serve(merge(traced), tenants, server.get(), kMaxBatch, r);
  set_swap_metrics(swap_visibility(merge(sw)), r);
  nn_probe_for([] { return nn::make_mnist_net(); }, t.ckpts[0], calib, cfg, nn::batch_slice(images, 0, kMaxBatch),
               spans, r);
  finish_trace(o, spans, r);
  return r;
}

// ---------------------------------------------------------------------------
// tenants-swap: two tenants, on/off bursts, three priority classes, and a
// hot swap of alpha on a fixed cadence.

constexpr double kSparseShare = 0.75;

/// The rate the server sustained inside each on-burst: the burst's verified
/// requests over the time from the burst's start to its last response. A
/// server that keeps up drains a burst just after it ends; a slower one
/// stretches the burst and lowers the rate.
std::vector<double> burst_rates(const PhaseOutcome& p, const BurstShape& shape) {
  std::map<long, std::pair<int, double>> bursts;  // burst -> (served, drained at)
  for (const Record& rec : p.records) {
    if (!rec.match || std::fmod(rec.t_s, shape.period_s) >= shape.on_s) continue;
    const long burst = std::lround(std::floor(rec.t_s / shape.period_s));
    auto& [served, drained] = bursts[burst];
    ++served;
    drained = std::max(drained, rec.t_s + ms_between(rec.due, rec.resolved()) / 1e3 -
                                    static_cast<double>(burst) * shape.period_s);
  }
  std::vector<double> out;
  for (const auto& [burst, b] : bursts) out.push_back(b.first / b.second);
  return out;
}

Result tenants_swap(const Options& o) {
  Result r;
  check_thread_budget(kServeThreads);
  constexpr int kImages = 32;
  const nn::Tensor obj = object_images(o.seed, "alpha.images", kImages);
  const nn::Tensor obj_calib = object_images(o.seed, "alpha.calib", kCalibImages);
  const nn::Tensor dig = digit_images(o.seed, "beta.images", kImages);
  const nn::Tensor dig_calib = digit_images(o.seed, "beta.calib", kCalibImages);
  const EngineConfig alpha_cfg{.kind = EngineKind::kProposed, .n_bits = 8, .threads = 1};
  const EngineConfig beta_cfg{.kind = EngineKind::kFixed, .n_bits = 10, .threads = 1};

  std::vector<TenantLoad> tenants(2);
  TenantLoad& alpha = tenants[0];
  TenantLoad& beta = tenants[1];
  alpha.name = "alpha";
  for (const char* which : {"a", "b"})
    alpha.ckpts.push_back(sparsify_conv_weights(
        nn::make_cifar_net(), cifar_checkpoint(o.seed, std::string("alpha.ckpt.") + which),
        kSparseShare, o.seed, std::string("alpha.mask.") + which));
  alpha.images = singles(obj);
  beta.name = "beta";
  beta.ckpts = {mnist_checkpoint(o.seed, "beta.ckpt")};
  beta.images = singles(dig);

  const BurstShape shape;
  const double block_s = o.seconds / kRounds;
  std::vector<std::vector<Arrival>> blocks;
  std::vector<std::vector<SwapPlan>> swaps;
  std::uint64_t h = digest(obj, digest(dig, digest(obj_calib, digest(dig_calib, 0))));
  for (int b = 0; b < kRounds; ++b) {
    blocks.push_back(burst_schedule(shape, block_s, kImages, o.seed,
                                    "tenants.schedule." + std::to_string(b)));
    // A swap as each on burst begins: both shards' lazy reloads then stall
    // the burst. The requests they delay are several percent of all, and of
    // the high class, so both p99s fall well inside that group rather than
    // on its thin edge, where they would swing from run to run.
    swaps.push_back(swaps_every(shape.period_s, shape.period_s, block_s - shape.period_s, 0,
                                blocks.back()));
    h = digest(blocks.back(), h);
  }
  for (const auto& ck : alpha.ckpts) h = digest(ck, h);
  r.input_digest = digest(beta.ckpts[0], h);

  const serve::ServerOptions so = server_options();
  std::vector<double> setup_s;
  const auto inits = [&] {
    std::vector<serve::TenantInit> out(2);
    out[0].options.name = alpha.name;
    out[0].options.engine = alpha_cfg;
    out[0].factory = [] { return nn::make_cifar_net(); };
    out[0].params = alpha.ckpts[0];
    out[0].calibration = obj_calib;
    out[1].options.name = beta.name;
    out[1].options.engine = beta_cfg;
    out[1].factory = [] { return nn::make_mnist_net(); };
    out[1].params = beta.ckpts[0];
    out[1].calibration = dig_calib;
    return out;
  };
  std::unique_ptr<serve::Server> server = build_server(inits, so, setup_s);

  for (const auto& ck : alpha.ckpts)
    alpha.refs.push_back(single_refs(nn::make_cifar_net(), ck, obj_calib, alpha_cfg, alpha.images));
  beta.refs.push_back(single_refs(nn::make_mnist_net(), beta.ckpts[0], dig_calib, beta_cfg, beta.images));
  if (o.corrupt_reference) corrupt(alpha.refs[0][0]);

  r.descriptor = {{"loop", "open, on/off Poisson bursts, 1 generator + 1 collector"},
                  {"workers", std::to_string(kWorkers)},
                  {"session_threads", "1"},
                  {"max_batch", std::to_string(kMaxBatch)},
                  {"burst_period_s", std::to_string(shape.period_s)},
                  {"burst_on_s", std::to_string(shape.on_s)},
                  {"burst_on_rps", std::to_string(shape.on_rps)},
                  {"burst_off_rps", std::to_string(shape.off_rps)},
                  {"tenant_share", "alpha 0.5, beta 0.5"},
                  {"class_share", "high 0.2, normal 0.5, batch 0.3"},
                  {"alpha_conv_zero_share", std::to_string(kSparseShare)},
                  {"swap_every_s", std::to_string(shape.period_s)}};
  r.tenants = describe_tenants(*server);

  std::uint64_t rid = 1;
  SpanLog spans(o.trace);
  SpanLog no_spans(false);

  if (!o.trace) {
    std::vector<PhaseOutcome> done;
    std::vector<double> on_rate;
    for (int round = 0; round < kRounds; ++round) {
      done.push_back(run_phase(*server, tenants, blocks[round], swaps[round], no_spans, rid));
      account(done.back(), r);
      const std::vector<double> rates = burst_rates(done.back(), shape);
      on_rate.insert(on_rate.end(), rates.begin(), rates.end());
      probe_server_setup(inits, so, setup_s);
    }
    r.set("setup_s", median(setup_s), "s");
    // One block: the tail is the stall after each swap, which the whole
    // run samples best.
    set_open_loop_metrics(done, kRounds, r);
    r.set("max_rate_rps", median(on_rate), "req/s");
    r.set("swap_visible_ms_p50", median(swap_visibility(merge(done)).visible_ms), "ms");
    r.set("rss_peak_mb", rss_peak_mb(), "MiB");
    return r;
  }

  // Traced run: half the blocks untraced, then half traced.
  std::vector<PhaseOutcome> plain, traced;
  for (int b = 0; b < kRounds; ++b) {
    const bool untraced = b < kRounds / 2;
    (untraced ? plain : traced)
        .push_back(run_phase(*server, tenants, blocks[b], swaps[b], untraced ? no_spans : spans, rid));
    account(untraced ? plain.back() : traced.back(), r);
  }
  const PhaseOutcome all_traced = merge(traced);
  set_overhead(p50_latency(merge(plain)), p50_latency(all_traced), r);
  report_serve(all_traced, tenants, server.get(), kMaxBatch, r);
  set_swap_metrics(swap_visibility(all_traced), r);
  nn_probe_for([] { return nn::make_cifar_net(); }, alpha.ckpts[0], obj_calib, alpha_cfg,
               nn::batch_slice(obj, 0, kMaxBatch), spans, r);
  finish_trace(o, spans, r);
  return r;
}

}  // namespace

Result run_workload(const Options& o) {
  Result r;
  if (o.workload == "batch-cifar") {
    r = batch_cifar(o);
  } else if (o.workload == "serve-digits") {
    r = serve_digits(o);
  } else if (o.workload == "tenants-swap") {
    r = tenants_swap(o);
  } else {
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  }
  if (o.trace) set_failure_metrics(r);
  return r;
}

}  // namespace scbench
