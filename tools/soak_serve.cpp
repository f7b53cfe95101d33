// soak_serve — closed+open-loop chaos driver for the serving plane.
//
// Hammers one two-tenant serve::Server ("default" + "canary") with a mix of
// steady traffic, mixed-tenant bursts (including the run's one mid-flight
// hot swap of the canary checkpoint), deadline storms, reject bursts,
// pause/resume flaps, and injected worker exceptions (a ChaosLayer appended
// to every shard's network that throws when armed), while verifying every
// kOk response bit-for-bit against direct InferenceSession::forward on the
// same sample — canary responses against the checkpoint generation their
// epoch names. The run ends with a clean quiesce: 20 default + 10 canary
// probe requests that must all serve kOk bit-exactly (the canary ones on
// the post-swap generation), an on-demand flight dump that must round-trip
// through obs::json, and a drain() that must not rethrow.
//
// Telemetry: a SnapshotLogger appends <prefix>_snapshots.jsonl time series
// during the run, and the final registry + driver counters land in
// BENCH_soak.json for tools/bench_compare.
//
// Usage:
//   soak_serve [--duration-s=20] [--workers=2] [--closed=3] [--open-rps=200]
//              [--capacity=32] [--max-batch=4] [--out-prefix=soak]
//
// Exit status: nonzero on any logits mismatch, an error response that was
// not chaos-injected, a failed clean probe, an unparseable flight dump, or
// a hot swap with no verified post-swap canary response.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic_digits.hpp"
#include "nn/inference_session.hpp"
#include "nn/layer.hpp"
#include "nn/network.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/snapshot_log.hpp"
#include "serve/server.hpp"
#include "tools/cli_args.hpp"

namespace {

using scnn::nn::Tensor;
using scnn::serve::Priority;
using scnn::serve::Response;
using scnn::serve::Server;
using scnn::serve::ServerOptions;
using scnn::serve::Status;
using scnn::serve::Ticket;
using Clock = std::chrono::steady_clock;

/// Armed fault budget: each arm makes exactly one ChaosLayer::forward throw.
std::atomic<int> g_poison_armed{0};
std::atomic<int> g_poison_fired{0};

/// Identity pass-through appended to every shard's network. Bit-neutral when
/// idle; when armed, one forward (so one whole batch) throws — the server
/// must resolve that batch kError and keep the worker alive.
class ChaosLayer final : public scnn::nn::Layer {
 public:
  Tensor forward(const Tensor& x) override {
    int armed = g_poison_armed.load(std::memory_order_relaxed);
    while (armed > 0) {
      if (g_poison_armed.compare_exchange_weak(armed, armed - 1)) {
        g_poison_fired.fetch_add(1, std::memory_order_relaxed);
        throw std::runtime_error("chaos: injected worker fault");
      }
    }
    return x;
  }
  Tensor backward(const Tensor& g) override { return g; }
  [[nodiscard]] std::string name() const override { return "chaos"; }
};

bool bit_identical(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

Priority priority_of(std::uint64_t i) {
  if (i % 4 == 0) return Priority::kHigh;
  if (i % 4 == 3) return Priority::kBatch;
  return Priority::kNormal;
}

/// Outcome tallies shared by every client thread and the ticket reaper.
struct Tally {
  std::atomic<std::uint64_t> submitted{0}, ok{0}, mismatched{0}, shed{0},
      rejected{0}, timed_out{0}, chaos_errors{0}, foreign_errors{0};

  void account(const Response& r, const Tensor& want) {
    switch (r.status) {
      case Status::kOk:
        if (bit_identical(r.logits, want))
          ok.fetch_add(1, std::memory_order_relaxed);
        else
          mismatched.fetch_add(1, std::memory_order_relaxed);
        break;
      case Status::kShed: shed.fetch_add(1, std::memory_order_relaxed); break;
      case Status::kQueueFull:
      case Status::kShutdown:
        rejected.fetch_add(1, std::memory_order_relaxed);
        break;
      case Status::kTimedOut:
        timed_out.fetch_add(1, std::memory_order_relaxed);
        break;
      case Status::kError:
        if (r.error.find("chaos") != std::string::npos)
          chaos_errors.fetch_add(1, std::memory_order_relaxed);
        else
          foreign_errors.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }
};

/// Tickets submitted fire-and-forget (open loop, storms, mixed-tenant
/// bursts) waiting to be resolved and verified off the submission path.
struct ReapQueue {
  struct Item {
    Ticket ticket;
    int idx = 0;        ///< sample index (names the reference logits)
    bool canary = false;  ///< routed to the "canary" tenant (epoch-aware ref)
  };
  std::mutex mu;
  std::deque<Item> pending;
  std::atomic<bool> closed{false};

  void push(Ticket t, int idx, bool canary = false) {
    std::lock_guard<std::mutex> lk(mu);
    pending.push_back(Item{std::move(t), idx, canary});
  }
  bool pop(Item& out) {
    std::lock_guard<std::mutex> lk(mu);
    if (pending.empty()) return false;
    out = std::move(pending.front());
    pending.pop_front();
    return true;
  }
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--duration-s=20] [--workers=2] [--closed=3] "
               "[--open-rps=200] [--capacity=32] [--max-batch=4] "
               "[--out-prefix=soak]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using scnn::cli::ArgError;
  using scnn::cli::Args;

  int duration_s = 20, workers = 2, closed_clients = 3, open_rps = 200;
  int capacity = 32, max_batch = 4;
  std::string out_prefix = "soak";
  try {
    const Args args = Args::parse(argc, argv);
    args.require_known({"duration-s", "workers", "closed", "open-rps", "capacity",
                        "max-batch", "out-prefix"});
    duration_s = args.get_int("duration-s", duration_s);
    workers = args.get_int("workers", workers);
    closed_clients = args.get_int("closed", closed_clients);
    open_rps = args.get_int("open-rps", open_rps);
    capacity = args.get_int("capacity", capacity);
    max_batch = args.get_int("max-batch", max_batch);
    out_prefix = args.get("out-prefix", out_prefix);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "soak_serve: %s\n", e.what());
    return usage(argv[0]);
  }
  if (duration_s < 1 || workers < 1 || closed_clients < 1 || open_rps < 0 ||
      capacity < 2 || max_batch < 1) {
    std::fprintf(stderr, "soak_serve: out-of-range flag value\n");
    return usage(argv[0]);
  }

  // --- fixed workload + bit-exact reference -------------------------------
  const scnn::data::Dataset data =
      scnn::data::make_synthetic_digits({.count = 64, .seed = 7});
  const int n_samples = data.images.n();
  const Tensor calib = scnn::nn::batch_slice(data.images, 0, 16);
  const int img_h = data.images.h();
  const auto factory = [img_h] {
    scnn::nn::Network net = scnn::nn::make_mnist_net(img_h);
    net.add<ChaosLayer>();
    return net;
  };
  const scnn::nn::EngineConfig engine{
      .kind = scnn::nn::EngineKind::kProposed, .n_bits = 8, .threads = 1};

  std::vector<Tensor> samples;
  std::vector<Tensor> reference;
  {
    scnn::nn::InferenceSession session(factory(), /*threads=*/1);
    session.calibrate(calib);
    session.set_engine(engine);
    for (int i = 0; i < n_samples; ++i) {
      samples.push_back(scnn::nn::batch_slice(data.images, i, 1));
      reference.push_back(session.forward(samples.back()));
    }
  }

  // The second tenant ("canary") shares the factory + engine, so its
  // generation-0 reference IS `reference`; generation 1 is a perturbed
  // checkpoint hot-swapped in mid-run, with its own direct-forward reference.
  std::vector<float> canary_v1_params;
  std::vector<Tensor> canary_ref_v1;
  {
    canary_v1_params = factory().save_parameters();
    for (float& v : canary_v1_params) v *= 0.5f;
    scnn::nn::Network net = factory();
    net.load_parameters(canary_v1_params);
    scnn::nn::InferenceSession session(std::move(net), /*threads=*/1);
    session.calibrate(calib);
    session.set_engine(engine);
    for (int i = 0; i < n_samples; ++i)
      canary_ref_v1.push_back(
          session.forward(samples[static_cast<std::size_t>(i)]));
  }

  ServerOptions opts;
  opts.workers = workers;
  opts.session_threads = 1;
  opts.max_batch = max_batch;
  opts.max_delay_us = 200;
  opts.queue_capacity = capacity;
  opts.engine = engine;  // tenants without their own engine inherit this
  opts.flight_dump_prefix = out_prefix + "_flight";
  std::vector<scnn::serve::TenantInit> tenants(2);
  tenants[0].options.name = "default";
  tenants[1].options.name = "canary";
  for (scnn::serve::TenantInit& t : tenants) {
    t.factory = factory;
    t.calibration = calib;
  }
  Server server(std::move(tenants), opts);
  scnn::obs::SnapshotLogger snapshots(server.metrics(),
                                      out_prefix + "_snapshots.jsonl",
                                      /*interval_ms=*/250);

  std::printf("soak_serve: %ds, %d workers, %d closed clients, "
              "%d rps open loop, capacity %d, max_batch %d\n",
              duration_s, workers, closed_clients, open_rps, capacity, max_batch);

  Tally tally;
  ReapQueue reap;
  std::atomic<bool> stop{false};
  std::atomic<int> pause_flaps{0};
  const auto deadline = Clock::now() + std::chrono::seconds(duration_s);

  // --- clients ------------------------------------------------------------
  std::vector<std::thread> threads;

  // Closed loop: submit, wait, verify, repeat. These threads ride through
  // every chaos phase, so they see sheds, rejects, timeouts, and kError.
  for (int c = 0; c < closed_clients; ++c) {
    threads.emplace_back([&, c] {
      std::mt19937_64 rng(0x50a7u + static_cast<std::uint64_t>(c));
      std::uniform_int_distribution<int> pick(0, n_samples - 1);
      for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const int idx = pick(rng);
        tally.submitted.fetch_add(1, std::memory_order_relaxed);
        const Response r =
            server.submit({.input = samples[static_cast<std::size_t>(idx)],
                           .priority = priority_of(i)})
                .get();
        tally.account(r, reference[static_cast<std::size_t>(idx)]);
      }
    });
  }

  // Open loop: fixed-rate fire-and-forget; the reaper thread verifies.
  if (open_rps > 0) {
    threads.emplace_back([&] {
      const auto period = std::chrono::microseconds(1000000 / open_rps);
      std::mt19937_64 rng(0x0be7u);
      std::uniform_int_distribution<int> pick(0, n_samples - 1);
      auto next = Clock::now();
      for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const int idx = pick(rng);
        tally.submitted.fetch_add(1, std::memory_order_relaxed);
        reap.push(server.submit({.input = samples[static_cast<std::size_t>(idx)],
                                 .priority = priority_of(i + 1)}),
                  idx);
        next += period;
        std::this_thread::sleep_until(next);
      }
    });
  }

  // Canary outcomes by generation: post-swap kOk responses (epoch 1) are the
  // proof the hot swap actually took effect mid-run.
  std::atomic<std::uint64_t> canary_ok_old{0}, canary_ok_new{0};

  // Reaper: resolves fire-and-forget tickets off the submission path. A
  // canary ticket verifies against the generation it was ADMITTED under —
  // the response's epoch names the reference.
  std::thread reaper([&] {
    ReapQueue::Item item;
    for (;;) {
      if (!reap.pop(item)) {
        if (reap.closed.load(std::memory_order_relaxed)) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      const Response r = item.ticket.get();
      const std::vector<Tensor>& want_set =
          item.canary && r.epoch > 0 ? canary_ref_v1 : reference;
      tally.account(r, want_set[static_cast<std::size_t>(item.idx)]);
      if (item.canary && r.status == Status::kOk)
        (r.epoch > 0 ? canary_ok_new : canary_ok_old)
            .fetch_add(1, std::memory_order_relaxed);
    }
  });

  // --- chaos controller ---------------------------------------------------
  // Rotates ~500ms phases. Poison sits early in the cycle so even short
  // runs exercise the worker-exception path at least once; the mixed-tenant
  // phase interleaves canary traffic with the steady default load and
  // performs the run's ONE mid-flight hot swap halfway through its first
  // burst (requests admitted before the swap must resolve on generation 0,
  // after it on generation 1 — the reaper verifies against the epoch each
  // response reports).
  enum class Phase {
    kSteady, kPoison, kMixedTenant, kDeadlineStorm, kRejectBurst, kPauseResume
  };
  const Phase cycle[] = {Phase::kSteady,      Phase::kPoison,
                         Phase::kMixedTenant, Phase::kDeadlineStorm,
                         Phase::kRejectBurst, Phase::kPauseResume};
  std::size_t slot = 0;
  bool swapped = false;
  while (Clock::now() < deadline) {
    switch (cycle[slot++ % std::size(cycle)]) {
      case Phase::kSteady:
        std::this_thread::sleep_for(std::chrono::milliseconds(500));
        break;
      case Phase::kPoison:
        g_poison_armed.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(500));
        break;
      case Phase::kMixedTenant:
        // Paced canary burst riding on the steady default traffic; both
        // tenants' batches multiplex over the same workers and rings.
        for (int i = 0; i < capacity && Clock::now() < deadline; ++i) {
          if (i == capacity / 2 && !swapped) {
            swapped = true;  // the one mid-flight swap, canary traffic live
            server.swap("canary", canary_v1_params);
          }
          const int idx = i % n_samples;
          tally.submitted.fetch_add(1, std::memory_order_relaxed);
          reap.push(
              server.submit({.tenant = "canary",
                             .input = samples[static_cast<std::size_t>(idx)],
                             .priority = priority_of(static_cast<std::uint64_t>(i))}),
              idx, /*canary=*/true);
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        break;
      case Phase::kDeadlineStorm:
        // Deadlines far shorter than a batch window: most resolve kTimedOut.
        for (int i = 0; i < 2 * capacity && Clock::now() < deadline; ++i) {
          tally.submitted.fetch_add(1, std::memory_order_relaxed);
          reap.push(
              server.submit(
                  {.input = samples[static_cast<std::size_t>(i % n_samples)],
                   .priority = priority_of(static_cast<std::uint64_t>(i)),
                   .deadline_us = 50}),
              i % n_samples);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        break;
      case Phase::kRejectBurst:
        // Flood far past capacity without pacing: forces sheds + kQueueFull.
        for (int i = 0; i < 4 * capacity; ++i) {
          tally.submitted.fetch_add(1, std::memory_order_relaxed);
          reap.push(
              server.submit(
                  {.input = samples[static_cast<std::size_t>(i % n_samples)],
                   .priority = priority_of(static_cast<std::uint64_t>(i))}),
              i % n_samples);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        break;
      case Phase::kPauseResume:
        server.pause();
        pause_flaps.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        server.resume();
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        break;
    }
  }

  // --- quiesce ------------------------------------------------------------
  stop.store(true);
  for (std::thread& t : threads) t.join();
  reap.closed.store(true);
  reaper.join();                   // every outstanding ticket verified
  g_poison_armed.store(0);         // disarm anything a batch never consumed

  // Clean probes: the server must still serve bit-exactly after the storm —
  // injected exceptions resolved kError without taking a worker down. The
  // canary probes additionally pin the post-swap contract: every one must
  // resolve on generation 1, bit-identical to the NEW checkpoint's direct
  // forward. (A too-short run may end before the mixed-tenant phase; swap
  // now so the post-swap probes always have something to verify.)
  if (!swapped) {
    swapped = true;
    server.swap("canary", canary_v1_params);
  }
  int probes_ok = 0;
  constexpr int kDefaultProbes = 20;
  constexpr int kCanaryProbes = 10;
  constexpr int kProbes = kDefaultProbes + kCanaryProbes;
  for (int i = 0; i < kDefaultProbes; ++i) {
    const int idx = i % n_samples;
    const Response r =
        server.submit({.input = samples[static_cast<std::size_t>(idx)],
                       .priority = Priority::kHigh})
            .get();
    if (r.status == Status::kOk &&
        bit_identical(r.logits, reference[static_cast<std::size_t>(idx)]))
      ++probes_ok;
    else
      std::fprintf(stderr, "soak_serve: probe %d failed: status %s %s\n", i,
                   to_string(r.status).c_str(), r.error.c_str());
  }
  for (int i = 0; i < kCanaryProbes; ++i) {
    const int idx = i % n_samples;
    const Response r =
        server.submit({.tenant = "canary",
                       .input = samples[static_cast<std::size_t>(idx)],
                       .priority = Priority::kHigh})
            .get();
    if (r.status == Status::kOk && r.epoch == 1 &&
        bit_identical(r.logits, canary_ref_v1[static_cast<std::size_t>(idx)])) {
      ++probes_ok;
      canary_ok_new.fetch_add(1, std::memory_order_relaxed);
    } else {
      std::fprintf(stderr,
                   "soak_serve: canary probe %d failed: status %s epoch %llu %s\n",
                   i, to_string(r.status).c_str(),
                   static_cast<unsigned long long>(r.epoch), r.error.c_str());
    }
  }

  // Flight dump must exist and round-trip through the repo's JSON parser.
  const std::string dump_path = out_prefix + "_flight_final.json";
  bool dump_ok = false;
  std::size_t dump_events = 0;
  if (server.dump_flight(dump_path, "soak end-of-run") == dump_path) {
    std::ifstream in(dump_path);
    std::stringstream body;
    body << in.rdbuf();
    const std::optional<scnn::obs::json::Value> doc =
        scnn::obs::json::parse(body.str());
    if (doc && doc->is_object()) {
      const scnn::obs::json::Value* events = doc->find("events");
      if (events && events->is_array() && !events->array.empty()) {
        dump_ok = true;
        dump_events = events->array.size();
      }
    }
  }
  if (!dump_ok)
    std::fprintf(stderr, "soak_serve: flight dump %s missing or unparseable\n",
                 dump_path.c_str());

  snapshots.stop();
  bool drained_clean = true;
  try {
    server.drain();
  } catch (const std::exception& e) {
    drained_clean = false;
    std::fprintf(stderr, "soak_serve: drain rethrew: %s\n", e.what());
  }

  // --- verdict + report ---------------------------------------------------
  const int fired = g_poison_fired.load();
  const std::uint64_t mismatched = tally.mismatched.load();
  const std::uint64_t foreign = tally.foreign_errors.load();
  const std::uint64_t chaos_errors = tally.chaos_errors.load();
  const bool poison_resolved = fired == 0 || chaos_errors > 0;
  // The swap happened (mid-burst or at quiesce) and at least one post-swap
  // canary response verified kOk against the NEW checkpoint.
  const bool swap_verified = swapped && canary_ok_new.load() > 0;

  std::printf("  %-18s %llu\n", "submitted", static_cast<unsigned long long>(tally.submitted.load()));
  std::printf("  %-18s %llu\n", "ok (bit-exact)", static_cast<unsigned long long>(tally.ok.load()));
  std::printf("  %-18s %llu\n", "mismatched", static_cast<unsigned long long>(mismatched));
  std::printf("  %-18s %llu\n", "shed", static_cast<unsigned long long>(tally.shed.load()));
  std::printf("  %-18s %llu\n", "rejected", static_cast<unsigned long long>(tally.rejected.load()));
  std::printf("  %-18s %llu\n", "timed_out", static_cast<unsigned long long>(tally.timed_out.load()));
  std::printf("  %-18s %llu (%d injected)\n", "chaos errors",
              static_cast<unsigned long long>(chaos_errors), fired);
  std::printf("  %-18s %llu\n", "foreign errors", static_cast<unsigned long long>(foreign));
  std::printf("  %-18s %d\n", "pause flaps", pause_flaps.load());
  std::printf("  %-18s %llu old gen, %llu new gen (swap %s)\n", "canary ok",
              static_cast<unsigned long long>(canary_ok_old.load()),
              static_cast<unsigned long long>(canary_ok_new.load()),
              swap_verified ? "verified" : "NOT VERIFIED");
  std::printf("  %-18s %d/%d\n", "clean probes", probes_ok, kProbes);
  std::printf("  %-18s %s (%zu events)\n", "flight dump",
              dump_ok ? dump_path.c_str() : "FAILED", dump_events);

  scnn::obs::JsonReport report = scnn::obs::stamped_report("soak");
  report.set_meta("duration_s", static_cast<double>(duration_s));
  report.set_meta("workers", static_cast<double>(workers));
  report.set_meta("closed_clients", static_cast<double>(closed_clients));
  report.set_meta("open_rps", static_cast<double>(open_rps));
  report.set_meta("queue_capacity", static_cast<double>(capacity));
  report.add_metric("soak.submitted", static_cast<double>(tally.submitted.load()), "requests");
  report.add_metric("soak.ok", static_cast<double>(tally.ok.load()), "requests");
  report.add_metric("soak.mismatched", static_cast<double>(mismatched), "requests");
  report.add_metric("soak.shed", static_cast<double>(tally.shed.load()), "requests");
  report.add_metric("soak.rejected", static_cast<double>(tally.rejected.load()), "requests");
  report.add_metric("soak.timed_out", static_cast<double>(tally.timed_out.load()), "requests");
  report.add_metric("soak.chaos_errors", static_cast<double>(chaos_errors), "requests");
  report.add_metric("soak.poison_fired", static_cast<double>(fired), "faults");
  report.add_metric("soak.pause_flaps", static_cast<double>(pause_flaps.load()), "count");
  report.add_metric("soak.probes_ok", static_cast<double>(probes_ok), "probes");
  report.add_metric("soak.canary_ok_old", static_cast<double>(canary_ok_old.load()), "requests");
  report.add_metric("soak.canary_ok_new", static_cast<double>(canary_ok_new.load()), "requests");
  report.add_metric("soak.swaps", swapped ? 1.0 : 0.0, "swaps");
  scnn::obs::append_registry(server.metrics(), report);
  (void)report.write_file();  // prints the written path itself

  const bool pass = mismatched == 0 && foreign == 0 && poison_resolved &&
                    probes_ok == kProbes && dump_ok && drained_clean &&
                    swap_verified;
  std::printf("soak_serve: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
