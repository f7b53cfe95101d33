// Serving throughput: micro-batched vs unbatched admission, same traffic.
//
//   build/bench/bench_serve [--requests=N] [--concurrency=C] [--max-batch=B]
//                           [--quick] [--assert-speedup]
//
// A closed-loop load of C client threads drives serve::Server over the same
// synthetic-digit inputs in three configurations: max_batch=1 (every request
// its own forward), max_batch=B (adaptive micro-batching), and the same
// batched load with the flight recorder off. The run FAILS (exit 1) if any
// served response is not kOk or its logits are not bit-identical to a direct
// single-request InferenceSession::forward of the same input: batching may
// never change the arithmetic. Throughput, latency percentiles, and the
// batched/unbatched ratio are reported and written to BENCH_serve.json.
//
// With --assert-speedup the run additionally fails unless batching is >= 2x
// unbatched throughput at concurrency 8; like bench_parallel_inference, the
// assertion needs real cores to be meaningful, so it is skipped — loudly —
// below 4 hardware threads.
// --quick shrinks the load for the ctest smoke label.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/table.hpp"
#include "data/synthetic_digits.hpp"
#include "nn/inference_session.hpp"
#include "nn/network.hpp"
#include "obs/report.hpp"
#include "serve/server.hpp"

namespace {

using scnn::nn::EngineConfig;
using scnn::nn::EngineKind;
using scnn::nn::Tensor;
using scnn::serve::Response;
using scnn::serve::Server;
using scnn::serve::ServerOptions;
using scnn::serve::Status;

constexpr int kImages = 32;

EngineConfig bench_engine() {
  return {.kind = EngineKind::kProposed, .n_bits = 8, .threads = 1};
}

struct RunResult {
  double wall_s = 0.0;
  double throughput_rps = 0.0;
  int ok = 0;
  int not_ok = 0;
  int mismatched = 0;
  double p50_us = 0.0, p95_us = 0.0, max_us = 0.0;
  double mean_batch = 0.0;
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

RunResult run_config(const char* label, int max_batch, int requests, int concurrency,
                     int session_threads, bool flight_recorder,
                     const scnn::data::Dataset& data, const Tensor& calib,
                     const std::vector<Tensor>& reference,
                     scnn::obs::JsonReport* registry_sink) {
  ServerOptions opts;
  opts.workers = 1;
  opts.session_threads = session_threads;
  opts.max_batch = max_batch;
  opts.max_delay_us = 1000;
  opts.queue_capacity = std::max(64, 4 * concurrency);
  opts.engine = bench_engine();
  opts.flight_recorder = flight_recorder;
  Server server([&] { return scnn::nn::make_mnist_net(data.images.h()); }, opts,
                /*params=*/{}, &calib);

  std::atomic<int> next{0};
  RunResult result;
  std::mutex result_mu;
  std::vector<double> latencies;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < concurrency; ++c) {
    clients.emplace_back([&] {
      std::vector<double> local_lat;
      int local_ok = 0, local_not_ok = 0, local_mismatched = 0;
      for (;;) {
        const int id = next.fetch_add(1);
        if (id >= requests) break;
        const int img = id % kImages;
        Response r =
            server.submit({.input = scnn::nn::batch_slice(data.images, img, 1)})
                .get();
        if (r.status != Status::kOk) {
          ++local_not_ok;
          continue;
        }
        ++local_ok;
        local_lat.push_back(r.total_us);
        const Tensor& ref = reference[static_cast<std::size_t>(img)];
        if (!ref.same_shape(r.logits) ||
            std::memcmp(ref.data().data(), r.logits.data().data(),
                        ref.size() * sizeof(float)) != 0)
          ++local_mismatched;
      }
      std::lock_guard<std::mutex> lk(result_mu);
      result.ok += local_ok;
      result.not_ok += local_not_ok;
      result.mismatched += local_mismatched;
      latencies.insert(latencies.end(), local_lat.begin(), local_lat.end());
    });
  }
  for (std::thread& t : clients) t.join();
  const auto t1 = std::chrono::steady_clock::now();
  result.wall_s = std::chrono::duration<double>(t1 - t0).count();
  result.throughput_rps =
      result.wall_s > 0.0 ? static_cast<double>(result.ok) / result.wall_s : 0.0;
  std::sort(latencies.begin(), latencies.end());
  result.p50_us = percentile(latencies, 0.50);
  result.p95_us = percentile(latencies, 0.95);
  result.max_us = latencies.empty() ? 0.0 : latencies.back();
  result.mean_batch =
      server.metrics().latency_histogram("serve.batch_size").snapshot().mean();
  if (registry_sink) {
    registry_sink->set_meta(std::string(label) + ".max_batch",
                            static_cast<double>(max_batch));
    scnn::obs::append_registry(server.metrics(), *registry_sink);
  }
  server.drain();
  return result;
}

EngineConfig tenant_beta_engine() {
  return {.kind = EngineKind::kFixed, .n_bits = 10, .threads = 1};
}

/// Two tenants with different arithmetic (proposed 8-bit vs fixed 10-bit)
/// multiplexed over one worker pool and admission queue — the multi-tenant
/// trajectory rows. Each tenant's responses are gated bit-exact against its
/// OWN direct single-session forward; a cross-tenant leak would show up as a
/// mismatch immediately.
void run_multi_tenant(int requests, int concurrency, int session_threads,
                      int max_batch, const scnn::data::Dataset& data,
                      const Tensor& calib,
                      const std::vector<Tensor>& alpha_ref,
                      const std::vector<Tensor>& beta_ref,
                      scnn::obs::JsonReport& report, scnn::common::Table& table,
                      bool& failed) {
  using scnn::serve::TenantInit;
  ServerOptions opts;
  opts.workers = 2;
  opts.session_threads = session_threads;
  opts.max_batch = max_batch;
  opts.max_delay_us = 1000;
  opts.queue_capacity = std::max(64, 4 * concurrency);
  std::vector<TenantInit> tenants(2);
  tenants[0].options.name = "alpha";
  tenants[0].options.engine = bench_engine();
  tenants[1].options.name = "beta";
  tenants[1].options.engine = tenant_beta_engine();
  for (TenantInit& t : tenants) {
    t.factory = [&data] { return scnn::nn::make_mnist_net(data.images.h()); };
    t.calibration = calib;
  }
  Server server(std::move(tenants), opts);

  std::atomic<int> next{0};
  RunResult per_tenant[2];
  std::mutex result_mu;
  std::vector<double> latencies[2];
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < concurrency; ++c) {
    clients.emplace_back([&] {
      std::vector<double> local_lat[2];
      int local_ok[2] = {0, 0}, local_not_ok[2] = {0, 0},
          local_mismatched[2] = {0, 0};
      for (;;) {
        const int id = next.fetch_add(1);
        if (id >= requests) break;
        const int which = id % 2;
        const int img = id % kImages;
        Response r = server
                         .submit({.tenant = which ? "beta" : "alpha",
                                  .input = scnn::nn::batch_slice(data.images, img, 1)})
                         .get();
        if (r.status != Status::kOk) {
          ++local_not_ok[which];
          continue;
        }
        ++local_ok[which];
        local_lat[which].push_back(r.total_us);
        const Tensor& ref = (which ? beta_ref : alpha_ref)[static_cast<std::size_t>(img)];
        if (!ref.same_shape(r.logits) ||
            std::memcmp(ref.data().data(), r.logits.data().data(),
                        ref.size() * sizeof(float)) != 0)
          ++local_mismatched[which];
      }
      std::lock_guard<std::mutex> lk(result_mu);
      for (int w = 0; w < 2; ++w) {
        per_tenant[w].ok += local_ok[w];
        per_tenant[w].not_ok += local_not_ok[w];
        per_tenant[w].mismatched += local_mismatched[w];
        latencies[w].insert(latencies[w].end(), local_lat[w].begin(),
                            local_lat[w].end());
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_s = std::chrono::duration<double>(t1 - t0).count();

  const char* names[2] = {"alpha (proposed-8)", "beta (fixed-10)"};
  const char* keys[2] = {"alpha", "beta"};
  double total_rps = 0.0;
  for (int w = 0; w < 2; ++w) {
    RunResult& r = per_tenant[w];
    r.wall_s = wall_s;
    r.throughput_rps = wall_s > 0.0 ? static_cast<double>(r.ok) / wall_s : 0.0;
    total_rps += r.throughput_rps;
    std::sort(latencies[w].begin(), latencies[w].end());
    r.p50_us = percentile(latencies[w], 0.50);
    r.p95_us = percentile(latencies[w], 0.95);
    r.max_us = latencies[w].empty() ? 0.0 : latencies[w].back();
    table.add_row({(std::string("tenant ") + names[w]).c_str(),
                   std::to_string(r.ok),
                   scnn::common::Table::fmt(r.throughput_rps, 1), "-",
                   scnn::common::Table::fmt(r.p50_us, 0),
                   scnn::common::Table::fmt(r.p95_us, 0),
                   scnn::common::Table::fmt(r.max_us, 0)});
    report.add_metric(std::string("multi_tenant.") + keys[w] + ".throughput_rps",
                      r.throughput_rps, "req/s");
    report.add_metric(std::string("multi_tenant.") + keys[w] + ".p95_us",
                      r.p95_us, "us");
    const int expected = (requests + 1 - w) / 2;  // alpha takes the odd one out
    if (r.ok != expected || r.not_ok != 0) {
      std::printf("FAIL: tenant %s served %d/%d requests ok (%d not ok)\n",
                  keys[w], r.ok, expected, r.not_ok);
      failed = true;
    }
    if (r.mismatched != 0) {
      std::printf("FAIL: tenant %s returned %d responses not bit-identical to "
                  "its own direct forward\n", keys[w], r.mismatched);
      failed = true;
    }
  }
  report.add_metric("multi_tenant.total_rps", total_rps, "req/s");
}

}  // namespace

int main(int argc, char** argv) {
  int requests = 400, concurrency = 8, max_batch = 8;
  bool quick = false, assert_speedup = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--requests=", 0) == 0) requests = std::stoi(arg.substr(11));
    if (arg.rfind("--concurrency=", 0) == 0) concurrency = std::stoi(arg.substr(14));
    if (arg.rfind("--max-batch=", 0) == 0) max_batch = std::stoi(arg.substr(12));
    if (arg == "--quick") quick = true;
    if (arg == "--assert-speedup") assert_speedup = true;
  }
  if (quick) requests = std::min(requests, 64);
  const unsigned hw = std::thread::hardware_concurrency();
  const int session_threads = hw >= 4 ? 4 : 1;
  std::printf("serve bench: %d requests, concurrency %d, batched max_batch %d, "
              "%u hardware threads, %d session threads\n",
              requests, concurrency, max_batch, hw, session_threads);

  const auto data = scnn::data::make_synthetic_digits({.count = kImages, .seed = 7});
  const Tensor calib = scnn::nn::batch_slice(data.images, 0, 16);

  // Direct single-request reference: same factory weights, same calibration,
  // same engine — what every served logit must equal bit-for-bit.
  std::vector<Tensor> reference;
  {
    scnn::nn::InferenceSession session(scnn::nn::make_mnist_net(data.images.h()),
                                       /*threads=*/1);
    session.calibrate(calib);
    session.set_engine(bench_engine());
    for (int i = 0; i < kImages; ++i)
      reference.push_back(session.forward(scnn::nn::batch_slice(data.images, i, 1)));
  }

  scnn::obs::JsonReport report = scnn::obs::stamped_report("serve");
  scnn::nn::stamp_engine_meta(report, bench_engine());
  report.set_meta("requests", static_cast<double>(requests));
  report.set_meta("concurrency", static_cast<double>(concurrency));

  const RunResult unbatched = run_config("unbatched", 1, requests, concurrency,
                                         session_threads, /*flight_recorder=*/true,
                                         data, calib, reference, nullptr);
  const RunResult batched = run_config("batched", max_batch, requests, concurrency,
                                       session_threads, /*flight_recorder=*/true,
                                       data, calib, reference, &report);
  // Flight-recorder cost: the same batched load with the forensic ring off.
  // The recorder is on by default in production, so its overhead is part of
  // the serving trajectory — measured here, printed, and gated (<2%) in the
  // acceptance sense: a recorder that costs real throughput is a bug.
  const RunResult no_flight = run_config("batched_no_flight", max_batch, requests,
                                         concurrency, session_threads,
                                         /*flight_recorder=*/false,
                                         data, calib, reference, nullptr);

  scnn::common::Table t({"config", "ok", "req/s", "mean batch", "p50 us", "p95 us",
                         "max us"});
  const auto add = [&t](const char* name, const RunResult& r) {
    t.add_row({name, std::to_string(r.ok), scnn::common::Table::fmt(r.throughput_rps, 1),
               scnn::common::Table::fmt(r.mean_batch, 2),
               scnn::common::Table::fmt(r.p50_us, 0),
               scnn::common::Table::fmt(r.p95_us, 0),
               scnn::common::Table::fmt(r.max_us, 0)});
  };
  add("max_batch=1", unbatched);
  add(("max_batch=" + std::to_string(max_batch)).c_str(), batched);
  add("batched, flight off", no_flight);

  // The multi-tenant rows: the same closed loop split across two tenants
  // with different arithmetic, bit-exactness gated per tenant.
  std::vector<Tensor> beta_reference;
  {
    scnn::nn::InferenceSession session(scnn::nn::make_mnist_net(data.images.h()),
                                       /*threads=*/1);
    session.calibrate(calib);
    session.set_engine(tenant_beta_engine());
    for (int i = 0; i < kImages; ++i)
      beta_reference.push_back(
          session.forward(scnn::nn::batch_slice(data.images, i, 1)));
  }
  bool mt_failed = false;
  run_multi_tenant(requests, concurrency, session_threads, max_batch, data,
                   calib, reference, beta_reference, report, t, mt_failed);
  t.print(std::cout);

  const double speedup = unbatched.throughput_rps > 0.0
                             ? batched.throughput_rps / unbatched.throughput_rps
                             : 0.0;
  std::printf("batched throughput = %.2fx unbatched\n", speedup);
  const double flight_overhead_pct =
      no_flight.throughput_rps > 0.0
          ? (1.0 - batched.throughput_rps / no_flight.throughput_rps) * 100.0
          : 0.0;
  std::printf("flight recorder overhead: %.2f%% (on %.1f req/s vs off %.1f req/s, "
              "budget < 2%%)\n",
              flight_overhead_pct, batched.throughput_rps, no_flight.throughput_rps);

  report.add_metric("unbatched.throughput_rps", unbatched.throughput_rps, "req/s");
  report.add_metric("batched.throughput_rps", batched.throughput_rps, "req/s");
  report.add_metric("batched.mean_batch", batched.mean_batch, "requests");
  report.add_metric("unbatched.p95_us", unbatched.p95_us, "us");
  report.add_metric("batched.p95_us", batched.p95_us, "us");
  report.add_metric("speedup", speedup, "x");
  report.add_metric("flight_recorder.overhead_pct", flight_overhead_pct, "pct");
  report.write_file("BENCH_serve.json");

  bool failed = mt_failed;
  const auto check = [&](const char* name, const RunResult& r) {
    if (r.ok != requests || r.not_ok != 0) {
      std::printf("FAIL: %s served %d/%d requests ok (%d not ok)\n", name, r.ok,
                  requests, r.not_ok);
      failed = true;
    }
    if (r.mismatched != 0) {
      std::printf("FAIL: %s returned %d responses not bit-identical to the direct "
                  "single-request forward\n", name, r.mismatched);
      failed = true;
    }
  };
  check("unbatched", unbatched);
  check("batched", batched);
  check("batched, flight off", no_flight);
  if (failed) return 1;
  std::printf("all served logits bit-identical to direct InferenceSession::forward\n");

  if (assert_speedup && quick) {
    std::printf("SKIP speedup assertions under --quick: the shrunk load is not a "
                "meaningful throughput measurement\n");
  } else if (assert_speedup) {
    if (hw < 4) {
      std::printf("SKIP speedup assertions: only %u hardware threads (batching wins "
                  "by sharding big batches over >= 4 session threads)\n", hw);
    } else {
      if (speedup < 2.0) {
        std::printf("FAIL: batched throughput %.2fx < 2x unbatched at concurrency %d\n",
                    speedup, concurrency);
        return 1;
      }
      std::printf("PASS: batched throughput >= 2x unbatched\n");
    }
  }
  return 0;
}
