// scnn_cli — command-line front end for the library.
//
//   scnn_cli gen    <digits|objects> [--count=N] [--out=DIR]
//   scnn_cli train  <digits|objects> [--epochs=E] [--ckpt=FILE] [--threads=T]
//   scnn_cli eval   [digits|objects] [--ckpt=FILE] [--bits=N] [--accum=A]
//                   [--engine=fixed|sc-lfsr|proposed] [--threads=T] [--count=N]
//   scnn_cli sweep  [digits|objects] [--ckpt=FILE] [--nmin=N] [--nmax=N] [--threads=T]
//   scnn_cli stats  [digits|objects] [--ckpt=FILE] [--bits=N] [--accum=A]
//                   [--engine=...] [--threads=T] [--count=N] [--bit-parallel=B]
//                   [--trace-out=FILE]
//   scnn_cli serve  [digits|objects] [--ckpt=FILE] [--bits=N] [--accum=A]
//                   [--engine=...] [--tenants=FILE] [--requests=N]
//                   [--concurrency=C] [--max-batch=B] [--max-delay-us=U]
//                   [--queue-cap=Q] [--priority=high|normal|batch|mixed]
//                   [--workers=W]
//                   [--session-threads=T] [--deadline-us=D] [--count=N]
//                   [--trace-out=FILE] [--dump-flight=FILE]
//                   [--metrics-interval-ms=M]
//   scnn_cli info
//
// `serve` stands up the batched serving runtime (serve::Server) over the
// checkpoint and drives it with a closed-loop load of C client threads.
// --tenants=FILE loads a multi-model deployment instead: the file is one
// ServerOptions JSON document (server knobs + default engine + a `tenants`
// array of {name, checkpoint, shards, engine}), requests rotate round-robin
// over the tenant table, and the metrics registry gains serve.<tenant>.*
// rows. The runtime
// prints a latency/throughput table (client-side and server-side quantiles)
// plus the serving metrics, and exits non-zero if any admitted request is
// lost (see docs/SERVING.md). --trace-out exports the per-request span tree,
// --dump-flight the forensic event ring, and --metrics-interval-ms appends a
// JSON-lines metrics time series (see docs/OBSERVABILITY.md).
//
// `stats` runs one instrumented forward pass and emits the per-layer table,
// a BENCH-shaped JSON metrics snapshot (--metrics-out, default
// scnn_metrics.json), and a chrome://tracing timeline (--trace-out, default
// scnn_trace.json). Every command accepts --metrics-out=FILE.
//
// Legacy positional forms (eval <task> <ckpt> <N> [kind], ...) still parse;
// flags win over positionals. `eval` trains a quick model on the fly when
// the checkpoint is missing, so it works end to end out of the box.
//
// Datasets are synthetic unless real MNIST/CIFAR-10 files are present under
// $SCNN_DATA_DIR (see README).
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/cpu_features.hpp"
#include "common/table.hpp"
#include "data/image_io.hpp"
#include "nn/mac_backends/mac_backends.hpp"
#include "data/idx_loader.hpp"
#include "data/synthetic_digits.hpp"
#include "data/synthetic_objects.hpp"
#include "nn/inference_session.hpp"
#include "nn/network.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/snapshot_log.hpp"
#include "serve/server.hpp"
#include "tools/cli_args.hpp"

#include <memory>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

namespace {

using scnn::cli::Args;
using scnn::data::Dataset;
using scnn::nn::EngineConfig;
using scnn::nn::EngineKind;
using scnn::nn::InferenceSession;

constexpr const char* kDefaultCkpt = "scnn_ckpt.bin";

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  scnn_cli gen    <digits|objects> [--count=N] [--out=DIR]\n"
      "  scnn_cli train  <digits|objects> [--epochs=E] [--ckpt=FILE] [--threads=T]\n"
      "  scnn_cli eval   [digits|objects] [--ckpt=FILE] [--bits=N] [--accum=A]\n"
      "                  [--engine=fixed|sc-lfsr|proposed] [--backend=auto|scalar|simd]\n"
      "                  [--sparsity=auto|dense|zero-skip] [--threads=T] [--count=N]\n"
      "  scnn_cli sweep  [digits|objects] [--ckpt=FILE] [--nmin=N] [--nmax=N]\n"
      "                  [--backend=auto|scalar|simd] [--sparsity=...] [--threads=T]\n"
      "  scnn_cli stats  [digits|objects] [--ckpt=FILE] [--bits=N] [--accum=A]\n"
      "                  [--engine=fixed|sc-lfsr|proposed] [--backend=auto|scalar|simd]\n"
      "                  [--sparsity=auto|dense|zero-skip] [--threads=T] [--count=N]\n"
      "                  [--bit-parallel=B] [--trace-out=FILE]\n"
      "  scnn_cli serve  [digits|objects] [--ckpt=FILE] [--bits=N] [--accum=A]\n"
      "                  [--engine=fixed|sc-lfsr|proposed] [--backend=auto|scalar|simd]\n"
      "                  [--sparsity=auto|dense|zero-skip] [--engine-config=JSON]\n"
      "                  [--requests=N] [--concurrency=C] [--max-batch=B]\n"
      "                  [--max-delay-us=U] [--queue-cap=Q] [--workers=W]\n"
      "                  [--session-threads=T] [--deadline-us=D] [--count=N]\n"
      "                  [--trace-out=FILE] [--dump-flight=FILE]\n"
      "                  [--metrics-interval-ms=M]\n"
      "  scnn_cli info\n"
      "flags take the form --key=value; --threads=0 uses every hardware thread\n"
      "every command accepts --metrics-out=FILE to dump a JSON metrics snapshot\n"
      "--backend selects the mac_rows kernel and --sparsity the weight-code\n"
      "schedule (zero-skip skips k=0 products; bit-identical results either way);\n"
      "serve's --engine-config takes EngineConfig::to_json() output and excludes\n"
      "the individual --engine/--bits/--accum/--backend/--sparsity flags\n"
      "serve observability: --trace-out exports the per-request span tree\n"
      "(chrome://tracing JSON), --dump-flight writes the forensic event ring,\n"
      "and --metrics-interval-ms appends a JSON-lines metrics time series to\n"
      "<metrics-out>.jsonl (scnn_serve_metrics.jsonl without --metrics-out)\n");
  return 2;
}

/// Honor --metrics-out on any command: write a stamped BENCH-shaped JSON
/// snapshot (provenance + engine meta + the session's merged registry, when
/// a session exists). No-op when the flag is absent.
void write_metrics_out(const Args& args, const std::string& command,
                       InferenceSession* session) {
  const std::string path = args.get("metrics-out", "");
  if (path.empty()) return;
  scnn::obs::JsonReport report = scnn::obs::stamped_report("scnn_cli_" + command);
  report.set_meta("command", command);
  if (session) {
    if (session->config()) {
      // The engine overload stamps the backend the live engine actually
      // dispatches to, not just what the config requested.
      if (session->engine())
        scnn::nn::stamp_engine_meta(report, *session->config(), *session->engine());
      else
        scnn::nn::stamp_engine_meta(report, *session->config());
    }
    scnn::obs::append_registry(session->metrics(), report);
  }
  report.write_file(path);
}

bool is_digits(const std::string& task) { return task == "digits"; }

std::string parse_task(const Args& args, std::size_t positional_index,
                       const std::string& fallback = "digits") {
  const std::string task =
      args.get("task", args.positional(positional_index, fallback));
  if (task != "digits" && task != "objects")
    throw scnn::cli::ArgError("unknown task '" + task +
                              "' (expected digits or objects)");
  return task;
}

Dataset make_data(const std::string& task, int count, std::uint64_t seed) {
  const char* env = std::getenv("SCNN_DATA_DIR");
  const std::string dir = env ? env : "data";
  if (is_digits(task)) {
    if (auto real = scnn::data::try_load_mnist(dir, seed == 1))
      return scnn::data::take(scnn::data::shuffled(*real, seed), count);
    return scnn::data::make_synthetic_digits({.count = count, .seed = seed});
  }
  if (auto real = scnn::data::try_load_cifar10(dir, seed == 1))
    return scnn::data::take(scnn::data::shuffled(*real, seed), count);
  return scnn::data::make_synthetic_objects({.count = count, .seed = seed});
}

scnn::nn::Network make_net(const std::string& task) {
  return is_digits(task) ? scnn::nn::make_mnist_net() : scnn::nn::make_cifar_net();
}

void train_into(scnn::nn::Network& net, const std::string& task, int epochs,
                const std::string& ckpt) {
  const Dataset train = make_data(task, is_digits(task) ? 1200 : 800, 1);
  const Dataset test = make_data(task, 300, 2);
  scnn::nn::SgdTrainer trainer({.epochs = epochs, .batch_size = 25,
                                .learning_rate = 0.01f, .lr_decay = 0.9f,
                                .verbose = true});
  trainer.train(net, train.images, train.labels);
  std::printf("float test accuracy: %.3f\n", net.accuracy(test.images, test.labels));
  scnn::nn::save_checkpoint(net, ckpt);
  std::printf("checkpoint saved to %s\n", ckpt.c_str());
}

int cmd_gen(const Args& args) {
  args.require_known({"task", "count", "out", "metrics-out"});
  const std::string task = parse_task(args, 0);
  const int count = args.get_int("count", std::stoi(args.positional(1, "16")));
  const std::string out_dir = args.get("out", args.positional(2, "out"));
  namespace fs = std::filesystem;
  fs::create_directories(out_dir);
  const Dataset d = make_data(task, count, 1);
  for (int i = 0; i < std::min(count, 16); ++i) {
    const std::string name = out_dir + "/" + task + "_" + std::to_string(i) + "_label" +
                             std::to_string(d.labels[static_cast<std::size_t>(i)]) +
                             (d.images.c() == 1 ? ".pgm" : ".ppm");
    scnn::data::write_image(d.images, i, name);
  }
  const int grid = 4;
  if (count >= grid * grid) {
    scnn::data::write_contact_sheet(
        d.images, grid, grid,
        out_dir + "/" + task + "_sheet" + (d.images.c() == 1 ? ".pgm" : ".ppm"));
  }
  std::printf("wrote %d samples + contact sheet to %s\n", std::min(count, 16),
              out_dir.c_str());
  write_metrics_out(args, "gen", nullptr);
  return 0;
}

int cmd_train(const Args& args) {
  args.require_known({"task", "epochs", "ckpt", "threads", "metrics-out"});
  const std::string task = parse_task(args, 0);
  const int epochs = args.get_int("epochs", std::stoi(args.positional(1, "6")));
  const std::string ckpt = args.get("ckpt", args.positional(2, kDefaultCkpt));
  scnn::nn::Network net = make_net(task);
  train_into(net, task, epochs, ckpt);
  write_metrics_out(args, "train", nullptr);
  return 0;
}

/// Load (or quick-train) a model and wrap it in a calibrated session.
InferenceSession load_session(const std::string& task, const std::string& ckpt,
                              int threads, Dataset& test, int test_count) {
  scnn::nn::Network net = make_net(task);
  if (scnn::nn::checkpoint_exists(ckpt)) {
    scnn::nn::load_checkpoint(net, ckpt);
  } else {
    std::printf("no checkpoint at %s — training a quick model first\n", ckpt.c_str());
    train_into(net, task, 4, ckpt);
  }
  test = make_data(task, test_count, 2);
  InferenceSession session(std::move(net), threads);
  const Dataset calib = make_data(task, 64, 3);
  session.calibrate(calib.images);
  return session;
}

int cmd_eval(const Args& args) {
  args.require_known({"task", "ckpt", "bits", "accum", "engine", "backend", "sparsity",
                      "threads", "count", "metrics-out"});
  const std::string task = parse_task(args, 0);
  const std::string ckpt = args.get("ckpt", args.positional(1, kDefaultCkpt));
  const EngineConfig cfg{
      .kind = scnn::nn::engine_kind_from_string(
          args.get("engine", args.positional(3, "proposed"))),
      .n_bits = args.get_int("bits", std::stoi(args.positional(2, "8"))),
      .accum_bits = args.get_int("accum", 2),
      .threads = args.get_int("threads", 1),
      // Only collect metrics when someone asked for the snapshot.
      .instrument = !args.get("metrics-out", "").empty(),
      .backend = scnn::nn::mac_backend_from_string(args.get("backend", "auto")),
      .sparsity = scnn::nn::sparsity_from_string(args.get("sparsity", "auto"))};
  cfg.validate();

  Dataset test;
  InferenceSession session =
      load_session(task, ckpt, cfg.threads, test, args.get_int("count", 300));
  session.set_engine(cfg);
  const double acc = session.accuracy(test.images, test.labels);
  const auto stats = session.last_forward_stats();
  std::printf("%s N=%d A=%d threads=%d backend=%s sparsity=%s accuracy: %.3f\n",
              to_string(cfg.kind).c_str(), cfg.n_bits, cfg.accum_bits,
              session.threads(), session.backend().backend.c_str(),
              session.backend().sparsity.c_str(), acc);
  std::printf("last batch: %llu MACs, %llu products, %llu saturations\n",
              static_cast<unsigned long long>(stats.macs),
              static_cast<unsigned long long>(stats.products),
              static_cast<unsigned long long>(stats.saturations));
  write_metrics_out(args, "eval", &session);
  return 0;
}

int cmd_sweep(const Args& args) {
  args.require_known({"task", "ckpt", "nmin", "nmax", "backend", "sparsity",
                      "threads", "metrics-out"});
  const std::string task = parse_task(args, 0);
  const std::string ckpt = args.get("ckpt", args.positional(1, kDefaultCkpt));
  const int n_min = args.get_int("nmin", std::stoi(args.positional(2, "5")));
  const int n_max = args.get_int("nmax", std::stoi(args.positional(3, "9")));
  if (n_min > n_max) throw scnn::cli::ArgError("--nmin must be <= --nmax");
  const int threads = args.get_int("threads", 1);
  const scnn::nn::MacBackend backend =
      scnn::nn::mac_backend_from_string(args.get("backend", "auto"));
  const scnn::nn::Sparsity sparsity =
      scnn::nn::sparsity_from_string(args.get("sparsity", "auto"));
  const bool instrument = !args.get("metrics-out", "").empty();

  Dataset test;
  InferenceSession session = load_session(task, ckpt, threads, test, 300);
  std::printf("%-4s %-10s %-10s %-10s\n", "N", "fixed", "sc-lfsr", "proposed");
  for (int n = n_min; n <= n_max; ++n) {
    std::printf("%-4d", n);
    for (const EngineKind kind :
         {EngineKind::kFixed, EngineKind::kScLfsr, EngineKind::kProposed}) {
      session.set_engine({.kind = kind, .n_bits = n, .threads = threads,
                          .instrument = instrument, .backend = backend,
                          .sparsity = sparsity});
      std::printf(" %-10.3f", session.accuracy(test.images, test.labels));
    }
    std::printf("\n");
  }
  write_metrics_out(args, "sweep", &session);
  return 0;
}

/// One instrumented forward pass; prints the per-layer table and writes the
/// metrics snapshot + chrome://tracing timeline. Exits nonzero if the summed
/// per-layer SC cycles do not equal the engine's MacStats totals exactly.
int cmd_stats(const Args& args) {
  args.require_known({"task", "ckpt", "bits", "accum", "engine", "backend", "sparsity",
                      "threads", "count", "bit-parallel", "metrics-out", "trace-out"});
  const std::string task = parse_task(args, 0);
  const std::string ckpt = args.get("ckpt", args.positional(1, kDefaultCkpt));
  const EngineConfig cfg{
      .kind = scnn::nn::engine_kind_from_string(
          args.get("engine", args.positional(3, "proposed"))),
      .n_bits = args.get_int("bits", std::stoi(args.positional(2, "8"))),
      .accum_bits = args.get_int("accum", 2),
      .bit_parallel = args.get_int("bit-parallel", 8),
      .threads = args.get_int("threads", 1),
      .instrument = true,
      .backend = scnn::nn::mac_backend_from_string(args.get("backend", "auto")),
      .sparsity = scnn::nn::sparsity_from_string(args.get("sparsity", "auto"))};
  cfg.validate();

  Dataset test;
  InferenceSession session =
      load_session(task, ckpt, cfg.threads, test, args.get_int("count", 32));
  session.set_engine(cfg);  // applies cfg.instrument
  session.metrics().reset();
  session.tracer().reset();

  // One traced pass over the whole probe batch.
  const std::vector<int> preds = session.predict(test.images);
  int correct = 0;
  for (std::size_t i = 0; i < preds.size(); ++i)
    if (preds[i] == test.labels[i]) ++correct;

  const auto find_arg = [](const scnn::obs::TraceSpan& s,
                           std::string_view key) -> const scnn::obs::TraceArg* {
    for (const auto& a : s.args)
      if (a.key == key) return &a;
    return nullptr;
  };

  std::printf("%s N=%d A=%d b=%d threads=%d: %d images, accuracy %.3f\n",
              to_string(cfg.kind).c_str(), cfg.n_bits, cfg.accum_bits,
              cfg.bit_parallel, session.threads(), test.images.n(),
              static_cast<double>(correct) / static_cast<double>(preds.size()));

  using scnn::common::Table;
  Table t({"layer", "ms", "products", "MACs", "saturations", "SC cycles", "avg k",
           "est cyc@b=" + std::to_string(cfg.bit_parallel), "skipped", "sched cyc",
           "saved %"});
  std::uint64_t span_cycle_sum = 0;
  double pass_ms = 0.0;
  for (const scnn::obs::TraceSpan& s : session.tracer().spans()) {
    if (s.name == "forward") {
      pass_ms = s.dur_us / 1000.0;
      continue;
    }
    const auto* products = find_arg(s, "products");
    const auto* macs = find_arg(s, "macs");
    const auto* sats = find_arg(s, "saturations");
    const auto* cycles = find_arg(s, "sc_cycles");
    const auto* skipped = find_arg(s, "skipped_products");
    std::vector<std::string> row{s.name, Table::fmt(s.dur_us / 1000.0, 2)};
    row.push_back(products ? std::to_string(static_cast<std::uint64_t>(products->value))
                           : "-");
    row.push_back(macs ? std::to_string(static_cast<std::uint64_t>(macs->value)) : "-");
    row.push_back(sats ? std::to_string(static_cast<std::uint64_t>(sats->value)) : "-");
    if (cycles && macs) {
      const auto c = static_cast<std::uint64_t>(cycles->value);
      span_cycle_sum += c;
      row.push_back(std::to_string(c));
      row.push_back(products && products->value > 0
                        ? Table::fmt(cycles->value / products->value, 2)
                        : "-");
      row.push_back(std::to_string(
          scnn::nn::estimated_sc_cycles(c, cfg.bit_parallel)));
    } else {
      row.insert(row.end(), {"-", "-", "-"});
    }
    // Zero-skip savings. The dense schedule spends one issue slot per product
    // plus its k enable cycles (the per-row budget convention of the packed
    // cache); zero-skip reclaims exactly the slots of skipped k = 0 products,
    // so the k-cycle sum above is untouched — that is the bit-exactness
    // story — and the saving is pure schedule occupancy.
    if (skipped && products && cycles) {
      const auto sk = static_cast<std::uint64_t>(skipped->value);
      const double dense_sched = products->value + cycles->value;
      row.push_back(std::to_string(sk));
      row.push_back(Table::fmt(dense_sched - static_cast<double>(sk), 0));
      row.push_back(dense_sched > 0
                        ? Table::fmt(100.0 * static_cast<double>(sk) / dense_sched, 1)
                        : "-");
    } else {
      row.insert(row.end(), {"-", "-", "-"});
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  std::printf("forward pass: %.2f ms total\n", pass_ms);

  // Exactness gate: the trace must account for every SC cycle the engine
  // counted — the two views come from the same k-histograms, so any drift
  // is a wiring bug.
  const scnn::nn::MacStats stats = session.last_forward_stats();
  if (span_cycle_sum != stats.k_hist.sum) {
    std::fprintf(stderr,
                 "FAIL: per-layer trace cycles (%llu) != engine MacStats cycles (%llu)\n",
                 static_cast<unsigned long long>(span_cycle_sum),
                 static_cast<unsigned long long>(stats.k_hist.sum));
    return 1;
  }
  std::printf("SC cycle accounting: %llu cycles (trace == engine totals), "
              "avg k %.2f, est %llu array cycles at b=%d\n",
              static_cast<unsigned long long>(stats.k_hist.sum), stats.k_hist.mean(),
              static_cast<unsigned long long>(
                  scnn::nn::estimated_sc_cycles(stats.k_hist.sum, cfg.bit_parallel)),
              cfg.bit_parallel);
  {
    const double dense_sched =
        static_cast<double>(stats.products) + static_cast<double>(stats.k_hist.sum);
    std::printf("zero-skip: %s; %llu of %llu products skipped "
                "(schedule %.0f -> %.0f cycles, %.1f%% saved)\n",
                session.engine()->zero_skip() ? "on" : "off",
                static_cast<unsigned long long>(stats.skipped_products),
                static_cast<unsigned long long>(stats.products), dense_sched,
                dense_sched - static_cast<double>(stats.skipped_products),
                dense_sched > 0
                    ? 100.0 * static_cast<double>(stats.skipped_products) / dense_sched
                    : 0.0);
  }
  std::printf("bit-plane stage: %s; %llu of %llu outputs uncertified (LUT fallback)\n",
              session.engine()->bitplane_stage() ? session.engine()->bitplane_kernel()->name
                                                 : "off",
              static_cast<unsigned long long>(stats.uncertified),
              static_cast<unsigned long long>(stats.macs));

  // Forward-pass wall-time quantiles from the session's log-linear latency
  // histogram (the same numbers append_registry exports as /p50../p999).
  const auto pass_hist =
      session.metrics().latency_histogram("forward.pass_us").snapshot();
  if (pass_hist.count > 0)
    std::printf("forward pass us over %llu passes: p50 %.0f, p90 %.0f, p99 %.0f, "
                "max %llu\n",
                static_cast<unsigned long long>(pass_hist.count),
                pass_hist.quantile(0.50), pass_hist.quantile(0.90),
                pass_hist.quantile(0.99),
                static_cast<unsigned long long>(pass_hist.max));

  // Snapshot + timeline. --metrics-out defaults on for this command.
  scnn::obs::JsonReport report = scnn::obs::stamped_report("scnn_cli_stats");
  report.set_meta("command", "stats");
  report.set_meta("task", task);
  report.set_meta("images", static_cast<double>(test.images.n()));
  scnn::nn::stamp_engine_meta(report, cfg, *session.engine());
  report.add_metric("accuracy",
                    static_cast<double>(correct) / static_cast<double>(preds.size()),
                    "fraction");
  report.add_metric("sc.est_cycles_at_b",
                    static_cast<double>(
                        scnn::nn::estimated_sc_cycles(stats.k_hist.sum, cfg.bit_parallel)),
                    "cycles");
  report.add_metric("sc.skipped_products_last_pass",
                    static_cast<double>(stats.skipped_products), "products");
  report.add_metric("sc.uncertified_macs_last_pass",
                    static_cast<double>(stats.uncertified), "outputs");
  scnn::obs::append_registry(session.metrics(), report);
  report.write_file(args.get("metrics-out", "scnn_metrics.json"));

  const std::string trace_path = args.get("trace-out", "scnn_trace.json");
  if (!session.tracer().write_trace_event_json(trace_path)) return 1;
  std::printf("wrote %s (open in chrome://tracing or ui.perfetto.dev)\n",
              trace_path.c_str());
  return 0;
}

/// Stand up the serving runtime over the checkpoint and drive it with a
/// closed-loop load: C client threads submit single-image requests
/// back-to-back until N total have resolved. Prints the outcome counts,
/// throughput, latency percentiles, and served accuracy; exits non-zero if
/// any admitted request fails to resolve ok/timed-out/rejected (kError means
/// the batch forward threw — a bug, not overload).
int cmd_serve(const Args& args) {
  args.require_known({"task", "ckpt", "bits", "accum", "engine", "backend", "sparsity",
                      "engine-config", "tenants", "requests", "concurrency", "max-batch",
                      "max-delay-us", "queue-cap", "priority", "workers",
                      "session-threads", "deadline-us", "count", "metrics-out",
                      "trace-out", "dump-flight", "metrics-interval-ms"});
  const std::string task = parse_task(args, 0);
  const std::string ckpt = args.get("ckpt", args.positional(1, kDefaultCkpt));
  const std::string cfg_json = args.get("engine-config", "");
  if (!cfg_json.empty() && (args.has("engine") || args.has("bits") ||
                            args.has("accum") || args.has("backend") ||
                            args.has("sparsity")))
    throw scnn::cli::ArgError(
        "--engine-config carries the whole engine configuration; it excludes "
        "--engine/--bits/--accum/--backend/--sparsity");
  // --tenants=FILE: the whole deployment — server knobs, default engine, and
  // the tenant table — comes from one ServerOptions JSON document.
  const std::string tenants_file = args.get("tenants", "");
  if (!tenants_file.empty() &&
      (args.has("engine") || args.has("bits") || args.has("accum") ||
       args.has("backend") || args.has("sparsity") || args.has("engine-config") ||
       args.has("workers") || args.has("session-threads") ||
       args.has("max-batch") || args.has("max-delay-us") ||
       args.has("queue-cap") || args.has("deadline-us")))
    throw scnn::cli::ArgError(
        "--tenants carries the whole deployment (a ServerOptions JSON file, "
        "engine and tenant table included); it excludes the per-flag server "
        "and engine options");
  const EngineConfig cfg =
      !cfg_json.empty()
          ? EngineConfig::from_json(cfg_json)
          : EngineConfig{
                .kind = scnn::nn::engine_kind_from_string(args.get("engine", "proposed")),
                .n_bits = args.get_int("bits", 8),
                .accum_bits = args.get_int("accum", 2),
                .backend = scnn::nn::mac_backend_from_string(args.get("backend", "auto")),
                .sparsity = scnn::nn::sparsity_from_string(args.get("sparsity", "auto"))};
  cfg.validate();
  scnn::serve::ServerOptions opts;
  const std::string trace_path = args.get("trace-out", "");
  if (tenants_file.empty()) {
    opts.workers = args.get_int("workers", 1);
    opts.session_threads = args.get_int("session-threads", 0);  // 0 = auto
    opts.max_batch = args.get_int("max-batch", 8);
    opts.max_delay_us = args.get_int("max-delay-us", 200);
    opts.queue_capacity = args.get_int("queue-cap", 64);
    opts.default_deadline_us = args.get_int("deadline-us", 0);
    opts.engine = cfg;
  } else {
    std::ifstream in(tenants_file);
    if (!in)
      throw scnn::cli::ArgError("--tenants=" + tenants_file + ": cannot open");
    std::stringstream buf;
    buf << in.rdbuf();
    try {
      opts = scnn::serve::ServerOptions::from_json(buf.str());
    } catch (const std::invalid_argument& e) {
      throw scnn::cli::ArgError("--tenants=" + tenants_file + ": " + e.what());
    }
    if (opts.tenants.empty())
      throw scnn::cli::ArgError("--tenants=" + tenants_file +
                                ": deployment config names no tenants");
  }
  opts.trace = opts.trace || !trace_path.empty();
  opts.validate();
  // --priority: one fixed class for every request, or "mixed" — a
  // deterministic rotation by request index (0 -> high, 1,2 -> normal,
  // 3 -> batch) that exercises shedding under overload.
  const std::string priority_arg = args.get("priority", "normal");
  const bool mixed_priority = priority_arg == "mixed";
  scnn::serve::Priority fixed_priority = scnn::serve::Priority::kNormal;
  if (!mixed_priority) {
    try {
      fixed_priority = scnn::serve::priority_from_string(priority_arg);
    } catch (const std::invalid_argument& e) {
      throw scnn::cli::ArgError(std::string("--") + e.what() + " or mixed");
    }
  }
  const int requests = args.get_int("requests", 200);
  const int concurrency = args.get_int("concurrency", 8);
  if (requests < 1 || concurrency < 1)
    throw scnn::cli::ArgError("--requests and --concurrency must be >= 1");

  // One checkpoint feeds every shard; quick-train it if missing. Under
  // --tenants, a tenant may name its own checkpoint — tenants that leave
  // `checkpoint` empty share the base one.
  const bool need_base_ckpt =
      tenants_file.empty() ||
      std::any_of(opts.tenants.begin(), opts.tenants.end(),
                  [](const scnn::serve::TenantOptions& t) {
                    return t.checkpoint.empty();
                  });
  scnn::nn::Network net = make_net(task);
  std::vector<float> params;
  if (need_base_ckpt) {
    if (scnn::nn::checkpoint_exists(ckpt)) {
      scnn::nn::load_checkpoint(net, ckpt);
    } else {
      std::printf("no checkpoint at %s — training a quick model first\n", ckpt.c_str());
      train_into(net, task, 4, ckpt);
    }
    params = net.save_parameters();
  }
  const Dataset calib = make_data(task, 64, 3);
  const Dataset test = make_data(task, args.get_int("count", 300), 2);

  std::unique_ptr<scnn::serve::Server> srv;
  if (tenants_file.empty()) {
    srv = std::make_unique<scnn::serve::Server>(
        [&task] { return make_net(task); }, opts, params, &calib.images);
  } else {
    std::vector<scnn::serve::TenantInit> inits;
    inits.reserve(opts.tenants.size());
    for (const scnn::serve::TenantOptions& topt : opts.tenants) {
      scnn::serve::TenantInit init;
      init.options = topt;
      init.factory = [&task] { return make_net(task); };
      init.calibration = calib.images;
      if (topt.checkpoint.empty()) {
        init.params = params;
      } else {
        if (!scnn::nn::checkpoint_exists(topt.checkpoint))
          throw scnn::cli::ArgError("--tenants: tenant \"" + topt.name +
                                    "\": no checkpoint at " + topt.checkpoint);
        scnn::nn::Network tenant_net = make_net(task);
        scnn::nn::load_checkpoint(tenant_net, topt.checkpoint);
        init.params = tenant_net.save_parameters();
      }
      inits.push_back(std::move(init));
    }
    srv = std::make_unique<scnn::serve::Server>(std::move(inits), opts);
  }
  scnn::serve::Server& server = *srv;
  if (tenants_file.empty()) {
    std::printf("serving %s (backend %s): %d workers x %s session threads, "
                "max_batch %d, max_delay %d us, queue cap %d, priority %s\n",
                to_string(cfg.kind).c_str(),
                scnn::nn::resolved_backend(cfg).backend.c_str(),
                server.workers(),
                opts.session_threads == 0
                    ? "auto"
                    : std::to_string(opts.session_threads).c_str(),
                opts.max_batch, opts.max_delay_us, opts.queue_capacity,
                priority_arg.c_str());
  } else {
    std::printf("serving %d tenants from %s: %d workers, max_batch %d, "
                "queue cap %d, priority %s\n",
                server.registry().count(), tenants_file.c_str(),
                server.workers(), opts.max_batch, opts.queue_capacity,
                priority_arg.c_str());
    for (int i = 0; i < server.registry().count(); ++i) {
      const scnn::serve::TenantOptions& topt = server.registry().options(i);
      std::printf("  tenant %-12s engine %-8s shards %d%s%s\n",
                  topt.name.c_str(),
                  topt.engine ? to_string(topt.engine->kind).c_str() : "default",
                  server.registry().shard_count(i),
                  topt.checkpoint.empty() ? "" : " ckpt ",
                  topt.checkpoint.c_str());
    }
  }
  // Requests rotate round-robin over the tenant table (a single-model server
  // has exactly one entry), so every tenant sees load in a fixed pattern.
  std::vector<std::string> tenant_names;
  for (int i = 0; i < server.registry().count(); ++i)
    tenant_names.push_back(server.registry().options(i).name);

  // Soak-run time series: one flattened registry snapshot per interval,
  // appended as JSON lines while the load runs.
  std::unique_ptr<scnn::obs::SnapshotLogger> snapshot_log;
  const int interval_ms = args.get_int("metrics-interval-ms", 0);
  if (interval_ms < 0)
    throw std::invalid_argument("--metrics-interval-ms must be >= 0, got " +
                                std::to_string(interval_ms));
  if (interval_ms > 0) {
    const std::string metrics_out = args.get("metrics-out", "");
    const std::string series_path =
        metrics_out.empty() ? "scnn_serve_metrics.jsonl" : metrics_out + ".jsonl";
    snapshot_log = std::make_unique<scnn::obs::SnapshotLogger>(server.metrics(),
                                                               series_path, interval_ms);
    if (snapshot_log->ok())
      std::printf("appending metrics snapshots to %s every %d ms\n",
                  series_path.c_str(), interval_ms);
  }

  std::atomic<int> next{0};
  std::mutex mu;
  std::vector<double> latencies;
  int ok = 0, rejected = 0, timed_out = 0, shed = 0, errors = 0, correct = 0;
  const auto priority_of = [&](int id) {
    if (!mixed_priority) return fixed_priority;
    switch (id % 4) {
      case 0: return scnn::serve::Priority::kHigh;
      case 3: return scnn::serve::Priority::kBatch;
      default: return scnn::serve::Priority::kNormal;
    }
  };
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < concurrency; ++c) {
    clients.emplace_back([&] {
      std::vector<double> lat;
      int l_ok = 0, l_rej = 0, l_to = 0, l_shed = 0, l_err = 0, l_correct = 0;
      for (;;) {
        const int id = next.fetch_add(1);
        if (id >= requests) break;
        const int img = id % test.images.n();
        scnn::serve::Response r =
            server.submit({.tenant = tenant_names[static_cast<std::size_t>(id) %
                                                  tenant_names.size()],
                           .input = scnn::nn::batch_slice(test.images, img, 1),
                           .priority = priority_of(id)})
                .get();
        switch (r.status) {
          case scnn::serve::Status::kOk:
            ++l_ok;
            lat.push_back(r.total_us);
            if (r.predicted == test.labels[static_cast<std::size_t>(img)]) ++l_correct;
            break;
          case scnn::serve::Status::kQueueFull: ++l_rej; break;
          case scnn::serve::Status::kTimedOut: ++l_to; break;
          case scnn::serve::Status::kShed: ++l_shed; break;
          default: ++l_err; break;
        }
      }
      std::lock_guard<std::mutex> lk(mu);
      ok += l_ok;
      rejected += l_rej;
      timed_out += l_to;
      shed += l_shed;
      errors += l_err;
      correct += l_correct;
      latencies.insert(latencies.end(), lat.begin(), lat.end());
    });
  }
  for (std::thread& t : clients) t.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  server.drain();
  if (snapshot_log) snapshot_log->stop();  // final line reflects the drained state

  std::sort(latencies.begin(), latencies.end());
  const auto pct = [&latencies](double p) {
    if (latencies.empty()) return 0.0;
    return latencies[static_cast<std::size_t>(
        p * static_cast<double>(latencies.size() - 1))];
  };
  const auto batch_hist =
      server.metrics().latency_histogram("serve.batch_size").snapshot();
  using scnn::common::Table;
  Table t({"requests", "ok", "rejected", "timed-out", "shed", "errors", "req/s",
           "mean batch", "p50 us", "p95 us", "max us"});
  t.add_row({std::to_string(requests), std::to_string(ok), std::to_string(rejected),
             std::to_string(timed_out), std::to_string(shed), std::to_string(errors),
             Table::fmt(wall_s > 0 ? ok / wall_s : 0.0, 1),
             Table::fmt(batch_hist.mean(), 2), Table::fmt(pct(0.50), 0),
             Table::fmt(pct(0.95), 0),
             Table::fmt(latencies.empty() ? 0.0 : latencies.back(), 0)});
  t.print(std::cout);

  // Server-side quantiles (the registry's log-linear histograms, <= 3.125%
  // relative error) — these are what BENCH_serve.json and bench_compare see.
  const auto lat_hist = server.metrics().latency_histogram("serve.latency_us").snapshot();
  const auto q_hist = server.metrics().latency_histogram("serve.queue_us").snapshot();
  Table qt({"metric", "count", "mean", "p50", "p90", "p99", "p999", "max"});
  const auto quantile_row = [&qt](const char* name, const scnn::obs::LatencyHist& h) {
    qt.add_row({name, std::to_string(h.count), Table::fmt(h.mean(), 1),
                Table::fmt(h.quantile(0.50), 0), Table::fmt(h.quantile(0.90), 0),
                Table::fmt(h.quantile(0.99), 0), Table::fmt(h.quantile(0.999), 0),
                std::to_string(h.max)});
  };
  quantile_row("serve.latency_us", lat_hist);
  quantile_row("serve.queue_us", q_hist);
  quantile_row("serve.batch_size", batch_hist);
  qt.print(std::cout);
  if (ok > 0)
    std::printf("served accuracy: %.3f (over ok responses)\n",
                static_cast<double>(correct) / ok);

  if (!trace_path.empty()) {
    if (!server.tracer().write_trace_event_json(trace_path, "scnn_serve")) return 1;
    std::printf("wrote %s (open in chrome://tracing or ui.perfetto.dev)\n",
                trace_path.c_str());
  }
  if (const std::string flight_path = args.get("dump-flight", ""); !flight_path.empty()) {
    if (server.dump_flight(flight_path, "scnn_cli serve --dump-flight").empty())
      return 1;
    // The dump must round-trip through the project's own JSON parser — a
    // dump nobody can read back is not forensics.
    std::ifstream in(flight_path);
    std::stringstream buf;
    buf << in.rdbuf();
    const auto doc = scnn::obs::json::parse(buf.str());
    const scnn::obs::json::Value* events = doc ? doc->find("events") : nullptr;
    if (!doc || !doc->is_object() || !events || !events->is_array()) {
      std::fprintf(stderr, "FAIL: flight dump %s does not parse as a stamped "
                   "event document\n", flight_path.c_str());
      return 1;
    }
    std::printf("flight dump %s: %zu events, parsed ok\n", flight_path.c_str(),
                events->array.size());
  }

  const std::string metrics_path = args.get("metrics-out", "");
  if (!metrics_path.empty()) {
    scnn::obs::JsonReport report = scnn::obs::stamped_report("scnn_cli_serve");
    report.set_meta("command", "serve");
    report.set_meta("task", task);
    scnn::nn::stamp_engine_meta(report, cfg);
    report.set_meta("workers", static_cast<double>(server.workers()));
    report.set_meta("max_batch", static_cast<double>(opts.max_batch));
    report.set_meta("priority", priority_arg);
    report.add_metric("throughput_rps", wall_s > 0 ? ok / wall_s : 0.0, "req/s");
    report.add_metric("latency_p50_us", pct(0.50), "us");
    report.add_metric("latency_p95_us", pct(0.95), "us");
    scnn::obs::append_registry(server.metrics(), report);
    report.write_file(metrics_path);
  }
  if (ok + rejected + timed_out + shed != requests || errors != 0) {
    std::fprintf(stderr, "FAIL: %d requests unaccounted for or errored "
                 "(ok %d, rejected %d, timed-out %d, shed %d, errors %d)\n",
                 requests, ok, rejected, timed_out, shed, errors);
    return 1;
  }
  return 0;
}

int cmd_info() {
  std::printf("scnn — BISC-MVM stochastic-computing CNN library (DAC'17 reproduction)\n");
  std::printf("engines: fixed, sc-lfsr, proposed; precisions N = %d..%d, A >= 0\n",
              EngineConfig::kMinBits, EngineConfig::kMaxBits);
  std::printf("runtime: --threads=T shards inference over T workers "
              "(0 = all %d hardware threads); logits are bit-identical at any T\n",
              EngineConfig{.threads = 0}.resolved_threads());
  std::printf("cpu features: %s\n", scnn::common::cpu_features_summary().c_str());
  std::string kernels;
  for (const auto* k : scnn::nn::backends::available_kernels())
    kernels += std::string(kernels.empty() ? "" : ", ") + k->name + " (" +
               std::to_string(k->lanes) + " lanes)";
  std::printf("mac_rows kernels: %s; the default proposed/N=8 engine resolves "
              "to %s (--backend or SCNN_BACKEND overrides)\n", kernels.c_str(),
              scnn::nn::resolved_backend(EngineConfig{}).backend.c_str());
  // The full inventory, including what this build knows about but cannot
  // run here — detected-but-uncompiled and compiled-but-unsupported ISA
  // levels are the difference between "slow by design" and "slow by build".
  for (const auto& s : scnn::nn::backends::kernel_support()) {
    if (s.compiled && s.supported) continue;
    const char* why = s.compiled    ? "compiled, but this CPU lacks the ISA"
                      : s.supported ? "CPU capable, but not compiled into "
                                      "this binary"
                                    : "not available for this CPU/arch";
    std::printf("  %-14s unavailable: %s\n", s.name, why);
  }
  std::printf("sparsity modes: dense, zero-skip, auto — zero-skip drops k=0 weight\n"
              "  codes from the schedule, bit-identical to dense (--sparsity or\n"
              "  SCNN_SPARSITY overrides auto; needs a zero-annihilating table)\n");
  const char* env = std::getenv("SCNN_DATA_DIR");
  std::printf("data dir: %s (real MNIST/CIFAR-10 picked up when present)\n",
              env ? env : "data");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = Args::parse(argc, argv);
    const std::string& cmd = args.command();
    if (cmd.empty()) return usage();
    if (cmd == "info") return cmd_info();
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "train") return cmd_train(args);
    if (cmd == "eval") return cmd_eval(args);
    if (cmd == "sweep") return cmd_sweep(args);
    if (cmd == "stats") return cmd_stats(args);
    if (cmd == "serve") return cmd_serve(args);
    std::fprintf(stderr, "error: unknown command '%s'\n\n", cmd.c_str());
    return usage();
  } catch (const scnn::cli::ArgError& e) {
    std::fprintf(stderr, "error: %s\n\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
