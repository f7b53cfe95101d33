// serve::Server semantics: bit-exact serving, deterministic overload
// behavior (QueueFull backpressure, deadline expiry), drain/shutdown, and
// concurrent submitters. Lives in the parallel-labeled binary so the whole
// suite runs under TSan.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "data/synthetic_digits.hpp"
#include "nn/inference_session.hpp"
#include "nn/layer.hpp"
#include "nn/network.hpp"
#include "obs/json.hpp"

namespace scnn::serve {
namespace {

using scnn::nn::EngineConfig;
using scnn::nn::EngineKind;
using scnn::nn::Tensor;

EngineConfig test_engine() {
  return {.kind = EngineKind::kProposed, .n_bits = 8, .threads = 1};
}

const scnn::data::Dataset& test_data() {
  static const scnn::data::Dataset d =
      scnn::data::make_synthetic_digits({.count = 32, .seed = 7});
  return d;
}

Tensor calibration_batch() { return nn::batch_slice(test_data().images, 0, 16); }

Tensor sample(int i) { return nn::batch_slice(test_data().images, i, 1); }

nn::Network make_net() { return nn::make_mnist_net(test_data().images.h()); }

/// Direct single-request forwards — the reference the server must match
/// bit-for-bit.
const std::vector<Tensor>& reference_logits() {
  static const std::vector<Tensor> logits = [] {
    const Tensor calib = calibration_batch();
    nn::InferenceSession session(make_net(), /*threads=*/1);
    session.calibrate(calib);
    session.set_engine(test_engine());
    std::vector<Tensor> out;
    for (int i = 0; i < test_data().images.n(); ++i)
      out.push_back(session.forward(sample(i)));
    return out;
  }();
  return logits;
}

bool bit_identical(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data().data(), b.data().data(), a.size() * sizeof(float)) == 0;
}

ServerOptions base_options() {
  ServerOptions opts;
  opts.workers = 1;
  opts.session_threads = 1;
  opts.max_batch = 4;
  opts.max_delay_us = 500;
  opts.queue_capacity = 64;
  opts.engine = test_engine();
  return opts;
}

Server make_server(const ServerOptions& opts) {
  const Tensor calib = calibration_batch();
  return Server([] { return make_net(); }, opts, /*params=*/{}, &calib);
}

std::uint64_t counter_total(obs::Registry& r, const char* name) {
  return r.counter(name).total();
}

TEST(Serve, ServedLogitsBitIdenticalToDirectForward) {
  for (const int workers : {1, 2}) {
    ServerOptions opts = base_options();
    opts.workers = workers;
    Server server(make_server(opts));
    std::vector<Ticket> tickets;
    for (int i = 0; i < 12; ++i) tickets.push_back(server.submit({.input = sample(i)}));
    for (int i = 0; i < 12; ++i) {
      Response r = tickets[static_cast<std::size_t>(i)].get();
      ASSERT_EQ(r.status, Status::kOk)
          << "workers=" << workers << " request " << i << ": " << r.error;
      EXPECT_TRUE(bit_identical(r.logits, reference_logits()[static_cast<std::size_t>(i)]))
          << "workers=" << workers << " request " << i;
      EXPECT_GE(r.batch_size, 1);
      EXPECT_LE(r.batch_size, opts.max_batch);
      EXPECT_GE(r.predicted, 0);
      EXPECT_GE(r.total_us, r.run_us);
    }
    server.drain();
    EXPECT_EQ(counter_total(server.metrics(), "serve.submitted"), 12u) << workers;
    EXPECT_EQ(counter_total(server.metrics(), "serve.completed"), 12u) << workers;
    EXPECT_EQ(counter_total(server.metrics(), "serve.rejected"), 0u) << workers;
  }
}

TEST(Serve, FullQueueRejectsWithQueueFullAndNeverBlocks) {
  ServerOptions opts = base_options();
  opts.queue_capacity = 4;
  opts.start_paused = true;  // stage a deterministically full queue
  Server server(make_server(opts));

  std::vector<Ticket> admitted;
  for (int i = 0; i < 4; ++i) admitted.push_back(server.submit({.input = sample(i)}));
  EXPECT_EQ(server.queue_depth(), 4u);
  for (const Ticket& t : admitted) EXPECT_FALSE(t.ready());

  // Over capacity: resolved immediately, no blocking, explicit status.
  for (int i = 0; i < 2; ++i) {
    Ticket t = server.submit({.input = sample(0)});
    ASSERT_TRUE(t.ready());
    EXPECT_EQ(t.get().status, Status::kQueueFull);
  }
  EXPECT_EQ(counter_total(server.metrics(), "serve.rejected"), 2u);
  EXPECT_EQ(counter_total(server.metrics(), "serve.submitted"), 4u);

  server.resume();
  server.drain();
  for (std::size_t i = 0; i < admitted.size(); ++i) {
    Response r = admitted[i].get();
    EXPECT_EQ(r.status, Status::kOk);
    EXPECT_TRUE(bit_identical(r.logits, reference_logits()[i]));
  }
}

TEST(Serve, ExpiredDeadlinesResolveAsTimedOut) {
  ServerOptions opts = base_options();
  opts.start_paused = true;
  Server server(make_server(opts));

  std::vector<Ticket> doomed;
  for (int i = 0; i < 3; ++i)
    doomed.push_back(server.submit({.input = sample(i), .deadline_us = 1000}));
  Ticket alive = server.submit({.input = sample(3)});  // no deadline
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.resume();

  for (Ticket& t : doomed) {
    Response r = t.get();
    EXPECT_EQ(r.status, Status::kTimedOut);
    EXPECT_EQ(r.logits.size(), 0u);
  }
  EXPECT_EQ(alive.get().status, Status::kOk);
  EXPECT_EQ(counter_total(server.metrics(), "serve.timed_out"), 3u);
  EXPECT_EQ(counter_total(server.metrics(), "serve.completed"), 1u);
}

// Regression: a batch whose every popped request had expired used to skip the
// idle notification, leaving a drain() already blocked on idle_cv_ hung
// forever (the destructor drains, so destruction hung too).
TEST(Serve, DrainCompletesWhenEveryAdmittedRequestHasExpired) {
  ServerOptions opts = base_options();
  opts.start_paused = true;
  Server server(make_server(opts));
  std::vector<Ticket> doomed;
  for (int i = 0; i < 5; ++i)
    doomed.push_back(server.submit({.input = sample(i), .deadline_us = 1000}));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.drain();  // unpauses; the worker pops only expired requests
  for (Ticket& t : doomed) {
    ASSERT_TRUE(t.ready());
    EXPECT_EQ(t.get().status, Status::kTimedOut);
  }
  EXPECT_EQ(counter_total(server.metrics(), "serve.timed_out"), 5u);
  EXPECT_EQ(counter_total(server.metrics(), "serve.completed"), 0u);
}

TEST(Serve, DrainCompletesAllAdmittedThenRejectsWithShutdown) {
  ServerOptions opts = base_options();
  opts.max_batch = 8;
  Server server(make_server(opts));
  std::vector<Ticket> tickets;
  for (int i = 0; i < 20; ++i) tickets.push_back(server.submit({.input = sample(i % 8)}));
  server.drain();
  for (Ticket& t : tickets) {
    ASSERT_TRUE(t.ready());
    EXPECT_EQ(t.get().status, Status::kOk);
  }
  EXPECT_FALSE(server.accepting());
  Ticket late = server.submit({.input = sample(0)});
  ASSERT_TRUE(late.ready());
  EXPECT_EQ(late.get().status, Status::kShutdown);
  server.drain();  // idempotent
}

// Submitters racing drain(): the stopping check and the push share the
// queue's lock, so every ticket resolves exactly once — kOk when admitted
// before drain() began, kShutdown after — and drain() never strands one.
TEST(Serve, SubmittersRacingDrainResolveEveryTicketExactlyOnce) {
  for (int round = 0; round < 8; ++round) {
    ServerOptions opts = base_options();
    opts.workers = 1 + round % 2;
    opts.queue_capacity = 4096;  // > every submit below: no kQueueFull
    Server server(make_server(opts));

    constexpr int kThreads = 4;
    std::atomic<int> started{0};
    std::vector<std::vector<Ticket>> tickets(kThreads);
    std::vector<std::thread> submitters;
    for (int c = 0; c < kThreads; ++c) {
      submitters.emplace_back([&, c] {
        // Submit until one submit certainly follows drain(): every thread
        // ends on a kShutdown, and the submits before it race drain().
        for (int i = 0;; ++i) {
          const bool was_accepting = server.accepting();
          tickets[static_cast<std::size_t>(c)].push_back(
              server.submit({.input = sample((c + 4 * i) % 32)}));
          started.fetch_add(1);
          if (!was_accepting) break;
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      });
    }
    while (started.load() < 8 * kThreads) std::this_thread::yield();
    server.drain();
    for (std::thread& t : submitters) t.join();

    std::uint64_t submits = 0, ok = 0, shutdown = 0;
    for (std::vector<Ticket>& per_thread : tickets) {
      for (Ticket& t : per_thread) {
        ++submits;
        ASSERT_TRUE(t.ready()) << "round " << round << ": drain() left a ticket open";
        const Response r = t.get();
        ASSERT_TRUE(r.status == Status::kOk || r.status == Status::kShutdown)
            << "round " << round << ": " << to_string(r.status);
        ++(r.status == Status::kOk ? ok : shutdown);
      }
    }
    EXPECT_EQ(counter_total(server.metrics(), "serve.completed"), ok) << round;
    EXPECT_EQ(counter_total(server.metrics(), "serve.submitted"), ok) << round;
    EXPECT_EQ(counter_total(server.metrics(), "serve.completed") + shutdown, submits)
        << round;
    EXPECT_GE(shutdown, static_cast<std::uint64_t>(kThreads)) << round;
    EXPECT_EQ(server.queue_depth(), 0u) << round;
  }
}

TEST(Serve, DestructorDrainsAdmittedRequests) {
  std::vector<Ticket> tickets;
  {
    Server server(make_server(base_options()));
    for (int i = 0; i < 10; ++i) tickets.push_back(server.submit({.input = sample(i)}));
  }
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    ASSERT_TRUE(tickets[i].ready());
    Response r = tickets[i].get();
    EXPECT_EQ(r.status, Status::kOk);
    EXPECT_TRUE(bit_identical(r.logits, reference_logits()[i]));
  }
}

TEST(Serve, MicroBatchesRespectMaxBatch) {
  ServerOptions opts = base_options();
  opts.max_batch = 4;
  opts.start_paused = true;  // queue up everything, then serve in one burst
  Server server(make_server(opts));
  std::vector<Ticket> tickets;
  for (int i = 0; i < 10; ++i) tickets.push_back(server.submit({.input = sample(i)}));
  server.resume();
  server.drain();
  for (Ticket& t : tickets) {
    Response r = t.get();
    ASSERT_EQ(r.status, Status::kOk);
    EXPECT_LE(r.batch_size, 4);
  }
  const obs::LatencyHist sizes =
      server.metrics().latency_histogram("serve.batch_size").snapshot();
  EXPECT_EQ(sizes.sum, 10u);  // every request ran in exactly one batch
  EXPECT_EQ(counter_total(server.metrics(), "serve.batches"), sizes.count);
  EXPECT_LE(sizes.max, 4u);
}

TEST(Serve, ConcurrentSubmittersAllServedBitExactly) {
  ServerOptions opts = base_options();
  opts.workers = 2;
  opts.max_batch = 8;
  opts.queue_capacity = 256;
  Server server(make_server(opts));

  constexpr int kThreads = 4;
  constexpr int kPerThread = 16;
  std::vector<std::thread> clients;
  std::atomic<int> ok{0}, mismatched{0};
  for (int c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerThread; ++i) {
        const int idx = (c * kPerThread + i) % test_data().images.n();
        Response r = server.submit({.input = sample(idx)}).get();
        if (r.status != Status::kOk) continue;
        ++ok;
        if (!bit_identical(r.logits, reference_logits()[static_cast<std::size_t>(idx)]))
          ++mismatched;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok.load(), kThreads * kPerThread);  // capacity 256 => no rejects
  EXPECT_EQ(mismatched.load(), 0);
  EXPECT_EQ(counter_total(server.metrics(), "serve.completed"),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(Serve, InvalidOptionsThrowNamingTheValue) {
  const auto expect_throw = [](ServerOptions opts, const char* needle) {
    try {
      opts.validate();
      FAIL() << "expected invalid_argument mentioning " << needle;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };
  ServerOptions opts;
  opts.workers = 0;
  expect_throw(opts, "workers = 0");
  opts = ServerOptions{};
  opts.max_batch = 0;
  expect_throw(opts, "max_batch = 0");
  opts = ServerOptions{};
  opts.queue_capacity = -3;
  expect_throw(opts, "queue_capacity = -3");
  opts = ServerOptions{};
  opts.default_deadline_us = -1;
  expect_throw(opts, "default_deadline_us = -1");
  opts = ServerOptions{};
  opts.engine = EngineConfig{.n_bits = 99};
  expect_throw(opts, "n_bits = 99");
}

TEST(Serve, MismatchedRequestShapeThrows) {
  Server server(make_server(base_options()));
  (void)server.submit({.input = sample(0)});  // establishes 1x28x28
  try {
    (void)server.submit({.input = Tensor(1, 3, 32, 32)});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("3x32x32"), std::string::npos) << msg;
    EXPECT_NE(msg.find("1x28x28"), std::string::npos) << msg;
  }
  EXPECT_THROW((void)server.submit({.input = Tensor(2, 1, 28, 28)}), std::invalid_argument);
}

// The shape check must win over load-dependent rejection: a mismatched
// request throws the documented invalid_argument even when the queue is
// full or the server is draining, never kQueueFull/kShutdown.
TEST(Serve, ShapeMismatchThrowsEvenWhenQueueFullOrDraining) {
  ServerOptions opts = base_options();
  opts.queue_capacity = 2;
  opts.start_paused = true;
  Server server(make_server(opts));
  (void)server.submit({.input = sample(0)});
  (void)server.submit({.input = sample(1)});
  EXPECT_EQ(server.queue_depth(), 2u);  // full
  EXPECT_THROW((void)server.submit({.input = Tensor(1, 3, 32, 32)}), std::invalid_argument);
  EXPECT_EQ(server.submit({.input = sample(2)}).get().status, Status::kQueueFull);
  server.resume();
  server.drain();
  EXPECT_THROW((void)server.submit({.input = Tensor(1, 3, 32, 32)}), std::invalid_argument);
  EXPECT_EQ(server.submit({.input = sample(3)}).get().status, Status::kShutdown);
}

// ---------------------------------------------------------------------------
// Admission queue and priority classes
// ---------------------------------------------------------------------------

// Requests of every class, interleaved, through the one admission queue:
// whichever class a worker pops first, each response is bit-identical to a
// direct forward of its own input.
TEST(Serve, AdmissionQueueBitIdenticalToDirectForwardAcrossClasses) {
  constexpr Priority kClasses[] = {Priority::kHigh, Priority::kNormal, Priority::kBatch};
  ServerOptions opts = base_options();
  opts.workers = 2;
  Server server(make_server(opts));
  std::vector<Ticket> tickets;
  for (int i = 0; i < 12; ++i)
    tickets.push_back(server.submit({.input = sample(i), .priority = kClasses[i % 3]}));
  for (int i = 0; i < 12; ++i) {
    Response r = tickets[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(r.status, Status::kOk) << "request " << i << ": " << r.error;
    EXPECT_TRUE(bit_identical(r.logits, reference_logits()[static_cast<std::size_t>(i)]))
        << "request " << i;
  }
  server.drain();
  EXPECT_EQ(counter_total(server.metrics(), "serve.completed"), 12u);
}

// The shedding contract, pinned: under overload an arriving request evicts
// the OLDEST queued request of the STRICTLY LOWEST class below its own
// (batch before normal, FIFO within class); with no lower class queued it is
// rejected kQueueFull. The reject/shed set is a pure function of arrival
// order — identical across repeated runs and worker counts (workers are
// paused during admission, so they cannot race it).
TEST(Serve, SheddingIsDeterministicAndStrictlyLowestClassFirst) {
  struct Sub {
    Priority priority;
    Status expected;
  };
  // Queue capacity 3. Arrival order and the shedding it must produce:
  //   n1 b1 b2 admitted -> [n1 b1 b2]
  //   n2 sheds b1 (oldest batch)          -> [n1 b2 n2]
  //   h1 sheds b2 (batch before normal)   -> [n1 n2 h1]
  //   h2 sheds n1 (batch empty, oldest normal) -> [n2 h1 h2]
  //   h3 sheds n2                          -> [h1 h2 h3]
  //   h4 kQueueFull (nothing below high queued)
  //   b3 kQueueFull (batch never sheds anyone)
  const std::vector<Sub> script = {
      {Priority::kNormal, Status::kShed},      // n1: shed by h2
      {Priority::kBatch, Status::kShed},       // b1: shed by n2
      {Priority::kBatch, Status::kShed},       // b2: shed by h1
      {Priority::kNormal, Status::kShed},      // n2: shed by h3
      {Priority::kHigh, Status::kOk},          // h1
      {Priority::kHigh, Status::kOk},          // h2
      {Priority::kHigh, Status::kOk},          // h3
      {Priority::kHigh, Status::kQueueFull},   // h4
      {Priority::kBatch, Status::kQueueFull},  // b3
  };
  for (const int workers : {1, 4}) {
    for (int run = 0; run < 10; ++run) {
      ServerOptions opts = base_options();
      opts.workers = workers;
      opts.queue_capacity = 3;
      opts.start_paused = true;
      Server server(make_server(opts));

      std::vector<Ticket> tickets;
      for (std::size_t i = 0; i < script.size(); ++i) {
        tickets.push_back(server.submit({.input = sample(static_cast<int>(i)),
                                         .priority = script[i].priority}));
        // Paused, the per-tenant depths sum exactly to the total.
        EXPECT_EQ(server.queue_depth("default"), server.queue_depth())
            << "workers=" << workers << " run=" << run << " submission " << i;
      }
      // Shed and rejected requests resolve before any worker runs.
      for (std::size_t i = 0; i < script.size(); ++i) {
        if (script[i].expected != Status::kOk) {
          ASSERT_TRUE(tickets[i].ready())
              << "workers=" << workers << " run=" << run << " submission " << i;
        }
      }
      server.resume();
      server.drain();

      for (std::size_t i = 0; i < script.size(); ++i) {
        const Response r = tickets[i].get();
        ASSERT_EQ(r.status, script[i].expected)
            << "workers=" << workers << " run=" << run << " submission " << i;
        EXPECT_EQ(r.priority, script[i].priority) << "submission " << i;
        if (script[i].expected == Status::kOk) {
          EXPECT_TRUE(bit_identical(r.logits, reference_logits()[i]))
              << "submission " << i;
        }
        // kHigh is never shed: there is no higher class to shed it.
        if (script[i].priority == Priority::kHigh) {
          ASSERT_NE(r.status, Status::kShed) << "submission " << i;
        }
      }
      EXPECT_EQ(counter_total(server.metrics(), "serve.shed"), 4u);
      EXPECT_EQ(counter_total(server.metrics(), "serve.batch.shed"), 2u);
      EXPECT_EQ(counter_total(server.metrics(), "serve.normal.shed"), 2u);
      EXPECT_EQ(counter_total(server.metrics(), "serve.high.shed"), 0u);
      EXPECT_EQ(counter_total(server.metrics(), "serve.rejected"), 2u);
      EXPECT_EQ(counter_total(server.metrics(), "serve.high.completed"), 3u);
    }
  }
}

// Workers pop strictly high -> normal -> batch, FIFO within a class,
// regardless of arrival order. Pinned through the flight recorder's pop
// events on a server that admits everything while paused.
TEST(Serve, WorkersPopHighBeforeNormalBeforeBatch) {
  const std::string dump_path = "serve_test_pop_order.json";
  std::remove(dump_path.c_str());

  ServerOptions opts = base_options();
  opts.workers = 1;
  opts.max_batch = 1;  // one pop per batch => pop order == serving order
  opts.max_delay_us = 0;
  opts.start_paused = true;
  Server server(make_server(opts));

  // Submit in worst-case order: lowest class first.
  Ticket b = server.submit({.input = sample(0), .priority = Priority::kBatch});
  Ticket b2 = server.submit({.input = sample(1), .priority = Priority::kBatch});
  Ticket n = server.submit({.input = sample(2), .priority = Priority::kNormal});
  Ticket h = server.submit({.input = sample(3), .priority = Priority::kHigh});
  server.resume();
  server.drain();
  std::vector<std::uint64_t> want_order;
  for (Ticket* t : {&h, &n, &b, &b2}) {
    const Response r = t->get();
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    want_order.push_back(r.request_id);
  }

  ASSERT_EQ(server.dump_flight(dump_path), dump_path);
  std::ifstream in(dump_path);
  ASSERT_TRUE(in.good());
  std::stringstream body;
  body << in.rdbuf();
  const std::optional<obs::json::Value> doc = obs::json::parse(body.str());
  ASSERT_TRUE(doc && doc->is_object());
  std::vector<std::uint64_t> pop_order;
  for (const obs::json::Value& e : doc->find("events")->array)
    if (e.find("kind")->string == "pop")
      pop_order.push_back(static_cast<std::uint64_t>(e.find("request_id")->number));
  EXPECT_EQ(pop_order, want_order)
      << "pops must drain high, then normal, then batch FIFO";
  std::remove(dump_path.c_str());
}

TEST(Serve, PauseParksWorkersAndResumeRestarts) {
  Server server(make_server(base_options()));
  EXPECT_EQ(server.submit({.input = sample(0)}).get().status, Status::kOk);

  server.pause();
  server.pause();  // idempotent
  // Give the worker time to observe the pause before staging new work.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Ticket parked = server.submit({.input = sample(1)});
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(parked.ready()) << "paused server must not serve";
  EXPECT_EQ(server.queue_depth(), 1u);
  EXPECT_TRUE(server.accepting()) << "pause is not drain: admission stays open";

  server.resume();
  const Response r = parked.get();
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_TRUE(bit_identical(r.logits, reference_logits()[1]));
  server.drain();
}

// ---------------------------------------------------------------------------
// Request-scoped observability
// ---------------------------------------------------------------------------

/// One span decoded from the exported chrome://tracing JSON.
struct ParsedSpan {
  std::string name;
  int tid = 0;
  double ts = 0.0, dur = 0.0;
  std::map<std::string, double> args;
};

std::vector<ParsedSpan> parse_trace(const std::string& trace_json) {
  const std::optional<obs::json::Value> doc = obs::json::parse(trace_json);
  EXPECT_TRUE(doc && doc->is_object()) << "trace JSON must parse";
  std::vector<ParsedSpan> out;
  if (!doc) return out;
  const obs::json::Value* events = doc->find("traceEvents");
  EXPECT_TRUE(events && events->is_array());
  if (!events) return out;
  for (const obs::json::Value& e : events->array) {
    const obs::json::Value* ph = e.find("ph");
    if (!ph || ph->string != "X") continue;  // skip metadata events
    ParsedSpan s;
    s.name = e.find("name")->string;
    s.tid = static_cast<int>(e.find("tid")->number);
    s.ts = e.find("ts")->number;
    s.dur = e.find("dur")->number;
    if (const obs::json::Value* args = e.find("args"); args && args->is_object())
      for (const auto& [k, v] : args->object) s.args[k] = v.number;
    out.push_back(std::move(s));
  }
  return out;
}

const ParsedSpan* find_span(const std::vector<ParsedSpan>& spans,
                            const std::string& name, const char* key,
                            double value) {
  for (const ParsedSpan& s : spans) {
    const auto it = s.args.find(key);
    if (s.name == name && it != s.args.end() && it->second == value) return &s;
  }
  return nullptr;
}

// The tentpole guarantee: every served request shows up in the exported trace
// as one id-correlated tree — queue (admission row) -> batch_wait / request
// (worker row) -> the batch's run span -> the per-layer spans, all stitched
// by request_id / batch_id args. And tracing must not change the arithmetic.
TEST(ServeObservability, TracedRequestFormsIdCorrelatedSpanTree) {
  ServerOptions opts = base_options();
  opts.trace = true;
  Server server(make_server(opts));
  std::vector<Ticket> tickets;
  for (int i = 0; i < 6; ++i) tickets.push_back(server.submit({.input = sample(i)}));
  std::vector<Response> responses;
  for (Ticket& t : tickets) responses.push_back(t.get());
  server.drain();

  for (std::size_t i = 0; i < responses.size(); ++i) {
    ASSERT_EQ(responses[i].status, Status::kOk);
    EXPECT_GT(responses[i].request_id, 0u);
    EXPECT_TRUE(bit_identical(responses[i].logits, reference_logits()[i]))
        << "tracing changed request " << i;
  }

  const std::vector<ParsedSpan> spans =
      parse_trace(server.tracer().to_trace_event_json("serve_test"));
  ASSERT_FALSE(spans.empty());
  for (const Response& r : responses) {
    const auto id = static_cast<double>(r.request_id);
    // queue span on the admission row (tid 0), carrying both ids.
    const ParsedSpan* queue = find_span(spans, "queue", "request_id", id);
    ASSERT_NE(queue, nullptr) << "no queue span for request " << r.request_id;
    EXPECT_EQ(queue->tid, 0);
    ASSERT_TRUE(queue->args.count("batch_id"));
    const double batch_id = queue->args.at("batch_id");

    // request envelope + batch_wait on the worker row, same ids.
    const ParsedSpan* request = find_span(spans, "request", "request_id", id);
    ASSERT_NE(request, nullptr);
    EXPECT_EQ(request->args.at("batch_id"), batch_id);
    EXPECT_GT(request->tid, 0);
    ASSERT_NE(find_span(spans, "batch_wait", "request_id", id), nullptr);

    // the batch's own spans.
    const ParsedSpan* batch = find_span(spans, "batch", "batch_id", batch_id);
    ASSERT_NE(batch, nullptr);
    EXPECT_GE(batch->args.at("size"), 1.0);
    const ParsedSpan* run = find_span(spans, "run", "batch_id", batch_id);
    ASSERT_NE(run, nullptr);
    EXPECT_EQ(run->tid, request->tid);

    // per-layer spans recorded inside the forward under the same batch id,
    // on the worker's row (the thread-local TraceContext bridge).
    const ParsedSpan* forward = find_span(spans, "forward", "batch_id", batch_id);
    ASSERT_NE(forward, nullptr);
    EXPECT_EQ(forward->tid, request->tid);
    bool layer_span = false;
    for (const ParsedSpan& s : spans)
      if (s.name.find('#') != std::string::npos && s.args.count("batch_id") &&
          s.args.at("batch_id") == batch_id && s.tid == request->tid)
        layer_span = true;
    EXPECT_TRUE(layer_span) << "no per-layer span for batch " << batch_id;
  }
}

TEST(ServeObservability, UntracedServingRecordsNoSpans) {
  Server server(make_server(base_options()));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(server.submit({.input = sample(i)}).get().status, Status::kOk);
  server.drain();
  EXPECT_EQ(server.tracer().span_count(), 0u);
}

TEST(ServeObservability, RequestIdsAreMintedMonotonically) {
  ServerOptions opts = base_options();
  opts.queue_capacity = 1;
  opts.start_paused = true;
  Server server(make_server(opts));
  Ticket admitted = server.submit({.input = sample(0)});  // fills the 1-deep queue
  // Rejected requests get ids too — the flight recorder names them.
  Ticket r1 = server.submit({.input = sample(1)});
  Ticket r2 = server.submit({.input = sample(2)});
  ASSERT_TRUE(r1.ready() && r2.ready());
  const Response rej1 = r1.get();
  const Response rej2 = r2.get();
  EXPECT_EQ(rej1.status, Status::kQueueFull);
  EXPECT_EQ(rej2.status, Status::kQueueFull);
  EXPECT_EQ(rej2.request_id, rej1.request_id + 1);
  server.resume();
  server.drain();
  EXPECT_EQ(admitted.get().request_id, rej1.request_id - 1);
}

/// A layer that throws on every forward — the injected worker fault.
class BombLayer final : public nn::Layer {
 public:
  Tensor forward(const Tensor&) override {
    throw std::runtime_error("bomb layer detonated");
  }
  Tensor backward(const Tensor& g) override { return g; }
  [[nodiscard]] std::string name() const override { return "bomb"; }
};

TEST(ServeObservability, WorkerExceptionDumpsFlightNamingTheBatchRequestIds) {
  const std::string dump_path = "serve_test_flight_error_w0.json";
  std::remove(dump_path.c_str());

  ServerOptions opts;
  opts.workers = 1;
  opts.max_batch = 4;
  opts.max_delay_us = 0;
  opts.start_paused = true;  // stage one deterministic batch of 3
  opts.flight_dump_prefix = "serve_test_flight";
  Server server([] {
    nn::Network net;
    net.add<BombLayer>();
    return net;
  }, opts);

  std::vector<Ticket> tickets;
  for (int i = 0; i < 3; ++i) tickets.push_back(server.submit({.input = sample(i)}));
  server.resume();
  std::vector<std::uint64_t> failed_ids;
  for (Ticket& t : tickets) {
    Response r = t.get();
    EXPECT_EQ(r.status, Status::kError);
    EXPECT_NE(r.error.find("bomb layer detonated"), std::string::npos) << r.error;
    failed_ids.push_back(r.request_id);
  }
  server.drain();

  // The dump must exist, parse, and name exactly the failing batch's ids.
  std::ifstream in(dump_path);
  ASSERT_TRUE(in.good()) << "expected flight dump at " << dump_path;
  std::stringstream body;
  body << in.rdbuf();
  const std::optional<obs::json::Value> doc = obs::json::parse(body.str());
  ASSERT_TRUE(doc && doc->is_object());
  EXPECT_NE(doc->find("reason")->string.find("worker exception"), std::string::npos);
  const obs::json::Value* events = doc->find("events");
  ASSERT_TRUE(events && events->is_array());
  std::vector<std::uint64_t> dumped_ids;
  bool exception_event = false;
  for (const obs::json::Value& e : events->array) {
    const std::string& kind = e.find("kind")->string;
    if (kind == "resolve_error")
      dumped_ids.push_back(static_cast<std::uint64_t>(e.find("request_id")->number));
    if (kind == "worker_exception") {
      exception_event = true;
      const obs::json::Value* detail = e.find("detail");
      ASSERT_NE(detail, nullptr);
      EXPECT_NE(detail->string.find("bomb layer"), std::string::npos);
    }
  }
  EXPECT_TRUE(exception_event);
  EXPECT_EQ(dumped_ids, failed_ids);
  std::remove(dump_path.c_str());
}

TEST(ServeObservability, RejectBurstDumpsOverloadFile) {
  const std::string dump_path = "serve_test_burst_overload.json";
  std::remove(dump_path.c_str());

  ServerOptions opts = base_options();
  opts.queue_capacity = 1;
  opts.start_paused = true;
  opts.reject_burst = 3;
  opts.flight_dump_prefix = "serve_test_burst";
  Server server(make_server(opts));
  (void)server.submit({.input = sample(0)});
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(server.submit({.input = sample(0)}).get().status, Status::kQueueFull);

  std::ifstream in(dump_path);
  ASSERT_TRUE(in.good()) << "expected overload dump at " << dump_path;
  std::stringstream body;
  body << in.rdbuf();
  const std::optional<obs::json::Value> doc = obs::json::parse(body.str());
  ASSERT_TRUE(doc && doc->is_object());
  EXPECT_NE(doc->find("reason")->string.find("reject burst"), std::string::npos);
  int rejects = 0;
  for (const obs::json::Value& e : doc->find("events")->array)
    if (e.find("kind")->string == "reject") ++rejects;
  EXPECT_EQ(rejects, 3);
  server.resume();
  server.drain();
  std::remove(dump_path.c_str());
}

TEST(ServeObservability, FlightRecorderCanBeDisabled) {
  ServerOptions opts = base_options();
  opts.flight_recorder = false;
  Server server(make_server(opts));
  EXPECT_EQ(server.flight_recorder(), nullptr);
  EXPECT_EQ(server.dump_flight("unused.json"), "");
  EXPECT_EQ(server.submit({.input = sample(0)}).get().status, Status::kOk);
  server.drain();
}

TEST(ServeObservability, QueueDepthPeakIsAHighWaterMark) {
  ServerOptions opts = base_options();
  opts.start_paused = true;
  Server server(make_server(opts));
  for (int i = 0; i < 5; ++i) (void)server.submit({.input = sample(i)});
  server.resume();
  server.drain();
  // After draining the live depth is 0, but the peak must remember the burst.
  EXPECT_EQ(server.metrics().gauge("serve.queue_depth").get(), 0.0);
  EXPECT_EQ(server.metrics().gauge("serve.queue_depth_peak").get(), 5.0);
}

// Regression for the overload-forensics contract: a reject burst fed by
// shedding must dump a flight file in which every shed event names the
// victim's priority class (detail), the victim's id (request_id), and the
// arriving request that displaced it (arg1) — otherwise the dump can't
// answer "who got sacrificed for whom".
TEST(ServeObservability, RejectBurstDumpRecordsShedVictimClasses) {
  const std::string dump_path = "serve_test_shedburst_overload.json";
  std::remove(dump_path.c_str());

  ServerOptions opts = base_options();
  opts.queue_capacity = 2;
  opts.start_paused = true;
  opts.reject_burst = 3;
  opts.flight_dump_prefix = "serve_test_shedburst";
  Server server(make_server(opts));

  Ticket b1 = server.submit({.input = sample(0), .priority = Priority::kBatch});
  Ticket b2 = server.submit({.input = sample(1), .priority = Priority::kBatch});
  Ticket h1 = server.submit({.input = sample(2), .priority = Priority::kHigh});  // sheds b1
  Ticket h2 = server.submit({.input = sample(3), .priority = Priority::kHigh});  // sheds b2
  // Queue now holds only high => the third overload event is a hard reject,
  // tripping the burst threshold of 3 (sheds count toward the streak).
  Ticket h3 = server.submit({.input = sample(4), .priority = Priority::kHigh});
  const Response rb1 = b1.get();
  const Response rb2 = b2.get();
  ASSERT_EQ(rb1.status, Status::kShed);
  ASSERT_EQ(rb2.status, Status::kShed);
  ASSERT_EQ(h3.get().status, Status::kQueueFull);
  server.resume();
  server.drain();
  const Response rh1 = h1.get();
  const Response rh2 = h2.get();
  EXPECT_EQ(rh1.status, Status::kOk);
  EXPECT_EQ(rh2.status, Status::kOk);

  std::ifstream in(dump_path);
  ASSERT_TRUE(in.good()) << "expected overload dump at " << dump_path;
  std::stringstream body;
  body << in.rdbuf();
  const std::optional<obs::json::Value> doc = obs::json::parse(body.str());
  ASSERT_TRUE(doc && doc->is_object());
  EXPECT_NE(doc->find("reason")->string.find("reject burst"), std::string::npos);

  const std::uint64_t victim_ids[2] = {rb1.request_id, rb2.request_id};
  const std::uint64_t shedder_ids[2] = {rh1.request_id, rh2.request_id};
  int sheds = 0, rejects = 0;
  for (const obs::json::Value& e : doc->find("events")->array) {
    const std::string& kind = e.find("kind")->string;
    if (kind == "reject") ++rejects;
    if (kind != "shed") continue;
    const int i = sheds++;
    ASSERT_LT(i, 2);
    const obs::json::Value* detail = e.find("detail");
    ASSERT_NE(detail, nullptr) << "shed event must name the victim's class";
    EXPECT_EQ(detail->string, "batch");
    EXPECT_EQ(static_cast<std::uint64_t>(e.find("request_id")->number),
              victim_ids[i]);
    EXPECT_EQ(static_cast<std::uint64_t>(e.find("arg1")->number),
              shedder_ids[i]);
  }
  EXPECT_EQ(sheds, 2);
  EXPECT_EQ(rejects, 1);
  std::remove(dump_path.c_str());
}

// ---------------------------------------------------------------------------
// Multi-tenant registry and mid-flight hot swap
// ---------------------------------------------------------------------------

EngineConfig beta_engine() {
  return {.kind = EngineKind::kFixed, .n_bits = 10, .threads = 1};
}

/// Direct single-session forwards over the whole dataset for one
/// (engine, checkpoint) pair — the per-tenant / per-generation reference.
std::vector<Tensor> direct_logits(const std::optional<EngineConfig>& engine,
                                  const std::vector<float>* params = nullptr) {
  const Tensor calib = calibration_batch();
  nn::Network net = make_net();
  if (params) net.load_parameters(*params);
  nn::InferenceSession session(std::move(net), /*threads=*/1);
  session.calibrate(calib);
  if (engine) session.set_engine(*engine);
  std::vector<Tensor> out;
  for (int i = 0; i < test_data().images.n(); ++i)
    out.push_back(session.forward(sample(i)));
  return out;
}

TenantInit make_tenant(const std::string& name, const EngineConfig& engine) {
  TenantInit init;
  init.options.name = name;
  init.options.engine = engine;
  init.factory = [] { return make_net(); };
  init.calibration = calibration_batch();
  return init;
}

/// A genuinely different checkpoint: every parameter halved.
std::vector<float> perturbed_params(float scale = 0.5f) {
  nn::Network net = make_net();
  std::vector<float> p = net.save_parameters();
  for (float& v : p) v *= scale;
  return p;
}

// Two tenants with different arithmetic (proposed 8-bit vs fixed 10-bit)
// served concurrently over one worker pool: every response must be
// bit-identical to ITS tenant's direct single-session forward, with 1 and 4
// workers.
TEST(ServeMultiTenant, TenantsWithDifferentEnginesServeBitIsolated) {
  const std::vector<Tensor> alpha_ref = direct_logits(test_engine());
  const std::vector<Tensor> beta_ref = direct_logits(beta_engine());
  ASSERT_FALSE(bit_identical(alpha_ref[0], beta_ref[0]))
      << "engines must actually differ for isolation to be observable";
  for (const int workers : {1, 4}) {
    ServerOptions opts = base_options();
    opts.workers = workers;
    opts.queue_capacity = 256;
    std::vector<TenantInit> tenants;
    tenants.push_back(make_tenant("alpha", test_engine()));
    tenants.push_back(make_tenant("beta", beta_engine()));
    Server server(std::move(tenants), opts);
    ASSERT_EQ(server.registry().count(), 2);
    std::vector<Ticket> a, b;
    for (int i = 0; i < 12; ++i) {  // interleaved admission order
      a.push_back(server.submit({.tenant = "alpha", .input = sample(i)}));
      b.push_back(server.submit({.tenant = "beta", .input = sample(i)}));
    }
    for (std::size_t i = 0; i < 12; ++i) {
      Response ra = a[i].get();
      Response rb = b[i].get();
      ASSERT_EQ(ra.status, Status::kOk)
          << "workers=" << workers << " alpha " << i << ": " << ra.error;
      ASSERT_EQ(rb.status, Status::kOk)
          << "workers=" << workers << " beta " << i << ": " << rb.error;
      EXPECT_EQ(ra.tenant, "alpha");
      EXPECT_EQ(rb.tenant, "beta");
      EXPECT_EQ(ra.epoch, 0u);
      EXPECT_EQ(rb.epoch, 0u);
      EXPECT_TRUE(bit_identical(ra.logits, alpha_ref[i]))
          << "workers=" << workers << " alpha " << i;
      EXPECT_TRUE(bit_identical(rb.logits, beta_ref[i]))
          << "workers=" << workers << " beta " << i;
    }
    server.drain();
    EXPECT_EQ(counter_total(server.metrics(), "serve.alpha.completed"), 12u);
    EXPECT_EQ(counter_total(server.metrics(), "serve.beta.completed"), 12u);
    EXPECT_EQ(counter_total(server.metrics(), "serve.completed"), 24u);
  }
}

// The epoch barrier, pinned: for a fixed submission order the old/new
// partition is a pure function of that order — identical across 10 runs,
// with every response bit-identical to a direct forward against the
// generation it was admitted under.
TEST(ServeMultiTenant, HotSwapPartitionIsDeterministicAcrossRuns) {
  const std::vector<float> new_params = perturbed_params();
  const std::vector<Tensor> old_ref = direct_logits(test_engine());
  const std::vector<Tensor> new_ref = direct_logits(test_engine(), &new_params);
  ASSERT_FALSE(bit_identical(old_ref[0], new_ref[0]))
      << "the swapped checkpoint must be observably different";
  std::vector<std::uint64_t> first_partition;
  for (int run = 0; run < 10; ++run) {
    ServerOptions opts = base_options();
    opts.workers = 2;
    Server server(make_server(opts));
    std::vector<Ticket> tickets;
    for (int i = 0; i < 8; ++i)
      tickets.push_back(server.submit({.input = sample(i)}));
    EXPECT_EQ(server.swap("default", new_params), 1u);
    for (int i = 8; i < 16; ++i)
      tickets.push_back(server.submit({.input = sample(i)}));
    server.drain();

    std::vector<std::uint64_t> partition;
    for (int i = 0; i < 16; ++i) {
      Response r = tickets[static_cast<std::size_t>(i)].get();
      ASSERT_EQ(r.status, Status::kOk) << "run " << run << " request " << i;
      partition.push_back(r.epoch);
      const std::vector<Tensor>& ref = r.epoch == 0 ? old_ref : new_ref;
      EXPECT_TRUE(bit_identical(r.logits, ref[static_cast<std::size_t>(i)]))
          << "run " << run << " request " << i << " epoch " << r.epoch;
    }
    // Admitted before the swap -> old model; after -> new model. Always.
    for (int i = 0; i < 8; ++i) EXPECT_EQ(partition[static_cast<std::size_t>(i)], 0u);
    for (int i = 8; i < 16; ++i) EXPECT_EQ(partition[static_cast<std::size_t>(i)], 1u);
    if (run == 0)
      first_partition = partition;
    else
      EXPECT_EQ(partition, first_partition) << "run " << run;
    EXPECT_EQ(server.metrics().gauge("serve.default.epoch").get(), 1.0);
    EXPECT_EQ(counter_total(server.metrics(), "serve.default.swaps"), 1u);
  }
}

// Swapping while concurrent submitters hammer the server must never produce
// kError, and every kOk response must match the direct forward of exactly
// the generation it was admitted under.
TEST(ServeMultiTenant, SwapUnderConcurrentLoadIsErrorFreeAndEpochConsistent) {
  const std::vector<float> p1 = perturbed_params(0.5f);
  const std::vector<float> p2 = perturbed_params(0.25f);
  std::vector<std::vector<Tensor>> refs;
  refs.push_back(direct_logits(test_engine()));
  refs.push_back(direct_logits(test_engine(), &p1));
  refs.push_back(direct_logits(test_engine(), &p2));

  ServerOptions opts = base_options();
  opts.workers = 2;
  opts.queue_capacity = 256;
  Server server(make_server(opts));

  constexpr int kThreads = 2;
  constexpr int kPerThread = 24;
  std::atomic<int> ok{0}, errors{0}, mismatched{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerThread; ++i) {
        const int idx = (c * kPerThread + i) % test_data().images.n();
        Response r = server.submit({.input = sample(idx)}).get();
        if (r.status == Status::kError) {
          ++errors;
          continue;
        }
        if (r.status != Status::kOk) continue;
        ++ok;
        if (r.epoch > 2 ||
            !bit_identical(r.logits,
                           refs[static_cast<std::size_t>(r.epoch)]
                               [static_cast<std::size_t>(idx)]))
          ++mismatched;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(server.swap("default", p1), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(server.swap("default", p2), 2u);
  for (std::thread& t : clients) t.join();
  server.drain();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatched.load(), 0);
  EXPECT_EQ(ok.load(), kThreads * kPerThread);  // capacity 256 => no rejects
  EXPECT_EQ(server.registry().generation_count(0), 3u);
  EXPECT_EQ(counter_total(server.metrics(), "serve.default.swaps"), 2u);
}

TEST(ServeMultiTenant, InvalidRequestFieldsThrowNamingTheField) {
  Server server(make_server(base_options()));
  const auto expect_throw = [&](Request req, const char* needle) {
    try {
      (void)server.submit(std::move(req));
      FAIL() << "expected invalid_argument mentioning " << needle;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_throw({.tenant = "ghost", .input = sample(0)},
               "serve::Request.tenant = \"ghost\"");
  expect_throw({.tenant = "ghost", .input = sample(0)}, "known tenants: default");
  expect_throw({.input = Tensor(2, 1, 28, 28)}, "serve::Request.input");
  expect_throw({.input = sample(0), .deadline_us = -2},
               "serve::Request.deadline_us = -2");
  Tensor nan_input = sample(0);
  nan_input.data()[17] = std::numeric_limits<float>::quiet_NaN();
  expect_throw({.input = nan_input},
               "serve::Request.input: non-finite value at element 17");
  Tensor inf_input = sample(0);
  inf_input.data()[300] = std::numeric_limits<float>::infinity();
  expect_throw({.input = inf_input},
               "serve::Request.input: non-finite value at element 300");
  // Rejected before admission: no counter or queue slot moved.
  EXPECT_EQ(counter_total(server.metrics(), "serve.submitted"), 0u);
  EXPECT_EQ(counter_total(server.metrics(), "serve.rejected"), 0u);
  EXPECT_EQ(server.queue_depth(), 0u);
  // A caller-chosen correlation id is honored verbatim.
  Response r = server.submit({.input = sample(0), .request_id = 777}).get();
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.request_id, 777u);
  EXPECT_EQ(r.tenant, "default");
}

TEST(ServeMultiTenant, SwapValidatesTenantAndParameterCount) {
  Server server(make_server(base_options()));
  EXPECT_THROW(server.swap("ghost", {}), std::invalid_argument);
  try {
    server.swap("default", std::vector<float>(3, 0.0f));
    FAIL() << "expected invalid_argument naming the parameter count";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("3 parameters"), std::string::npos) << msg;
    EXPECT_NE(msg.find("expected"), std::string::npos) << msg;
  }
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
    std::vector<float> poisoned = perturbed_params();
    poisoned[5] = bad;
    try {
      server.swap("default", std::move(poisoned));
      FAIL() << "expected invalid_argument naming the non-finite element";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("tenant \"default\""), std::string::npos) << msg;
      EXPECT_NE(msg.find("non-finite parameter at element 5"), std::string::npos)
          << msg;
    }
  }
  // Failed swaps leave the registry untouched and the server serving the
  // old generation bit-exactly.
  EXPECT_EQ(server.registry().epoch(0), 0u);
  EXPECT_EQ(server.registry().generation_count(0), 1u);
  EXPECT_EQ(counter_total(server.metrics(), "serve.default.swaps"), 0u);
  const Response r = server.submit({.input = sample(0)}).get();
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.epoch, 0u);
  EXPECT_TRUE(bit_identical(r.logits, reference_logits()[0]));
}

TEST(ServeObservability, InvalidFlightOptionsThrow) {
  ServerOptions opts;
  opts.flight_capacity = 0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts = ServerOptions{};
  opts.reject_burst = -1;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace scnn::serve
