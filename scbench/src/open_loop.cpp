#include "open_loop.hpp"

#include <condition_variable>
#include <deque>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>

namespace scbench {

namespace {

struct InFlight {
  serve::Ticket ticket;
  Record rec;
  std::uint64_t request_span = 0;
};

// A shared host wakes a sleeping thread milliseconds late at the p99, and
// latency is timed from the due time, so the generator spins through the
// last stretch before each due time instead of sleeping into it. It yields
// while it spins, so a worker or the collector woken on its core runs first.
constexpr auto kSpinWindow = std::chrono::milliseconds(5);

void wait_until(Clock::time_point t) {
  if (t - Clock::now() > kSpinWindow) std::this_thread::sleep_until(t - kSpinWindow);
  while (Clock::now() < t) std::this_thread::yield();
}

}  // namespace

PhaseOutcome run_phase(serve::Server& server, const std::vector<TenantLoad>& tenants,
                       std::span<const Arrival> schedule, std::span<const SwapPlan> swaps,
                       SpanLog& spans, std::uint64_t& next_request_id,
                       std::size_t abort_depth) {
  PhaseOutcome out;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> pending;
  bool done = false;

  std::thread collector([&] {
    for (;;) {
      InFlight f;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return done || !pending.empty(); });
        if (pending.empty()) return;
        f = std::move(pending.front());
        pending.pop_front();
      }
      serve::Response resp = f.ticket.get();
      Record& rec = f.rec;
      rec.status = resp.status;
      rec.epoch = resp.epoch;
      rec.batch_size = resp.batch_size;
      rec.queue_us = resp.queue_us;
      rec.run_us = resp.run_us;
      rec.total_us = resp.total_us;
      if (resp.status == serve::Status::kOk) {
        const TenantLoad& t = tenants[static_cast<std::size_t>(rec.tenant)];
        const auto& ref = t.refs[resp.epoch % t.refs.size()][static_cast<std::size_t>(rec.image)];
        rec.match = resp.request_id == rec.request_id && same_bits(ref, resp.logits);
      }
      if (spans.enabled()) {
        const auto run_end = rec.resolved();
        const auto us = [](double v) {
          return std::chrono::nanoseconds(static_cast<std::int64_t>(v * 1e3));
        };
        const auto submit_end = rec.submitted + us(rec.submit_us);
        const auto req_end = std::max(run_end, submit_end);
        spans.record(spans.next_id(), "serve.queue", rec.submitted,
                     std::min(rec.submitted + us(rec.queue_us), req_end), kRowCollector,
                     f.request_span, rec.request_id);
        spans.record(spans.next_id(), "serve.run",
                     std::max(rec.submitted, run_end - us(rec.run_us)), run_end, kRowCollector,
                     f.request_span, rec.request_id);
        spans.record(f.request_span, "serve.request", std::min(rec.due, rec.submitted), req_end,
                     kRowCollector, 0, rec.request_id);
      }
      out.records.push_back(rec);
    }
  });

  const auto start = Clock::now() + std::chrono::milliseconds(2);
  std::size_t next_swap = 0;
  const auto do_swaps_before = [&](double t_s) {
    for (; next_swap < swaps.size() && swaps[next_swap].t_s <= t_s; ++next_swap) {
      const SwapPlan& sp = swaps[next_swap];
      const TenantLoad& t = tenants[static_cast<std::size_t>(sp.tenant)];
      const std::uint64_t next_epoch = server.registry().epoch(server.registry().index_of(t.name)) + 1;
      std::vector<float> params = t.ckpts[next_epoch % t.ckpts.size()];
      wait_until(start + std::chrono::nanoseconds(static_cast<std::int64_t>(sp.t_s * 1e9)));
      const std::uint64_t id = spans.next_id();
      const auto t0 = Clock::now();
      const std::uint64_t epoch = server.swap(t.name, std::move(params));
      const auto t1 = Clock::now();
      spans.record(id, "serve.registry.swap", t0, t1, kRowGenerator);
      out.swaps.push_back({.tenant = sp.tenant,
                           .epoch = epoch,
                           .call_us = std::chrono::duration<double, std::micro>(t1 - t0).count(),
                           .returned = t1});
    }
  };

  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Arrival& a = schedule[i];
    do_swaps_before(a.t_s);
    const TenantLoad& t = tenants[static_cast<std::size_t>(a.tenant)];
    serve::Request req{.tenant = t.name,
                       .input = t.images[static_cast<std::size_t>(a.image)],
                       .priority = static_cast<serve::Priority>(a.priority),
                       .request_id = next_request_id++};
    InFlight f;
    f.rec.tenant = a.tenant;
    f.rec.priority = a.priority;
    f.rec.image = a.image;
    f.rec.t_s = a.t_s;
    f.rec.request_id = req.request_id;
    f.rec.due = start + std::chrono::nanoseconds(static_cast<std::int64_t>(a.t_s * 1e9));
    f.request_span = spans.next_id();
    const std::uint64_t submit_span = spans.next_id();
    wait_until(f.rec.due);
    const auto t0 = Clock::now();
    f.ticket = server.submit(std::move(req));
    const auto t1 = Clock::now();
    spans.record(submit_span, "serve.submit", t0, t1, kRowGenerator, f.request_span,
                 f.rec.request_id);
    f.rec.submitted = t0;
    f.rec.submit_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
    {
      std::lock_guard<std::mutex> lk(mu);
      pending.push_back(std::move(f));
    }
    cv.notify_one();
    if (abort_depth > 0 && i % 8 == 7 && server.queue_depth() > abort_depth) {
      out.aborted = true;
      break;
    }
  }
  out.queue_depth_end = server.queue_depth();
  {
    std::lock_guard<std::mutex> lk(mu);
    done = true;
  }
  cv.notify_one();
  collector.join();
  if (!out.records.empty()) {
    Clock::time_point last = out.records.front().resolved();
    for (const Record& r : out.records) last = std::max(last, r.resolved());
    out.duration_s = std::chrono::duration<double>(last - start).count();
  }
  return out;
}

void account(const PhaseOutcome& p, Result& r) {
  r.attempted += p.records.size();
  for (const Record& rec : p.records) {
    switch (rec.status) {
      case serve::Status::kOk:
        if (!rec.match) r.fail("mismatch");
        break;
      case serve::Status::kQueueFull:
      case serve::Status::kShutdown:
        r.fail("queue_full");
        break;
      case serve::Status::kShed:
        r.fail("shed");
        break;
      case serve::Status::kTimedOut:
        r.fail("timed_out");
        break;
      case serve::Status::kError:
        r.fail("error");
        break;
    }
  }
}

StepVerdict judge_step(double p99_ms, double late_p99_ms, std::uint64_t failed,
                       bool aborted, bool backlog, double limit_ms, double late_share) {
  StepVerdict v;
  v.valid = late_p99_ms <= late_share * limit_ms;
  v.passed = v.valid && failed == 0 && !aborted && !backlog && p99_ms <= limit_ms;
  return v;
}

std::vector<BatchSample> distinct_batches(const std::vector<Record>& records) {
  // Every request of one batch carries that batch's run_us and size; two
  // different batches agreeing on both to the nanosecond is vanishingly rare.
  std::set<std::tuple<int, std::uint64_t, double, int>> seen;
  std::vector<BatchSample> out;
  for (const Record& r : records) {
    if (r.status != serve::Status::kOk) continue;
    if (seen.emplace(r.tenant, r.epoch, r.run_us, r.batch_size).second)
      out.push_back({r.tenant, r.run_us, r.batch_size});
  }
  return out;
}

SwapVisibility swap_visibility(const PhaseOutcome& p) {
  SwapVisibility v;
  for (const SwapRecord& s : p.swaps) {
    v.call_us.push_back(s.call_us);
    const Record* first = nullptr;
    for (const Record& r : p.records)
      if (r.tenant == s.tenant && r.epoch == s.epoch && r.match &&
          (!first || r.resolved() < first->resolved()))
        first = &r;
    if (!first) continue;
    v.visible_ms.push_back(ms_between(s.returned, first->resolved()));
    v.first_run_ms.push_back(first->run_us / 1e3);
  }
  return v;
}

void report_serve(const PhaseOutcome& p, const std::vector<TenantLoad>& tenants,
                  serve::Server* server, int max_batch, Result& r) {
  std::vector<double> submit_us, queue_ms, queue_high_ms, resolve_ms, late_ms;
  for (const Record& rec : p.records) {
    submit_us.push_back(rec.submit_us);
    late_ms.push_back(rec.late_ms());
    if (rec.status != serve::Status::kOk) continue;
    queue_ms.push_back(rec.queue_us / 1e3);
    if (rec.priority == static_cast<int>(serve::Priority::kHigh))
      queue_high_ms.push_back(rec.queue_us / 1e3);
    resolve_ms.push_back((rec.total_us - rec.queue_us - rec.run_us) / 1e3);
  }
  r.set("serve.submit_us_p50", quantile(submit_us, 0.5), "us");
  r.set("serve.submit_us_p99", quantile(submit_us, 0.99), "us");
  r.set("serve.queue_ms_p50", quantile(queue_ms, 0.5), "ms");
  r.set("serve.queue_ms_p99", quantile(queue_ms, 0.99), "ms");
  r.set("serve.queue_ms_p99_high", quantile(queue_high_ms, 0.99), "ms");
  r.set("serve.resolve_ms_p50", quantile(resolve_ms, 0.5), "ms");
  r.set("serve.gen_late_ms_p99", quantile(late_ms, 0.99), "ms");

  const std::vector<BatchSample> batches = distinct_batches(p.records);
  std::vector<double> run_ms, tenant_run_ms[2];
  double run_us = 0.0, reqs = 0.0;
  for (const BatchSample& b : batches) {
    run_ms.push_back(b.run_us / 1e3);
    run_us += b.run_us;
    reqs += b.size;
    const std::string& name = tenants[static_cast<std::size_t>(b.tenant)].name;
    if (name == "alpha") tenant_run_ms[0].push_back(b.run_us / 1e3);
    if (name == "beta") tenant_run_ms[1].push_back(b.run_us / 1e3);
  }
  r.set("serve.run_ms_p50", quantile(run_ms, 0.5), "ms");
  r.set("serve.alpha.run_ms_p50", quantile(tenant_run_ms[0], 0.5), "ms");
  r.set("serve.beta.run_ms_p50", quantile(tenant_run_ms[1], 0.5), "ms");
  const double batch_mean = batches.empty() ? 0.0 : reqs / static_cast<double>(batches.size());
  r.set("serve.batch_mean", batch_mean, "count");
  r.set("serve.batch_fill", batch_mean / max_batch, "share");
  r.set("serve.run_us_per_req", reqs > 0 ? run_us / reqs : 0.0, "us");
  r.set("serve.backlog_peak",
        server ? server->metrics().gauge("serve.queue_depth_peak").get() : 0.0, "count");
}

}  // namespace scbench
