// Open-loop load generation against serve::Server.
//
// The calling thread is the generator: it waits until each arrival's due
// time (spinning through the last few milliseconds), submits, and hands the
// Ticket to
// one collector thread, which waits for the Response, checks its logits
// bit-exactly against the precomputed reference for (tenant, checkpoint
// generation, image), and keeps the timings. Latency is timed from the due
// time, so a generator or server stall is charged to every request it
// delays. Hot swaps are scheduled on the same timeline and issued by the
// generator between submissions — the writes beside the reads.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "gen.hpp"
#include "serve/server.hpp"
#include "spans.hpp"

namespace scbench {

namespace serve = scnn::serve;

/// What the load generator knows about one tenant: its route name, the checkpoint
/// generations it cycles through on swaps (epoch e serves ckpts[e % n]),
/// its request images, and the reference logits refs[ckpt][image].
struct TenantLoad {
  std::string name;
  std::vector<std::vector<float>> ckpts;
  std::vector<nn::Tensor> images;  ///< single-image tensors
  std::vector<std::vector<nn::Tensor>> refs;
};

struct SwapPlan {
  double t_s = 0.0;
  int tenant = 0;
};

/// One collected request.
struct Record {
  int tenant = 0, priority = 1, image = 0;
  double t_s = 0.0;  ///< scheduled offset within the phase
  std::uint64_t request_id = 0;
  Clock::time_point due, submitted;
  double submit_us = 0.0;
  serve::Status status = serve::Status::kOk;
  bool match = false;  ///< kOk and bit-identical to the reference
  std::uint64_t epoch = 0;
  int batch_size = 0;
  double queue_us = 0.0, run_us = 0.0, total_us = 0.0;

  [[nodiscard]] double late_ms() const { return ms_between(due, submitted); }
  /// Due time -> response resolved.
  [[nodiscard]] double latency_ms() const { return late_ms() + total_us / 1e3; }
  [[nodiscard]] Clock::time_point resolved() const {
    return submitted + std::chrono::nanoseconds(static_cast<std::int64_t>(total_us * 1e3));
  }
};

struct SwapRecord {
  int tenant = 0;
  std::uint64_t epoch = 0;  ///< the epoch swap() published
  double call_us = 0.0;
  Clock::time_point returned;
};

struct PhaseOutcome {
  std::vector<Record> records;
  std::vector<SwapRecord> swaps;
  bool aborted = false;  ///< stopped early: the queue passed the abort depth
  std::size_t queue_depth_end = 0;  ///< queue depth right after the last submit
  double duration_s = 0.0;          ///< first due time -> last response
};

/// Run one open-loop phase. `abort_depth` > 0 stops submitting once the
/// admission queue holds more than that many requests, so a ladder step
/// past capacity ends before the bounded queue can reject anything.
PhaseOutcome run_phase(serve::Server& server, const std::vector<TenantLoad>& tenants,
                       std::span<const Arrival> schedule, std::span<const SwapPlan> swaps,
                       SpanLog& spans, std::uint64_t& next_request_id,
                       std::size_t abort_depth = 0);

/// Count every record that is not a verified kOk into `r` (by cause), and
/// add the records to r.attempted.
void account(const PhaseOutcome& p, Result& r);

/// Verdict on one step of a rate ladder.
struct StepVerdict {
  bool valid = false;   ///< the generator kept to its schedule
  bool passed = false;  ///< valid, and the server met the latency limit
};

/// A step passes when its generator-lateness p99 is within
/// `late_share` x `limit_ms` (otherwise it is invalid, not passed), no
/// request failed, the phase was not aborted, the queue did not hold a
/// backlog at the end, and its latency p99 is within `limit_ms`.
StepVerdict judge_step(double p99_ms, double late_p99_ms, std::uint64_t failed,
                       bool aborted, bool backlog, double limit_ms, double late_share);

/// Distinct batches among the records, as (tenant, run_us, batch_size).
struct BatchSample {
  int tenant = 0;
  double run_us = 0.0;
  int size = 0;
};
std::vector<BatchSample> distinct_batches(const std::vector<Record>& records);

/// Swap visibility: for every swap, time from swap() returning to the first
/// verified response on the epoch it published, and that response's batch
/// run time (which includes the lazy shard reload).
struct SwapVisibility {
  std::vector<double> visible_ms, first_run_ms, call_us;
};
SwapVisibility swap_visibility(const PhaseOutcome& p);

/// Per-layer serve metrics (admission, wait, busy, resolve, batching,
/// backlog, generator health) of `p` into `r`. A null `server` (a workload
/// without one) reports a zero backlog peak.
void report_serve(const PhaseOutcome& p, const std::vector<TenantLoad>& tenants,
                  serve::Server* server, int max_batch, Result& r);

}  // namespace scbench
