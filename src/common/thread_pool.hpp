// Fixed-size worker pool for the inference runtime.
//
// The MAC engines are const LUT lookups and every output element of a layer
// is an independent dot product, so inference parallelism is embarrassingly
// data-parallel: shard the output index space over workers. parallel_for()
// does exactly that with *deterministic* contiguous shards — shard i always
// covers the same index range for a given (count, shard count) — which is
// what lets the threaded forward pass stay bit-identical to the serial one
// and lets per-shard counters be merged in a fixed order.
//
// The index space is over-decomposed: kShardsPerWorker shards per worker,
// each claimed by whichever worker is free next (run_batch). On a shared
// host a vCPU that is descheduled or woken late then delays only the one
// small shard it holds, while the other workers drain the rest, instead of
// setting the time for a whole 1/size() slice of the layer.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <condition_variable>
#include <deque>
#include <span>
#include <thread>
#include <vector>

namespace scnn::common {

class ThreadPool {
 public:
  /// `threads` <= 0 means one worker per hardware thread (at least one).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueue one task; the future observes its completion or exception.
  std::future<void> submit(std::function<void()> task);

  /// Submit a batch and wait for every task to finish. If any task threw,
  /// the exception of the *lowest-indexed* failing task is rethrown (after
  /// all tasks have completed, so captured state stays alive throughout).
  /// An empty batch is a no-op. The batch enters the queue as one runner
  /// per worker (at most one per task); each runner claims the next
  /// unclaimed task index with one atomic increment until none remain, so a
  /// free worker takes the next task without a queue round trip per task.
  void run_batch(std::vector<std::function<void()>> tasks);

 private:
  void worker_loop_();

  std::vector<std::thread> workers_;
  std::deque<std::packaged_task<void()>> queue_;
  std::atomic<std::size_t> queued_{0};  ///< queue_.size(), polled lock-free
                                        ///< by workers about to sleep
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Shards per pool worker that parallel_for() and the conv shard plans cut
/// a layer into. Chosen from a batch-cifar sweep of 4, 8 and 16 on a 4-vCPU
/// host (docs/ALGORITHM.md, "Runtime"): enough small shards that a straggling
/// worker's last shard is short, few enough that a layer's shards stay far
/// larger than the cost of handing one out.
inline constexpr int kShardsPerWorker = 8;

/// Shard [0, count) into parallel_shard_count(pool, count) contiguous ranges
/// and run `body(begin, end, shard)` for each on the pool, waiting for
/// completion. Shard boundaries depend only on (count, shard count), never
/// on timing or on which worker runs a shard. A null pool, a one-worker
/// pool, or count <= 1 runs inline as body(0, count, 0); count == 0 calls
/// nothing.
void parallel_for(ThreadPool* pool, std::int64_t count,
                  const std::function<void(std::int64_t begin, std::int64_t end,
                                           int shard)>& body);

/// Number of shards parallel_for() will use for `count` items on `pool`:
/// min(count, kShardsPerWorker * pool->size()), or 1 without a multi-worker
/// pool (callers size per-shard scratch/counter arrays with this).
[[nodiscard]] int parallel_shard_count(const ThreadPool* pool, std::int64_t count);

/// A deterministic weighted shard plan: [0, n) split into shards() contiguous
/// ranges whose cumulative item weights are as equal as integer prefix-sum
/// splitting allows. Shard s covers [bounds[s], bounds[s+1]) — possibly empty
/// under extreme skew. Only the weights and the shard count determine the
/// bounds, never timing, so planned runs shard identically every time (the
/// same property parallel_for()'s even split has).
struct ShardPlan {
  std::vector<std::int64_t> bounds;  ///< shards() + 1 monotone fenceposts
  std::uint64_t total_weight = 0;    ///< summed (clamped) item weights
  std::uint64_t max_weight = 0;      ///< heaviest shard's weight — the
                                     ///< imbalance numerator; a perfect split
                                     ///< has max == total / shards
  [[nodiscard]] int shards() const {
    return bounds.empty() ? 0 : static_cast<int>(bounds.size()) - 1;
  }
};

/// Split weights.size() items into at most `max_shards` contiguous shards
/// balanced by cumulative weight: shard s ends at the first item whose
/// inclusive prefix weight reaches total * (s+1) / shards. Weights are
/// clamped to >= 1 so zero-weight items still spread across shards. The
/// convolution layers weight items by per-row SC-cycle budgets (k-sums from
/// the packed weight-code cache), which balances the data-dependent latency
/// of the proposed multiplier instead of the row count; any partition of
/// independent items is bit-exact, so this is purely a load-balance choice.
[[nodiscard]] ShardPlan plan_weighted_shards(std::span<const std::uint64_t> weights,
                                             int max_shards);

/// Run `body(begin, end, shard)` for every non-empty shard of `plan` on the
/// pool, waiting for completion (inline when the plan has at most one shard
/// or the pool is null/single-worker). Shard indices are plan shard numbers,
/// so per-shard arrays sized plan.shards() line up even when some shards are
/// empty.
void parallel_for_planned(ThreadPool* pool, const ShardPlan& plan,
                          const std::function<void(std::int64_t begin,
                                                   std::int64_t end, int shard)>& body);

}  // namespace scnn::common
