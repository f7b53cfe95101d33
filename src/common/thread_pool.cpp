#include "common/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <utility>

namespace scnn::common {

namespace {
// How long an idle worker polls for new work before it blocks: longer than
// the serial gap between two layers of a forward pass, short enough that an
// idle pool stops using CPU almost at once.
constexpr std::chrono::microseconds kPollBeforeSleep{200};
}  // namespace

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) {
    const unsigned hc = std::thread::hardware_concurrency();
    threads = hc == 0 ? 1 : static_cast<int>(hc);
  }
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) workers_.emplace_back([this] { worker_loop_(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop_() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (queue_.empty() && !stop_) {
        // Poll briefly before sleeping. A forward pass issues its layers'
        // batches back to back; a worker that stays awake between them
        // starts the next one on its own vCPU at once, while a sleeping one
        // is woken late, often onto the caller's busy vCPU.
        lock.unlock();
        const auto until = std::chrono::steady_clock::now() + kPollBeforeSleep;
        while (queued_.load(std::memory_order_relaxed) == 0 &&
               std::chrono::steady_clock::now() < until)
          std::this_thread::yield();
        lock.lock();
      }
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      queued_.store(queue_.size(), std::memory_order_relaxed);
    }
    task();  // packaged_task captures any exception into the future
  }
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> fut = packaged.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(packaged));
    queued_.store(queue_.size(), std::memory_order_relaxed);
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::run_batch(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  // Shared with the runners: one that is dequeued after every task has
  // been claimed (and this call has returned) only reads `next` and exits.
  struct Batch {
    std::vector<std::function<void()>> tasks;
    std::vector<std::exception_ptr> errors;
    std::atomic<std::size_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    std::size_t done = 0;  // guarded by mu
  };
  const auto batch = std::make_shared<Batch>();
  const std::size_t n = tasks.size();
  batch->tasks = std::move(tasks);
  batch->errors.resize(n);
  const auto runner = [batch, n] {
    std::size_t ran = 0;
    for (std::size_t i; (i = batch->next.fetch_add(1, std::memory_order_relaxed)) < n; ++ran) {
      try {
        batch->tasks[i]();
      } catch (...) {
        batch->errors[i] = std::current_exception();
      }
    }
    if (ran == 0) return;
    std::lock_guard<std::mutex> lock(batch->mu);
    batch->done += ran;
    if (batch->done == n) batch->cv.notify_one();
  };
  const std::size_t runners = std::min(n, workers_.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t r = 0; r < runners; ++r) queue_.emplace_back(runner);
    queued_.store(queue_.size(), std::memory_order_relaxed);
  }
  for (std::size_t r = 0; r < runners; ++r) cv_.notify_one();
  {
    std::unique_lock<std::mutex> lock(batch->mu);
    batch->cv.wait(lock, [&] { return batch->done == n; });
  }
  for (const std::exception_ptr& e : batch->errors)
    if (e) std::rethrow_exception(e);
}

int parallel_shard_count(const ThreadPool* pool, std::int64_t count) {
  if (!pool || pool->size() <= 1 || count <= 1) return count > 0 ? 1 : 0;
  return static_cast<int>(
      std::min<std::int64_t>(std::int64_t{kShardsPerWorker} * pool->size(), count));
}

void parallel_for(ThreadPool* pool, std::int64_t count,
                  const std::function<void(std::int64_t, std::int64_t, int)>& body) {
  if (count <= 0) return;
  // Even split: the first count % shards shards take one extra item.
  const int shards = parallel_shard_count(pool, count);
  const std::int64_t chunk = count / shards;
  const std::int64_t rem = count % shards;
  ShardPlan plan;
  plan.bounds.reserve(static_cast<std::size_t>(shards) + 1);
  plan.bounds.push_back(0);
  for (int s = 0; s < shards; ++s)
    plan.bounds.push_back(plan.bounds.back() + chunk + (s < rem ? 1 : 0));
  parallel_for_planned(pool, plan, body);
}

ShardPlan plan_weighted_shards(std::span<const std::uint64_t> weights,
                               int max_shards) {
  ShardPlan plan;
  const std::int64_t n = static_cast<std::int64_t>(weights.size());
  if (n == 0) return plan;
  const int shards = static_cast<int>(
      std::max<std::int64_t>(1, std::min<std::int64_t>(max_shards, n)));
  for (const std::uint64_t w : weights) plan.total_weight += std::max<std::uint64_t>(w, 1);

  plan.bounds.reserve(static_cast<std::size_t>(shards) + 1);
  plan.bounds.push_back(0);
  // Shard s ends at the first item whose inclusive prefix weight reaches
  // total * (s+1) / shards — integer arithmetic in 128 bits, so the bounds
  // are exact and deterministic for any weight magnitudes.
  std::uint64_t prefix = 0;
  std::uint64_t shard_weight = 0;
  std::int64_t i = 0;
  for (int s = 0; s < shards; ++s) {
    const std::uint64_t target = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(plan.total_weight) *
         static_cast<unsigned>(s + 1)) /
        static_cast<unsigned>(shards));
    shard_weight = 0;
    while (i < n && prefix < target) {
      const std::uint64_t w = std::max<std::uint64_t>(weights[static_cast<std::size_t>(i)], 1);
      prefix += w;
      shard_weight += w;
      ++i;
    }
    if (s == shards - 1) {
      // Guard against prefix rounding leaving a tail: the last shard always
      // closes at n.
      while (i < n) {
        const std::uint64_t w = std::max<std::uint64_t>(weights[static_cast<std::size_t>(i)], 1);
        prefix += w;
        shard_weight += w;
        ++i;
      }
    }
    plan.bounds.push_back(i);
    if (shard_weight > plan.max_weight) plan.max_weight = shard_weight;
  }
  return plan;
}

void parallel_for_planned(ThreadPool* pool, const ShardPlan& plan,
                          const std::function<void(std::int64_t, std::int64_t, int)>& body) {
  const int shards = plan.shards();
  if (shards == 0) return;
  if (shards == 1 || !pool || pool->size() <= 1) {
    // Serial execution in shard order — bit-identical to the pooled run for
    // the independent-item bodies this is meant for.
    for (int s = 0; s < shards; ++s)
      if (plan.bounds[static_cast<std::size_t>(s)] <
          plan.bounds[static_cast<std::size_t>(s) + 1])
        body(plan.bounds[static_cast<std::size_t>(s)],
             plan.bounds[static_cast<std::size_t>(s) + 1], s);
    return;
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    const std::int64_t begin = plan.bounds[static_cast<std::size_t>(s)];
    const std::int64_t end = plan.bounds[static_cast<std::size_t>(s) + 1];
    if (begin < end) tasks.push_back([&body, begin, end, s] { body(begin, end, s); });
  }
  pool->run_batch(std::move(tasks));
}

}  // namespace scnn::common
