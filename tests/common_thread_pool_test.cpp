#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace scnn::common {
namespace {

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int>> hits(64);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < hits.size(); ++i)
    tasks.push_back([&hits, i] { hits[i].fetch_add(1); });
  pool.run_batch(std::move(tasks));
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroTaskBatchIsANoOp) {
  ThreadPool pool(2);
  EXPECT_NO_THROW(pool.run_batch({}));
}

TEST(ThreadPool, SubmitFutureObservesCompletion) {
  ThreadPool pool(2);
  std::atomic<int> v{0};
  auto fut = pool.submit([&v] { v.store(42); });
  fut.get();
  EXPECT_EQ(v.load(), 42);
}

TEST(ThreadPool, PropagatesLowestIndexedException) {
  ThreadPool pool(3);
  std::vector<std::function<void()>> tasks;
  tasks.push_back([] {});
  tasks.push_back([] { throw std::runtime_error("first failure"); });
  tasks.push_back([] {});
  tasks.push_back([] { throw std::runtime_error("second failure"); });
  try {
    pool.run_batch(std::move(tasks));
    FAIL() << "expected run_batch to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first failure");
  }
}

TEST(ThreadPool, AutoSizeUsesAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(101);
  parallel_for(&pool, static_cast<std::int64_t>(hits.size()),
               [&](std::int64_t lo, std::int64_t hi, int) {
                 for (std::int64_t i = lo; i < hi; ++i)
                   hits[static_cast<std::size_t>(i)].fetch_add(1);
               });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

using Ranges = std::vector<std::pair<std::int64_t, std::int64_t>>;

Ranges shard_ranges(ThreadPool& pool, std::int64_t count,
                    const std::function<void(int)>& on_shard = {}) {
  Ranges ranges(static_cast<std::size_t>(parallel_shard_count(&pool, count)));
  parallel_for(&pool, count, [&](std::int64_t lo, std::int64_t hi, int shard) {
    if (on_shard) on_shard(shard);
    ranges[static_cast<std::size_t>(shard)] = {lo, hi};
  });
  return ranges;
}

TEST(ParallelFor, ShardLayoutIsDeterministic) {
  // Shard boundaries must depend only on (count, shard count) — this is
  // what keeps per-shard counters mergeable in a fixed order. The space is
  // over-decomposed to kShardsPerWorker shards per worker.
  ThreadPool pool(4);
  const std::int64_t count = 70;
  ASSERT_EQ(kShardsPerWorker, 8);
  ASSERT_EQ(parallel_shard_count(&pool, count), 32);
  // 70 items over 32 shards: the first 70 % 32 = 6 shards take 3 items,
  // the other 26 take 2.
  Ranges expected;
  std::int64_t begin = 0;
  for (int s = 0; s < 32; ++s) {
    const std::int64_t end = begin + (s < 6 ? 3 : 2);
    expected.emplace_back(begin, end);
    begin = end;
  }
  EXPECT_EQ(expected.back().second, count);
  EXPECT_EQ(shard_ranges(pool, count), expected);
}

TEST(ParallelFor, FewerItemsThanShardSlotsGivesOneItemPerShard) {
  ThreadPool pool(4);
  const std::int64_t count = 10;  // < kShardsPerWorker * 4
  ASSERT_EQ(parallel_shard_count(&pool, count), 10);
  Ranges expected;
  for (std::int64_t i = 0; i < count; ++i) expected.emplace_back(i, i + 1);
  EXPECT_EQ(shard_ranges(pool, count), expected);
}

TEST(ParallelFor, StalledShardKeepsLayoutWhileOthersDrain) {
  // Shard 0 stalls until every other shard has finished. That only returns
  // promptly if the free workers take the remaining shards from the shared
  // queue — and the stall must not move any shard boundary.
  ThreadPool pool(4);
  const std::int64_t count = 100;
  const Ranges calm = shard_ranges(pool, count);
  const int shards = parallel_shard_count(&pool, count);
  std::atomic<int> done{0};
  bool drained = false;
  const Ranges stalled = shard_ranges(pool, count, [&](int shard) {
    if (shard == 0) {
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (done.load() < shards - 1 && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      drained = done.load() == shards - 1;
    } else {
      done.fetch_add(1);
    }
  });
  EXPECT_TRUE(drained) << "other shards did not finish while shard 0 was stalled";
  EXPECT_EQ(stalled, calm);
}

TEST(ParallelFor, NullPoolRunsInline) {
  int calls = 0;
  parallel_for(nullptr, 7, [&](std::int64_t lo, std::int64_t hi, int shard) {
    ++calls;
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 7);
    EXPECT_EQ(shard, 0);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, ZeroCountCallsNothing) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for(&pool, 0, [&](std::int64_t, std::int64_t, int) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(parallel_shard_count(&pool, 0), 0);
}

TEST(ParallelFor, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(&pool, 100,
                   [](std::int64_t lo, std::int64_t, int) {
                     if (lo == 0) throw std::invalid_argument("shard 0 failed");
                   }),
      std::invalid_argument);
}

}  // namespace
}  // namespace scnn::common
