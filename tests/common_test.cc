// Unit tests for src/common: units, stats, rng, result, thread pool, the
// adaptive mutex.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/common/adaptive_mutex.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/thread_pool.h"
#include "src/common/units.h"

namespace cloudtalk {
namespace {

TEST(UnitsTest, TransferTime) {
  // 1 MB at 8 Mbps = 1.048576 seconds (binary MB).
  EXPECT_DOUBLE_EQ(TransferTime(1 * kMB, 8 * kMbps), kMB * 8 / (8e6));
  EXPECT_GT(TransferTime(1, 0), 1e17);  // Zero rate: effectively never.
}

TEST(UnitsTest, RateFor) {
  EXPECT_DOUBLE_EQ(RateFor(1000, 8), 1000.0);  // 1000 B in 8 s = 1000 bps.
  EXPECT_DOUBLE_EQ(RateFor(1000, 0), 0.0);
}

TEST(StatsTest, MeanAndStdDev) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({2.0, 4.0, 6.0}), 4.0);
  EXPECT_DOUBLE_EQ(StdDev({5.0}), 0.0);
  EXPECT_NEAR(StdDev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}), 2.138, 1e-3);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 5.5);
  EXPECT_NEAR(Percentile(v, 99), 9.91, 1e-9);
}

TEST(StatsTest, PercentileUnsortedInput) {
  EXPECT_DOUBLE_EQ(Percentile({9, 1, 5}, 50), 5.0);
}

TEST(StatsTest, MinMax) {
  EXPECT_DOUBLE_EQ(Min({3, 1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(Max({3, 1, 2}), 3.0);
  EXPECT_DOUBLE_EQ(Min({}), 0.0);
}

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(11);
  const std::vector<int> sample = rng.SampleWithoutReplacement(100, 20);
  ASSERT_EQ(sample.size(), 20u);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (int v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
  }
}

TEST(RngTest, SampleWithoutReplacementWholePopulation) {
  Rng rng(11);
  EXPECT_EQ(rng.SampleWithoutReplacement(5, 10).size(), 5u);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok(5);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 5);

  Result<int> err(Error{"boom", 3, 7});
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.error().message, "boom");
  EXPECT_EQ(err.error().ToString(), "boom at line 3, column 7");
}

TEST(ResultTest, ErrorWithoutPosition) {
  Error e{"plain"};
  EXPECT_EQ(e.ToString(), "plain");
}

TEST(ThreadPoolTest, RunsEveryShardExactlyOnce) {
  for (int workers : {0, 1, 3}) {
    ThreadPool pool(workers);
    for (int shards : {1, 2, 7, 64}) {
      std::vector<std::atomic<int>> hits(shards);
      pool.Run(shards, [&](int shard) { hits[shard].fetch_add(1); });
      for (int s = 0; s < shards; ++s) {
        EXPECT_EQ(hits[s].load(), 1) << "workers=" << workers << " shard=" << s;
      }
    }
  }
}

TEST(ThreadPoolTest, RunIsReentrantSequentially) {
  // Back-to-back batches on the shared pool must not deadlock or leak work.
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    ThreadPool::Shared().Run(4, [&](int) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 200);
}

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_EQ(ThreadPool::ResolveThreadCount(1), 1);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(6), 6);
  EXPECT_GE(ThreadPool::ResolveThreadCount(0), 1);   // Hardware concurrency.
  EXPECT_GE(ThreadPool::ResolveThreadCount(-3), 1);
}

TEST(AdaptiveMutexTest, FourThreadsCountExactly) {
  AdaptiveMutex mutex;
  int64_t counter = 0;  // Plain: only the lock orders the increments.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50000; ++i) {
        std::lock_guard<AdaptiveMutex> lock(mutex);
        ++counter;
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter, 200000);
}

TEST(AdaptiveMutexTest, TryLockFailsWhileAnotherThreadHoldsIt) {
  AdaptiveMutex mutex;
  const auto try_from_another_thread = [&mutex] {
    bool taken = false;
    std::thread([&] {
      taken = mutex.try_lock();
      if (taken) {
        mutex.unlock();
      }
    }).join();
    return taken;
  };
  mutex.lock();
  EXPECT_FALSE(try_from_another_thread());
  mutex.unlock();
  EXPECT_TRUE(try_from_another_thread());
}

TEST(AdaptiveMutexTest, ConditionVariableAnyRoundTrip) {
  AdaptiveMutex mutex;
  std::condition_variable_any cv;
  int stage = 0;
  std::thread echo([&] {
    std::unique_lock<AdaptiveMutex> lock(mutex);
    cv.wait(lock, [&] { return stage == 1; });
    stage = 2;
    cv.notify_all();
  });
  {
    std::unique_lock<AdaptiveMutex> lock(mutex);
    stage = 1;
    cv.notify_all();
    cv.wait(lock, [&] { return stage == 2; });
    EXPECT_TRUE(lock.owns_lock());
  }
  echo.join();
  EXPECT_EQ(stage, 2);
}

}  // namespace
}  // namespace cloudtalk
