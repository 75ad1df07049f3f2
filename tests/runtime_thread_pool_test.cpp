#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <set>
#include <stdexcept>
#include <vector>

#include "crypto/random.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"

namespace alidrone::runtime {
namespace {

TEST(ThreadPool, SubmitDeliversReturnValue) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SingleWorkerRunsTasksInSubmissionOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([&order, i] { order.push_back(i); }));
  }
  for (auto& f : futures) f.get();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(future.get(), std::runtime_error);

  // The worker that ran the throwing task must still be alive.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, DestructorDrainsEnqueuedTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // destructor: every task already enqueued must run
  EXPECT_EQ(done.load(), 200);
}

TEST(ThreadPool, WorkerIndexAndRngAreWorkerLocal) {
  EXPECT_EQ(ThreadPool::worker_index(), -1);
  EXPECT_EQ(ThreadPool::worker_rng(), nullptr);

  ThreadPool pool(3);
  std::mutex mu;
  std::set<int> indices;
  std::vector<std::future<void>> futures;
  std::latch gate(3);
  for (int i = 0; i < 3; ++i) {
    futures.push_back(pool.submit([&] {
      // Hold every worker at the gate so all three indices are observed.
      gate.arrive_and_wait();
      ASSERT_NE(ThreadPool::worker_rng(), nullptr);
      ThreadPool::worker_rng()->next_u64();  // private stream, no locking
      const std::lock_guard<std::mutex> lock(mu);
      indices.insert(ThreadPool::worker_index());
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(indices, (std::set<int>{0, 1, 2}));
}

TEST(ThreadPool, PerWorkerRngStreamsAreIndependent) {
  // fork(i) from the same seed must give distinct, reproducible streams.
  crypto::DeterministicRandom base(std::string_view("pool-streams"));
  crypto::DeterministicRandom a = base.fork(0);
  crypto::DeterministicRandom b = base.fork(1);
  crypto::DeterministicRandom a_again = base.fork(0);
  const std::uint64_t va = a.next_u64();
  EXPECT_NE(va, b.next_u64());
  EXPECT_EQ(va, a_again.next_u64());

  // Forking does not consume the parent stream.
  crypto::DeterministicRandom parent1(std::string_view("seed"));
  crypto::DeterministicRandom parent2(std::string_view("seed"));
  parent1.fork(7);
  EXPECT_EQ(parent1.next_u64(), parent2.next_u64());
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<int> touched(1000, 0);
  parallel_for(pool, 0, touched.size(),
               [&](std::size_t i) { ++touched[i]; });
  for (const int t : touched) EXPECT_EQ(t, 1);
}

TEST(ParallelFor, EmptyAndOffsetRanges) {
  ThreadPool pool(2);
  parallel_for(pool, 5, 5, [](std::size_t) { FAIL() << "empty range ran"; });

  std::vector<int> touched(10, 0);
  parallel_for(pool, 3, 7, [&](std::size_t i) { ++touched[i]; });
  for (std::size_t i = 0; i < touched.size(); ++i) {
    EXPECT_EQ(touched[i], (i >= 3 && i < 7) ? 1 : 0) << "index " << i;
  }
}

TEST(ParallelFor, PropagatesFirstException) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      parallel_for(pool, 0, 100,
                   [&](std::size_t i) {
                     ran.fetch_add(1, std::memory_order_relaxed);
                     if (i == 50) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // parallel_for waits for every chunk before rethrowing: nothing may
  // still be incrementing `ran` once it returns.
  const int snapshot = ran.load();
  EXPECT_GE(snapshot, 1);
  EXPECT_LE(snapshot, 100);
  pool.submit([] {}).get();
  EXPECT_EQ(ran.load(), snapshot);
}

}  // namespace
}  // namespace alidrone::runtime
