#include "pragma/util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

namespace pragma::util {
namespace {

TEST(ThreadPool, SubmitReturnsFutureResult) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(pool.get_helping(future), 42);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i)
    futures.push_back(pool.submit([&counter] { ++counter; }));
  for (auto& future : futures) pool.get_helping(future);
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(1);
  auto future = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.get_helping(future), std::runtime_error);
}

TEST(ThreadPool, SizeMatchesRequest) {
  EXPECT_EQ(ThreadPool(3).size(), 3u);
  EXPECT_GE(ThreadPool(0).size(), 1u);  // auto: hardware_concurrency, min 1
}

TEST(ThreadPool, NestedWaitsDoNotDeadlock) {
  // Outer tasks occupy pool workers while each queues inner tasks and
  // waits for them; waiting callers drain the queue, so this completes on
  // any pool size.
  std::atomic<int> total{0};
  ThreadPool& pool = shared_pool();
  std::vector<std::future<void>> futures;
  for (int outer = 0; outer < 8; ++outer)
    futures.push_back(pool.submit([&total, &pool] {
      std::vector<std::future<void>> inner;
      for (int i = 0; i < 4; ++i)
        inner.push_back(pool.submit([&total] { total += 4; }));
      for (auto& future : inner) pool.get_helping(future);
    }));
  for (auto& future : futures) pool.get_helping(future);
  EXPECT_EQ(total.load(), 8 * 16);
}

}  // namespace
}  // namespace pragma::util
