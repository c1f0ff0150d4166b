/// Concurrency stress tests for ThreadPool (ctest label "stress"; run them
/// under the `tsan` preset): producers racing stop(), queue telemetry under
/// concurrent workers, and completion-chained posts on a pool of one.

#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace hyperear::runtime {
namespace {

TEST(ThreadPoolStress, DrainOnStopRunsEveryAcceptedTaskExactlyOnce) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 400;
  // One flag per potential task: exactly-once means every flag is 0 or 1
  // and the sum matches the accepted count.
  std::vector<std::atomic<int>> runs(kProducers * kPerProducer);
  std::atomic<std::size_t> accepted{0};
  {
    ThreadPool pool(2);
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (std::size_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (std::size_t i = 0; i < kPerProducer; ++i) {
          std::atomic<int>& flag = runs[p * kPerProducer + i];
          try {
            pool.post([&flag] { flag.fetch_add(1, std::memory_order_relaxed); });
            accepted.fetch_add(1, std::memory_order_relaxed);
          } catch (const PreconditionError&) {
            // stop() won the race; the task was never enqueued.
          }
        }
      });
    }
    // Stop mid-stream: some posts land before, some are refused.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    pool.stop();
    for (std::thread& t : producers) t.join();
  }  // ~ThreadPool drains the queue: every accepted task has now run.

  std::size_t total_runs = 0;
  for (const std::atomic<int>& flag : runs) {
    const int n = flag.load();
    ASSERT_LE(n, 1) << "a task ran twice";
    total_runs += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(total_runs, accepted.load());
}

TEST(ThreadPoolStress, MetricsCountEveryTaskAndQueueDepthReturnsToZero) {
  obs::MetricsRegistry registry;
  constexpr std::size_t kTasks = 64;
  {
    ThreadPool pool(2);
    pool.install_metrics(registry, "pool");
    std::atomic<std::size_t> ran{0};
    for (std::size_t i = 0; i < kTasks; ++i) {
      pool.post([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // destructor drains the queue
  const obs::MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "pool.tasks_run_total");
  EXPECT_EQ(snap.counters[0].second, static_cast<double>(kTasks));
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].first, "pool.queue_depth");
  EXPECT_EQ(snap.gauges[0].second, 0.0);  // +1 per post, -1 per dequeue
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "pool.task_wait_ms");
  EXPECT_EQ(snap.histograms[0].count, kTasks);
}

TEST(ThreadPoolStress, QueueDepthGaugeNeverDipsNegativeUnderConcurrentWorkers) {
  // Regression for the gauge's ordering: dequeues decrement it under the
  // queue lock, so post() must increment it under the same lock. A worker
  // that just finished a task re-checks the queue without waiting for the
  // notify, so an increment after unlock could land behind the worker's
  // pop-and-decrement and drive the gauge transiently negative. A sampler
  // racing a poster and busy workers must never observe a negative depth.
  obs::MetricsRegistry registry;
  constexpr std::size_t kTasks = 2000;
  {
    ThreadPool pool(2);
    pool.install_metrics(registry, "pool");
    const obs::Gauge depth = registry.gauge("pool.queue_depth");
    std::atomic<bool> done{false};
    std::atomic<bool> negative_seen{false};

    std::thread sampler([&depth, &done, &negative_seen] {
      while (!done.load(std::memory_order_acquire)) {
        if (depth.value() < 0.0) negative_seen.store(true);
      }
    });

    std::atomic<std::size_t> ran{0};
    for (std::size_t i = 0; i < kTasks; ++i) {
      pool.post([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    while (ran.load(std::memory_order_acquire) < kTasks) std::this_thread::yield();
    done.store(true, std::memory_order_release);
    sampler.join();
    EXPECT_FALSE(negative_seen.load());
  }
  EXPECT_EQ(registry.gauge("pool.queue_depth").value(), 0.0);
}

TEST(ThreadPoolStress, CompletionChainedPostsDrainOnPoolOfOne) {
  // The serving layer pumps from completion context: a pool task, as it
  // finishes, posts the NEXT task onto the same pool. Pin that such
  // chains complete on a pool of one: the lone worker runs every link.
  std::function<void(int)> chain;  // declared before the pool: links may
                                   // still reference it while the pool drains
  ThreadPool pool(1);
  constexpr int kLinks = 64;
  std::atomic<int> ran{0};
  std::promise<void> finished;
  chain = [&pool, &chain, &ran, &finished](int remaining) {
    ran.fetch_add(1, std::memory_order_relaxed);
    if (remaining == 0) {
      finished.set_value();
      return;
    }
    pool.post([&chain, remaining] { chain(remaining - 1); });
  };
  pool.post([&chain] { chain(kLinks - 1); });
  finished.get_future().wait();
  EXPECT_EQ(ran.load(), kLinks);
}

}  // namespace
}  // namespace hyperear::runtime
