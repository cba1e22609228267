// Tests for common/sync.h plus concurrency stress for the subsystems
// it retrofitted (metrics, event log, telemetry sampler). The stress
// tests are deliberately contention-heavy: they are the workload the
// TSan CI lane runs under -fsanitize=thread to catch data races that
// single-threaded unit tests cannot.

#include "common/sync.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "gtest/gtest.h"
#include "warehouse/telemetry.h"

namespace ddgms {
namespace {

TEST(MutexTest, TryLockReflectsOwnership) {
  Mutex mu;
  ASSERT_TRUE(mu.TryLock());
  // A second owner must not get the lock while we hold it.
  std::atomic<bool> acquired{false};
  std::thread t([&] {
    acquired.store(mu.TryLock());
    if (acquired.load()) mu.Unlock();
  });
  t.join();
  EXPECT_FALSE(acquired.load());
  mu.Unlock();
  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(MutexTest, MutexLockSerializesIncrements) {
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  Mutex mu;
  int64_t counter = 0;  // guarded by mu (plain int on purpose)

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter, static_cast<int64_t>(kThreads) * kIters);
}

TEST(CondVarTest, ProducerConsumerHandoff) {
  constexpr int kItems = 5000;
  Mutex mu;
  CondVar cv;
  std::deque<int> queue;  // guarded by mu
  bool done = false;      // guarded by mu
  int64_t consumed_sum = 0;

  std::thread consumer([&] {
    for (;;) {
      MutexLock lock(mu);
      cv.Wait(mu, [&] { return !queue.empty() || done; });
      if (queue.empty() && done) return;
      while (!queue.empty()) {
        consumed_sum += queue.front();
        queue.pop_front();
      }
    }
  });

  int64_t produced_sum = 0;
  for (int i = 1; i <= kItems; ++i) {
    {
      MutexLock lock(mu);
      queue.push_back(i);
    }
    produced_sum += i;
    cv.NotifyOne();
  }
  {
    MutexLock lock(mu);
    done = true;
  }
  cv.NotifyAll();
  consumer.join();
  EXPECT_EQ(consumed_sum, produced_sum);
}

TEST(CondVarTest, WaitForTimesOutWhenPredicateStaysFalse) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(mu);
  const auto start = std::chrono::steady_clock::now();
  const bool woke =
      cv.WaitFor(mu, std::chrono::milliseconds(20), [] { return false; });
  EXPECT_FALSE(woke);
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(15));
}

TEST(CondVarTest, NotifyAllReleasesEveryWaiter) {
  constexpr int kWaiters = 6;
  Mutex mu;
  CondVar cv;         // waiters park here until `go`
  CondVar parked_cv;  // only the main thread waits here
  bool go = false;     // guarded by mu
  int waiting = 0;     // guarded by mu
  int released = 0;    // guarded by mu

  std::vector<std::thread> threads;
  threads.reserve(kWaiters);
  for (int t = 0; t < kWaiters; ++t) {
    threads.emplace_back([&] {
      MutexLock lock(mu);
      ++waiting;
      // Tell the main thread we are parked. A NotifyOne on `cv` could
      // wake a sibling waiter instead of main and lose the wakeup.
      parked_cv.NotifyOne();
      cv.Wait(mu, [&] { return go; });
      ++released;
    });
  }
  {
    MutexLock lock(mu);
    parked_cv.Wait(mu, [&] { return waiting == kWaiters; });
    go = true;
  }
  cv.NotifyAll();
  for (std::thread& t : threads) t.join();
  MutexLock lock(mu);
  EXPECT_EQ(released, kWaiters);
}

// ---------------------------------------------------------------------
// Subsystem stress (the TSan lane's main diet).
// ---------------------------------------------------------------------

class SubsystemStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Enable();
    MetricsRegistry::Global().ResetValues();
    EventLog::Enable();
    EventLog::Global().Clear();
    EventLog::Global().set_capacity(2048);
    TraceCollector::Enable();
    TraceCollector::Global().Clear();
  }

  void TearDown() override {
    TraceCollector::Disable();
    TraceCollector::Global().Clear();
    EventLog::Disable();
    EventLog::Global().Clear();
    MetricsRegistry::Disable();
    MetricsRegistry::Global().ResetValues();
  }
};

TEST_F(SubsystemStressTest, MetricsRegistryUnderContention) {
  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  std::atomic<bool> stop{false};

  // Reader thread: snapshots continuously while writers mutate and
  // create instruments (exercises map growth vs. iteration).
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
      ASSERT_LE(snap.counters.size(), 1u + kThreads);
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      const std::string mine =
          "ddgms.test.sync_stress:" + std::to_string(t);
      for (int i = 0; i < kIters; ++i) {
        // Shared instrument: every thread contends on creation (first
        // iteration) and on the counter word after.
        MetricsRegistry::Global()
            .GetCounter("ddgms.test.sync_stress.shared")
            .Increment();
        MetricsRegistry::Global().GetCounter(mine).Increment();
        MetricsRegistry::Global()
            .GetGauge("ddgms.test.sync_stress.gauge")
            .Set(static_cast<double>(i));
        MetricsRegistry::Global()
            .GetHistogram("ddgms.test.sync_stress.lat")
            .Observe(static_cast<double>(i % 100));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.counter("ddgms.test.sync_stress.shared"),
            static_cast<uint64_t>(kThreads) * kIters);
  const HistogramSnapshot* hist =
      snap.histogram("ddgms.test.sync_stress.lat");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, static_cast<uint64_t>(kThreads) * kIters);
}

TEST_F(SubsystemStressTest, EventLogRingEvictionUnderContention) {
  constexpr int kThreads = 6;
  constexpr int kIters = 3000;
  // Small ring so eviction churns constantly.
  EventLog::Global().set_capacity(64);

  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<LogRecord> records = EventLog::Global().Snapshot();
      // Ring order must stay oldest-first with strictly increasing seq
      // even while writers race the eviction cursor.
      for (size_t i = 1; i < records.size(); ++i) {
        ASSERT_LT(records[i - 1].seq, records[i].seq);
      }
      ASSERT_LE(records.size(), 64u);
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      for (int i = 0; i < kIters; ++i) {
        DDGMS_LOG_INFO("test.sync_stress")
            .With("thread", t)
            .With("iter", i);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  snapshotter.join();

  // Every record was either evicted (counted in dropped()) or is still
  // in the ring — nothing vanished.
  EXPECT_EQ(EventLog::Global().size() + EventLog::Global().dropped(),
            static_cast<size_t>(kThreads) * kIters);
}

TEST_F(SubsystemStressTest, DrainNeverLosesOrDuplicatesRecords) {
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  // Capacity large enough that nothing is evicted: drained seqs must
  // then form an exact partition of all emitted seqs.
  EventLog::Global().set_capacity(static_cast<size_t>(kThreads) * kIters +
                                  16);

  std::atomic<bool> done{false};
  std::set<uint64_t> seen;
  std::thread drainer([&] {
    for (;;) {
      const bool finished = done.load(std::memory_order_acquire);
      for (LogRecord& record : EventLog::Global().Drain()) {
        const bool inserted = seen.insert(record.seq).second;
        ASSERT_TRUE(inserted) << "seq " << record.seq << " drained twice";
      }
      if (finished) break;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      for (int i = 0; i < kIters; ++i) {
        DDGMS_LOG_WARN("test.sync_drain").With("thread", t);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_release);
  drainer.join();

  EXPECT_EQ(seen.size(), static_cast<size_t>(kThreads) * kIters);
  EXPECT_EQ(EventLog::Global().dropped(), 0u);
}

TEST_F(SubsystemStressTest, TelemetrySamplerRacesEmitters) {
  constexpr int kSamples = 40;
  constexpr int kEmitters = 4;
  constexpr int kIters = 1500;

  warehouse::TelemetrySampler sampler;
  std::atomic<bool> stop{false};

  std::vector<std::thread> emitters;
  emitters.reserve(kEmitters);
  for (int t = 0; t < kEmitters; ++t) {
    emitters.emplace_back([&stop, t] {
      for (int i = 0; i < kIters && !stop.load(std::memory_order_relaxed);
           ++i) {
        DDGMS_METRIC_INC("ddgms.test.telemetry_stress");
        DDGMS_LOG_INFO("test.telemetry_stress").With("thread", t);
        TraceSpan span("test.telemetry_stress.span");
      }
    });
  }

  int64_t last_snapshot = 0;
  for (int s = 0; s < kSamples; ++s) {
    Result<warehouse::TelemetrySampleStats> stats = sampler.Sample();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_GT(stats.value().snapshot, last_snapshot);
    last_snapshot = stats.value().snapshot;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : emitters) t.join();

  EXPECT_EQ(sampler.num_samples(), kSamples);
  // Rows staged under contention must be readable as coherent tables.
  EXPECT_EQ(sampler.metric_samples().num_rows() +
                sampler.span_facts().num_rows() +
                sampler.event_facts().num_rows(),
            sampler.num_rows());
}

}  // namespace
}  // namespace ddgms
