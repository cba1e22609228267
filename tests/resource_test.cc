// Unit tests for the resource accounting subsystem (common/resource):
// hierarchy rollup, RAII attribution, conservation (single-threaded and
// under concurrent charge/release — this suite runs in the CI TSan
// lane), snapshots and the metrics-registry export.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/resource.h"

namespace ddgms {
namespace {

// Every test owns the global meter: reset to a known state on entry and
// leave it disabled on exit (the shipping default other suites expect).
class ResourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ResourceMeter::Enable();
    ResourceMeter::Global().ResetValues();
  }
  void TearDown() override {
    ResourceMeter::Global().ResetValues();
    ResourceMeter::Disable();
  }
};

TEST_F(ResourceTest, DisabledMeterIsInert) {
  ResourceMeter::Disable();
  {
    ScopedAccounting guard("etl");
    EXPECT_FALSE(guard.active());
    EXPECT_EQ(guard.BytesCharged(), 0u);
    DDGMS_RESOURCE_CHARGE(1024);
    DDGMS_RESOURCE_RELEASE(512);
  }
  EXPECT_EQ(ResourceMeter::Global().root().allocated(), 0u);
  EXPECT_EQ(ResourceMeter::Global().root().charges(), 0u);
}

TEST_F(ResourceTest, ChargeRollsUpTheDottedHierarchy) {
  ResourcePool& cache = ResourceMeter::Global().GetPool("olap.cube.cache");
  cache.Charge(100);

  ResourceSnapshot snap = ResourceMeter::Global().Snapshot();
  for (const char* name : {"olap.cube.cache", "olap.cube", "olap", "total"}) {
    const ResourcePoolStats* stats = snap.pool(name);
    ASSERT_NE(stats, nullptr) << name;
    EXPECT_EQ(stats->allocated, 100u) << name;
    EXPECT_EQ(stats->current, 100) << name;
    EXPECT_EQ(stats->charges, 1u) << name;
  }

  cache.Release(40);
  snap = ResourceMeter::Global().Snapshot();
  for (const char* name : {"olap.cube.cache", "olap.cube", "olap", "total"}) {
    const ResourcePoolStats* stats = snap.pool(name);
    ASSERT_NE(stats, nullptr) << name;
    EXPECT_EQ(stats->current, 60) << name;
    EXPECT_EQ(stats->peak, 100) << name;
    EXPECT_EQ(stats->releases, 1u) << name;
  }
}

TEST_F(ResourceTest, PeakTracksHighWaterNotCurrent) {
  ResourcePool& pool = ResourceMeter::Global().GetPool("warehouse");
  pool.Charge(100);
  pool.Release(100);
  pool.Charge(50);
  EXPECT_EQ(pool.current(), 50);
  EXPECT_EQ(pool.peak(), 100);
  EXPECT_EQ(pool.allocated(), 150u);
  EXPECT_EQ(pool.freed(), 100u);
}

TEST_F(ResourceTest, ScopedAccountingAttributesToInnermostGuard) {
  {
    ScopedAccounting etl("etl");
    ASSERT_TRUE(etl.active());
    DDGMS_RESOURCE_CHARGE(10);
    {
      ScopedAccounting mdx("mdx");
      DDGMS_RESOURCE_CHARGE(5);
      EXPECT_EQ(mdx.BytesCharged(), 5u);
    }
    DDGMS_RESOURCE_CHARGE(7);
    EXPECT_EQ(etl.BytesCharged(), 17u);
  }
  ResourceSnapshot snap = ResourceMeter::Global().Snapshot();
  EXPECT_EQ(snap.pool("etl")->allocated, 17u);
  EXPECT_EQ(snap.pool("mdx")->allocated, 5u);
  EXPECT_EQ(snap.pool("total")->allocated, 22u);
}

TEST_F(ResourceTest, UnattributedChargesLandInOther) {
  ASSERT_EQ(ScopedAccounting::Current(), nullptr);
  DDGMS_RESOURCE_CHARGE(33);
  ResourceSnapshot snap = ResourceMeter::Global().Snapshot();
  ASSERT_NE(snap.pool("other"), nullptr);
  EXPECT_EQ(snap.pool("other")->allocated, 33u);
}

TEST_F(ResourceTest, SnapshotListsRootFirstAndExportsJson) {
  ResourceMeter::Global().GetPool("etl").Charge(1);
  ResourceSnapshot snap = ResourceMeter::Global().Snapshot();
  ASSERT_FALSE(snap.pools.empty());
  EXPECT_EQ(snap.pools[0].name, "total");
  EXPECT_EQ(snap.pool("does.not.exist"), nullptr);
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"total\""), std::string::npos);
  EXPECT_NE(json.find("\"etl\""), std::string::npos);
}

TEST_F(ResourceTest, PublishToMetricsExportsGauges) {
  MetricsRegistry::Enable();
  MetricsRegistry::Global().ResetValues();
  ResourceMeter::Global().GetPool("etl").Charge(2048);
  ResourceMeter::Global().PublishToMetrics();
  EXPECT_EQ(MetricsRegistry::Global()
                .GetGauge("ddgms.resource.bytes_current:etl")
                .value(),
            2048.0);
  EXPECT_EQ(MetricsRegistry::Global()
                .GetGauge("ddgms.resource.bytes_peak:total")
                .value(),
            2048.0);
  MetricsRegistry::Global().ResetValues();
  MetricsRegistry::Disable();
}

// Conservation under concurrency: many threads charging and releasing
// through nested pools must leave every pool with
// allocated - freed == current at quiescence, and the root equal to
// the sum of its top-level children. Exercised under TSan in CI.
TEST_F(ResourceTest, ConcurrentChargeReleaseConservation) {
  constexpr int kThreads = 8;
  constexpr int kIterations = 5000;
  const char* kPools[] = {"etl", "warehouse", "olap.cube",
                          "olap.cube.cache"};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &kPools] {
      ScopedAccounting guard(kPools[t % 4]);
      for (int i = 0; i < kIterations; ++i) {
        DDGMS_RESOURCE_CHARGE(64);
        if (i % 2 == 0) DDGMS_RESOURCE_RELEASE(32);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  ResourceSnapshot snap = ResourceMeter::Global().Snapshot();
  // Two threads charged each pool name directly; ancestors also absorb
  // their descendants ("olap.cube" gets its own charges plus the
  // rolled-up "olap.cube.cache" traffic).
  const uint64_t per_pool_alloc = 2ull * kIterations * 64;
  const uint64_t per_pool_freed = 2ull * (kIterations / 2) * 32;
  const struct {
    const char* name;
    uint64_t direct_pools;
  } kExpected[] = {{"etl", 1},
                   {"warehouse", 1},
                   {"olap.cube.cache", 1},
                   {"olap.cube", 2},
                   {"olap", 2}};
  for (const auto& expected : kExpected) {
    const ResourcePoolStats* stats = snap.pool(expected.name);
    ASSERT_NE(stats, nullptr) << expected.name;
    EXPECT_EQ(stats->allocated, expected.direct_pools * per_pool_alloc)
        << expected.name;
    EXPECT_EQ(stats->freed, expected.direct_pools * per_pool_freed)
        << expected.name;
    EXPECT_EQ(stats->current,
              static_cast<int64_t>(expected.direct_pools *
                                   (per_pool_alloc - per_pool_freed)))
        << expected.name;
    EXPECT_GE(stats->peak, stats->current) << expected.name;
    EXPECT_LE(stats->peak, static_cast<int64_t>(stats->allocated))
        << expected.name;
  }
  // The root saw every charge from every pool.
  const ResourcePoolStats* total = snap.pool("total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->allocated, 4 * per_pool_alloc);
  EXPECT_EQ(total->freed, 4 * per_pool_freed);
  EXPECT_EQ(total->current,
            static_cast<int64_t>(4 * (per_pool_alloc - per_pool_freed)));
}

// Guards opened on different threads are independent: attribution is
// thread-scoped TLS, not process state.
TEST_F(ResourceTest, AttributionIsThreadScoped) {
  ScopedAccounting outer("mdx");
  std::thread worker([] {
    EXPECT_EQ(ScopedAccounting::Current(), nullptr);
    ScopedAccounting inner("etl");
    DDGMS_RESOURCE_CHARGE(11);
  });
  worker.join();
  DDGMS_RESOURCE_CHARGE(7);
  ResourceSnapshot snap = ResourceMeter::Global().Snapshot();
  EXPECT_EQ(snap.pool("etl")->allocated, 11u);
  EXPECT_EQ(snap.pool("mdx")->allocated, 7u);
}

}  // namespace
}  // namespace ddgms
