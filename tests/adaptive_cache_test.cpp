// Workload-adaptive multi-tenant cache controller (ISSUE 10, DESIGN.md §17):
// controller rebudget behaviour, the determinism contract for its trace, and
// the ARC resize/budget edge cases the controller exposed —
//   * ghost revival must not evict when the cache is not full (the paper's
//     unconditional REPLACE assumes residency == capacity; with weighted
//     entries, Resize shrinks and budget-refused admissions it is not, and
//     one spurious T2-LRU eviction under a cyclic working set cascades into
//     a permanent 100% miss loop),
//   * a brand-new-key admission that already made room inside its owner's
//     budget must not evict another owner's resident,
//   * hit_bytes counts only T2/pinned (frequency) reuse — T1 hits are
//     back-to-back recency reuse any one-block buffer serves,
//   * a tagged cluster boot charges its demand reads to its own tenant.
// Runs under `ctest -L tsan` / `-L asan` via the AdaptiveCache.* filter.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "buffer_source.h"
#include "core/squirrel.h"
#include "store/block_store.h"
#include "store/cache_controller.h"
#include "util/arc_cache.h"
#include "util/rng.h"

namespace squirrel {
namespace {

using TestArc = util::ArcCache<std::uint64_t, std::hash<std::uint64_t>>;

constexpr std::uint64_t kW = 4096;  // uniform entry weight for arc tests

/// Compressible unique payloads (incompressible blocks are stored raw and
/// bypass the ARC entirely — nothing to budget).
std::vector<util::Digest> PutCompressible(store::BlockStore& store,
                                          util::Rng& rng, std::size_t count,
                                          std::size_t block_bytes = 4096) {
  std::vector<util::Digest> digests;
  digests.reserve(count);
  util::Bytes payload(block_bytes, 0);
  for (std::size_t b = 0; b < count; ++b) {
    for (std::size_t i = 0; i + 8 <= block_bytes; i += 128) {
      const std::uint64_t word = rng.Next();
      std::memcpy(payload.data() + i, &word, 8);
    }
    digests.push_back(store.Put(payload).digest);
  }
  return digests;
}

store::BlockStoreConfig SmallStoreConfig(std::uint64_t cache_bytes,
                                         std::uint32_t threads = 1) {
  return store::BlockStoreConfig{
      .codec = compress::CodecId::kGzip6,
      .dedup = true,
      .fast_hash = true,
      .read = {.threads = threads, .cache_bytes = cache_bytes}};
}

// ---------------------------------------------------------------------------
// ARC edge cases (the fix sweep)

TEST(AdaptiveCache, GhostRevivalDoesNotEvictWhenNotFull) {
  TestArc arc(8 * kW);
  for (std::uint64_t k = 0; k < 8; ++k) arc.Insert(k, kW);
  // Shrink evicts the T1 LRU half into ghosts, then grow restores headroom.
  arc.Resize(4 * kW);
  EXPECT_EQ(arc.resident_weight(), 4 * kW);
  arc.Resize(8 * kW);
  const std::uint64_t resident_before = arc.resident_weight();
  // Reviving a ghost with 4 entries of free space must not evict anyone.
  EXPECT_FALSE(arc.Lookup(0));  // evicted by the shrink
  arc.Insert(0, kW);            // ghost revival (Case II/III)
  EXPECT_EQ(arc.resident_weight(), resident_before + kW)
      << "revival evicted a resident despite free capacity";
  EXPECT_EQ(arc.CheckInvariants(), "");
}

TEST(AdaptiveCache, CyclicSetRecoversAfterShrinkGrow) {
  // Regression for the revival miss cascade: a cyclic working set that fits
  // capacity must return to 100% hits after a transient shrink, instead of
  // chasing its own tail forever (each revival evicting the next needed
  // block).
  TestArc arc(8 * kW);
  auto loop_once = [&arc] {
    std::uint64_t hits = 0;
    for (std::uint64_t k = 0; k < 8; ++k) {
      if (arc.Lookup(k)) {
        ++hits;
      } else {
        arc.Insert(k, kW);
      }
    }
    return hits;
  };
  loop_once();                     // cold fill
  EXPECT_EQ(loop_once(), 8u);      // fully resident
  arc.Resize(3 * kW);              // transient pressure
  arc.Resize(8 * kW);
  loop_once();                     // recovery pass readmits the evicted tail
  EXPECT_EQ(loop_once(), 8u)
      << "cyclic set failed to re-converge after shrink/grow";
  EXPECT_EQ(arc.CheckInvariants(), "");
}

TEST(AdaptiveCache, BudgetedAdmissionDoesNotEvictOtherOwners) {
  // Owner 2 churns new keys inside a one-entry budget; every admission
  // self-evicts its previous block, so owner 1's resident set must never
  // shrink — even while the *directory* (T1+B1) is saturated.
  TestArc arc(8 * kW);
  arc.SetOwnerBudget(1, 6 * kW);
  arc.SetOwnerBudget(2, kW);
  for (std::uint64_t k = 0; k < 6; ++k) arc.Insert(k, kW, 1);
  for (std::uint64_t k = 0; k < 6; ++k) EXPECT_TRUE(arc.Lookup(k, 1));
  for (std::uint64_t k = 100; k < 140; ++k) arc.Insert(k, kW, 2);
  EXPECT_EQ(arc.owner_stats().at(1).resident_weight, 6 * kW)
      << "scan traffic contained by its own budget displaced owner 1";
  for (std::uint64_t k = 0; k < 6; ++k) EXPECT_TRUE(arc.Lookup(k, 1));
  EXPECT_EQ(arc.CheckInvariants(), "");
}

TEST(AdaptiveCache, T1HitsExcludedFromHitBytes) {
  TestArc arc(8 * kW);
  arc.Insert(7, kW, 1);
  // Back-to-back re-read: T1 hit, promotes to T2 but earns no hit bytes.
  EXPECT_TRUE(arc.Lookup(7, 1));
  EXPECT_EQ(arc.hit_weight(), 0u);
  EXPECT_EQ(arc.owner_stats().at(1).hit_bytes, 0u);
  EXPECT_EQ(arc.owner_stats().at(1).hits, 1u);
  // Third touch hits in T2 — frequency reuse, counted.
  EXPECT_TRUE(arc.Lookup(7, 1));
  EXPECT_EQ(arc.hit_weight(), kW);
  EXPECT_EQ(arc.owner_stats().at(1).hit_bytes, kW);
}

TEST(AdaptiveCache, ResizeInvariantPropertySweep) {
  // Property test (satellite 2): a random interleaving of inserts, lookups,
  // grows, shrinks, zero-resizes, budgets and pins must keep every
  // documented ArcCache invariant at every step.
  util::Rng rng(2014);
  TestArc arc(16 * kW);
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t key = rng.Next() % 64;
    switch (rng.Next() % 8) {
      case 0:
      case 1:
      case 2:
        if (!arc.Lookup(key, 1 + key % 3)) {
          arc.Insert(key, (1 + rng.Next() % 4) * 1024, 1 + key % 3);
        }
        break;
      case 3:
        arc.Resize((rng.Next() % 24) * kW);  // includes 0 (full disable)
        break;
      case 4:
        arc.SetOwnerBudget(1 + rng.Next() % 3, (rng.Next() % 12) * kW);
        break;
      case 5:
        arc.Pin(key);
        break;
      case 6:
        arc.UnpinAll();
        break;
      case 7:
        arc.ClearOwnerBudgets();
        break;
    }
    ASSERT_EQ(arc.CheckInvariants(), "") << "after step " << step;
  }
}

// ---------------------------------------------------------------------------
// Controller behaviour

TEST(AdaptiveCache, ControllerConfigValidation) {
  store::BlockStore store(SmallStoreConfig(1 << 20));
  store::CacheControllerConfig bad_gain;
  bad_gain.gain = 0.0;
  EXPECT_THROW(store::CacheController(&store, bad_gain),
               std::invalid_argument);
  bad_gain.gain = 1.5;
  EXPECT_THROW(store::CacheController(&store, bad_gain),
               std::invalid_argument);
}

TEST(AdaptiveCache, ControllerShiftsBudgetTowardReuse) {
  const std::uint64_t budget = 64 * 4096;
  store::BlockStore store(SmallStoreConfig(budget));
  util::Rng rng(11);
  const auto set1 = PutCompressible(store, rng, 40);
  const auto set2 = PutCompressible(store, rng, 40);
  store::CacheControllerConfig config;
  config.min_tenant_bytes = 8 * 1024;
  store::CacheController controller(&store, config);
  controller.ObserveTenant(1);
  controller.ObserveTenant(2);

  auto budget_of = [](const store::ControllerTick& tick,
                      store::TenantId tenant) -> std::uint64_t {
    for (const store::TenantShare& share : tick.tenants) {
      if (share.tenant == tenant) return share.budget_bytes;
    }
    return 0;
  };

  store::ControllerTick tick;
  for (int i = 0; i < 6; ++i) {  // tenant 1 hot
    store.GetBatchAs(1, set1);
    store.GetBatchAs(1, set1);
    tick = controller.Tick();
  }
  EXPECT_GT(budget_of(tick, 1), budget_of(tick, 2))
      << "budget did not follow the only tenant showing reuse";
  for (int i = 0; i < 8; ++i) {  // demand shifts to tenant 2
    store.GetBatchAs(2, set2);
    store.GetBatchAs(2, set2);
    tick = controller.Tick();
  }
  EXPECT_GT(budget_of(tick, 2), budget_of(tick, 1))
      << "budget did not follow the demand shift";
  EXPECT_EQ(controller.ticks(), 14u);
  EXPECT_EQ(controller.trace().size(), 14u);
}

TEST(AdaptiveCache, ControllerFloorsPinnedBytes) {
  const std::uint64_t budget = 64 * 4096;
  store::BlockStore store(SmallStoreConfig(budget));
  util::Rng rng(12);
  const auto boot_set = PutCompressible(store, rng, 16);
  store.WarmCacheAs(1, boot_set, /*pin=*/true);
  store::CacheControllerConfig config;
  store::CacheController controller(&store, config);
  const store::ControllerTick tick = controller.Tick();
  ASSERT_EQ(tick.tenants.size(), 1u);
  EXPECT_GT(tick.tenants[0].pinned_bytes, 0u);
  EXPECT_GE(tick.tenants[0].budget_bytes,
            tick.tenants[0].pinned_bytes + config.min_tenant_bytes)
      << "pinned boot-critical charge must floor the tenant's budget";
}

// ---------------------------------------------------------------------------
// Determinism sweep (satellite 4)

std::vector<std::string> RunControllerTrace(std::uint32_t threads) {
  const std::uint64_t budget = 96 * 4096;
  store::BlockStore store(SmallStoreConfig(budget, threads));
  util::Rng rng(2014);
  const auto set1 = PutCompressible(store, rng, 48);
  const auto set2 = PutCompressible(store, rng, 64);
  store::CacheControllerConfig config;
  config.min_tenant_bytes = 8 * 1024;
  store::CacheController controller(&store, config);
  controller.ObserveTenant(1);
  controller.ObserveTenant(2);
  for (int round = 0; round < 10; ++round) {
    store.GetBatchAs(1, set1);
    store.GetBatchAs(2, set2);
    controller.Tick();
  }
  return controller.trace();
}

TEST(AdaptiveCache, TraceByteIdenticalAcrossHostThreads) {
  // The rebudget trace is part of the determinism contract: the batch read
  // path may fan decompression out across worker threads, but every counter
  // the controller samples — and therefore every decision and trace byte —
  // must be independent of the host thread count.
  const std::vector<std::string> reference = RunControllerTrace(1);
  ASSERT_EQ(reference.size(), 10u);
  for (const std::uint32_t threads : {2u, 4u}) {
    EXPECT_EQ(RunControllerTrace(threads), reference)
        << "threads=" << threads;
  }
}

TEST(AdaptiveCache, ControllerOffKeepsCacheStateUntouched) {
  // Only Tick() touches the cache: a controller constructed over the store
  // and never ticked leaves the cache's budget and counters exactly as a
  // run with no controller at all.
  auto run = [](bool construct) {
    store::BlockStore store(SmallStoreConfig(64 * 4096));
    util::Rng rng(13);
    const auto set = PutCompressible(store, rng, 48);
    std::optional<store::CacheController> controller;
    if (construct) {
      // A tick would cap tenant 1 at half the cache, tenant 2's floor
      // taking the other half.
      controller.emplace(&store, store::CacheControllerConfig{
                                     .min_tenant_bytes = 32 * 4096});
      controller->ObserveTenant(1);
      controller->ObserveTenant(2);
    }
    for (int i = 0; i < 4; ++i) store.GetBatchAs(1, set);
    const store::CacheSample s = store.SampleCache();
    return std::to_string(s.capacity_bytes) + "/" + std::to_string(s.hits) +
           "/" + std::to_string(s.misses) + "/" +
           std::to_string(s.ghost_hit_bytes) + "/" +
           std::to_string(s.hit_bytes);
  };
  EXPECT_EQ(run(false), run(true));
}

// ---------------------------------------------------------------------------
// Warm-vs-resize race (satellite 3; races surface under `ctest -L tsan`)

TEST(AdaptiveCache, WarmCacheRacesResize) {
  const std::uint64_t budget = 64 * 4096;
  store::BlockStore store(SmallStoreConfig(budget, 2));
  util::Rng rng(14);
  const auto digests = PutCompressible(store, rng, 64);
  std::thread resizer([&store, budget] {
    for (int i = 0; i < 120; ++i) {
      store.ResizeCache(i % 2 == 0 ? budget / 3 : budget);
    }
  });
  std::uint64_t warmed = 0;
  for (int i = 0; i < 30; ++i) {
    warmed += store.WarmCacheAs(1, digests, i % 3 == 0);
    store.UnpinCache();
  }
  resizer.join();
  EXPECT_GT(warmed, 0u);
  const store::InvariantReport report = store.CheckInvariants();
  EXPECT_TRUE(report.ok) << report.detail;
}

// ---------------------------------------------------------------------------
// Tenant of a cluster boot's demand reads

using test::BufferSource;

TEST(AdaptiveCache, BootTenantChargesDemandReads) {
  // Every cluster boot reads its ccVolume through the repair session; those
  // demand reads must charge the ARC residency to the boot's tenant, not to
  // the untagged default.
  core::SquirrelConfig config;
  config.volume = zvol::VolumeConfig{.block_size = 4096,
                                     .codec = compress::CodecId::kGzip6,
                                     .dedup = true};
  config.volume.read.cache_bytes = 1 << 20;
  core::SquirrelCluster cluster(config, 1);
  // Compressible blocks: random ones are stored raw and bypass the ARC.
  util::Bytes cache(32 * 4096, 0);
  util::Rng rng(21);
  for (std::size_t i = 0; i + 8 <= cache.size(); i += 128) {
    const std::uint64_t word = rng.Next();
    std::memcpy(cache.data() + i, &word, 8);
  }
  const BufferSource image(cache);
  cluster.Register({"img", image, core::SimClock::FromSeconds(1000)});

  std::vector<vmi::BootRead> trace;
  for (std::uint64_t off = 0; off < cache.size(); off += 8192) {
    trace.push_back({off, 8192});
  }
  constexpr store::TenantId kTenant = 7;
  sim::IoContext io;
  cluster.Boot(0,
               {.image_id = "img", .base_image = image, .trace = trace,
                .tenant = kTenant},
               io);

  const store::CacheSample sample =
      cluster.compute_node(0).volume().block_store().SampleCache();
  std::uint64_t tenant_misses = 0;
  std::uint64_t tenant_resident = 0;
  for (const store::BlockCache::TenantSample& t : sample.tenants) {
    if (t.tenant != kTenant) continue;
    tenant_misses += t.misses;
    tenant_resident += t.resident_bytes;
  }
  EXPECT_GT(tenant_misses, 0u);
  EXPECT_GT(tenant_resident, 0u);
  // Nothing else read this ccVolume: every miss and resident byte is the
  // boot's.
  EXPECT_EQ(tenant_misses, sample.misses);
  EXPECT_EQ(tenant_resident, sample.resident_bytes);
}

}  // namespace
}  // namespace squirrel
