#include "core/squirrel.h"

#include <gtest/gtest.h>

#include "buffer_source.h"
#include "store_invariants.h"
#include "util/rng.h"
#include "vmi/bootset.h"

namespace squirrel::core {
namespace {

using util::Bytes;

using test::BufferSource;

SquirrelConfig SmallConfig() {
  SquirrelConfig config;
  config.volume =
      zvol::VolumeConfig{.block_size = 4096, .codec = compress::CodecId::kGzip6, .dedup = true};
  config.retention_seconds = 7 * 86400;
  return config;
}

/// A sparse "cache" with a shared head and a unique tail.
Bytes MakeCacheContent(std::uint64_t seed, std::size_t blocks = 32) {
  Bytes content(blocks * 4096, 0);
  util::Rng shared(42);
  // 24 shared blocks, 4 unique, 4 holes.
  shared.Fill(util::MutableByteSpan(content.data(), 24 * 4096));
  util::Rng unique(seed);
  unique.Fill(util::MutableByteSpan(content.data() + 24 * 4096, 4 * 4096));
  return content;
}

TEST(Squirrel, RegisterPropagatesToAllOnlineNodes) {
  SquirrelCluster cluster(SmallConfig(), 4);
  const RegistrationReport report =
      cluster.Register({"img-1", BufferSource(MakeCacheContent(1)), SimClock::FromSeconds(1000)});
  EXPECT_EQ(report.receivers, 4u);
  EXPECT_LT(report.total_seconds, 60.0);  // §3.2: well under a minute
  EXPECT_GT(report.diff_wire_bytes, 0u);
  for (std::uint32_t n = 0; n < 4; ++n) {
    EXPECT_TRUE(cluster.compute_node(n).volume().HasFile(
        SquirrelCluster::CacheFileName("img-1")));
  }
}

TEST(Squirrel, SecondRegistrationDiffIsSmall) {
  SquirrelCluster cluster(SmallConfig(), 2);
  const auto first =
      cluster.Register({"img-1", BufferSource(MakeCacheContent(1)), SimClock::FromSeconds(1000)});
  // Second cache shares 24 of 28 nonzero blocks: its diff must carry only
  // the unique tail (the paper's O(10 MB) observation).
  const auto second =
      cluster.Register({"img-2", BufferSource(MakeCacheContent(2)), SimClock::FromSeconds(2000)});
  EXPECT_LT(second.diff_wire_bytes, first.diff_wire_bytes / 3);
}

TEST(Receive, RegisterWithCorruptStorageBlockLeavesReplicas) {
  // A corrupted scVolume block that a registration's diff carries fails
  // that registration, and no replica changes: the receivers' digest check
  // rejects the stream before any of them applies it.
  SquirrelCluster cluster(SmallConfig(), 3);
  cluster.Register({"img-1", BufferSource(MakeCacheContent(1)),
                    SimClock::FromSeconds(1000)});
  std::vector<Bytes> before;
  for (std::uint32_t n = 0; n < 3; ++n) {
    before.push_back(cluster.compute_node(n).volume().Serialize());
  }
  // A live scVolume file the next snapshot picks up; block 24 starts its
  // unique tail, so the diff carries it.
  zvol::Volume& storage = cluster.storage_volume();
  storage.WriteFile("stray", BufferSource(MakeCacheContent(9)));
  ASSERT_TRUE(storage.CorruptBlockForTesting("stray", 24));

  EXPECT_THROW(cluster.Register({"img-2", BufferSource(MakeCacheContent(2)),
                                 SimClock::FromSeconds(2000)}),
               squirrel::Error);
  for (std::uint32_t n = 0; n < 3; ++n) {
    SCOPED_TRACE("node " + std::to_string(n));
    const zvol::Volume& replica = cluster.compute_node(n).volume();
    EXPECT_EQ(replica.Serialize(), before[n]);
    test::ExpectVolumeInvariants(replica);
  }
}

TEST(Squirrel, DuplicateRegistrationRejected) {
  SquirrelCluster cluster(SmallConfig(), 1);
  cluster.Register({"img-1", BufferSource(MakeCacheContent(1)), SimClock::FromSeconds(1000)});
  EXPECT_THROW(
      cluster.Register({"img-1", BufferSource(MakeCacheContent(1)), SimClock::FromSeconds(2000)}),
      std::invalid_argument);
}

TEST(Squirrel, WarmBootUsesZeroNetwork) {
  SquirrelCluster cluster(SmallConfig(), 2);
  const Bytes cache_content = MakeCacheContent(7, 64);
  cluster.Register({"img-1", BufferSource(cache_content), SimClock::FromSeconds(1000)});

  // The base image equals the cache content where cached (plus more data
  // beyond it that the boot does not touch).
  Bytes base = cache_content;
  base.resize(base.size() + 64 * 4096, 0x5a);
  BufferSource base_image(base);

  // Boot trace touching only cached content.
  std::vector<vmi::BootRead> trace;
  for (std::uint64_t off = 0; off < 24 * 4096; off += 8192) {
    trace.push_back({off, 8192});
  }

  sim::IoContext io;
  const BootReport report =
      cluster.Boot(1,
      {.image_id = "img-1", .base_image = base_image, .trace = trace},
      io);
  EXPECT_EQ(report.network_bytes, 0u);  // the headline property
  EXPECT_GT(report.result.bytes_read, 0u);
  EXPECT_EQ(report.result.base_bytes_read, 0u);
  EXPECT_GT(report.result.seconds, 0.0);
}

TEST(Squirrel, BootOfUnsyncedImageThrows) {
  SquirrelCluster cluster(SmallConfig(), 1);
  BufferSource base(Bytes(4096, 1));
  sim::IoContext io;
  EXPECT_THROW(cluster.Boot(0,
      {.image_id = "missing", .base_image = base, .trace = {}},
      io),
               std::invalid_argument);
}

TEST(Squirrel, OfflineNodeMissesDiffThenCatchesUp) {
  SquirrelCluster cluster(SmallConfig(), 3);
  cluster.Register({"img-1", BufferSource(MakeCacheContent(1)), SimClock::FromSeconds(1000)});

  cluster.compute_node(2).set_online(false);
  cluster.Register({"img-2", BufferSource(MakeCacheContent(2)), SimClock::FromSeconds(2000)});
  EXPECT_FALSE(cluster.compute_node(2).volume().HasFile(
      SquirrelCluster::CacheFileName("img-2")));

  cluster.compute_node(2).set_online(true);
  const SyncReport sync = cluster.SyncNode(2, SimClock::FromSeconds(3000));
  EXPECT_FALSE(sync.full_resync);
  EXPECT_EQ(sync.snapshots_advanced, 1u);
  EXPECT_TRUE(cluster.compute_node(2).volume().HasFile(
      SquirrelCluster::CacheFileName("img-2")));
}

TEST(Squirrel, SyncIsNoOpWhenCurrent) {
  SquirrelCluster cluster(SmallConfig(), 1);
  cluster.Register({"img-1", BufferSource(MakeCacheContent(1)), SimClock::FromSeconds(1000)});
  const SyncReport sync = cluster.SyncNode(0, SimClock::FromSeconds(2000));
  EXPECT_EQ(sync.wire_bytes, 0u);
  EXPECT_EQ(sync.snapshots_advanced, 0u);
}

TEST(Squirrel, LongOfflineNodeFallsBackToFullResync) {
  SquirrelConfig config = SmallConfig();
  config.retention_seconds = 2 * 86400;  // n = 2 days
  SquirrelCluster cluster(config, 2);

  cluster.Register({"img-1", BufferSource(MakeCacheContent(1)), SimClock::FromSeconds(0)});
  cluster.compute_node(1).set_online(false);

  // A week of registrations and daily GC while node 1 is down.
  for (int day = 1; day <= 7; ++day) {
    cluster.Register({"img-" + std::to_string(day + 1), BufferSource(MakeCacheContent(day + 1)), SimClock::FromSeconds(day * 86400ull)});
    cluster.RunGc(SimClock::FromSeconds(day * 86400ull + 3600));
  }

  cluster.compute_node(1).set_online(true);
  const SyncReport sync = cluster.SyncNode(1, SimClock::FromSeconds(8 * 86400ull));
  EXPECT_TRUE(sync.full_resync);
  for (int i = 1; i <= 8; ++i) {
    EXPECT_TRUE(cluster.compute_node(1).volume().HasFile(
        SquirrelCluster::CacheFileName("img-" + std::to_string(i))))
        << i;
  }
}

TEST(Squirrel, BrandNewNodeSyncsFully) {
  // Nodes start empty: before any sync they miss even the first snapshot if
  // they were offline during it.
  SquirrelCluster cluster(SmallConfig(), 2);
  cluster.compute_node(1).set_online(false);
  cluster.Register({"img-1", BufferSource(MakeCacheContent(1)), SimClock::FromSeconds(1000)});
  cluster.compute_node(1).set_online(true);
  const SyncReport sync = cluster.SyncNode(1, SimClock::FromSeconds(2000));
  EXPECT_TRUE(sync.full_resync);
  EXPECT_TRUE(cluster.compute_node(1).volume().HasFile(
      SquirrelCluster::CacheFileName("img-1")));
}

TEST(Squirrel, DeregisterPropagatesWithNextRegistration) {
  SquirrelCluster cluster(SmallConfig(), 2);
  cluster.Register({"img-1", BufferSource(MakeCacheContent(1)), SimClock::FromSeconds(1000)});
  cluster.Register({"img-2", BufferSource(MakeCacheContent(2)), SimClock::FromSeconds(2000)});
  cluster.Deregister("img-1", SimClock::FromSeconds(3000));
  // ccVolumes still have the stale cache (no snapshot on delete, §3.4).
  EXPECT_TRUE(cluster.compute_node(0).volume().HasFile(
      SquirrelCluster::CacheFileName("img-1")));
  // The next registration's snapshot carries the deletion.
  cluster.Register({"img-3", BufferSource(MakeCacheContent(3)), SimClock::FromSeconds(4000)});
  EXPECT_FALSE(cluster.compute_node(0).volume().HasFile(
      SquirrelCluster::CacheFileName("img-1")));
  EXPECT_TRUE(cluster.compute_node(0).volume().HasFile(
      SquirrelCluster::CacheFileName("img-3")));
}

TEST(Squirrel, GcReclaimsDeregisteredBlocks) {
  SquirrelConfig config = SmallConfig();
  config.retention_seconds = 86400;
  SquirrelCluster cluster(config, 1);
  cluster.Register({"img-1", BufferSource(MakeCacheContent(1)), SimClock::FromSeconds(0)});
  const std::uint64_t with_one =
      cluster.storage_volume().Stats().unique_blocks;
  cluster.Deregister("img-1", SimClock::FromSeconds(100));
  cluster.Register({"img-2", BufferSource(MakeCacheContent(2)), SimClock::FromSeconds(200)});
  // Old snapshot still pins img-1's unique blocks.
  EXPECT_GE(cluster.storage_volume().Stats().unique_blocks, with_one);
  cluster.RunGc(SimClock::FromSeconds(10 * 86400ull));
  // After GC, only img-2's blocks remain (shared head + its tail).
  EXPECT_LE(cluster.storage_volume().Stats().unique_blocks, with_one);
  EXPECT_EQ(cluster.storage_volume().snapshots().size(), 1u);
}

TEST(Squirrel, ReplicasBitIdenticalToStorageVolume) {
  SquirrelCluster cluster(SmallConfig(), 2);
  for (int i = 1; i <= 5; ++i) {
    cluster.Register({"img-" + std::to_string(i), BufferSource(MakeCacheContent(i)), SimClock::FromSeconds(i * 1000ull)});
  }
  zvol::Volume& sc = cluster.storage_volume();
  for (std::uint32_t n = 0; n < 2; ++n) {
    zvol::Volume& cc = cluster.compute_node(n).volume();
    ASSERT_EQ(cc.FileNames(), sc.FileNames());
    for (const std::string& name : sc.FileNames()) {
      EXPECT_EQ(cc.ReadRange(name, 0, cc.FileSize(name)),
                sc.ReadRange(name, 0, sc.FileSize(name)))
          << name;
    }
  }
}

}  // namespace
}  // namespace squirrel::core
