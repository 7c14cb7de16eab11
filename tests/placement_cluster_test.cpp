// Striped placement through the cluster workflows (ISSUE 9): registration
// installs shards instead of replicas, SyncNode catches a rejoined node up
// on its shard set, boots assemble blocks from set peers, and degraded
// boots with up to m set members down rebuild through parity with zero
// storage-node refetches.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "buffer_source.h"
#include "core/squirrel.h"
#include "placement/reconstruct.h"
#include "placement/reed_solomon.h"
#include "placement/shard_store.h"
#include "placement/striped_device.h"
#include "store_invariants.h"
#include "util/fault_injector.h"
#include "util/rng.h"
#include "vmi/bootset.h"
#include "window_read.h"

namespace squirrel::core {
namespace {

using util::Bytes;

constexpr std::uint32_t kBlock = 4096;

using test::BufferSource;

SquirrelConfig StripedConfig(std::uint32_t data_shards = 4,
                             std::uint32_t parity_shards = 2) {
  SquirrelConfig config;
  config.volume = zvol::VolumeConfig{.block_size = kBlock,
                                     .codec = compress::CodecId::kGzip6,
                                     .dedup = true};
  config.placement.policy = placement::PolicyKind::kStriped;
  config.placement.data_shards = data_shards;
  config.placement.parity_shards = parity_shards;
  return config;
}

Bytes MakeCacheContent(std::uint64_t seed, std::size_t blocks = 32) {
  Bytes content(blocks * kBlock, 0);
  util::Rng rng(seed);
  rng.Fill(util::MutableByteSpan(content.data(), (blocks - 4) * kBlock));
  return content;
}

/// Boot request plumbing: base equals the cache where cached; the trace
/// touches only cached content, so a healthy full-replication boot would be
/// zero-network.
struct BootFixture {
  Bytes cache;
  Bytes base;
  std::vector<vmi::BootRead> trace;

  explicit BootFixture(std::uint64_t seed, std::size_t blocks = 32)
      : cache(MakeCacheContent(seed, blocks)) {
    base = cache;
    base.resize(base.size() + 8 * kBlock, 0x5a);
    for (std::uint64_t off = 0; off < (blocks - 4) * kBlock; off += 2 * kBlock) {
      trace.push_back({off, 2 * kBlock});
    }
  }
};

TEST(PlacementCluster, RegisterInstallsShardsNotReplicas) {
  SquirrelCluster cluster(StripedConfig(), 6);
  const RegistrationReport report = cluster.Register(
      {"img-1", BufferSource(MakeCacheContent(1)), SimClock::FromSeconds(60)});
  EXPECT_EQ(report.receivers, 6u);
  EXPECT_GT(report.diff_wire_bytes, 0u);

  const std::uint64_t unique_raw =
      cluster.storage_volume().block_store().stats().logical_unique_bytes;
  std::uint64_t total_shard_bytes = 0;
  for (std::uint32_t n = 0; n < 6; ++n) {
    const ComputeNode& node = cluster.compute_node(n);
    // Striped nodes hold shards, not ccVolume replicas.
    EXPECT_FALSE(
        node.volume().HasFile(SquirrelCluster::CacheFileName("img-1")));
    EXPECT_GT(node.shards().shard_count(), 0u);
    total_shard_bytes += node.shards().shard_bytes();
    EXPECT_TRUE(cluster.NodeStriped(n));
  }
  // The set collectively stores (k + m) / k of one raw copy (4 + 2 over 4),
  // not six copies. Ceil-padding adds at most one byte per block per shard.
  EXPECT_GE(total_shard_bytes, unique_raw * 6 / 4);
  EXPECT_LT(total_shard_bytes, unique_raw * 2);
}

TEST(PlacementCluster, SecondRegistrationOnlyInstallsNewShards) {
  SquirrelCluster cluster(StripedConfig(), 6);
  cluster.Register(
      {"img-1", BufferSource(MakeCacheContent(1)), SimClock::FromSeconds(60)});
  const std::uint64_t before = cluster.compute_node(0).shards().shard_bytes();
  // img-2 shares the zero-hole layout but has fresh content.
  cluster.Register(
      {"img-2", BufferSource(MakeCacheContent(2)), SimClock::FromSeconds(120)});
  const std::uint64_t after = cluster.compute_node(0).shards().shard_bytes();
  EXPECT_GT(after, before);
  // Re-registering identical content dedups to zero new shard bytes.
  cluster.Register(
      {"img-3", BufferSource(MakeCacheContent(1)), SimClock::FromSeconds(180)});
  EXPECT_EQ(cluster.compute_node(0).shards().shard_bytes(), after);
}

TEST(PlacementCluster, OfflineNodeCatchesUpOnShardsThroughSync) {
  SquirrelCluster cluster(StripedConfig(), 6);
  cluster.Register(
      {"img-1", BufferSource(MakeCacheContent(1)), SimClock::FromSeconds(60)});
  cluster.compute_node(2).set_online(false);
  cluster.Register(
      {"img-2", BufferSource(MakeCacheContent(2)), SimClock::FromSeconds(120)});
  const std::uint64_t stale = cluster.compute_node(2).shards().shard_bytes();
  EXPECT_LT(stale, cluster.compute_node(0).shards().shard_bytes());

  cluster.compute_node(2).set_online(true);
  const SyncReport sync = cluster.SyncNode(2, SimClock::FromSeconds(180));
  EXPECT_FALSE(sync.full_resync);
  EXPECT_GT(sync.wire_bytes, 0u);
  EXPECT_EQ(sync.snapshots_advanced, 1u);
  EXPECT_EQ(cluster.compute_node(2).shards().shard_bytes(),
            cluster.compute_node(0).shards().shard_bytes());
  // A second sync is a no-op.
  const SyncReport again = cluster.SyncNode(2, SimClock::FromSeconds(240));
  EXPECT_EQ(again.wire_bytes, 0u);
}

TEST(PlacementCluster, HealthyStripedBootAssemblesFromSetPeers) {
  SquirrelCluster cluster(StripedConfig(), 6);
  const BootFixture fx(7);
  cluster.Register(
      {"img-1", BufferSource(fx.cache), SimClock::FromSeconds(60)});
  BufferSource base(fx.base);
  sim::IoContext io;
  const BootReport report = cluster.Boot(
      0, {.image_id = "img-1", .base_image = base, .trace = fx.trace}, io);
  EXPECT_GT(report.result.bytes_read, 0u);
  EXPECT_EQ(report.result.base_bytes_read, 0u);  // cache covers the trace
  // Healthy set: pure data-shard reassembly, no parity, no fallbacks.
  EXPECT_EQ(report.striped.reconstructed_blocks, 0u);
  EXPECT_EQ(report.striped.parity_reads, 0u);
  EXPECT_EQ(report.striped.reconstruct_fallbacks, 0u);
  EXPECT_EQ(report.striped.storage_fetches, 0u);
  // k - 1 of every block's data shards cross the set network.
  EXPECT_GT(report.striped.remote_shard_bytes, 0u);
  EXPECT_GE(report.network_bytes, report.striped.remote_shard_bytes);
  test::ExpectReconstructionConservation(report.striped, 2,
                                         "healthy striped boot");
}

TEST(PlacementCluster, DegradedBootReconstructsWithZeroStorageRefetches) {
  SquirrelCluster cluster(StripedConfig(), 6);
  const BootFixture fx(7);
  cluster.Register(
      {"img-1", BufferSource(fx.cache), SimClock::FromSeconds(60)});
  // Knock out m = 2 set peers (never the booting node). Any surviving 4 of
  // 6 shards rebuild every block.
  cluster.compute_node(3).set_online(false);
  cluster.compute_node(4).set_online(false);
  BufferSource base(fx.base);
  sim::IoContext io;
  const BootReport report = cluster.Boot(
      0, {.image_id = "img-1", .base_image = base, .trace = fx.trace}, io);
  EXPECT_GT(report.result.bytes_read, 0u);
  // The acceptance property: every block the offline peers stripped a data
  // shard from rebuilds through parity; none re-fetch from the storage node.
  EXPECT_GT(report.striped.reconstructed_blocks, 0u);
  EXPECT_GE(report.striped.parity_reads, report.striped.reconstructed_blocks);
  EXPECT_EQ(report.striped.reconstruct_fallbacks, 0u);
  EXPECT_EQ(report.striped.storage_fetches, 0u);
  EXPECT_EQ(report.striped.storage_fetch_bytes, 0u);
  test::ExpectReconstructionConservation(report.striped, 2,
                                         "degraded striped boot");
}

TEST(PlacementCluster, MoreThanMPeersDownFallsBackToStorageNode) {
  SquirrelCluster cluster(StripedConfig(), 6);
  const BootFixture fx(7);
  cluster.Register(
      {"img-1", BufferSource(fx.cache), SimClock::FromSeconds(60)});
  // 3 > m peers down: only 3 shards reachable, every stripe is short.
  cluster.compute_node(3).set_online(false);
  cluster.compute_node(4).set_online(false);
  cluster.compute_node(5).set_online(false);
  BufferSource base(fx.base);
  sim::IoContext io;
  const BootReport report = cluster.Boot(
      0, {.image_id = "img-1", .base_image = base, .trace = fx.trace}, io);
  // The boot still completes — through whole-block storage fetches.
  EXPECT_GT(report.result.bytes_read, 0u);
  EXPECT_EQ(report.striped.reconstructed_blocks, 0u);
  EXPECT_GT(report.striped.reconstruct_fallbacks, 0u);
  EXPECT_EQ(report.striped.storage_fetches,
            report.striped.reconstruct_fallbacks);
  EXPECT_GT(report.striped.storage_fetch_bytes, 0u);
  test::ExpectReconstructionConservation(report.striped, 2,
                                         "short-set striped boot");
}

TEST(PlacementCluster, TrailingUndersizedSetKeepsFullReplicas) {
  // 8 nodes with a 6-wide stripe: computes 0..5 stripe, 6..7 are a trailing
  // 2-node set that must keep whole replicas and boot the legacy path.
  SquirrelCluster cluster(StripedConfig(), 8);
  const BootFixture fx(9);
  cluster.Register(
      {"img-1", BufferSource(fx.cache), SimClock::FromSeconds(60)});
  EXPECT_TRUE(cluster.NodeStriped(0));
  EXPECT_FALSE(cluster.NodeStriped(6));
  EXPECT_FALSE(cluster.NodeStriped(7));
  for (std::uint32_t n : {6u, 7u}) {
    EXPECT_TRUE(cluster.compute_node(n).volume().HasFile(
        SquirrelCluster::CacheFileName("img-1")));
    EXPECT_EQ(cluster.compute_node(n).shards().shard_count(), 0u);
  }
  BufferSource base(fx.base);
  sim::IoContext io;
  const BootReport report = cluster.Boot(
      7, {.image_id = "img-1", .base_image = base, .trace = fx.trace}, io);
  EXPECT_GT(report.result.bytes_read, 0u);
  EXPECT_EQ(report.network_bytes, 0u);  // warm full replica, zero network
  EXPECT_EQ(report.striped.remote_shard_bytes, 0u);
  test::ExpectReconstructionConservation(report.striped, 0,
                                         "full-replica boot");
}

TEST(PlacementCluster, FullReplicationReportsZeroReconstructionCounters) {
  SquirrelConfig config;
  config.volume = zvol::VolumeConfig{.block_size = kBlock,
                                     .codec = compress::CodecId::kGzip6,
                                     .dedup = true};
  SquirrelCluster cluster(config, 2);
  EXPECT_EQ(cluster.layout(), nullptr);
  const BootFixture fx(11);
  cluster.Register(
      {"img-1", BufferSource(fx.cache), SimClock::FromSeconds(60)});
  BufferSource base(fx.base);
  sim::IoContext io;
  const BootReport report = cluster.Boot(
      1, {.image_id = "img-1", .base_image = base, .trace = fx.trace}, io);
  test::ExpectReconstructionConservation(report.striped, 0, "placement off");
}

// --- Shard gathers -----------------------------------------------------------

/// Builds one ShardStore per stripe member from a volume's file table and
/// raw content (what InstallShards does inside the cluster).
std::vector<placement::ShardStore> ShardContent(
    const zvol::Volume& volume, const std::string& file, const Bytes& content,
    const placement::ReedSolomon& codec) {
  std::vector<placement::ShardStore> stores(codec.total_shards());
  const std::uint64_t blocks = volume.FileBlockCount(file);
  for (std::uint64_t b = 0; b < blocks; ++b) {
    const zvol::BlockPtr& ptr = volume.FileBlock(file, b);
    if (ptr.hole) continue;
    const std::size_t begin = b * kBlock;
    const std::size_t len =
        std::min<std::size_t>(kBlock, content.size() - begin);
    const Bytes raw(content.begin() + begin, content.begin() + begin + len);
    std::vector<Bytes> shards = codec.Encode(raw);
    for (std::uint32_t j = 0; j < shards.size(); ++j) {
      stores[j].Put(ptr.digest, j, static_cast<std::uint32_t>(raw.size()),
                    std::move(shards[j]));
    }
  }
  return stores;
}

std::vector<placement::ShardPeer> PeersOver(
    const std::vector<placement::ShardStore>& stores) {
  std::vector<placement::ShardPeer> peers;
  for (std::size_t j = 0; j < stores.size(); ++j) {
    peers.push_back({static_cast<std::uint32_t>(j + 1), &stores[j],
                     /*online=*/true, /*local=*/j == 0});
  }
  return peers;
}

TEST(PlacementRepair, GatherDecodesThroughParityWhenDataShardMissing) {
  const placement::ReedSolomon codec(3, 2);
  Bytes payload(kBlock, 0);
  util::Rng rng(8);
  rng.Fill(util::MutableByteSpan(payload.data(), payload.size()));
  const util::Digest digest = util::HashBlock(payload);
  std::vector<Bytes> shards = codec.Encode(payload);
  std::vector<placement::ShardStore> stores(5);
  for (std::uint32_t j = 0; j < 5; ++j) {
    stores[j].Put(digest, j, static_cast<std::uint32_t>(payload.size()),
                  std::move(shards[j]));
  }
  // Peer 2 holds data shard 1: losing it forces a parity decode.
  std::vector<placement::ShardPeer> peers = PeersOver(stores);
  peers[1].online = false;
  const placement::ReconstructionSource source(&codec, std::move(peers));
  const auto gathered = source.Gather(digest);
  ASSERT_TRUE(gathered.has_value());
  EXPECT_EQ(gathered->payload, payload);
  EXPECT_TRUE(gathered->decoded);
  EXPECT_GE(gathered->parity_shards_read, 1u);
  EXPECT_GT(gathered->local_bytes, 0u);  // peer 1 (shard 0) is local
  EXPECT_GT(gathered->remote_bytes, 0u);
  // Byte accounting: remote_reads sums to remote_bytes.
  std::uint64_t sum = 0;
  for (const auto& [node, bytes] : gathered->remote_reads) sum += bytes;
  EXPECT_EQ(sum, gathered->remote_bytes);
}

TEST(PlacementWindowRead, StripedDeviceChargesTheWholeRequest) {
  // One striped device reads each request whole, its twin reads it
  // windowed: every block of the request is resolved, gathered and charged
  // on both, so the io clock, the stripe counters and the set-local network
  // bytes agree read by read, while only the window is copied. The file
  // has holes and a short tail block.
  const zvol::VolumeConfig config{.block_size = kBlock,
                                  .codec = compress::CodecId::kNull,
                                  .dedup = true};
  Bytes content(37 * kBlock + 500);
  util::Rng(31).Fill(content);
  std::fill_n(content.begin() + 10 * kBlock, 4 * kBlock, util::Byte{0});
  zvol::Volume metadata(config);
  metadata.WriteFile("f", BufferSource(content));
  const placement::ReedSolomon codec(4, 2);
  const std::vector<placement::ShardStore> stores =
      ShardContent(metadata, "f", content, codec);
  placement::ReconstructionSource source(&codec, PeersOver(stores));
  sim::IoContext whole_io;
  sim::IoContext window_io;
  sim::NetworkAccountant whole_network(8);
  sim::NetworkAccountant window_network(8);
  placement::StripedFileDevice whole(&metadata, "f", &source,
                                     &metadata.block_store(), &whole_io,
                                     &whole_network, 1);
  placement::StripedFileDevice windowed(&metadata, "f", &source,
                                        &metadata.block_store(), &window_io,
                                        &window_network, 1);
  for (const test::WindowCase& c : test::Cases(content.size(), 32)) {
    SCOPED_TRACE(test::Describe(c));
    test::ReadBoth(whole, windowed, c, content);
    EXPECT_EQ(test::HexClock(window_io), test::HexClock(whole_io));
    EXPECT_EQ(windowed.stats().blocks_served, whole.stats().blocks_served);
    EXPECT_EQ(windowed.stats().local_shard_bytes,
              whole.stats().local_shard_bytes);
    EXPECT_EQ(windowed.stats().remote_shard_bytes,
              whole.stats().remote_shard_bytes);
    EXPECT_EQ(window_network.bytes_in(1), whole_network.bytes_in(1));
  }
  EXPECT_GT(windowed.stats().remote_shard_bytes, 0u);
}

}  // namespace
}  // namespace squirrel::core
