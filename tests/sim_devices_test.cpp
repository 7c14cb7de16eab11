#include "sim/devices.h"

#include <gtest/gtest.h>

#include "buffer_source.h"
#include "cow/chain.h"
#include "cow/qcow.h"
#include "sim/parallel_fs.h"
#include "util/rng.h"

namespace squirrel::sim {
namespace {

using util::Bytes;

using test::BufferSource;

Bytes RandomBytes(std::size_t size, std::uint64_t seed) {
  Bytes data(size);
  util::Rng(seed).Fill(data);
  return data;
}

TEST(LocalFileDevice, ReadsContentAndChargesDisk) {
  const Bytes content = RandomBytes(256 * 1024, 1);
  BufferSource source(content);
  IoContext io;
  LocalFileDevice device(&source, &io, 1, 0);
  Bytes out(10000);
  device.ReadAt(5000, out);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), content.begin() + 5000));
  EXPECT_GT(io.elapsed_ns(), 0.0);
}

TEST(LocalFileDevice, SecondReadHitsPageCache) {
  const Bytes content = RandomBytes(256 * 1024, 2);
  BufferSource source(content);
  IoContext io;
  LocalFileDevice device(&source, &io, 1, 0);
  Bytes out(65536);
  device.ReadAt(0, out);
  const double cold = io.elapsed_ns();
  device.ReadAt(0, out);
  const double warm = io.elapsed_ns() - cold;
  EXPECT_LT(warm, cold / 10);  // page cache absorbed the disk cost
}

TEST(LocalFileDevice, NullIoContextIsFunctional) {
  const Bytes content = RandomBytes(8192, 3);
  BufferSource source(content);
  LocalFileDevice device(&source, nullptr, 1, 0);
  Bytes out(8192);
  device.ReadAt(0, out);
  EXPECT_EQ(out, content);
}

TEST(LocalCacheDevice, CopyOnReadPopulationAndReadback) {
  IoContext io;
  LocalCacheDevice cache(1 << 20, 65536, &io, 2, 0);
  EXPECT_FALSE(cache.Present(0));
  const Bytes data = RandomBytes(65536, 4);
  cache.WriteAt(0, data);
  EXPECT_TRUE(cache.Present(0));
  EXPECT_FALSE(cache.Present(65536));
  Bytes out(65536);
  cache.ReadAt(0, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(cache.populated_bytes(), 65536u);
}

TEST(LocalCacheDevice, WarmFillsRanges) {
  const Bytes content = RandomBytes(1 << 20, 5);
  BufferSource source(content);
  LocalCacheDevice cache(content.size(), 65536, nullptr, 2, 0);
  cache.Warm(source, {{0, 100000}, {500000, 50000}});
  EXPECT_TRUE(cache.Present(0));
  EXPECT_TRUE(cache.Present(99999));
  EXPECT_TRUE(cache.Present(500000));
  EXPECT_FALSE(cache.Present(300000));
  Bytes out(50000);
  cache.ReadAt(500000 / 65536 * 65536, out);
  EXPECT_TRUE(std::equal(out.begin(), out.end(),
                         content.begin() + 500000 / 65536 * 65536));
}

TEST(VolumeFileDevice, PresenceTracksHolesAtBlockGranularity) {
  zvol::Volume volume({.block_size = 4096, .codec = compress::CodecId::kNull});
  Bytes sparse(8 * 4096, 0);
  std::fill_n(sparse.begin() + 4096, 4096, 0x55);
  volume.WriteFile("f", BufferSource(sparse));
  VolumeFileDevice device(&volume, "f", nullptr, 3, /*presence_window=*/4096);
  EXPECT_FALSE(device.Present(0));
  EXPECT_TRUE(device.Present(4096));
  EXPECT_FALSE(device.Present(2 * 4096));
  EXPECT_EQ(device.size(), sparse.size());
}

TEST(VolumeFileDevice, PresenceWindowCoversClusterWithLeadingZeros) {
  // A cached cluster whose first blocks are zeros (file-system slack) must
  // still count as present — copy-on-read populates whole clusters.
  zvol::Volume volume({.block_size = 4096, .codec = compress::CodecId::kNull});
  Bytes sparse(32 * 4096, 0);
  std::fill_n(sparse.begin() + 12 * 4096, 4096, 0x77);  // inside cluster 0
  volume.WriteFile("f", BufferSource(sparse));
  VolumeFileDevice device(&volume, "f", nullptr, 3, /*presence_window=*/65536);
  EXPECT_TRUE(device.Present(0));          // cluster 0 has content at 48K
  EXPECT_TRUE(device.Present(4096));       // same cluster
  EXPECT_FALSE(device.Present(16 * 4096)); // cluster 1 is fully sparse
}

TEST(VolumeFileDevice, ChargesDdtAndDecompression) {
  zvol::Volume volume({.block_size = 4096, .codec = compress::CodecId::kGzip6});
  Bytes text(16 * 4096);
  util::Rng rng(6);
  for (auto& b : text) b = static_cast<util::Byte>('a' + rng.Below(3));
  volume.WriteFile("f", BufferSource(text));
  IoContext io;
  VolumeFileDevice device(&volume, "f", &io, 4);
  Bytes out(16 * 4096);
  device.ReadAt(0, out);
  EXPECT_EQ(out, text);
  EXPECT_GT(io.elapsed_ns(), 0.0);
  // Re-read: cheaper through the page cache, but still pays DDT lookups.
  const double first = io.elapsed_ns();
  device.ReadAt(0, out);
  const double second = io.elapsed_ns() - first;
  EXPECT_LT(second, first / 2);
  EXPECT_GT(second, 0.0);
}

TEST(VolumeFileDevice, WriteGoesThroughVolume) {
  zvol::Volume volume({.block_size = 4096, .codec = compress::CodecId::kNull});
  volume.CreateFile("f", 8 * 4096);
  IoContext io;
  VolumeFileDevice device(&volume, "f", &io, 5);
  const Bytes data = RandomBytes(4096, 7);
  device.WriteAt(4096, data);
  EXPECT_EQ(volume.ReadRange("f", 4096, 4096), data);
}

/// Compressible page-like content with zero runs: whole-zero 4 KiB blocks
/// become holes in a 4 KiB-block volume.
Bytes CacheImageBytes(std::size_t size, std::uint64_t seed) {
  Bytes data(size, 0);
  util::Rng rng(seed);
  for (std::size_t block = 0; block < size / 4096; ++block) {
    if (block % 16 == 15 || rng.Chance(0.2)) continue;  // a hole
    for (std::size_t i = 0; i < 4096; ++i) {
      data[block * 4096 + i] = static_cast<util::Byte>('a' + rng.Below(5));
    }
  }
  return data;
}

std::uint64_t StoreRequests(const zvol::Volume& volume) {
  return volume.block_store().read_stats().blocks_requested;
}

TEST(VolumeFileDevice, WarmReplicaBootAsksStoreOncePerPageCacheMiss) {
  // A boot over a fully populated cache file (ARC off), through the §3.3
  // chain: the guest re-reads clusters, the page-cache hits are served from
  // held bytes, and only the misses reach the store.
  Bytes image = CacheImageBytes(1 << 20, 11);
  // The last 64 KiB cluster is all zeros, so the cache lacks it.
  std::fill(image.end() - 65536, image.end(), util::Byte{0});
  zvol::Volume volume({.block_size = 4096, .codec = compress::CodecId::kGzip6});
  volume.WriteFile("cache", BufferSource(image));
  BufferSource base_source(image);
  IoContext io;
  cow::QcowOverlay overlay(image.size(), cow::kDefaultClusterSize);
  VolumeFileDevice cache(&volume, "cache", &io, 1);
  RemoteImageDevice base(&base_source, &io, nullptr, 1);
  cow::Chain chain(&overlay, &cache, &base, /*copy_on_read=*/false);

  const std::uint64_t requests0 = StoreRequests(volume);
  util::Rng rng(12);
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t offset = rng.Below(image.size() - 8192);
    const std::uint64_t length = rng.Between(1, 8192);
    const Bytes got = chain.Read(offset, length);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), image.begin() + offset))
        << "read " << i << " at " << offset;
  }
  EXPECT_GT(io.page_cache().hits(), io.page_cache().misses());
  EXPECT_GT(chain.base_bytes_read(), 0u);  // the all-zero cluster
  EXPECT_EQ(StoreRequests(volume) - requests0, io.page_cache().misses());
  EXPECT_LE(cache.held_bytes(), io.page_cache().resident_bytes());
}

TEST(VolumeFileDevice, RewrittenResidentBlockIsReadAgain) {
  zvol::Volume volume({.block_size = 4096, .codec = compress::CodecId::kGzip6});
  const Bytes before = CacheImageBytes(4 * 4096, 13);
  volume.WriteFile("f", BufferSource(before));
  IoContext io;
  VolumeFileDevice device(&volume, "f", &io, 1);
  Bytes out(4096);
  device.ReadAt(0, out);
  ASSERT_TRUE(std::equal(out.begin(), out.end(), before.begin()));

  // Rewritten behind the device while the page cache still holds block 0:
  // its digest moved, so the next read goes back to the volume.
  const Bytes after = RandomBytes(4096, 14);
  volume.WriteRange("f", 0, after);
  ASSERT_TRUE(io.page_cache().Resident(1, 0));
  const std::uint64_t requests = StoreRequests(volume);
  const std::uint64_t hits = io.page_cache().hits();
  device.ReadAt(0, out);
  EXPECT_EQ(io.page_cache().hits(), hits + 1);
  EXPECT_EQ(out, after);
  EXPECT_EQ(StoreRequests(volume), requests + 1);
  // The fresh bytes are held now: a third read is a pure page-cache hit.
  device.ReadAt(0, out);
  EXPECT_EQ(out, after);
  EXPECT_EQ(StoreRequests(volume), requests + 1);
}

TEST(VolumeFileDevice, GrownTailBlockIsReadAgain) {
  // A write past EOF grows the file without rewriting the old partial tail
  // block: same digest, longer in-file block, whose new tail reads as zeros.
  zvol::Volume volume({.block_size = 4096, .codec = compress::CodecId::kGzip6});
  const Bytes content = RandomBytes(4096 + 100, 18);
  volume.WriteFile("f", BufferSource(content));
  IoContext io;
  VolumeFileDevice device(&volume, "f", &io, 1);
  Bytes tail(100);
  device.ReadAt(4096, tail);
  const util::Digest digest = volume.FileBlock("f", 1).digest;
  device.WriteAt(3 * 4096, RandomBytes(4096, 19));
  ASSERT_EQ(volume.FileBlock("f", 1).digest, digest);
  ASSERT_TRUE(io.page_cache().Resident(1, 1));
  Bytes out(4096);
  device.ReadAt(4096, out);
  Bytes want(4096, 0);
  std::copy(content.begin() + 4096, content.end(), want.begin());
  EXPECT_EQ(out, want);
}

TEST(VolumeFileDevice, OneBlockPageCacheReachesStoreEveryTime) {
  zvol::Volume volume({.block_size = 4096, .codec = compress::CodecId::kGzip6});
  const Bytes content = CacheImageBytes(2 * 4096, 15);
  const Bytes other = RandomBytes(4096, 16);
  volume.WriteFile("f", BufferSource(content));
  volume.WriteFile("g", BufferSource(other));
  IoContextConfig config;
  config.page_cache_bytes = 4096;  // one block
  IoContext io(config);
  VolumeFileDevice device(&volume, "f", &io, 1);
  Bytes out(4096);
  for (int i = 0; i < 6; ++i) {
    const std::uint64_t block = i % 2;
    const std::uint64_t requests = StoreRequests(volume);
    device.ReadAt(block * 4096, out);
    EXPECT_TRUE(std::equal(out.begin(), out.end(),
                           content.begin() + block * 4096))
        << i;
    EXPECT_EQ(StoreRequests(volume), requests + 1) << i;
    // The evicted block's bytes went with it.
    EXPECT_LE(device.held_bytes(), io.page_cache().resident_bytes()) << i;
  }

  // A second device on the same IoContext evicts the first one's block
  // between its reads: the first device still holds the bytes, but the
  // page cache missed, so the read reaches the store.
  VolumeFileDevice neighbour(&volume, "g", &io, 2);
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t requests = StoreRequests(volume);
    if (i % 2 == 0) {
      device.ReadAt(0, out);
      EXPECT_TRUE(std::equal(out.begin(), out.end(), content.begin())) << i;
    } else {
      neighbour.ReadAt(0, out);
      EXPECT_EQ(out, other) << i;
    }
    EXPECT_EQ(StoreRequests(volume), requests + 1) << i;
  }
}

TEST(VolumeFileDevice, HealedBlockServedFromPageCacheWithoutSecondRepair) {
  const zvol::VolumeConfig config{.block_size = 4096,
                                  .codec = compress::CodecId::kGzip6};
  const Bytes content = CacheImageBytes(4 * 4096, 17);
  zvol::Volume local(config);
  local.WriteFile("f", BufferSource(content));
  zvol::Volume storage(config);
  storage.WriteFile("f", BufferSource(content));
  ASSERT_TRUE(local.CorruptBlockForTesting("f", 1));

  IoContext io;
  VolumeFileDevice device(&local, "f", &io, 1);
  device.SetRepairSources({{0, &storage.block_store()}}, nullptr, 1, nullptr);
  Bytes out(4096);
  device.ReadAt(4096, out);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), content.begin() + 4096));
  EXPECT_EQ(device.degraded_stats().repair_reads, 1u);

  const std::uint64_t requests = StoreRequests(local);
  const std::uint64_t hits = io.page_cache().hits();
  std::fill(out.begin(), out.end(), util::Byte{0});
  device.ReadAt(4096, out);
  EXPECT_EQ(io.page_cache().hits(), hits + 1);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), content.begin() + 4096));
  EXPECT_EQ(device.degraded_stats().repair_reads, 1u);
  EXPECT_EQ(StoreRequests(local), requests);
}

TEST(VolumeFileDevice, FileReplacedBehindDeviceReadsNewBytes) {
  // A device looks its file up once per call, never across calls: a file
  // replaced between two reads, with a new size and new blocks, reads back
  // the new bytes, including past the old end.
  zvol::Volume volume({.block_size = 4096, .codec = compress::CodecId::kGzip6});
  const Bytes before = CacheImageBytes(6 * 4096, 24);
  volume.WriteFile("f", BufferSource(before));
  IoContext io;
  VolumeFileDevice device(&volume, "f", &io, 1);
  Bytes out(2 * 4096);
  device.ReadAt(0, out);
  ASSERT_TRUE(std::equal(out.begin(), out.end(), before.begin()));
  ASSERT_GT(device.held_bytes(), 0u);

  Bytes after = RandomBytes(10 * 4096 + 100, 25);
  std::fill_n(after.begin() + 4096, 4096, util::Byte{0});  // now a hole
  volume.WriteFile("f", BufferSource(after));
  EXPECT_EQ(device.size(), after.size());
  EXPECT_TRUE(device.Present(0));
  device.ReadAt(0, out);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), after.begin()));
  Bytes tail(4096 + 100);
  device.ReadAt(9 * 4096, tail);
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(), after.begin() + 9 * 4096));
  EXPECT_EQ(volume.ReadFile("f"), after);
}

/// First non-hole block of `file`.
std::uint64_t FirstDataBlock(const zvol::Volume& volume, const std::string& file) {
  std::uint64_t b = 0;
  while (volume.FileBlock(file, b).hole) ++b;
  return b;
}

TEST(VolumeFileDevice, HeldBlockOutlivesArcEviction) {
  // The device holds the store's shared buffer, not a copy: when the ARC
  // evicts the block while the device holds it, the buffer lives on, and
  // the next page-cache hit serves the image's bytes without reaching the
  // store.
  zvol::Volume volume({.block_size = 4096,
                       .codec = compress::CodecId::kGzip6,
                       .read = {.cache_bytes = 2 * 4096}});  // two blocks
  const Bytes content = CacheImageBytes(8 * 4096, 21);
  const Bytes other = CacheImageBytes(8 * 4096, 22);
  volume.WriteFile("f", BufferSource(content));
  volume.WriteFile("g", BufferSource(other));
  IoContext io;
  VolumeFileDevice device(&volume, "f", &io, 1);
  const std::uint64_t b = FirstDataBlock(volume, "f");
  Bytes out(4096);
  device.ReadAt(b * 4096, out);
  const util::Digest digest = volume.FileBlock("f", b).digest;
  ASSERT_TRUE(volume.block_store().CachedDecompressedBatch({&digest, 1})[0]);

  // Reading another file through the two-block ARC evicts it.
  ASSERT_EQ(volume.ReadFile("g"), other);
  ASSERT_FALSE(volume.block_store().CachedDecompressedBatch({&digest, 1})[0]);

  const std::uint64_t requests = StoreRequests(volume);
  std::fill(out.begin(), out.end(), util::Byte{0xa5});
  device.ReadAt(b * 4096, out);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), content.begin() + b * 4096));
  EXPECT_EQ(StoreRequests(volume), requests);
}

TEST(VolumeFileDevice, HeldBlockIsTheArcBuffer) {
  // With the ARC on, a held block and its ARC entry are one buffer.
  zvol::Volume volume({.block_size = 4096,
                       .codec = compress::CodecId::kGzip6,
                       .read = {.cache_bytes = util::kMiB}});
  volume.WriteFile("f", BufferSource(CacheImageBytes(8 * 4096, 23)));
  IoContext io;
  VolumeFileDevice device(&volume, "f", &io, 1);
  const std::uint64_t b = FirstDataBlock(volume, "f");
  Bytes out(4096);
  device.ReadAt(b * 4096, out);

  const util::Digest one[1] = {volume.FileBlock("f", b).digest};
  const std::uint64_t hits = volume.block_store().read_stats().cache_hits;
  const util::SharedBytes probe = volume.block_store().GetBatchShared(one)[0];
  ASSERT_EQ(volume.block_store().read_stats().cache_hits, hits + 1);
  // Three holders of the one buffer: the ARC entry, the device and this
  // probe. A device holding a copy would leave two.
  EXPECT_EQ(probe.use_count(), 3);
  EXPECT_EQ(device.held_bytes(), probe->size());
}

TEST(RemoteImageDevice, CountsNetworkBytes) {
  const Bytes content = RandomBytes(1 << 20, 8);
  BufferSource source(content);
  IoContext io;
  NetworkAccountant network(4);
  RemoteImageDevice device(&source, &io, &network, 2);
  Bytes out(100000);
  device.ReadAt(0, out);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), content.begin()));
  EXPECT_EQ(device.bytes_fetched(), 100000u);
  EXPECT_EQ(network.bytes_in(2), 100000u);
  EXPECT_EQ(network.bytes_out(0), 100000u);
  EXPECT_GT(io.elapsed_ns(), 0.0);
}

TEST(NetworkAccountant, MulticastCountsOncePerReceiver) {
  NetworkAccountant network(5);
  network.Multicast(0, {1, 2, 3}, 1000);
  EXPECT_EQ(network.bytes_out(0), 1000u);  // sent once on the wire
  EXPECT_EQ(network.bytes_in(1), 1000u);
  EXPECT_EQ(network.bytes_in(3), 1000u);
  EXPECT_EQ(network.bytes_in(4), 0u);
  EXPECT_EQ(network.TotalBytesIn(1, 4), 3000u);
}

TEST(NetworkAccountant, TransferTimeScalesWithBytes) {
  NetworkAccountant network(2);
  const double small = network.Transfer(0, 1, 1000);
  const double large = network.Transfer(0, 1, 100000000);
  EXPECT_GT(large, small * 100);
}

TEST(ParallelFs, StripesAcrossGroups) {
  ParallelFs fs({.stripe_count = 2,
                 .replica_count = 2,
                 .stripe_unit = 128 * 1024,
                 .nodes = {0, 1, 2, 3}});
  // Units alternate between group {0,1} and group {2,3}.
  const std::uint32_t n0 = fs.ServingNode(0, 0);
  const std::uint32_t n1 = fs.ServingNode(128 * 1024, 0);
  EXPECT_TRUE(n0 == 0 || n0 == 1);
  EXPECT_TRUE(n1 == 2 || n1 == 3);
}

TEST(ParallelFs, ReplicasAlternate) {
  ParallelFs fs({.stripe_count = 1,
                 .replica_count = 2,
                 .stripe_unit = 128 * 1024,
                 .nodes = {7, 8}});
  EXPECT_EQ(fs.ServingNode(0, 0), 7u);
  EXPECT_EQ(fs.ServingNode(0, 1), 8u);
}

TEST(ParallelFs, ReadAccountsBytesToServersAndClient) {
  NetworkAccountant network(8);
  ParallelFs fs({.stripe_count = 2,
                 .replica_count = 2,
                 .stripe_unit = 128 * 1024,
                 .nodes = {0, 1, 2, 3}});
  // Read 512 KiB spanning 4 stripe units starting at client node 5.
  fs.Read(network, 5, 0, 512 * 1024);
  EXPECT_EQ(network.bytes_in(5), 512u * 1024);
  std::uint64_t served = 0;
  for (std::uint32_t node : {0u, 1u, 2u, 3u}) served += fs.bytes_served(node);
  EXPECT_EQ(served, 512u * 1024);
}

TEST(ParallelFs, BadConfigRejected) {
  EXPECT_THROW(ParallelFs({.stripe_count = 2,
                           .replica_count = 2,
                           .stripe_unit = 128 * 1024,
                           .nodes = {0, 1, 2}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace squirrel::sim
