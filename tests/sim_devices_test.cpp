#include "sim/devices.h"

#include <gtest/gtest.h>

#include "buffer_source.h"
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
