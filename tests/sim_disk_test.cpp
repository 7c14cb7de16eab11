#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/disk_model.h"
#include "sim/io_context.h"
#include "sim/page_cache.h"

namespace squirrel::sim {
namespace {

TEST(DiskModel, SequentialReadsPayOnlyTransfer) {
  DiskModel disk;
  const double first = disk.Read(0, 65536);       // cold: seek from 0 -> free
  const double second = disk.Read(65536, 65536);  // contiguous
  EXPECT_DOUBLE_EQ(first, second);
  EXPECT_EQ(disk.seeks(), 0u);
  EXPECT_EQ(disk.bytes_read(), 131072u);
}

TEST(DiskModel, SeekCostTiersByDistance) {
  DiskModelConfig config;
  DiskModel disk(config);
  disk.Read(0, 4096);
  const double track = disk.Read(4096 + 512 * 1024, 4096);      // < 1 MiB away
  const double shortseek = disk.Read(64ull << 20, 4096);        // < 256 MiB
  const double longseek = disk.Read(10ull << 30, 4096);         // far
  const double transfer = 4096.0 / config.sequential_bytes_per_ns;
  EXPECT_NEAR(track, config.track_seek_ns + transfer, 1.0);
  EXPECT_NEAR(shortseek, config.short_seek_ns + transfer, 1.0);
  EXPECT_NEAR(longseek, config.long_seek_ns + transfer, 1.0);
  EXPECT_EQ(disk.seeks(), 3u);
}

TEST(DiskModel, BackwardSeeksCostToo) {
  DiskModel disk;
  disk.Read(1ull << 30, 4096);
  const std::uint64_t seeks_before = disk.seeks();
  disk.Read(0, 4096);
  EXPECT_EQ(disk.seeks(), seeks_before + 1);
}

TEST(PageCache, HitAfterInsert) {
  PageCache cache(1 << 20);
  EXPECT_FALSE(cache.Lookup(1, 10));
  cache.Insert(1, 10, 4096);
  EXPECT_TRUE(cache.Lookup(1, 10));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(PageCache, KeysAreDeviceScoped) {
  PageCache cache(1 << 20);
  cache.Insert(1, 10, 4096);
  EXPECT_FALSE(cache.Lookup(2, 10));
}

TEST(PageCache, EvictsLruWhenFull) {
  PageCache cache(3 * 4096);
  cache.Insert(1, 0, 4096);
  cache.Insert(1, 1, 4096);
  cache.Insert(1, 2, 4096);
  // Touch block 0 so block 1 becomes LRU.
  EXPECT_TRUE(cache.Lookup(1, 0));
  cache.Insert(1, 3, 4096);
  EXPECT_TRUE(cache.Lookup(1, 0));
  EXPECT_FALSE(cache.Lookup(1, 1));  // evicted
  EXPECT_TRUE(cache.Lookup(1, 2));
  EXPECT_TRUE(cache.Lookup(1, 3));
  EXPECT_LE(cache.resident_bytes(), 3u * 4096);
}

TEST(PageCache, ZeroCapacityCachesNothing) {
  PageCache cache(0);
  cache.Insert(1, 0, 4096);
  EXPECT_FALSE(cache.Lookup(1, 0));
  EXPECT_EQ(cache.resident_bytes(), 0u);
}

TEST(PageCache, ReinsertUpdatesSize) {
  PageCache cache(1 << 20);
  cache.Insert(1, 0, 4096);
  cache.Insert(1, 0, 8192);
  EXPECT_EQ(cache.resident_bytes(), 8192u);
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(PageCache, OversizedEntryIgnored) {
  PageCache cache(4096);
  cache.Insert(1, 0, 8192);
  EXPECT_FALSE(cache.Lookup(1, 0));
}

TEST(IoContext, AccumulatesCharges) {
  IoContext io;
  EXPECT_EQ(io.elapsed_ns(), 0.0);
  io.ChargeNs(1000.0);
  EXPECT_DOUBLE_EQ(io.elapsed_ns(), 1000.0);
  io.ChargeDiskRead(0, 65536);
  EXPECT_GT(io.elapsed_ns(), 1000.0);
  EXPECT_DOUBLE_EQ(io.elapsed_seconds(), io.elapsed_ns() / 1e9);
}

TEST(IoContext, RejectsDiskQueueDepthZero) {
  IoContextConfig config;
  config.disk_queue_depth = 0;
  EXPECT_THROW(IoContext io(config), std::invalid_argument);
}

TEST(IoContext, DdtLookupGrowsWithTableSize) {
  IoContext io;
  io.ChargeDdtLookup(0);
  const double small = io.elapsed_ns();
  io.ChargeDdtLookup(1u << 20);
  const double large = io.elapsed_ns() - small;
  EXPECT_GT(large, small);
}

}  // namespace
}  // namespace squirrel::sim
