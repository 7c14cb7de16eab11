// Async disk engine end to end: the default depth-1 queue pinned to the
// exact clocks of one-read-at-a-time charging, every device's disk reads
// routed through the queue, and the depth>1 + readahead overlap win.

#include <gtest/gtest.h>

#include <vector>

#include "buffer_source.h"
#include "core/squirrel.h"
#include "sim/devices.h"
#include "sim/io_context.h"
#include "util/rng.h"

namespace squirrel::core {
namespace {

using util::Bytes;

using test::BufferSource;

SquirrelConfig SmallConfig() {
  SquirrelConfig config;
  config.volume = zvol::VolumeConfig{.block_size = 4096,
                                     .codec = compress::CodecId::kGzip6,
                                     .dedup = true};
  return config;
}

Bytes CacheContent(std::size_t blocks) {
  Bytes content(blocks * 4096);
  util::Rng(99).Fill(content);  // incompressible-ish, all blocks unique
  return content;
}

struct BootRun {
  BootReport report;
  double elapsed_ns = 0.0;
};

/// Registers one image and boots it on node 1 under the given I/O config.
/// The whole cluster is rebuilt per run so store/cache state is identical.
BootRun RunBoot(const sim::IoContextConfig& io_config,
                std::size_t blocks = 96) {
  SquirrelCluster cluster(SmallConfig(), 2);
  const Bytes content = CacheContent(blocks);
  cluster.Register({"img", BufferSource(content), SimClock::FromSeconds(1000)});

  Bytes base = content;
  BufferSource base_image(base);
  std::vector<vmi::BootRead> trace;
  for (std::uint64_t off = 0; off < blocks * 4096; off += 8192) {
    trace.push_back({off, 8192});
  }

  sim::IoContext io(io_config);
  BootRun run;
  run.report = cluster.Boot(1,
      {.image_id = "img", .base_image = base_image, .trace = trace},
      io);
  run.elapsed_ns = io.elapsed_ns();
  return run;
}

TEST(AsyncBoot, DepthOneBitIdenticalToSynchronous) {
  // The default queue (depth 1, no readahead) charges each read in full
  // before the next starts. The counters are the ones the removed
  // synchronous charger (clock += DiskModel::Read) produced for this boot;
  // the clocks are the queue's, with the image's blocks back to back on
  // disk in file order. The bar is bit identity, not "close".
  const BootRun run = RunBoot(sim::IoContextConfig{});
  EXPECT_EQ(run.elapsed_ns, 0x1.d1p+22);
  EXPECT_EQ(run.report.result.seconds, 0x1.c03e6947415d1p+3);
  EXPECT_EQ(run.report.result.io_seconds, 0x1.f34a3a0ae8bc4p-8);
  EXPECT_EQ(run.report.result.bytes_read, 393216u);
  EXPECT_EQ(run.report.result.base_bytes_read, 0u);
  EXPECT_EQ(run.report.result.cache_bytes_read, 3145728u);
  EXPECT_EQ(run.report.result.page_cache_hits, 672u);
  EXPECT_EQ(run.report.result.page_cache_misses, 96u);
  EXPECT_EQ(run.report.network_bytes, 0u);
}

TEST(AsyncBoot, ReadaheadStrictlyFasterThanSynchronous) {
  // Baseline: the default depth-1 queue, one read at a time.
  const BootRun sync_run = RunBoot(sim::IoContextConfig{});

  sim::IoContextConfig async_config;
  async_config.disk_queue_depth = 8;
  async_config.readahead_blocks = 16;
  const BootRun async_run = RunBoot(async_config);

  // Same work...
  EXPECT_EQ(async_run.report.result.bytes_read,
            sync_run.report.result.bytes_read);
  EXPECT_EQ(async_run.report.network_bytes, sync_run.report.network_bytes);
  // ...strictly less simulated time: readahead overlaps disk service with
  // guest decompression, and queued neighbours coalesce into fewer seeks.
  EXPECT_LT(async_run.elapsed_ns, sync_run.elapsed_ns);
  EXPECT_LT(async_run.report.result.seconds, sync_run.report.result.seconds);
}

TEST(AsyncBoot, AsyncRunsAreDeterministic) {
  sim::IoContextConfig async_config;
  async_config.disk_queue_depth = 8;
  async_config.readahead_blocks = 16;
  const BootRun a = RunBoot(async_config);
  const BootRun b = RunBoot(async_config);
  EXPECT_EQ(a.elapsed_ns, b.elapsed_ns);
  EXPECT_EQ(a.report.result.seconds, b.report.result.seconds);
  EXPECT_EQ(a.report.result.page_cache_misses,
            b.report.result.page_cache_misses);
}

TEST(AsyncBoot, ScaledIoConfigClampsPageCacheToOnePage) {
  // Regression: deep downscales used to truncate the budget to 0 bytes,
  // silently disabling the page cache.
  const sim::IoContextConfig scaled = sim::ScaledIoConfig(1e-9);
  EXPECT_GE(scaled.page_cache_bytes, 4096u);
  EXPECT_GE(scaled.disk.track_distance, 1u);
  EXPECT_GT(scaled.disk.short_distance, scaled.disk.track_distance);
}

TEST(AsyncLocalFile, ReadaheadClampedAtEof) {
  // Regression: reading the final (partial) block with readahead enabled
  // used to size the charged window from `size - block_start`, which wraps
  // past EOF, and to let the prefetch loop issue zero/garbage-length reads.
  Bytes content(64 * 1024 + 512);  // one full 64K io block + a 512-byte tail
  util::Rng(7).Fill(content);
  BufferSource source(content);

  sim::IoContextConfig config;
  config.disk_queue_depth = 4;
  config.readahead_blocks = 8;
  sim::IoContext io(config);
  sim::LocalFileDevice device(&source, &io, /*device_id=*/7, /*disk_base=*/0);

  Bytes out(512);
  device.ReadAt(64 * 1024, util::MutableByteSpan(out.data(), out.size()));
  EXPECT_TRUE(
      std::equal(out.begin(), out.end(), content.begin() + 64 * 1024));
  EXPECT_GT(io.elapsed_ns(), 0.0);
  // Nothing may be left in flight past EOF.
  for (std::uint64_t b = 2; b < 12; ++b) EXPECT_FALSE(io.InFlight(7, b));
  // Re-reading the tail is a pure page-cache hit: no further charges.
  const double before = io.elapsed_ns();
  const std::uint64_t hits = io.page_cache().hits();
  device.ReadAt(64 * 1024, util::MutableByteSpan(out.data(), out.size()));
  EXPECT_EQ(io.page_cache().hits(), hits + 1);
  EXPECT_EQ(io.elapsed_ns(), before);
}

TEST(AsyncLocalFile, VolumeFileReadaheadClampedAtEof) {
  // Same regression on the volume device: a read grazing the file's final
  // partial block must clamp both the charged window and the readahead.
  zvol::Volume volume(zvol::VolumeConfig{.block_size = 4096,
                                         .codec = compress::CodecId::kGzip6,
                                         .dedup = true});
  Bytes content(10 * 4096 + 100);  // ten full blocks + a 100-byte tail
  util::Rng(3).Fill(content);
  volume.WriteFile("f", BufferSource(content));

  sim::IoContextConfig config;
  config.disk_queue_depth = 4;
  config.readahead_blocks = 8;
  sim::IoContext io(config);
  sim::VolumeFileDevice device(&volume, "f", &io, /*device_id=*/9);

  // A mid-file read whose readahead window crosses EOF...
  Bytes mid(4096);
  device.ReadAt(8 * 4096, util::MutableByteSpan(mid.data(), mid.size()));
  // ...prefetches at most up to the last real block, never past it.
  for (std::uint64_t b = 11; b < 20; ++b) EXPECT_FALSE(io.InFlight(9, b));

  // And the tail block itself reads back exactly.
  Bytes tail(100);
  device.ReadAt(10 * 4096, util::MutableByteSpan(tail.data(), tail.size()));
  EXPECT_TRUE(
      std::equal(tail.begin(), tail.end(), content.begin() + 10 * 4096));
}

TEST(AsyncBoot, ArcResizeBetweenPrefetchAndJoinStaysConsistent) {
  // ArcCache::Resize racing in-flight readahead: shrink the store's ARC
  // after prefetches are issued but before the guest joins them. The joins
  // must complete, the payloads must be correct, and no stale residency may
  // linger — not in the ARC and not in PageCache::Resident.
  zvol::VolumeConfig volume_config{.block_size = 4096,
                                   .codec = compress::CodecId::kGzip6,
                                   .dedup = true};
  volume_config.read.cache_bytes = 1ull << 20;
  zvol::Volume volume(volume_config);
  // Compressible but unique blocks: only compressed payloads are ARC
  // candidates (raw blocks bypass the cache), and dedup must not collapse
  // the file to one block.
  Bytes content(32 * 4096, util::Byte{0});
  util::Rng rng(99);
  for (std::size_t b = 0; b < 32; ++b) {
    rng.Fill(util::MutableByteSpan(content.data() + b * 4096, 512));
  }
  volume.WriteFile("f", BufferSource(content));

  sim::IoContextConfig config;
  config.disk_queue_depth = 8;
  sim::IoContext io(config);
  sim::VolumeFileDevice device(&volume, "f", &io, /*device_id=*/11);

  // Warm the ARC, then put the first eight blocks on the wire.
  std::vector<std::uint64_t> all(32);
  for (std::uint64_t b = 0; b < 32; ++b) all[b] = b;
  EXPECT_EQ(device.WarmCacheFromBlocks(all), 32u);
  EXPECT_GT(volume.block_store().read_stats().cached_bytes, 0u);
  for (std::uint64_t b = 0; b < 8; ++b) {
    EXPECT_EQ(device.PrefetchBlock(b), sim::PrefetchOutcome::kIssued);
    EXPECT_TRUE(io.InFlight(11, b));
    // In flight is not resident: the page cache only fills at the join.
    EXPECT_FALSE(io.page_cache().Resident(11, b));
  }

  // Shrink-to-zero evicts every ARC payload while the reads are in flight;
  // growing back must not resurrect anything.
  volume.block_store().ResizeCache(0);
  volume.block_store().ResizeCache(1ull << 20);
  EXPECT_EQ(volume.block_store().read_stats().cached_bytes, 0u);

  Bytes out(4096);
  for (std::uint64_t b = 0; b < 8; ++b) {
    device.ReadAt(b * 4096, util::MutableByteSpan(out.data(), out.size()));
    EXPECT_TRUE(std::equal(out.begin(), out.end(),
                           content.begin() + static_cast<std::ptrdiff_t>(
                                                 b * 4096)))
        << "block " << b;
    EXPECT_FALSE(io.InFlight(11, b));
    EXPECT_TRUE(io.page_cache().Resident(11, b));
  }
}

TEST(AsyncLocalFile, DepthOneBitIdenticalToSynchronous) {
  // Goldens from the removed synchronous charger for the same three reads
  // (see AsyncBoot.DepthOneBitIdenticalToSynchronous).
  const Bytes content = CacheContent(64);
  BufferSource source(content);
  Bytes out(content.size());

  sim::IoContext io;
  sim::LocalFileDevice device(&source, &io, /*device_id=*/7, /*disk_base=*/0);
  device.ReadAt(0, util::MutableByteSpan(out.data(), 32 * 1024));
  device.ReadAt(32 * 1024, util::MutableByteSpan(out.data(), 64 * 1024));
  device.ReadAt(0, util::MutableByteSpan(out.data(), 16 * 1024));  // cached

  EXPECT_EQ(io.elapsed_ns(), 0x1.4424p+21);
  EXPECT_EQ(io.page_cache().hits(), 2u);
  EXPECT_EQ(io.page_cache().misses(), 2u);
}

TEST(AsyncBoot, LocalCacheAndStripedReadsGoThroughQueue) {
  // Every simulated disk read is a queue request: the CoR cache file's
  // cluster reads and a striped boot's local shard reads included.
  sim::IoContextConfig config;
  config.disk_queue_depth = 1;
  {
    const Bytes content = CacheContent(32);
    BufferSource source(content);
    sim::IoContext io(config);
    sim::LocalCacheDevice cache(content.size(), 64 * 1024, &io,
                                /*device_id=*/3, /*disk_base=*/0);
    cache.Warm(source, {{0, content.size()}});
    Bytes out(4096);
    cache.ReadAt(0, util::MutableByteSpan(out.data(), out.size()));
    EXPECT_TRUE(std::equal(out.begin(), out.end(), content.begin()));
    EXPECT_EQ(io.disk_queue()->stats().submitted, 1u);
    EXPECT_GT(io.elapsed_ns(), 0.0);
  }
  {
    SquirrelConfig striped = SmallConfig();
    striped.placement.policy = placement::PolicyKind::kStriped;
    striped.placement.data_shards = 4;
    striped.placement.parity_shards = 2;
    SquirrelCluster cluster(striped, 6);
    const Bytes content = CacheContent(16);
    cluster.Register(
        {"img", BufferSource(content), SimClock::FromSeconds(60)});
    BufferSource base(content);
    const std::vector<vmi::BootRead> trace = {{0, 16 * 4096}};
    sim::IoContext io(config);
    const BootReport report = cluster.Boot(
        0, {.image_id = "img", .base_image = base, .trace = trace}, io);
    // The striped device served it.
    EXPECT_GT(report.striped.remote_shard_bytes, 0u);
    EXPECT_GT(io.disk_queue()->stats().submitted, 0u);
  }
}

}  // namespace
}  // namespace squirrel::core
