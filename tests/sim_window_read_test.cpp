// Window reads (cow/device.h): a device charges, caches, counts and records
// the whole request, and writes only the window into the caller's buffer.
// Each test runs a twin set-up: one device reads every request whole, the
// other reads it windowed, and every simulated number must agree read by
// read — the `%a` io clock, page-cache hits and misses, store ReadStats,
// profile records and network bytes — while the window holds the whole
// read's bytes at its offset and guard bytes on both sides of it stay
// untouched.
#include <gtest/gtest.h>

#include <string>

#include "buffer_source.h"
#include "cow/qcow.h"
#include "sim/devices.h"
#include "util/rng.h"
#include "vmi/boot_profile.h"
#include "window_read.h"

namespace squirrel::sim {
namespace {

using util::Bytes;

using test::BufferSource;
using test::Cases;
using test::Describe;
using test::HexClock;
using test::kCluster;
using test::ReadBoth;
using test::WindowCase;

void ExpectSameIo(IoContext& whole, IoContext& windowed) {
  EXPECT_EQ(HexClock(windowed), HexClock(whole));
  EXPECT_EQ(windowed.page_cache().hits(), whole.page_cache().hits());
  EXPECT_EQ(windowed.page_cache().misses(), whole.page_cache().misses());
}

/// Page-like content whose every fourth `hole`-sized run is zeros, ending
/// in a partial run.
Bytes HoleyContent(std::uint64_t size, std::uint64_t hole, std::uint64_t seed) {
  Bytes data(size, 0);
  util::Rng rng(seed);
  for (std::uint64_t run = 0; run * hole < size; ++run) {
    if (run % 4 == 2) continue;
    const std::uint64_t end = std::min(size, (run + 1) * hole);
    for (std::uint64_t i = run * hole; i < end; ++i) {
      data[i] = static_cast<util::Byte>('a' + rng.Below(6));
    }
  }
  return data;
}

TEST(WindowRead, LocalFileDeviceChargesTheWholeRequest) {
  const Bytes content = HoleyContent(10 * kCluster + 1000, 4096, 1);
  BufferSource source(content);
  IoContextConfig config;
  config.readahead_blocks = 2;
  config.page_cache_bytes = 6 * kCluster;  // the second pass evicts
  IoContext whole_io(config);
  IoContext window_io(config);
  LocalFileDevice whole(&source, &whole_io, 1, 0);
  LocalFileDevice windowed(&source, &window_io, 1, 0);
  vmi::BootProfile whole_profile;
  vmi::BootProfile window_profile;
  whole.SetProfileRecorder(&whole_profile, "base");
  windowed.SetProfileRecorder(&window_profile, "base");
  for (const WindowCase& c : Cases(content.size(), 2)) {
    SCOPED_TRACE(Describe(c));
    ReadBoth(whole, windowed, c, content);
    ExpectSameIo(whole_io, window_io);
    EXPECT_EQ(window_profile, whole_profile);
  }
  EXPECT_GT(window_io.page_cache().hits(), 0u);
}

TEST(WindowRead, LocalCacheDeviceChargesTheWholeRequest) {
  const Bytes content = HoleyContent(8 * kCluster + 300, 4096, 3);
  BufferSource source(content);
  IoContextConfig config;
  config.page_cache_bytes = 4 * kCluster;
  IoContext whole_io(config);
  IoContext window_io(config);
  LocalCacheDevice whole(content.size(), kCluster, &whole_io, 2, 0);
  LocalCacheDevice windowed(content.size(), kCluster, &window_io, 2, 0);
  whole.Warm(source, {{0, content.size()}});
  windowed.Warm(source, {{0, content.size()}});
  for (const WindowCase& c : Cases(content.size(), 4)) {
    SCOPED_TRACE(Describe(c));
    ReadBoth(whole, windowed, c, content);
    ExpectSameIo(whole_io, window_io);
  }
  EXPECT_GT(window_io.page_cache().hits(), 0u);
}

TEST(WindowRead, RemoteImageDeviceTransfersTheWholeRequest) {
  const Bytes content = HoleyContent(6 * kCluster + 77, 4096, 5);
  BufferSource source(content);
  for (const bool with_network : {true, false}) {
    SCOPED_TRACE(with_network ? "network" : "nominal latency");
    IoContext whole_io;
    IoContext window_io;
    NetworkAccountant whole_network(4);
    NetworkAccountant window_network(4);
    RemoteImageDevice whole(&source, &whole_io,
                            with_network ? &whole_network : nullptr, 2);
    RemoteImageDevice windowed(&source, &window_io,
                               with_network ? &window_network : nullptr, 2);
    for (const WindowCase& c : Cases(content.size(), 6)) {
      SCOPED_TRACE(Describe(c));
      ReadBoth(whole, windowed, c, content);
      EXPECT_EQ(HexClock(window_io), HexClock(whole_io));
      EXPECT_EQ(windowed.bytes_fetched(), whole.bytes_fetched());
      EXPECT_EQ(window_network.bytes_in(2), whole_network.bytes_in(2));
      EXPECT_EQ(window_network.bytes_out(0), whole_network.bytes_out(0));
    }
  }
}

void ExpectSameReadStats(const store::ReadStats& whole,
                         const store::ReadStats& windowed) {
  EXPECT_EQ(windowed.blocks_requested, whole.blocks_requested);
  EXPECT_EQ(windowed.cache_hits, whole.cache_hits);
  EXPECT_EQ(windowed.cache_misses, whole.cache_misses);
  EXPECT_EQ(windowed.raw_blocks, whole.raw_blocks);
  EXPECT_EQ(windowed.decompressed_blocks, whole.decompressed_blocks);
  EXPECT_EQ(windowed.decompressed_bytes, whole.decompressed_bytes);
  EXPECT_EQ(windowed.cached_bytes, whole.cached_bytes);
}

/// One side of the VolumeFileDevice twin: its own volume, io clock,
/// profile and device, with the cluster boot's repair session armed.
struct VolumeSide {
  VolumeSide(const zvol::VolumeConfig& config, const Bytes& content,
             const zvol::Volume& storage, const IoContextConfig& io_config)
      : volume(config), io(io_config) {
    volume.WriteFile("cache", BufferSource(content));
    device = std::make_unique<VolumeFileDevice>(&volume, "cache", &io, 9);
    device->SetProfileRecorder(&profile);
    device->SetRepairSources({{0, &storage.block_store()}}, nullptr, 1,
                             nullptr);
  }
  zvol::Volume volume;
  IoContext io;
  vmi::BootProfile profile;
  std::unique_ptr<VolumeFileDevice> device;
};

TEST(WindowRead, VolumeFileDeviceChargesTheWholeRequest) {
  // Held and miss paths, holes and a short tail block, under 64 KiB
  // clusters: 4 KiB volume blocks (16 per cluster) and 128 KiB ones (a
  // cluster is half a block, so only longer requests hold blocks), with the
  // ARC off and on.
  // The 4 KiB page cache holds half the file's blocks, so the second pass
  // also misses; the 128 KiB one holds every block.
  const std::pair<std::uint32_t, std::uint64_t> geometries[] = {
      {4096, 4 * kCluster}, {128 * 1024, 16 * kCluster}};
  for (const auto& [block_size, page_cache_bytes] : geometries) {
    for (const std::uint64_t arc_bytes : {std::uint64_t{0}, util::kMiB}) {
      SCOPED_TRACE("block " + std::to_string(block_size) + " arc " +
                   std::to_string(arc_bytes));
      const zvol::VolumeConfig config{.block_size = block_size,
                                      .codec = compress::CodecId::kGzip6,
                                      .read = {.cache_bytes = arc_bytes}};
      const Bytes content = HoleyContent(8 * kCluster + 1000, block_size, 7);
      zvol::Volume storage(config);
      storage.WriteFile("cache", BufferSource(content));
      IoContextConfig io_config;
      io_config.readahead_blocks = 1;
      io_config.page_cache_bytes = page_cache_bytes;
      VolumeSide whole(config, content, storage, io_config);
      VolumeSide windowed(config, content, storage, io_config);
      std::uint64_t served_held = 0;
      for (const WindowCase& c : Cases(content.size(), 8)) {
        SCOPED_TRACE(Describe(c));
        const std::uint64_t requests =
            windowed.volume.block_store().read_stats().blocks_requested;
        const std::uint64_t misses = windowed.io.page_cache().misses();
        ReadBoth(*whole.device, *windowed.device, c, content);
        ExpectSameIo(whole.io, windowed.io);
        ExpectSameReadStats(whole.volume.block_store().read_stats(),
                            windowed.volume.block_store().read_stats());
        EXPECT_EQ(windowed.profile, whole.profile);
        EXPECT_EQ(windowed.device->held_bytes(), whole.device->held_bytes());
        served_held +=
            c.length > 0 && windowed.io.page_cache().misses() == misses &&
            windowed.volume.block_store().read_stats().blocks_requested ==
                requests;
      }
      EXPECT_GT(served_held, 0u);
      EXPECT_GT(windowed.io.page_cache().misses(), 0u);
    }
  }
}

TEST(WindowRead, VolumeFileDeviceChecksEveryHeldBlockOfTheRequest) {
  // Every block of a request is held, but the one past the window was
  // rewritten behind the device: its page-cache entry stays, its digest
  // moved, so the request goes to the volume although the window's own
  // block is held and unchanged.
  const zvol::VolumeConfig config{.block_size = 4096,
                                  .codec = compress::CodecId::kGzip6};
  const Bytes content = HoleyContent(4 * kCluster, 4096 * 8, 9);
  zvol::Volume storage(config);
  storage.WriteFile("cache", BufferSource(content));
  const IoContextConfig io_config;
  VolumeSide whole(config, content, storage, io_config);
  VolumeSide windowed(config, content, storage, io_config);
  for (VolumeSide* side : {&whole, &windowed}) {
    Bytes all(kCluster);
    side->device->ReadAt(0, all);
  }
  const Bytes rewritten(4096, 0x3c);
  whole.volume.WriteRange("cache", 5 * 4096, rewritten);
  windowed.volume.WriteRange("cache", 5 * 4096, rewritten);
  Bytes want = content;
  std::copy(rewritten.begin(), rewritten.end(), want.begin() + 5 * 4096);

  const std::uint64_t requests =
      windowed.volume.block_store().read_stats().blocks_requested;
  const std::uint64_t hits = windowed.io.page_cache().hits();
  ReadBoth(*whole.device, *windowed.device, {0, kCluster, 100, 2000}, want);
  // The cluster's 16 blocks all hit the page cache and all went through the
  // volume.
  EXPECT_EQ(windowed.io.page_cache().hits() - hits, 16u);
  EXPECT_EQ(windowed.volume.block_store().read_stats().blocks_requested -
                requests,
            16u);
  ExpectSameReadStats(whole.volume.block_store().read_stats(),
                      windowed.volume.block_store().read_stats());
  ExpectSameIo(whole.io, windowed.io);
}

TEST(WindowRead, QcowOverlayReadsTheWindow) {
  const Bytes content = HoleyContent(3 * kCluster + 10, 4096, 11);
  cow::QcowOverlay overlay(content.size(), kCluster);
  overlay.WriteAt(0, content);
  cow::QcowOverlay twin(content.size(), kCluster);
  twin.WriteAt(0, content);
  for (const WindowCase& c : Cases(content.size(), 12)) {
    SCOPED_TRACE(Describe(c));
    ReadBoth(twin, overlay, c, content);
  }
}

}  // namespace
}  // namespace squirrel::sim
