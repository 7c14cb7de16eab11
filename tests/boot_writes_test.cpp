// Boot-time writes, sparse-aware base handling, and per-file volume
// accounting.
#include <gtest/gtest.h>

#include "buffer_source.h"
#include "core/squirrel.h"
#include "cow/chain.h"
#include "cow/qcow.h"
#include "sim/boot_sim.h"
#include "sim/devices.h"
#include "util/rng.h"
#include "vmi/bootset.h"
#include "vmi/image.h"

namespace squirrel {
namespace {

using util::Bytes;

vmi::CatalogConfig TinyCatalog() {
  vmi::CatalogConfig config;
  config.image_count = 4;
  config.size_scale = 1.0 / 2048.0;
  config.cache_bytes *= 4;
  return config;
}

TEST(BootWrites, WriteTraceLandsInSparseScratch) {
  const vmi::Catalog catalog = vmi::Catalog::AzureCommunity(TinyCatalog());
  const vmi::VmImage image(catalog, catalog.images()[0]);
  const vmi::BootWorkingSet boot(catalog, image);
  const auto writes = boot.WriteTrace(7);
  ASSERT_FALSE(writes.empty());
  std::uint64_t total = 0;
  for (const vmi::BootRead& write : writes) {
    EXPECT_FALSE(image.RangeHasData(write.offset, write.length))
        << "boot writes must land in free space, offset " << write.offset;
    EXPECT_LE(write.offset + write.length, image.size());
    total += write.length;
  }
  // Roughly an eighth of the working set.
  EXPECT_GT(total, boot.byte_count() / 16);
  EXPECT_LT(total, boot.byte_count() / 2);
}

TEST(BootWrites, RangeHasDataMatchesExtents) {
  const vmi::Catalog catalog = vmi::Catalog::AzureCommunity(TinyCatalog());
  const vmi::VmImage image(catalog, catalog.images()[0]);
  // The kernel prefix has data; the scratch region does not.
  EXPECT_TRUE(image.RangeHasData(0, 4096));
  EXPECT_FALSE(image.RangeHasData(image.scratch_offset(), 65536));
  // A range straddling the first extent's end still has data.
  const vmi::Extent& first = image.extents().front();
  EXPECT_TRUE(image.RangeHasData(first.logical_offset + first.length - 1, 4096));
}

TEST(BootWrites, EveryWriteCarriesAPrefixOfOneSeededPayload) {
  // Boots on one thread share one payload, whatever size earlier boots
  // left it: writes of growing and shrinking largest sizes each get the
  // first bytes of the 0xb007 stream.
  const test::BufferSource zeros(Bytes(256 * 1024, 0));
  Bytes stream(96 * 1024);
  util::Rng(0xb007).Fill(stream);
  for (const std::uint32_t largest : {8u * 1024, 96u * 1024, 4u * 1024}) {
    sim::IoContext io;
    sim::LocalFileDevice base(&zeros, &io, /*device_id=*/1, /*disk_base=*/0);
    cow::QcowOverlay overlay(zeros.size(), 64 * 1024);
    cow::Chain chain(&overlay, nullptr, &base, /*copy_on_read=*/false);
    const std::vector<vmi::BootRead> writes = {{0, largest / 2},
                                               {128 * 1024, largest}};
    const sim::BootResult result = sim::SimulateBoot(chain, {}, io, {}, &writes);
    EXPECT_EQ(result.bytes_written, largest / 2 + largest);
    for (const vmi::BootRead& write : writes) {
      EXPECT_EQ(chain.Read(write.offset, write.length),
                Bytes(stream.begin(), stream.begin() + write.length))
          << "largest write " << largest << ", offset " << write.offset;
    }
  }
}

TEST(BootWrites, WarmBootWithWritesStaysNetworkFree) {
  // The headline property must survive boot-time writes: CoW fills of
  // unallocated backing ranges are free when the base exposes its
  // allocation map.
  const vmi::Catalog catalog = vmi::Catalog::AzureCommunity(TinyCatalog());
  core::SquirrelConfig config;
  config.volume = zvol::VolumeConfig{
      .block_size = 16384, .codec = compress::CodecId::kGzip6, .dedup = true, .fast_hash = true};
  core::SquirrelCluster cluster(config, 1);

  const vmi::ImageSpec& spec = catalog.images()[0];
  const vmi::VmImage image(catalog, spec);
  const vmi::BootWorkingSet boot(catalog, image);
  cluster.Register({spec.name, vmi::CacheImage(image, boot), core::SimClock::FromSeconds(60)});

  const auto trace = boot.Trace(1);
  const auto writes = boot.WriteTrace(1);
  ASSERT_FALSE(writes.empty());
  sim::IoContext io;
  const core::BootReport report = cluster.Boot(0,
      {.image_id = spec.name, .base_image = image, .trace = trace, .writes = &writes, .allocation = [&image](std::uint64_t offset, std::uint64_t length) {
        return image.RangeHasData(offset, length);
      }},
      io);
  EXPECT_GT(report.result.bytes_written, 0u);
  EXPECT_EQ(report.network_bytes, 0u);
  EXPECT_EQ(report.result.base_bytes_read, 0u);
}

TEST(BootWrites, WithoutAllocationMapWritesPullBaseClusters) {
  // The contrast case: a raw (fully allocated) base charges real fetches
  // for the copy-on-write fills.
  const vmi::Catalog catalog = vmi::Catalog::AzureCommunity(TinyCatalog());
  core::SquirrelConfig config;
  config.volume = zvol::VolumeConfig{
      .block_size = 16384, .codec = compress::CodecId::kGzip6, .dedup = true, .fast_hash = true};
  core::SquirrelCluster cluster(config, 1);
  const vmi::ImageSpec& spec = catalog.images()[0];
  const vmi::VmImage image(catalog, spec);
  const vmi::BootWorkingSet boot(catalog, image);
  cluster.Register({spec.name, vmi::CacheImage(image, boot), core::SimClock::FromSeconds(60)});
  const auto writes = boot.WriteTrace(1);
  sim::IoContext io;
  const core::BootReport report =
      cluster.Boot(0,
      {.image_id = spec.name, .base_image = image, .trace = boot.Trace(1), .writes = &writes},
      io);
  EXPECT_GT(report.network_bytes, 0u);  // CoW fills fetched zero clusters
}

TEST(FileStats, ReferencedVersusUnique) {
  zvol::Volume volume({.block_size = 4096, .codec = compress::CodecId::kNull, .dedup = true});
  // Two files sharing one block; each also holds a private block.
  Bytes shared(4096, 0x11);
  Bytes private_a(4096, 0x22);
  Bytes private_b(4096, 0x33);
  volume.CreateFile("a", 2 * 4096);
  volume.WriteRange("a", 0, shared);
  volume.WriteRange("a", 4096, private_a);
  volume.CreateFile("b", 2 * 4096);
  volume.WriteRange("b", 0, shared);
  volume.WriteRange("b", 4096, private_b);

  const auto stats = volume.StatFile("a");
  EXPECT_EQ(stats.nonzero_blocks, 2u);
  EXPECT_EQ(stats.hole_blocks, 0u);
  EXPECT_EQ(stats.referenced_physical_bytes, 2u * 4096);
  EXPECT_EQ(stats.unique_physical_bytes, 4096u);  // only the private block
  EXPECT_THROW(volume.StatFile("missing"), zvol::NoSuchFileError);
}

TEST(FileStats, CompressionRatioReported) {
  zvol::Volume volume({.block_size = 65536, .codec = compress::CodecId::kGzip6, .dedup = true});
  Bytes text(2 * 65536);
  for (std::size_t i = 0; i < text.size(); ++i) {
    text[i] = static_cast<util::Byte>('a' + i % 3);
  }
  volume.CreateFile("f", text.size());
  volume.WriteRange("f", 0, text);
  const auto stats = volume.StatFile("f");
  EXPECT_GT(stats.compression_ratio, 2.0);
  EXPECT_LT(stats.referenced_physical_bytes, text.size() / 2);
}

TEST(FileStats, SparseFileCountsHoles) {
  zvol::Volume volume({.block_size = 4096, .codec = compress::CodecId::kNull, .dedup = true});
  volume.CreateFile("sparse", 8 * 4096);
  Bytes one(4096, 0x44);
  volume.WriteRange("sparse", 3 * 4096, one);
  const auto stats = volume.StatFile("sparse");
  EXPECT_EQ(stats.nonzero_blocks, 1u);
  EXPECT_EQ(stats.hole_blocks, 7u);
}

}  // namespace
}  // namespace squirrel
