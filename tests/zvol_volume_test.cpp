#include "zvol/volume.h"

#include <gtest/gtest.h>

#include "buffer_source.h"
#include "util/rng.h"

namespace squirrel::zvol {
namespace {

using util::Bytes;

using test::BufferSource;

Bytes RandomBytes(std::size_t size, std::uint64_t seed) {
  Bytes data(size);
  util::Rng(seed).Fill(data);
  return data;
}

VolumeConfig SmallConfig() {
  return VolumeConfig{.block_size = 4096, .codec = compress::CodecId::kGzip6, .dedup = true};
}

TEST(Volume, WriteFileReadBack) {
  Volume volume(SmallConfig());
  const Bytes content = RandomBytes(40000, 1);
  volume.WriteFile("f", BufferSource(content));
  EXPECT_TRUE(volume.HasFile("f"));
  EXPECT_EQ(volume.FileSize("f"), content.size());
  EXPECT_EQ(volume.ReadRange("f", 0, content.size()), content);
  // Unaligned partial read.
  const Bytes slice = volume.ReadRange("f", 5000, 9999);
  EXPECT_TRUE(std::equal(slice.begin(), slice.end(), content.begin() + 5000));
}

TEST(Volume, SparseZerosBecomeHoles) {
  Volume volume(SmallConfig());
  Bytes content(16 * 4096, 0);
  content[0] = 1;
  content[10 * 4096 + 5] = 2;
  volume.WriteFile("sparse", BufferSource(content));
  EXPECT_EQ(volume.Stats().unique_blocks, 2u);
  EXPECT_EQ(volume.ReadRange("sparse", 0, content.size()), content);
  // Holes read as zeros.
  const Bytes hole = volume.ReadRange("sparse", 4096, 4096);
  EXPECT_TRUE(util::IsAllZero(hole));
  EXPECT_TRUE(volume.FileBlock("sparse", 1).hole);
  EXPECT_FALSE(volume.FileBlock("sparse", 0).hole);
}

TEST(Volume, DuplicateContentAcrossFilesShares) {
  Volume volume(SmallConfig());
  const Bytes content = RandomBytes(8 * 4096, 3);
  volume.WriteFile("a", BufferSource(content));
  const auto after_one = volume.Stats();
  volume.WriteFile("b", BufferSource(content));
  const auto after_two = volume.Stats();
  EXPECT_EQ(after_one.unique_blocks, after_two.unique_blocks);
  EXPECT_EQ(after_one.physical_data_bytes, after_two.physical_data_bytes);
  EXPECT_EQ(after_two.file_count, 2u);
}

TEST(Volume, WriteFileLaysBlocksOutBackToBack) {
  // A default-config volume allocates a file's distinct blocks in file
  // order, so each extent starts where the previous one ends and a
  // sequential read of the file stays sequential on disk (Fig 11).
  const VolumeConfig config;
  Volume volume(config);
  constexpr std::size_t kBlocks = 24;
  Bytes content(kBlocks * config.block_size);
  util::Rng rng(5);
  for (std::size_t b = 0; b < kBlocks; ++b) {
    const util::MutableByteSpan block(content.data() + b * config.block_size,
                                      config.block_size);
    if (b % 2 == 0) {
      rng.Fill(block);  // incompressible: stored raw
      continue;
    }
    // Low-entropy text: stored compressed, each at its own size.
    for (auto& byte : block) byte = static_cast<util::Byte>('a' + rng.Below(4));
  }
  volume.WriteFile("f", BufferSource(content));

  const store::BlockStore& store = volume.block_store();
  ASSERT_EQ(volume.FileBlockCount("f"), kBlocks);
  EXPECT_EQ(store.DiskOffset(volume.FileBlock("f", 0).digest), 0u);
  for (std::uint64_t b = 0; b + 1 < kBlocks; ++b) {
    const util::Digest& digest = volume.FileBlock("f", b).digest;
    const util::Digest& next = volume.FileBlock("f", b + 1).digest;
    EXPECT_EQ(store.DiskOffset(next),
              store.DiskOffset(digest) + store.PhysicalSize(digest))
        << "block " << b;
  }
}

TEST(Volume, OverwriteReleasesOldBlocks) {
  Volume volume(SmallConfig());
  volume.WriteFile("f", BufferSource(RandomBytes(8 * 4096, 4)));
  const std::uint64_t before = volume.Stats().unique_blocks;
  volume.WriteFile("f", BufferSource(RandomBytes(8 * 4096, 5)));
  EXPECT_EQ(volume.Stats().unique_blocks, before);  // old ones freed
}

TEST(Volume, DeleteFileFreesSpace) {
  Volume volume(SmallConfig());
  volume.WriteFile("f", BufferSource(RandomBytes(8 * 4096, 6)));
  volume.DeleteFile("f");
  EXPECT_FALSE(volume.HasFile("f"));
  EXPECT_EQ(volume.Stats().unique_blocks, 0u);
  EXPECT_EQ(volume.Stats().physical_data_bytes, 0u);
  EXPECT_THROW(volume.DeleteFile("f"), NoSuchFileError);
}

TEST(Volume, WriteRangeReadModifyWrite) {
  Volume volume(SmallConfig());
  Bytes content = RandomBytes(4 * 4096, 7);
  volume.WriteFile("f", BufferSource(content));
  // Overwrite an unaligned span crossing a block boundary.
  Bytes patch = RandomBytes(5000, 8);
  volume.WriteRange("f", 3000, patch);
  std::copy(patch.begin(), patch.end(), content.begin() + 3000);
  EXPECT_EQ(volume.ReadRange("f", 0, content.size()), content);
}

TEST(Volume, WriteRangeGrowsFile) {
  Volume volume(SmallConfig());
  volume.CreateFile("f", 4096);
  const Bytes tail = RandomBytes(4096, 9);
  volume.WriteRange("f", 8192, tail);
  EXPECT_EQ(volume.FileSize("f"), 8192u + 4096u);
  EXPECT_TRUE(util::IsAllZero(volume.ReadRange("f", 0, 8192)));
  EXPECT_EQ(volume.ReadRange("f", 8192, 4096), tail);
}

TEST(Volume, WriteRangeToZeroMakesHole) {
  Volume volume(SmallConfig());
  volume.WriteFile("f", BufferSource(RandomBytes(4096, 10)));
  EXPECT_FALSE(volume.FileBlock("f", 0).hole);
  const Bytes zeros(4096, 0);
  volume.WriteRange("f", 0, zeros);
  EXPECT_TRUE(volume.FileBlock("f", 0).hole);
  EXPECT_EQ(volume.Stats().unique_blocks, 0u);
}

TEST(Volume, CreateFileIsFullySparse) {
  Volume volume(SmallConfig());
  volume.CreateFile("empty", 1 << 20);
  EXPECT_EQ(volume.Stats().unique_blocks, 0u);
  EXPECT_TRUE(util::IsAllZero(volume.ReadRange("empty", 0, 1 << 20)));
}

TEST(Volume, ReadPastEndThrows) {
  Volume volume(SmallConfig());
  volume.CreateFile("f", 4096);
  EXPECT_THROW(volume.ReadRange("f", 0, 4097), std::out_of_range);
  EXPECT_THROW(volume.ReadRange("missing", 0, 1), NoSuchFileError);
}

TEST(Volume, FileNamesSorted) {
  Volume volume(SmallConfig());
  volume.CreateFile("b", 1);
  volume.CreateFile("a", 1);
  volume.CreateFile("c", 1);
  EXPECT_EQ(volume.FileNames(), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Volume, CompressionReducesPhysicalBytes) {
  Volume volume(VolumeConfig{.block_size = 65536, .codec = compress::CodecId::kGzip6});
  Bytes text(4 * 65536);
  util::Rng rng(11);
  for (auto& b : text) b = static_cast<util::Byte>('a' + rng.Below(4));
  volume.WriteFile("text", BufferSource(text));
  EXPECT_LT(volume.Stats().physical_data_bytes, text.size() / 2);
  EXPECT_EQ(volume.ReadRange("text", 0, text.size()), text);
}

TEST(Volume, ZeroBlockSizeRejected) {
  EXPECT_THROW(Volume(VolumeConfig{.block_size = 0}), std::invalid_argument);
}

}  // namespace
}  // namespace squirrel::zvol
