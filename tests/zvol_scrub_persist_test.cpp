// Scrub (integrity verification) and persistence (serialize/deserialize)
// tests, including corruption injection.
#include <gtest/gtest.h>

#include "buffer_source.h"
#include "util/rng.h"
#include "zvol/volume.h"

namespace squirrel::zvol {
namespace {

using util::Bytes;

using test::BufferSource;

Bytes RandomBytes(std::size_t size, std::uint64_t seed) {
  Bytes data(size);
  util::Rng(seed).Fill(data);
  return data;
}

Bytes TextBytes(std::size_t size, std::uint64_t seed) {
  Bytes data(size);
  util::Rng rng(seed);
  for (auto& b : data) b = static_cast<util::Byte>('a' + rng.Below(5));
  return data;
}

VolumeConfig SmallConfig(compress::CodecId codec = compress::CodecId::kGzip6) {
  return VolumeConfig{.block_size = 4096, .codec = codec, .dedup = true};
}

TEST(Scrub, CleanVolumePasses) {
  Volume volume(SmallConfig());
  volume.WriteFile("a", BufferSource(RandomBytes(16 * 4096, 1)));
  volume.WriteFile("b", BufferSource(TextBytes(16 * 4096, 2)));
  volume.CreateSnapshot("snap", 1);
  const auto report = volume.Scrub();
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.dangling_refs, 0u);
  EXPECT_EQ(report.blocks_checked, volume.Stats().unique_blocks);
}

TEST(Scrub, DetectsCorruptedRawBlock) {
  Volume volume(SmallConfig(compress::CodecId::kNull));
  volume.WriteFile("f", BufferSource(RandomBytes(8 * 4096, 3)));
  ASSERT_TRUE(volume.CorruptBlockForTesting("f", 2));
  const auto report = volume.Scrub();
  EXPECT_EQ(report.errors, 1u);
}

TEST(Scrub, DetectsCorruptedCompressedBlock) {
  Volume volume(SmallConfig(compress::CodecId::kGzip6));
  volume.WriteFile("f", BufferSource(TextBytes(8 * 4096, 4)));
  ASSERT_TRUE(volume.CorruptBlockForTesting("f", 0));
  const auto report = volume.Scrub();
  EXPECT_GE(report.errors, 1u);
}

TEST(Scrub, CorruptingHoleFails) {
  Volume volume(SmallConfig());
  Bytes sparse(4 * 4096, 0);
  sparse[0] = 1;
  volume.WriteFile("f", BufferSource(sparse));
  EXPECT_FALSE(volume.CorruptBlockForTesting("f", 1));  // hole
  EXPECT_FALSE(volume.CorruptBlockForTesting("missing", 0));
}

TEST(Scrub, FastHashMode) {
  Volume volume(VolumeConfig{.block_size = 4096, .codec = compress::CodecId::kNull,
                             .dedup = true, .fast_hash = true});
  volume.WriteFile("f", BufferSource(RandomBytes(8 * 4096, 5)));
  EXPECT_EQ(volume.Scrub().errors, 0u);
  ASSERT_TRUE(volume.CorruptBlockForTesting("f", 1));
  EXPECT_EQ(volume.Scrub().errors, 1u);
}

TEST(Persist, RoundTripPreservesEverything) {
  Volume volume(SmallConfig());
  const Bytes a = RandomBytes(10 * 4096, 6);
  Bytes sparse(8 * 4096, 0);
  sparse[4096 + 7] = 9;
  volume.WriteFile("a", BufferSource(a));
  volume.WriteFile("sparse", BufferSource(sparse));
  volume.CreateSnapshot("s1", 100);
  volume.DeleteFile("a");
  volume.WriteFile("b", BufferSource(TextBytes(6 * 4096, 7)));
  volume.CreateSnapshot("s2", 200);

  const util::Bytes image = volume.Serialize();
  const auto restored = Volume::Deserialize(image);

  // Live state.
  EXPECT_EQ(restored->FileNames(), volume.FileNames());
  for (const std::string& name : volume.FileNames()) {
    EXPECT_EQ(restored->ReadRange(name, 0, restored->FileSize(name)),
              volume.ReadRange(name, 0, volume.FileSize(name)));
  }
  // Snapshots.
  ASSERT_EQ(restored->snapshots().size(), 2u);
  EXPECT_EQ(restored->FindSnapshot("s1")->id, volume.FindSnapshot("s1")->id);
  EXPECT_EQ(restored->FindSnapshot("s2")->created_at, 200u);
  // Deleted file still reachable through s1 on the restored volume.
  const Snapshot* s1 = restored->FindSnapshot("s1");
  EXPECT_TRUE(s1->files.contains("a"));
  // Accounting matches.
  EXPECT_EQ(restored->Stats().unique_blocks, volume.Stats().unique_blocks);
  EXPECT_EQ(restored->Stats().logical_file_bytes,
            volume.Stats().logical_file_bytes);
  // Snapshot ids continue from where they left off.
  restored->CreateSnapshot("s3", 300);
  EXPECT_GT(restored->FindSnapshot("s3")->id, volume.FindSnapshot("s2")->id);
  // A scrub of the restored volume is clean.
  EXPECT_EQ(restored->Scrub().errors, 0u);
}

TEST(Persist, RoundTripWithoutDedup) {
  Volume volume(VolumeConfig{.block_size = 4096, .codec = compress::CodecId::kNull, .dedup = false});
  const Bytes content = RandomBytes(8 * 4096, 8);
  volume.WriteFile("f", BufferSource(content));
  volume.WriteFile("g", BufferSource(content));  // same bytes, separate blocks
  const auto restored = Volume::Deserialize(volume.Serialize());
  EXPECT_EQ(restored->ReadRange("f", 0, content.size()), content);
  EXPECT_EQ(restored->ReadRange("g", 0, content.size()), content);
  EXPECT_EQ(restored->Stats().unique_blocks, 16u);
}

TEST(Persist, CorruptedImageRejected) {
  Volume volume(SmallConfig());
  volume.WriteFile("f", BufferSource(RandomBytes(4 * 4096, 9)));
  util::Bytes image = volume.Serialize();
  image[image.size() / 2] ^= 1;
  EXPECT_THROW(Volume::Deserialize(image), std::runtime_error);
  image = volume.Serialize();
  image.resize(image.size() - 10);
  EXPECT_THROW(Volume::Deserialize(image), std::runtime_error);
  EXPECT_THROW(Volume::Deserialize(util::Bytes(8, 0)), std::runtime_error);
}

TEST(Persist, ReceiveWorksOnRestoredVolume) {
  // A restored replica can keep applying incremental streams: snapshot
  // identity survives the round trip.
  Volume source(SmallConfig());
  source.WriteFile("a", BufferSource(RandomBytes(6 * 4096, 10)));
  source.CreateSnapshot("s1", 100);
  Volume replica(SmallConfig());
  replica.Receive(source.Send("", "s1"));

  const auto restored = Volume::Deserialize(replica.Serialize());
  source.WriteFile("b", BufferSource(RandomBytes(6 * 4096, 11)));
  source.CreateSnapshot("s2", 200);
  restored->Receive(source.Send("s1", "s2"));
  EXPECT_TRUE(restored->HasFile("b"));
}

}  // namespace
}  // namespace squirrel::zvol
