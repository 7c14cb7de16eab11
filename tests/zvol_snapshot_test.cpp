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

VolumeConfig SmallConfig() {
  return VolumeConfig{.block_size = 4096, .codec = compress::CodecId::kNull, .dedup = true};
}

TEST(Snapshot, IdsIncreaseAndNamesResolve) {
  Volume volume(SmallConfig());
  volume.CreateFile("f", 4096);
  const Snapshot& s1 = volume.CreateSnapshot("one", 100);
  const Snapshot& s2 = volume.CreateSnapshot("two", 200);
  EXPECT_LT(s1.id, s2.id);
  EXPECT_EQ(volume.FindSnapshot("one")->created_at, 100u);
  EXPECT_EQ(volume.LatestSnapshot()->name, "two");
  EXPECT_EQ(volume.FindSnapshot("missing"), nullptr);
}

TEST(Snapshot, DuplicateNameRejected) {
  Volume volume(SmallConfig());
  volume.CreateSnapshot("snap", 1);
  EXPECT_THROW(volume.CreateSnapshot("snap", 2), std::invalid_argument);
}

TEST(Snapshot, PinsBlocksAgainstDeletion) {
  Volume volume(SmallConfig());
  volume.WriteFile("f", BufferSource(RandomBytes(8 * 4096, 1)));
  volume.CreateSnapshot("snap", 1);
  volume.DeleteFile("f");
  // Blocks still referenced by the snapshot.
  EXPECT_EQ(volume.Stats().unique_blocks, 8u);
  volume.DestroySnapshot("snap");
  EXPECT_EQ(volume.Stats().unique_blocks, 0u);
}

TEST(Snapshot, ImmutableUnderOverwrite) {
  Volume volume(SmallConfig());
  const Bytes v1 = RandomBytes(4 * 4096, 2);
  volume.WriteFile("f", BufferSource(v1));
  volume.CreateSnapshot("snap", 1);
  volume.WriteFile("f", BufferSource(RandomBytes(4 * 4096, 3)));
  // Live file changed; snapshot still references the old blocks (both
  // versions resident).
  EXPECT_EQ(volume.Stats().unique_blocks, 8u);
  const Snapshot* snap = volume.FindSnapshot("snap");
  ASSERT_NE(snap, nullptr);
  const FileMeta& meta = snap->files.at("f");
  EXPECT_EQ(meta.blocks.size(), 4u);
}

TEST(Snapshot, DestroyUnknownThrows) {
  Volume volume(SmallConfig());
  EXPECT_THROW(volume.DestroySnapshot("nope"), NoSuchSnapshotError);
}

TEST(Snapshot, PruneKeepsRetentionWindowAndLatest) {
  Volume volume(SmallConfig());
  volume.CreateFile("f", 4096);
  volume.CreateSnapshot("day1", 1 * 86400);
  volume.CreateSnapshot("day2", 2 * 86400);
  volume.CreateSnapshot("day5", 5 * 86400);
  volume.CreateSnapshot("day9", 9 * 86400);
  // Retention n = 3 days at now = day 10: day1/day2/day5 are stale,
  // day9 is within the window.
  const std::size_t destroyed = volume.PruneSnapshots(3 * 86400, 10 * 86400);
  EXPECT_EQ(destroyed, 3u);
  EXPECT_EQ(volume.snapshots().size(), 1u);
  EXPECT_EQ(volume.LatestSnapshot()->name, "day9");
}

TEST(Snapshot, PruneAlwaysKeepsLatestEvenIfStale) {
  Volume volume(SmallConfig());
  volume.CreateSnapshot("ancient1", 100);
  volume.CreateSnapshot("ancient2", 200);
  const std::size_t destroyed =
      volume.PruneSnapshots(/*retention=*/10, /*now=*/1000000);
  EXPECT_EQ(destroyed, 1u);
  EXPECT_EQ(volume.LatestSnapshot()->name, "ancient2");
}

TEST(Snapshot, PruneReleasesDeadReferences) {
  Volume volume(SmallConfig());
  volume.WriteFile("dead", BufferSource(RandomBytes(4 * 4096, 4)));
  volume.CreateSnapshot("old", 100);
  volume.DeleteFile("dead");
  volume.WriteFile("live", BufferSource(RandomBytes(4 * 4096, 5)));
  volume.CreateSnapshot("new", 2000000);
  EXPECT_EQ(volume.Stats().unique_blocks, 8u);
  volume.PruneSnapshots(/*retention=*/10, /*now=*/3000000);
  // "old" destroyed -> the deregistered file's blocks are finally freed.
  EXPECT_EQ(volume.Stats().unique_blocks, 4u);
}

TEST(Snapshot, GcNeverFreesLiveReferencedBlocks) {
  Volume volume(SmallConfig());
  const Bytes content = RandomBytes(8 * 4096, 6);
  volume.WriteFile("f", BufferSource(content));
  volume.CreateSnapshot("s1", 1);
  volume.CreateSnapshot("s2", 2);
  volume.PruneSnapshots(0, 1 << 20);
  // All snapshots but the latest destroyed; live file intact.
  EXPECT_EQ(volume.ReadRange("f", 0, content.size()), content);
}

}  // namespace
}  // namespace squirrel::zvol
