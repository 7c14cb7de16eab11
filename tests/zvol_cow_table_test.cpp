// Copy-on-write file tables (DESIGN.md §25): snapshots, staged receives and
// restored images share each unchanged file's block list, writers copy a
// list only when it is shared, and tables compare by content.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "buffer_source.h"
#include "store_invariants.h"
#include "util/rng.h"
#include "zvol/volume.h"

namespace squirrel::zvol {
namespace {

using util::Bytes;

using test::BufferSource;
using test::ExpectVolumeInvariants;

Bytes RandomBytes(std::size_t size, std::uint64_t seed) {
  Bytes data(size);
  util::Rng(seed).Fill(data);
  return data;
}

VolumeConfig SmallConfig() {
  return VolumeConfig{.block_size = 4096, .codec = compress::CodecId::kNull, .dedup = true};
}

/// The address of a file's first block pointer: two metas name one list
/// exactly when these are equal.
const BlockPtr* ListOf(const FileMeta& meta) { return &meta.blocks[0]; }

std::vector<BlockPtr> Pointers(const FileMeta& meta) {
  return {meta.blocks.begin(), meta.blocks.end()};
}

TEST(CowTable, SnapshotSharesEveryLiveList) {
  Volume volume(SmallConfig());
  volume.WriteFile("a", BufferSource(RandomBytes(4 * 4096, 1)));
  volume.CreateFile("b", 8 * 4096);  // holes only
  const Snapshot& snap = volume.CreateSnapshot("s1", 1);
  for (const std::string name : {"a", "b"}) {
    EXPECT_EQ(ListOf(snap.files.at(name)), ListOf(volume.File(name))) << name;
  }
  // References stay per table: the live table's four and the snapshot's.
  EXPECT_EQ(volume.block_store().stats().total_refs, 8u);
  ExpectVolumeInvariants(volume);
}

TEST(CowTable, WriteRangeAfterSnapshotCopiesOnlyThatFilesList) {
  Volume volume(SmallConfig());
  const Bytes a = RandomBytes(4 * 4096, 2);
  volume.WriteFile("a", BufferSource(a));
  volume.WriteFile("b", BufferSource(RandomBytes(4 * 4096, 3)));
  const Snapshot& snap = volume.CreateSnapshot("s1", 1);
  const BlockPtr* shared = ListOf(snap.files.at("a"));
  const std::vector<BlockPtr> before = Pointers(snap.files.at("a"));

  volume.WriteRange("a", 4096 + 10, RandomBytes(100, 4));

  const FileMeta& old_a = snap.files.at("a");
  const FileMeta& new_a = volume.File("a");
  EXPECT_EQ(ListOf(old_a), shared);
  EXPECT_EQ(Pointers(old_a), before);
  EXPECT_NE(ListOf(new_a), shared);
  EXPECT_EQ(new_a.blocks[0], old_a.blocks[0]);
  EXPECT_NE(new_a.blocks[1], old_a.blocks[1]);
  EXPECT_EQ(ListOf(volume.File("b")), ListOf(snap.files.at("b")));

  // The snapshot still holds the bytes it was taken over.
  Volume replica(SmallConfig());
  replica.Receive(volume.Send("", "s1"));
  EXPECT_EQ(replica.ReadFile("a"), a);
  ExpectVolumeInvariants(volume);
}

TEST(CowTable, IncrementalReceiveCopiesOnlyTouchedLists) {
  Volume source(SmallConfig());
  std::uint64_t seed = 10;
  for (const std::string name : {"a", "b", "c"}) {
    source.WriteFile(name, BufferSource(RandomBytes(4 * 4096, seed++)));
  }
  source.CreateSnapshot("s1", 1);
  source.WriteRange("b", 0, RandomBytes(4096, seed++));
  source.CreateSnapshot("s2", 2);

  Volume replica(SmallConfig());
  replica.Receive(source.Send("", "s1"));
  replica.Receive(source.Send("s1", "s2"));

  const FileTable& s1 = replica.FindSnapshot("s1")->files;
  const FileTable& s2 = replica.FindSnapshot("s2")->files;
  for (const std::string name : {"a", "c"}) {
    EXPECT_EQ(ListOf(s2.at(name)), ListOf(s1.at(name))) << name;
    EXPECT_EQ(ListOf(replica.File(name)), ListOf(s1.at(name))) << name;
  }
  EXPECT_NE(ListOf(s2.at("b")), ListOf(s1.at("b")));
  EXPECT_EQ(ListOf(replica.File("b")), ListOf(s2.at("b")));
  EXPECT_EQ(s2, source.FindSnapshot("s2")->files);
  ExpectVolumeInvariants(replica);
}

// Replica checks compare the tables of two volumes, which never share a
// list: equality must read the pointers, not the handles.
TEST(CowTable, TablesOfIndependentVolumesCompareByContent) {
  Volume left(SmallConfig());
  Volume right(SmallConfig());
  for (Volume* volume : {&left, &right}) {
    volume->WriteFile("a", BufferSource(RandomBytes(4 * 4096, 5)));
    volume->CreateFile("b", 3 * 4096);
    volume->CreateSnapshot("s1", 1);
  }
  const FileTable& l = left.LatestSnapshot()->files;
  ASSERT_NE(ListOf(l.at("a")), ListOf(right.LatestSnapshot()->files.at("a")));
  EXPECT_TRUE(l == right.LatestSnapshot()->files);

  // One block rewritten: one pointer differs.
  right.WriteRange("a", 2 * 4096, RandomBytes(16, 6));
  right.CreateSnapshot("s2", 2);
  EXPECT_FALSE(l == right.LatestSnapshot()->files);

  // The same at the list level, including a list with no blocks yet.
  FileMeta x;
  FileMeta y;
  y.blocks.Mutable();
  EXPECT_EQ(x, y);
  x.blocks.Mutable().resize(3);
  y.blocks.Mutable().resize(3);
  EXPECT_EQ(x, y);
  y.blocks.Mutable()[1].logical_size = 1;
  EXPECT_NE(x, y);
  const FileMeta copy = y;
  EXPECT_EQ(ListOf(copy), ListOf(y));
  y.blocks.Mutable()[1].logical_size = 2;
  EXPECT_EQ(copy.blocks[1].logical_size, 1u);
  EXPECT_NE(copy, y);
}

TEST(CowTable, DeserializeRestoresSharing) {
  for (const bool dedup : {true, false}) {
    SCOPED_TRACE(dedup ? "dedup on" : "dedup off");
    VolumeConfig config = SmallConfig();
    config.dedup = dedup;
    Volume volume(config);
    volume.WriteFile("a", BufferSource(RandomBytes(4 * 4096, 7)));
    volume.WriteFile("b", BufferSource(RandomBytes(4 * 4096, 8)));
    volume.CreateSnapshot("s1", 1);
    volume.WriteRange("b", 0, RandomBytes(4096, 9));
    volume.CreateSnapshot("s2", 2);
    volume.CreateSnapshot("s3", 3);

    const Bytes image = volume.Serialize();
    const std::unique_ptr<Volume> restored = Volume::Deserialize(image);
    const FileTable& s1 = restored->FindSnapshot("s1")->files;
    const FileTable& s2 = restored->FindSnapshot("s2")->files;
    const FileTable& s3 = restored->FindSnapshot("s3")->files;
    // "a" never changed: one list for the live table and every snapshot.
    for (const FileTable* table : {&s1, &s2, &s3}) {
      EXPECT_EQ(ListOf(table->at("a")), ListOf(restored->File("a")));
    }
    // "b" has two versions: s1's, and the one s2, s3 and the live table
    // share.
    EXPECT_NE(ListOf(s1.at("b")), ListOf(s2.at("b")));
    EXPECT_EQ(ListOf(s2.at("b")), ListOf(restored->File("b")));
    EXPECT_EQ(ListOf(s3.at("b")), ListOf(restored->File("b")));

    EXPECT_EQ(restored->block_store().stats().total_refs,
              volume.block_store().stats().total_refs);
    ExpectVolumeInvariants(*restored);
    // With dedup off the store mints new block ids on load, so only a
    // dedup image reproduces byte for byte.
    if (dedup) {
      EXPECT_EQ(restored->Serialize(), image);
    }
  }
}

}  // namespace
}  // namespace squirrel::zvol
