#include "store/block_store.h"

#include <gtest/gtest.h>

#include "buffer_source.h"
#include "util/rng.h"
#include "zvol/volume.h"

namespace squirrel::store {
namespace {

using util::Bytes;

Bytes RandomBlock(std::size_t size, std::uint64_t seed) {
  Bytes data(size);
  util::Rng(seed).Fill(data);
  return data;
}

Bytes TextBlock(std::size_t size, std::uint64_t seed) {
  Bytes data(size);
  util::Rng rng(seed);
  for (std::size_t i = 0; i < size; ++i) {
    data[i] = static_cast<util::Byte>('a' + rng.Below(4));
  }
  return data;
}

TEST(BlockStore, PutThenGetRoundTrips) {
  BlockStore store({.codec = compress::CodecId::kGzip6, .dedup = true});
  const Bytes block = TextBlock(65536, 1);
  const PutResult put = store.Put(block);
  EXPECT_FALSE(put.deduplicated);
  EXPECT_EQ(store.Get(put.digest), block);
}

TEST(BlockStore, DuplicatePutDeduplicates) {
  BlockStore store({.codec = compress::CodecId::kGzip6, .dedup = true});
  const Bytes block = RandomBlock(4096, 2);
  const PutResult first = store.Put(block);
  const PutResult second = store.Put(block);
  EXPECT_FALSE(first.deduplicated);
  EXPECT_TRUE(second.deduplicated);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(store.RefCount(first.digest), 2u);
  EXPECT_EQ(store.stats().unique_blocks, 1u);
  EXPECT_EQ(store.stats().total_refs, 2u);
}

TEST(BlockStore, DedupDisabledAllocatesEveryTime) {
  BlockStore store({.codec = compress::CodecId::kNull, .dedup = false});
  const Bytes block = RandomBlock(4096, 3);
  const PutResult first = store.Put(block);
  const PutResult second = store.Put(block);
  EXPECT_NE(first.digest, second.digest);
  EXPECT_EQ(store.stats().unique_blocks, 2u);
  EXPECT_EQ(store.stats().ddt_core_bytes, 0u);  // no table without dedup
}

TEST(BlockStore, CompressibleBlocksStoredCompressed) {
  BlockStore store({.codec = compress::CodecId::kGzip6, .dedup = true});
  const Bytes block = TextBlock(65536, 4);
  const PutResult put = store.Put(block);
  EXPECT_LT(put.physical_size, put.logical_size / 2);
  EXPECT_EQ(store.stats().physical_data_bytes, put.physical_size);
}

TEST(BlockStore, IncompressibleBlocksStoredRaw) {
  // ZFS keeps the compressed copy only when it saves >= 1/8th.
  BlockStore store({.codec = compress::CodecId::kGzip6, .dedup = true});
  const Bytes block = RandomBlock(65536, 5);
  const PutResult put = store.Put(block);
  EXPECT_EQ(put.physical_size, put.logical_size);
  EXPECT_EQ(store.Get(put.digest), block);
}

TEST(BlockStore, UnrefFreesAtZero) {
  BlockStore store({.codec = compress::CodecId::kNull, .dedup = true});
  const Bytes block = RandomBlock(4096, 6);
  const PutResult put = store.Put(block);
  store.Put(block);  // refcount 2
  store.Unref(put.digest);
  EXPECT_TRUE(store.Contains(put.digest));
  store.Unref(put.digest);
  EXPECT_FALSE(store.Contains(put.digest));
  EXPECT_EQ(store.stats().unique_blocks, 0u);
  EXPECT_EQ(store.stats().physical_data_bytes, 0u);
  EXPECT_EQ(store.stats().ddt_core_bytes, 0u);
  EXPECT_EQ(store.space_map_stats().allocated_bytes, 0u);
}

TEST(BlockStore, UnrefUnknownThrows) {
  BlockStore store({});
  util::Digest bogus;
  bogus.bytes[0] = 0xaa;
  EXPECT_THROW(store.Unref(bogus), NoSuchBlockError);
  EXPECT_THROW(store.Get(bogus), NoSuchBlockError);
  EXPECT_THROW(store.Ref(bogus), NoSuchBlockError);
  // The typed error roots at squirrel::Error like every other domain error.
  EXPECT_THROW(store.Unref(bogus), Error);
}

TEST(BlockStore, RefIncrementsExplicitly) {
  BlockStore store({.codec = compress::CodecId::kNull, .dedup = true});
  const PutResult put = store.Put(RandomBlock(1024, 7));
  store.Ref(put.digest);
  EXPECT_EQ(store.RefCount(put.digest), 2u);
  EXPECT_EQ(store.stats().total_refs, 2u);
}

TEST(BlockStore, StatsConservation) {
  BlockStore store({.codec = compress::CodecId::kGzip6, .dedup = true});
  std::vector<util::Digest> digests;
  std::uint64_t expected_refs = 0;
  for (int i = 0; i < 50; ++i) {
    // 25 distinct blocks, each put twice.
    const PutResult put = store.Put(RandomBlock(2048, 100 + i % 25));
    digests.push_back(put.digest);
    ++expected_refs;
  }
  const StoreStats& stats = store.stats();
  EXPECT_EQ(stats.unique_blocks, 25u);
  EXPECT_EQ(stats.total_refs, expected_refs);
  EXPECT_EQ(stats.logical_unique_bytes, 25u * 2048);
  EXPECT_EQ(stats.logical_referenced_bytes, 50u * 2048);
  EXPECT_EQ(stats.ddt_core_bytes, 25u * kDdtCoreBytesPerEntry);
  EXPECT_EQ(stats.ddt_disk_bytes, 25u * kDdtDiskBytesPerEntry);
  EXPECT_EQ(stats.disk_bytes(), stats.physical_data_bytes + stats.ddt_disk_bytes);

  for (const auto& digest : digests) store.Unref(digest);
  EXPECT_EQ(store.stats().unique_blocks, 0u);
  EXPECT_EQ(store.stats().logical_referenced_bytes, 0u);
}

TEST(BlockStore, FastHashModeDeduplicatesIdentically) {
  BlockStore store({.codec = compress::CodecId::kNull, .dedup = true, .fast_hash = true});
  const Bytes block = RandomBlock(8192, 8);
  const PutResult first = store.Put(block);
  const PutResult second = store.Put(block);
  EXPECT_TRUE(second.deduplicated);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(store.Get(first.digest), block);
}

TEST(BlockStore, UnknownCodecRejected) {
  EXPECT_EQ(compress::ParseCodec("nope"), std::nullopt);
  EXPECT_EQ(compress::ParseCodec("gzip6"), compress::CodecId::kGzip6);
  EXPECT_EQ(compress::CodecName(compress::CodecId::kGzip6), "gzip6");
}

TEST(BlockStore, DiskOffsetsAreDistinct) {
  BlockStore store({.codec = compress::CodecId::kNull, .dedup = true});
  const PutResult a = store.Put(RandomBlock(4096, 10));
  const PutResult b = store.Put(RandomBlock(4096, 11));
  EXPECT_NE(store.DiskOffset(a.digest), store.DiskOffset(b.digest));
  EXPECT_EQ(store.PhysicalSize(a.digest), 4096u);
}

TEST(BlockStore, GetStoredCopiesTheStoredFormWithoutReading) {
  // The stored-form read Send ships payloads with: the DDT entry's bytes,
  // size and flag as kept, with no decode, no verify and no ARC traffic.
  BlockStore store({.codec = compress::CodecId::kGzip6,
                    .dedup = true,
                    .read = {.cache_bytes = util::kMiB}});
  const PutResult text = store.Put(TextBlock(65536, 12));
  const Bytes random_block = RandomBlock(65536, 13);
  const PutResult random = store.Put(random_block);
  util::Digest bogus;
  bogus.bytes[0] = 0xaa;
  const ReadStats before = store.read_stats();

  const StoredBlock packed = store.GetStored(text.digest);
  EXPECT_TRUE(packed.compressed);
  EXPECT_EQ(packed.logical_size, text.logical_size);
  EXPECT_EQ(util::AlignUp(packed.payload.size(), kSectorBytes),
            text.physical_size);
  const StoredBlock plain = store.GetStored(random.digest);
  EXPECT_FALSE(plain.compressed);
  EXPECT_EQ(plain.payload, random_block);
  EXPECT_THROW(store.GetStored(bogus), NoSuchBlockError);

  const ReadStats after = store.read_stats();
  EXPECT_EQ(after.blocks_requested, before.blocks_requested);
  EXPECT_EQ(after.cache_hits, before.cache_hits);
  EXPECT_EQ(after.cache_misses, before.cache_misses);
  EXPECT_EQ(after.raw_blocks, before.raw_blocks);
  EXPECT_EQ(after.decompressed_blocks, before.decompressed_blocks);
  EXPECT_EQ(after.decompressed_bytes, before.decompressed_bytes);
  EXPECT_EQ(after.cached_bytes, before.cached_bytes);
  EXPECT_FALSE(store.CachedDecompressedBatch({&text.digest, 1})[0]);

  EXPECT_EQ(store.codec().Decompress(packed.payload, packed.logical_size),
            store.Get(text.digest));
  EXPECT_EQ(plain.payload, store.Get(random.digest));

  // No verification: a damaged block comes back damaged, not as an error.
  ASSERT_TRUE(store.CorruptPayloadForTesting(random.digest));
  StoredBlock damaged;
  ASSERT_NO_THROW(damaged = store.GetStored(random.digest));
  EXPECT_NE(damaged.payload, random_block);
}

/// The recorded unique_blocks count must equal `expected` and the DDT's
/// own recount (CheckInvariants).
void ExpectUniqueBlocksCounted(const BlockStore& store,
                               std::uint64_t expected) {
  EXPECT_EQ(store.stats().unique_blocks, expected);
  const InvariantReport report = store.CheckInvariants();
  EXPECT_TRUE(report.ok) << report.detail;
}

TEST(BlockStore, UniqueBlocksCounterTracksEveryUpdate) {
  // Raw PutBatch, with a duplicate inside the batch and one already stored.
  BlockStore store({.codec = compress::CodecId::kGzip6, .dedup = true});
  ExpectUniqueBlocksCounted(store, 0);
  std::vector<Bytes> blocks;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    blocks.push_back(TextBlock(4096, seed));
  }
  blocks.push_back(blocks[3]);
  std::vector<util::ByteSpan> raw(blocks.begin(), blocks.end());
  const std::vector<PutResult> puts = store.PutBatch(raw);
  ExpectUniqueBlocksCounted(store, 40);
  store.PutBatch(std::span<const util::ByteSpan>(raw.data(), 5));
  ExpectUniqueBlocksCounted(store, 40);

  // Supplied-form PutBatch: three new blocks and one the store holds.
  BlockStore donor({.codec = compress::CodecId::kGzip6, .dedup = true});
  std::vector<Bytes> fresh;
  for (std::uint64_t seed = 41; seed <= 43; ++seed) {
    fresh.push_back(TextBlock(4096, seed));
  }
  fresh.push_back(blocks[0]);
  std::vector<StoredBlock> stored;
  std::vector<SuppliedBlock> supplied;
  for (const Bytes& block : fresh) {
    const PutResult put = donor.Put(block);
    stored.push_back(donor.GetStored(put.digest));
    supplied.push_back({put.digest, stored.back().payload,
                        stored.back().logical_size, stored.back().compressed});
  }
  const std::vector<PutResult> supplied_puts = store.PutBatch(supplied);
  ExpectUniqueBlocksCounted(store, 43);

  // Unref to zero drops a block; a shared one stays until its last ref.
  store.Unref(supplied_puts[0].digest);
  ExpectUniqueBlocksCounted(store, 42);
  store.Unref(puts[3].digest);  // referenced three times
  ExpectUniqueBlocksCounted(store, 42);

  // A refused allocation unwinds every block its batch committed.
  BlockStore full({.codec = compress::CodecId::kNull,
                   .dedup = true,
                   .capacity_bytes = 3 * 4096});
  const Bytes kept = RandomBlock(4096, 50);
  full.Put(kept);
  const Bytes first = RandomBlock(4096, 51);
  const Bytes second = RandomBlock(4096, 52);
  const Bytes third = RandomBlock(4096, 53);
  const util::ByteSpan overflow[] = {first, second, third};
  EXPECT_THROW(full.PutBatch(overflow), NoSpaceError);
  ExpectUniqueBlocksCounted(full, 1);
}

TEST(BlockStore, UniqueBlocksCounterSurvivesRolledBackReceive) {
  zvol::VolumeConfig config{.block_size = 4096,
                            .codec = compress::CodecId::kNull,
                            .dedup = true};
  zvol::Volume donor(config);
  donor.WriteFile("a", test::BufferSource(RandomBlock(2 * 4096, 60)));
  donor.CreateSnapshot("s1", 10);
  donor.WriteFile("huge", test::BufferSource(RandomBlock(6 * 4096, 61)));
  donor.CreateSnapshot("s2", 20);

  // The pool fits s1 exactly, so the incremental apply runs out of space
  // part-way and rolls back the blocks it had already put.
  config.capacity_bytes = 2 * 4096;
  zvol::Volume replica(config);
  replica.Receive(donor.Send("", "s1"));
  ExpectUniqueBlocksCounted(replica.block_store(), 2);
  EXPECT_THROW(replica.Receive(donor.Send("s1", "s2")), NoSpaceError);
  ExpectUniqueBlocksCounted(replica.block_store(), 2);
}

}  // namespace
}  // namespace squirrel::store
