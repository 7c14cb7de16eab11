// The block store's batch pipelines over one DDT, one extent arena and one
// ARC: extents laid out in input order, the determinism sweep
// (bit-identical results at every thread count), the supplied-form put,
// the warm-pre-filter fast path, and — under `ctest -L tsan` — cross-thread
// PutBatch/GetBatch/VerifyBatch storms and ResizeCache racing in-flight
// batch reads.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "store/block_store.h"
#include "util/rng.h"

namespace squirrel::store {
namespace {

using util::Bytes;

constexpr std::uint32_t kBlockSize = 4096;

/// Distinct incompressible blocks (stored raw: gzip on random bytes misses
/// the save-1/8th rule), so physical sizes and sector layouts are exact.
std::vector<Bytes> RandomBlocks(std::size_t count, std::uint64_t seed) {
  std::vector<Bytes> blocks(count);
  util::Rng rng(seed);
  for (Bytes& block : blocks) {
    block.resize(kBlockSize);
    rng.Fill(block);
  }
  return blocks;
}

std::vector<util::ByteSpan> Spans(const std::vector<Bytes>& blocks) {
  return {blocks.begin(), blocks.end()};
}

BlockStoreConfig Config(std::size_t threads = 1,
                        std::uint64_t cache_bytes = 0) {
  BlockStoreConfig config;
  config.codec = compress::CodecId::kGzip6;
  config.ingest = {.threads = threads, .batch_blocks = 32};
  config.read = {.threads = threads, .cache_bytes = cache_bytes};
  return config;
}

TEST(BlockStore, ExtentsLaidOutInInputOrder) {
  // One extent arena, allocated in input order at any thread count:
  // incompressible blocks land back to back, 0, 4096, 8192, ..., so a
  // sequential read of them stays sequential on the simulated disk.
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    BlockStore store(Config(threads));
    const std::vector<Bytes> blocks = RandomBlocks(200, /*seed=*/3);
    const std::vector<PutResult> results = store.PutBatch(Spans(blocks));
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].physical_size, kBlockSize) << "block " << i;
      EXPECT_EQ(store.DiskOffset(results[i].digest), i * kBlockSize)
          << "block " << i;
    }
  }
}

TEST(BlockStore, DeterministicAcrossThreadCounts) {
  // Every thread count must replay the serial store's digests, offsets,
  // stats and cache counters bit-for-bit.
  const std::vector<Bytes> blocks = RandomBlocks(96, /*seed=*/17);
  const std::vector<util::ByteSpan> spans = Spans(blocks);
  BlockStore reference(Config(/*threads=*/1, /*cache_bytes=*/24 * kBlockSize));
  const std::vector<PutResult> want = reference.PutBatch(spans);
  std::vector<util::Digest> digests;
  for (const PutResult& r : want) digests.push_back(r.digest);
  const std::vector<Bytes> want_payloads = reference.GetBatch(digests);

  for (const std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    BlockStore store(Config(threads, 24 * kBlockSize));
    const std::vector<PutResult> got = store.PutBatch(spans);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].digest, want[i].digest) << "block " << i;
      EXPECT_EQ(store.DiskOffset(got[i].digest),
                reference.DiskOffset(want[i].digest))
          << "block " << i;
    }
    EXPECT_EQ(store.GetBatch(digests), want_payloads);

    const StoreStats got_stats = store.stats();
    const StoreStats want_stats = reference.stats();
    EXPECT_EQ(got_stats.unique_blocks, want_stats.unique_blocks);
    EXPECT_EQ(got_stats.total_refs, want_stats.total_refs);
    EXPECT_EQ(got_stats.physical_data_bytes, want_stats.physical_data_bytes);
    EXPECT_EQ(got_stats.ddt_core_bytes, want_stats.ddt_core_bytes);
    const ReadStats got_reads = store.read_stats();
    const ReadStats want_reads = reference.read_stats();
    EXPECT_EQ(got_reads.cache_hits, want_reads.cache_hits);
    EXPECT_EQ(got_reads.cache_misses, want_reads.cache_misses);
    EXPECT_EQ(got_reads.decompressed_bytes, want_reads.decompressed_bytes);
    EXPECT_EQ(got_reads.cached_bytes, want_reads.cached_bytes);
  }
}

/// Stored forms of `blocks` as `source` holds them, and the supplied-form
/// batch that borrows them.
struct SuppliedBatch {
  std::vector<StoredBlock> stored;
  std::vector<SuppliedBlock> blocks;
};

SuppliedBatch Supply(const BlockStore& source, const std::vector<Bytes>& raw) {
  SuppliedBatch batch;
  batch.stored.reserve(raw.size());  // the spans below point into it
  for (const Bytes& block : raw) {
    const util::Digest digest = source.ComputeDigest(block);
    const StoredBlock& stored =
        batch.stored.emplace_back(source.GetStored(digest));
    batch.blocks.push_back(
        {digest, stored.payload, stored.logical_size, stored.compressed});
  }
  return batch;
}

/// Every accounting field, disk offset, stored block and invariant of `got`
/// equals `want`'s for the digests of `blocks`.
void ExpectSameStore(const BlockStore& got, const BlockStore& want,
                     const std::vector<Bytes>& blocks) {
  const StoreStats g = got.stats();
  const StoreStats w = want.stats();
  EXPECT_EQ(g.unique_blocks, w.unique_blocks);
  EXPECT_EQ(g.total_refs, w.total_refs);
  EXPECT_EQ(g.logical_unique_bytes, w.logical_unique_bytes);
  EXPECT_EQ(g.logical_referenced_bytes, w.logical_referenced_bytes);
  EXPECT_EQ(g.physical_data_bytes, w.physical_data_bytes);
  EXPECT_EQ(g.ddt_disk_bytes, w.ddt_disk_bytes);
  EXPECT_EQ(g.ddt_core_bytes, w.ddt_core_bytes);
  for (const Bytes& block : blocks) {
    const util::Digest digest = want.ComputeDigest(block);
    ASSERT_EQ(got.Contains(digest), want.Contains(digest));
    if (!want.Contains(digest)) continue;
    EXPECT_EQ(got.DiskOffset(digest), want.DiskOffset(digest));
    EXPECT_EQ(got.PhysicalSize(digest), want.PhysicalSize(digest));
    EXPECT_EQ(got.RefCount(digest), want.RefCount(digest));
    EXPECT_EQ(got.Get(digest), block);  // decodes and verifies
  }
  const InvariantReport report = got.CheckInvariants();
  EXPECT_TRUE(report.ok) << report.detail;
}

TEST(BlockStore, SuppliedFormPutMatchesRawPut) {
  // Receive's supplied-form PutBatch skips hashing and compressing, and
  // must commit exactly what a raw PutBatch of the decoded blocks commits:
  // results, stats, disk offsets and invariants, for in-batch duplicates
  // and DDT hits, and through a disk-full unwind.
  std::vector<Bytes> first = RandomBlocks(8, /*seed=*/41);
  util::Rng rng(42);
  for (std::size_t i = 0; i < 4; ++i) {  // compressible: stored compressed
    for (auto& byte : first[2 * i]) {
      byte = static_cast<util::Byte>('a' + rng.Below(4));
    }
  }
  // Second batch: new blocks, DDT hits on the first batch, and in-batch
  // duplicates of both.
  std::vector<Bytes> second = RandomBlocks(12, /*seed=*/43);
  second.insert(second.end(), first.begin(), first.begin() + 4);
  second.push_back(second[0]);
  second.push_back(second[13]);
  second.push_back(second[5]);
  // Overflow batch for the capacity runs: more new blocks than the pool
  // has room for.
  std::vector<Bytes> overflow = RandomBlocks(40, /*seed=*/44);
  overflow.push_back(first[1]);

  std::vector<Bytes> all = first;
  all.insert(all.end(), second.begin(), second.end());
  all.insert(all.end(), overflow.begin(), overflow.end());

  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    BlockStore source(Config(threads));
    source.PutBatch(Spans(all));
    const SuppliedBatch first_supplied = Supply(source, first);
    const SuppliedBatch second_supplied = Supply(source, second);
    const SuppliedBatch overflow_supplied = Supply(source, overflow);

    // The pool fits the first two batches (27 blocks), not the overflow
    // batch.
    BlockStoreConfig capped = Config(threads);
    capped.capacity_bytes = (first.size() + second.size()) * kBlockSize;
    for (const BlockStoreConfig& config : {Config(threads), capped}) {
      SCOPED_TRACE(config.capacity_bytes == 0 ? "unlimited" : "capped");
      BlockStore raw(config);
      BlockStore supplied(config);
      for (const auto& [blocks, batch] :
           {std::pair{&first, &first_supplied},
            std::pair{&second, &second_supplied}}) {
        const std::vector<PutResult> want = raw.PutBatch(Spans(*blocks));
        const std::vector<PutResult> got = supplied.PutBatch(batch->blocks);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].digest, want[i].digest) << "block " << i;
          EXPECT_EQ(got[i].deduplicated, want[i].deduplicated) << i;
          EXPECT_EQ(got[i].logical_size, want[i].logical_size) << i;
          EXPECT_EQ(got[i].physical_size, want[i].physical_size) << i;
        }
        ExpectSameStore(supplied, raw, all);
      }
      if (config.capacity_bytes == 0) continue;
      EXPECT_THROW(raw.PutBatch(Spans(overflow)), NoSpaceError);
      EXPECT_THROW(supplied.PutBatch(overflow_supplied.blocks), NoSpaceError);
      ExpectSameStore(supplied, raw, all);
      EXPECT_FALSE(supplied.Contains(source.ComputeDigest(overflow[0])));
    }
  }
}

TEST(BlockStore, WarmCacheSkipsResidentPayloads) {
  // Compressible blocks (so the warm path actually decompresses) behind a
  // cache that holds the whole set: the first warm does all the work, a
  // re-warm is pure ARC touches — no new decompression, every request
  // counted as warm_skipped_resident.
  BlockStoreConfig config = Config(/*threads=*/4,
                                   /*cache_bytes=*/64 * kBlockSize);
  BlockStore store(config);
  std::vector<Bytes> blocks(24);
  util::Rng rng(5);
  for (Bytes& block : blocks) {
    block.resize(kBlockSize);
    for (auto& byte : block) byte = static_cast<util::Byte>('a' + rng.Below(4));
  }
  std::vector<util::Digest> digests;
  for (const PutResult& r : store.PutBatch(Spans(blocks))) {
    digests.push_back(r.digest);
  }

  ASSERT_EQ(store.WarmCache(digests), digests.size());
  const ReadStats first = store.read_stats();
  EXPECT_EQ(first.warm_skipped_resident, 0u);
  EXPECT_GT(first.decompressed_blocks, 0u);

  ASSERT_EQ(store.WarmCache(digests), digests.size());
  const ReadStats second = store.read_stats();
  EXPECT_EQ(second.warm_skipped_resident, digests.size());
  EXPECT_EQ(second.decompressed_blocks, first.decompressed_blocks)
      << "re-warming a resident set must not redo decompression";
  EXPECT_EQ(second.cache_hits, first.cache_hits + digests.size())
      << "the skip is a filtered copy, not a skipped ARC touch";
}

// Cross-thread storm: concurrent PutBatch ref bumps, GetBatch reads and
// VerifyBatch scrubs against overlapping digest sets. Run under
// `ctest -L tsan` this is the lock-discipline test for the DDT and cache
// mutexes; the post-join asserts pin the refcount and space-map invariants.
TEST(BlockStore, ConcurrentPutGetVerifyStorm) {
  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kReaders = 3;
  BlockStore store(Config(/*threads=*/2, /*cache_bytes=*/16 * kBlockSize));
  const std::vector<Bytes> blocks = RandomBlocks(64, /*seed=*/23);
  const std::vector<util::ByteSpan> spans = Spans(blocks);
  // Seed the store so readers always race against committed digests.
  std::vector<util::Digest> digests;
  for (const PutResult& r : store.PutBatch(spans)) digests.push_back(r.digest);

  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&store, &spans] {
      // Every block dedups against the seeded copy: pure refcount traffic
      // through the commit pass.
      const std::vector<PutResult> results = store.PutBatch(spans);
      for (const PutResult& r : results) EXPECT_TRUE(r.deduplicated);
    });
  }
  for (std::size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&store, &digests, &blocks, r] {
      util::Rng rng(100 + r);
      for (int round = 0; round < 8; ++round) {
        std::vector<util::Digest> want;
        std::vector<std::size_t> index;
        for (std::size_t n = 0; n < 24; ++n) {
          const std::size_t i = rng.Below(static_cast<std::uint32_t>(
              digests.size()));
          want.push_back(digests[i]);
          index.push_back(i);
        }
        const std::vector<Bytes> got = store.GetBatch(want);
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i], blocks[index[i]]) << "round " << round;
        }
      }
    });
  }
  threads.emplace_back([&store, &digests] {
    const std::vector<std::uint8_t> ok = store.VerifyBatch(digests);
    for (std::size_t i = 0; i < ok.size(); ++i) {
      EXPECT_EQ(ok[i], 1u) << "digest " << i;
    }
  });
  for (std::thread& t : threads) t.join();

  // Refcount invariant: the seed plus one bump per writer.
  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.unique_blocks, blocks.size());
  EXPECT_EQ(stats.total_refs, blocks.size() * (1 + kWriters));
  std::uint64_t physical = 0;
  for (const util::Digest& digest : digests) {
    EXPECT_EQ(store.RefCount(digest), 1 + kWriters);
    physical += store.PhysicalSize(digest);
  }
  // Space-map invariant: allocated bytes equal the sector-rounded physical
  // footprint (random 4 KiB blocks are already sector multiples), and a
  // full unref drains both the DDT and the extent arena.
  EXPECT_EQ(store.space_map_stats().allocated_bytes, physical);
  EXPECT_EQ(stats.physical_data_bytes, physical);
  for (std::size_t bump = 0; bump < 1 + kWriters; ++bump) {
    for (const util::Digest& digest : digests) store.Unref(digest);
  }
  EXPECT_EQ(store.stats().unique_blocks, 0u);
  EXPECT_EQ(store.stats().total_refs, 0u);
  EXPECT_EQ(store.space_map_stats().allocated_bytes, 0u);
}

// ResizeCache must never stall or corrupt in-flight batch reads: the cache
// is rebudgeted under its lock while readers stream GetBatch rounds. Run
// under `ctest -L tsan` this is the ResizeCache-vs-GetBatch race test; the
// payload asserts catch any evict-while-filling bug, and the final resident
// check pins the budget.
TEST(BlockStore, ResizeCacheRacesBatchReads) {
  constexpr std::uint64_t kBudget = 24ull * kBlockSize;
  BlockStore store(Config(/*threads=*/2, kBudget));
  const std::vector<Bytes> blocks = RandomBlocks(48, /*seed=*/31);
  std::vector<util::Digest> digests;
  for (const PutResult& r : store.PutBatch(Spans(blocks))) {
    digests.push_back(r.digest);
  }

  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < 3; ++r) {
    readers.emplace_back([&store, &digests, &blocks, r] {
      util::Rng rng(7 * (r + 1));
      for (int round = 0; round < 12; ++round) {
        std::vector<util::Digest> want;
        std::vector<std::size_t> index;
        for (std::size_t n = 0; n < 16; ++n) {
          const std::size_t i = rng.Below(static_cast<std::uint32_t>(
              digests.size()));
          want.push_back(digests[i]);
          index.push_back(i);
        }
        const std::vector<Bytes> got = store.GetBatch(want);
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i], blocks[index[i]]) << "round " << round;
        }
      }
    });
  }
  // Shrink/grow/disable/restore while the readers run.
  for (int cycle = 0; cycle < 6; ++cycle) {
    store.ResizeCache(kBudget / 2);
    store.ResizeCache(0);
    store.ResizeCache(2 * kBudget);
    store.ResizeCache(kBudget);
  }
  for (std::thread& t : readers) t.join();

  const ReadStats reads = store.read_stats();
  EXPECT_EQ(reads.cache_capacity_bytes, kBudget);
  EXPECT_LE(reads.cached_bytes, kBudget);
}

}  // namespace
}  // namespace squirrel::store
