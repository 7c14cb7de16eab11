// Determinism of the batch read pipeline: GetBatch, the decompressed-block
// ARC, cluster readahead and the batched Scrub/Send/RMW consumers must be
// bit-identical to the serial reference path — same payloads in the same
// order AND the same cache hit/miss counters — at every thread count and
// cache size, including cache_bytes = 0.
#include <gtest/gtest.h>

#include <vector>

#include "buffer_source.h"
#include "util/rng.h"
#include "zvol/volume.h"

namespace squirrel::zvol {
namespace {

using util::Bytes;

using test::BufferSource;

constexpr std::uint32_t kBlockSize = 4096;

/// Same randomized block mix as the ingest suite: ~25% holes, ~25% intra-file
/// duplicates, ~25% incompressible random, ~25% compressible text, plus a
/// partial tail block.
Bytes MixedContent(std::size_t blocks, std::uint64_t seed) {
  util::Rng rng(seed);
  Bytes data(blocks * kBlockSize + kBlockSize / 3);
  for (std::size_t b = 0; b < blocks; ++b) {
    util::MutableByteSpan block(data.data() + b * kBlockSize, kBlockSize);
    switch (rng.Below(4)) {
      case 0:  // hole
        break;
      case 1:  // duplicate of an earlier block (dedup hit), if any
        if (b > 0) {
          const std::size_t src = rng.Below(static_cast<std::uint32_t>(b));
          std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(src * kBlockSize),
                      kBlockSize, block.begin());
        }
        break;
      case 2:  // incompressible
        rng.Fill(block);
        break;
      default:  // compressible text
        for (auto& byte : block) byte = static_cast<util::Byte>('a' + rng.Below(4));
        break;
    }
  }
  util::Rng(seed ^ 0x7a11).Fill(
      util::MutableByteSpan(data.data() + blocks * kBlockSize, kBlockSize / 3));
  return data;
}

store::BlockStoreConfig StoreConfig(std::size_t threads,
                                    std::uint64_t cache_bytes) {
  return store::BlockStoreConfig{
      .codec = compress::CodecId::kGzip6,
      .dedup = true,
      .fast_hash = false,
      .ingest = {},
      .read = {.threads = threads, .cache_bytes = cache_bytes}};
}

VolumeConfig VolConfig(std::size_t threads, std::uint64_t cache_bytes,
                       std::size_t readahead_blocks) {
  return VolumeConfig{.block_size = kBlockSize,
                      .codec = compress::CodecId::kGzip6,
                      .dedup = true,
                      .fast_hash = false,
                      .ingest = {},
                      .read = {.threads = threads,
                               .cache_bytes = cache_bytes,
                               .readahead_blocks = readahead_blocks}};
}

/// Loads the non-hole blocks of MixedContent into a store; returns the
/// digests in file order (duplicates repeat, as a reread would request them).
std::vector<util::Digest> Populate(store::BlockStore& store,
                                   std::size_t blocks, std::uint64_t seed) {
  const Bytes content = MixedContent(blocks, seed);
  std::vector<util::Digest> digests;
  for (std::size_t b = 0; b * kBlockSize < content.size(); ++b) {
    const std::size_t len =
        std::min<std::size_t>(kBlockSize, content.size() - b * kBlockSize);
    const util::ByteSpan block(content.data() + b * kBlockSize, len);
    if (util::IsAllZero(block)) continue;
    digests.push_back(store.Put(block).digest);
  }
  return digests;
}

/// Cache counters must replay the serial sequence exactly. Decompression
/// work may only differ in one direction: with the ARC disabled, duplicate
/// digests within one batch are aliased to a single decompression, so
/// GetBatch can do strictly LESS work than the serial Get loop (with the
/// cache on, serial gets the same saving as cache hits, so they tie).
void ExpectSameReadStats(const store::ReadStats& got,
                         const store::ReadStats& want, bool cache_enabled) {
  EXPECT_EQ(got.blocks_requested, want.blocks_requested);
  EXPECT_EQ(got.cache_hits, want.cache_hits);
  EXPECT_EQ(got.cache_misses, want.cache_misses);
  EXPECT_EQ(got.raw_blocks, want.raw_blocks);
  EXPECT_EQ(got.cached_bytes, want.cached_bytes);
  if (cache_enabled) {
    EXPECT_EQ(got.decompressed_blocks, want.decompressed_blocks);
    EXPECT_EQ(got.decompressed_bytes, want.decompressed_bytes);
  } else {
    EXPECT_LE(got.decompressed_blocks, want.decompressed_blocks);
    EXPECT_LE(got.decompressed_bytes, want.decompressed_bytes);
  }
}

TEST(ParallelRead, GetBatchMatchesSerialGetLoop) {
  for (const std::uint64_t seed : {31u, 32u}) {
    for (const std::uint64_t cache_bytes :
         {std::uint64_t{0}, std::uint64_t{8} * kBlockSize,
          std::uint64_t{4} * util::kMiB}) {
      // The serial reference issues one Get per digest against an identical
      // store (same ingest, same cache budget, read.threads = 1).
      store::BlockStore reference(StoreConfig(/*threads=*/1, cache_bytes));
      const std::vector<util::Digest> digests = Populate(reference, 60, seed);
      std::vector<Bytes> want;
      for (const util::Digest& d : digests) want.push_back(reference.Get(d));

      for (const std::size_t threads : {1u, 2u, 8u, 0u}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " cache " +
                     std::to_string(cache_bytes) + " threads " +
                     std::to_string(threads));
        store::BlockStore batched(StoreConfig(threads, cache_bytes));
        ASSERT_EQ(Populate(batched, 60, seed), digests);
        const std::vector<Bytes> got = batched.GetBatch(digests);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i], want[i]) << "payload " << i;
        }
        // Cache counters replay the exact serial Lookup/Insert sequence.
        ExpectSameReadStats(batched.read_stats(), reference.read_stats(),
                            cache_bytes > 0);
      }
    }
  }
}

TEST(ParallelRead, CacheByteBudgetNeverExceeded) {
  // A budget of 3 blocks over a 40-block working set forces constant
  // eviction; the resident payload bytes must never exceed the budget and
  // every payload must still come back exact.
  const std::uint64_t budget = 3 * kBlockSize;
  store::BlockStore cached(StoreConfig(/*threads=*/4, budget));
  store::BlockStore uncached(StoreConfig(/*threads=*/4, /*cache_bytes=*/0));
  const std::vector<util::Digest> digests = Populate(cached, 40, /*seed=*/41);
  ASSERT_EQ(Populate(uncached, 40, /*seed=*/41), digests);

  util::Rng rng(99);
  for (int round = 0; round < 25; ++round) {
    std::vector<util::Digest> request;
    const std::size_t n = 1 + rng.Below(12);
    for (std::size_t i = 0; i < n; ++i) {
      request.push_back(digests[rng.Below(static_cast<std::uint32_t>(digests.size()))]);
    }
    EXPECT_EQ(cached.GetBatch(request), uncached.GetBatch(request));
    const store::ReadStats stats = cached.read_stats();
    EXPECT_LE(stats.cached_bytes, budget) << "round " << round;
    EXPECT_EQ(stats.cache_capacity_bytes, budget);
  }
  // The mixed workload re-reads blocks, so a 3-block ARC must see SOME hits
  // and — being far smaller than the working set — plenty of misses.
  EXPECT_GT(cached.read_stats().cache_hits, 0u);
  EXPECT_GT(cached.read_stats().cache_misses, 0u);
  // The uncached store never hits and never retains payload bytes.
  EXPECT_EQ(uncached.read_stats().cache_hits, 0u);
  EXPECT_EQ(uncached.read_stats().cached_bytes, 0u);
}

TEST(ParallelRead, WarmCacheHitsSkipDecompression) {
  store::BlockStore store(StoreConfig(/*threads=*/2, /*cache_bytes=*/4 * util::kMiB));
  // Compressible text blocks: all stored compressed, all cacheable.
  Bytes text(kBlockSize);
  std::vector<util::Digest> digests;
  for (int b = 0; b < 10; ++b) {
    for (std::size_t i = 0; i < text.size(); ++i) {
      text[i] = static_cast<util::Byte>('a' + (b * 13 + i) % 23);
    }
    digests.push_back(store.Put(text).digest);
  }

  const std::vector<Bytes> cold = store.GetBatch(digests);
  const store::ReadStats after_cold = store.read_stats();
  EXPECT_EQ(after_cold.cache_hits, 0u);
  EXPECT_EQ(after_cold.decompressed_blocks, 10u);
  for (const util::Digest& d : digests) {
    EXPECT_TRUE(store.CachedDecompressedBatch({&d, 1})[0]);
  }

  const std::vector<Bytes> warm = store.GetBatch(digests);
  EXPECT_EQ(warm, cold);
  const store::ReadStats after_warm = store.read_stats();
  EXPECT_EQ(after_warm.cache_hits, 10u);
  // No additional decompression work was done for the warm pass.
  EXPECT_EQ(after_warm.decompressed_blocks, after_cold.decompressed_blocks);
  EXPECT_EQ(after_warm.decompressed_bytes, after_cold.decompressed_bytes);
}

TEST(ParallelRead, RawBlocksBypassTheCache) {
  // Incompressible blocks are stored raw; caching them would buy back no
  // decompression CPU, so they bypass the ARC entirely.
  store::BlockStore store(StoreConfig(/*threads=*/2, /*cache_bytes=*/4 * util::kMiB));
  Bytes noise(kBlockSize);
  util::Rng(7).Fill(noise);
  const util::Digest digest = store.Put(noise).digest;

  EXPECT_EQ(store.Get(digest), noise);
  EXPECT_EQ(store.Get(digest), noise);
  const store::ReadStats stats = store.read_stats();
  EXPECT_EQ(stats.raw_blocks, 2u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(stats.cached_bytes, 0u);
  EXPECT_FALSE(store.CachedDecompressedBatch({&digest, 1})[0]);
}

TEST(ParallelRead, SharedPayloadsAreOneBufferPerBlock) {
  // GetBatchShared makes each decompressed block one buffer: duplicates in
  // a batch share it, and with the ARC on a later hit hands out the very
  // buffer the miss made. Without the ARC every batch decodes afresh.
  for (const std::uint64_t cache_bytes : {std::uint64_t{0}, util::kMiB}) {
    SCOPED_TRACE("cache " + std::to_string(cache_bytes));
    store::BlockStore store(StoreConfig(/*threads=*/2, cache_bytes));
    Bytes text(kBlockSize);
    for (std::size_t i = 0; i < text.size(); ++i) {
      text[i] = static_cast<util::Byte>('a' + i % 3);
    }
    const util::Digest digest = store.Put(text).digest;
    const util::Digest batch[3] = {digest, digest, digest};
    const std::vector<util::SharedBytes> first = store.GetBatchShared(batch);
    ASSERT_EQ(*first[0], text);
    EXPECT_EQ(first[1], first[0]);
    EXPECT_EQ(first[2], first[0]);
    const std::vector<util::SharedBytes> again = store.GetBatchShared(batch);
    EXPECT_EQ(again[0] == first[0], cache_bytes > 0);
    // The copy-out wrapper hands back the same bytes in a buffer of its own.
    const Bytes copy = store.Get(digest);
    EXPECT_EQ(copy, text);
    EXPECT_NE(copy.data(), first[0]->data());
  }
}

// ReadRangeInto writes only the bytes it serves: holes and the zero tail of
// a stored block shorter than its in-file length are zero-filled, and the
// rest is copied straight from the shared payloads. Into a destination
// pre-filled with a non-zero pattern it must still equal ReadRange, with the
// same store ReadStats, over ranges that cross blocks and ingest batches,
// and hand back each touched block's payload (null for holes). A window
// inside the request copies only its own bytes, with the same ReadStats.
TEST(ParallelRead, SpanReadMatchesReadRange) {
  const Bytes content = MixedContent(/*blocks=*/40, 61);
  // Growing the file past its partial tail block, without rewriting that
  // block, leaves a stored block shorter than its in-file length.
  const std::uint64_t grow_at = content.size() + 2 * kBlockSize;
  const Bytes grown(100, 0x3c);
  Bytes want = content;
  want.resize(grow_at, 0);
  want.insert(want.end(), grown.begin(), grown.end());
  const std::uint64_t short_block = content.size() / kBlockSize;

  for (const auto& [cache_bytes, readahead] :
       {std::pair<std::uint64_t, std::size_t>{0, 0}, {util::kMiB, 4}}) {
    SCOPED_TRACE("cache " + std::to_string(cache_bytes));
    VolumeConfig config = VolConfig(/*threads=*/1, cache_bytes, readahead);
    config.ingest.batch_blocks = 3;  // ranges cross ingest-sized rounds
    Volume span_volume(config);
    Volume range_volume(config);
    for (Volume* volume : {&span_volume, &range_volume}) {
      volume->WriteFile("f", BufferSource(content));
      volume->WriteRange("f", grow_at, grown);
    }
    const BlockPtr& short_ptr = span_volume.FileBlock("f", short_block);
    ASSERT_FALSE(short_ptr.hole);
    ASSERT_LT(short_ptr.logical_size, kBlockSize);

    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges = {
        {0, want.size()},
        {short_block * kBlockSize, kBlockSize},
        {short_block * kBlockSize + 10, 2 * kBlockSize},
        {kBlockSize - 1, 2},
    };
    util::Rng rng(62);
    for (int i = 0; i < 24; ++i) {
      const std::uint64_t offset =
          rng.Below(static_cast<std::uint32_t>(want.size() - 1));
      ranges.emplace_back(offset, std::min<std::uint64_t>(
                                      1 + rng.Below(9 * kBlockSize),
                                      want.size() - offset));
    }
    for (const auto& [offset, length] : ranges) {
      SCOPED_TRACE("offset " + std::to_string(offset) + " length " +
                   std::to_string(length));
      Bytes got(length, 0xa5);
      std::vector<util::SharedBytes> blocks;
      span_volume.ReadRangeInto("f", offset, length, 0, got, &blocks);
      ASSERT_EQ(got, range_volume.ReadRange("f", offset, length));
      ASSERT_TRUE(std::equal(got.begin(), got.end(),
                             want.begin() + static_cast<std::ptrdiff_t>(offset)));
      ExpectSameReadStats(span_volume.block_store().read_stats(),
                          range_volume.block_store().read_stats(),
                          /*cache_enabled=*/true);
      const std::uint64_t first = offset / kBlockSize;
      ASSERT_EQ(blocks.size(), (offset + length - 1) / kBlockSize - first + 1);
      for (std::size_t k = 0; k < blocks.size(); ++k) {
        const BlockPtr& ptr = span_volume.FileBlock("f", first + k);
        if (ptr.hole) {
          EXPECT_EQ(blocks[k], nullptr) << "block " << first + k;
        } else {
          ASSERT_NE(blocks[k], nullptr) << "block " << first + k;
          EXPECT_EQ(*blocks[k],
                    span_volume.block_store().GetUncached(ptr.digest));
        }
      }

      // The same request with its middle third as the window fetches the
      // same blocks and copies only the window, leaving the bytes around
      // it alone.
      const std::uint64_t skip = length / 3;
      Bytes guarded(length / 3 + 2, 0xa5);
      span_volume.ReadRangeInto(
          "f", offset, length, skip,
          util::MutableByteSpan(guarded.data() + 1, length / 3));
      range_volume.ReadRange("f", offset, length);
      EXPECT_TRUE(std::equal(
          guarded.begin() + 1, guarded.end() - 1,
          want.begin() + static_cast<std::ptrdiff_t>(offset + skip)));
      EXPECT_EQ(guarded.front(), 0xa5);
      EXPECT_EQ(guarded.back(), 0xa5);
      ExpectSameReadStats(span_volume.block_store().read_stats(),
                          range_volume.block_store().read_stats(),
                          /*cache_enabled=*/true);
    }
    Bytes too_long(6);
    EXPECT_THROW(span_volume.ReadRangeInto("f", 0, 10, 5, too_long),
                 std::out_of_range);
  }
}

TEST(ParallelRead, GetBatchUnknownDigestThrowsBeforeCacheMutation) {
  store::BlockStore store(StoreConfig(/*threads=*/2, /*cache_bytes=*/util::kMiB));
  const std::vector<util::Digest> digests = Populate(store, 8, /*seed=*/3);
  util::Digest bogus;
  bogus.bytes[0] = 0x5a;

  std::vector<util::Digest> request = digests;
  request.push_back(bogus);
  EXPECT_THROW(store.GetBatch(request), store::NoSuchBlockError);
  // Validation happens before any cache or counter mutation.
  const store::ReadStats stats = store.read_stats();
  EXPECT_EQ(stats.blocks_requested, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(stats.cached_bytes, 0u);

  // VerifyBatch, by contrast, reports unknown digests as failures so scrubs
  // can keep walking.
  const std::vector<std::uint8_t> ok = store.VerifyBatch(request);
  ASSERT_EQ(ok.size(), request.size());
  EXPECT_EQ(ok.back(), 0u);
  for (std::size_t i = 0; i + 1 < ok.size(); ++i) EXPECT_EQ(ok[i], 1u);
}

TEST(ParallelRead, ReadRangeMatchesSerialAcrossConfigs) {
  for (const std::uint64_t seed : {51u, 52u}) {
    const Bytes content = MixedContent(/*blocks=*/70, seed);
    Volume serial(VolConfig(/*threads=*/1, /*cache_bytes=*/0, /*readahead=*/0));
    serial.WriteFile("f", BufferSource(content));
    ASSERT_EQ(serial.ReadFile("f"), content);

    struct Case {
      std::size_t threads;
      std::uint64_t cache_bytes;
      std::size_t readahead;
    };
    const Case cases[] = {
        {2, 0, 0},                      // parallel, no cache
        {8, 16 * kBlockSize, 0},        // small cache, no readahead
        {4, util::kMiB, 8},             // cache + cluster readahead
        {0, 64 * kBlockSize, 16},       // hardware threads, aggressive RA
    };
    for (const Case& c : cases) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                   std::to_string(c.threads) + " cache " +
                   std::to_string(c.cache_bytes) + " ra " +
                   std::to_string(c.readahead));
      Volume volume(VolConfig(c.threads, c.cache_bytes, c.readahead));
      volume.WriteFile("f", BufferSource(content));
      EXPECT_EQ(volume.ReadFile("f"), content);
      // Unaligned windows, including ones crossing the shorter tail block.
      util::Rng rng(seed * 131);
      for (int i = 0; i < 16; ++i) {
        const std::uint64_t offset =
            rng.Below(static_cast<std::uint32_t>(content.size() - 1));
        const std::uint64_t length = std::min<std::uint64_t>(
            1 + rng.Below(5 * kBlockSize), content.size() - offset);
        EXPECT_EQ(volume.ReadRange("f", offset, length),
                  serial.ReadRange("f", offset, length))
            << "offset " << offset << " length " << length;
      }
    }
  }
}

TEST(ParallelRead, ClusterReadaheadWarmsSequentialReads) {
  // Sequential block-size reads with readahead: every round fetches the next
  // clusters too, so later rounds find their blocks resident in the ARC.
  const Bytes content = MixedContent(/*blocks=*/64, /*seed=*/61);
  Volume volume(VolConfig(/*threads=*/2, /*cache_bytes=*/8 * util::kMiB,
                          /*readahead=*/32));
  volume.WriteFile("f", BufferSource(content));

  Bytes assembled(content.size());
  for (std::uint64_t off = 0; off < content.size(); off += kBlockSize) {
    const std::uint64_t len =
        std::min<std::uint64_t>(kBlockSize, content.size() - off);
    const Bytes chunk = volume.ReadRange("f", off, len);
    std::copy(chunk.begin(), chunk.end(),
              assembled.begin() + static_cast<std::ptrdiff_t>(off));
  }
  EXPECT_EQ(assembled, content);
  EXPECT_GT(volume.block_store().read_stats().cache_hits, 0u)
      << "readahead should have warmed the ARC for later rounds";
}

TEST(ParallelRead, ScrubMatchesSerial) {
  const Bytes content = MixedContent(/*blocks=*/50, /*seed=*/71);
  Volume serial(VolConfig(/*threads=*/1, /*cache_bytes=*/0, /*readahead=*/0));
  Volume parallel(VolConfig(/*threads=*/8, /*cache_bytes=*/util::kMiB,
                            /*readahead=*/4));
  serial.WriteFile("f", BufferSource(content));
  parallel.WriteFile("f", BufferSource(content));

  const Volume::ScrubReport clean_s = serial.Scrub();
  const Volume::ScrubReport clean_p = parallel.Scrub();
  EXPECT_EQ(clean_p.blocks_checked, clean_s.blocks_checked);
  EXPECT_EQ(clean_p.errors, 0u);
  EXPECT_EQ(clean_p.dangling_refs, 0u);

  // Corrupt the same block in both; the parallel scrub must find the same
  // single error, and the ARC must not mask it (Verify bypasses the cache).
  ASSERT_EQ(parallel.ReadFile("f"), content);  // warm the ARC first
  std::uint64_t corrupted = 0;
  for (std::uint64_t b = 0; b < serial.FileBlockCount("f"); ++b) {
    if (!serial.FileBlock("f", b).hole) {
      corrupted = b;
      break;
    }
  }
  ASSERT_TRUE(serial.CorruptBlockForTesting("f", corrupted));
  ASSERT_TRUE(parallel.CorruptBlockForTesting("f", corrupted));
  const Volume::ScrubReport dirty_s = serial.Scrub();
  const Volume::ScrubReport dirty_p = parallel.Scrub();
  EXPECT_EQ(dirty_p.blocks_checked, dirty_s.blocks_checked);
  EXPECT_EQ(dirty_p.errors, dirty_s.errors);
  EXPECT_EQ(dirty_p.errors, 1u);
}

TEST(ParallelRead, SendStreamBitIdenticalToSerial) {
  for (const bool incremental : {false, true}) {
    Volume serial(VolConfig(/*threads=*/1, /*cache_bytes=*/0, /*readahead=*/0));
    Volume parallel(VolConfig(/*threads=*/8, /*cache_bytes=*/2 * util::kMiB,
                              /*readahead=*/8));
    for (Volume* v : {&serial, &parallel}) {
      v->WriteFile("base", BufferSource(MixedContent(30, 81)));
      v->CreateSnapshot("s1", 100);
      v->WriteFile("extra", BufferSource(MixedContent(20, 82)));
      v->WriteRange("base", 3 * kBlockSize, MixedContent(4, 83));
      v->CreateSnapshot("s2", 200);
    }
    const SendStream want =
        serial.Send(incremental ? "s1" : "", "s2");
    const SendStream got =
        parallel.Send(incremental ? "s1" : "", "s2");
    // Wire-level equality covers record order, payload bytes and the
    // payload_compressed decisions of the parallel compression stage.
    EXPECT_EQ(got.Serialize(), want.Serialize())
        << (incremental ? "incremental" : "full");

    // The stream still applies cleanly.
    Volume receiver(VolConfig(/*threads=*/2, /*cache_bytes=*/util::kMiB,
                              /*readahead=*/4));
    if (incremental) {
      receiver.WriteFile("base", BufferSource(MixedContent(30, 81)));
      receiver.CreateSnapshot("s1", 100);
      // Receive validates base identity by snapshot id, which advanced
      // identically on all three volumes.
    }
    receiver.Receive(got);
    EXPECT_EQ(receiver.ReadFile("base"), parallel.ReadFile("base"));
    EXPECT_EQ(receiver.ReadFile("extra"), parallel.ReadFile("extra"));
  }
}

TEST(ParallelRead, WriteRangeRmwThroughBatchPathMatchesSerial) {
  // Copy-on-read population: overlapping rewrites fetch the old blocks via
  // GetBatch. With the ARC on, earlier reads make those fetches cache hits —
  // the resulting file must be identical either way.
  const Bytes base = MixedContent(/*blocks=*/24, /*seed=*/91);
  Volume serial(VolConfig(/*threads=*/1, /*cache_bytes=*/0, /*readahead=*/0));
  Volume cached(VolConfig(/*threads=*/4, /*cache_bytes=*/4 * util::kMiB,
                          /*readahead=*/8));
  serial.WriteFile("f", BufferSource(base));
  cached.WriteFile("f", BufferSource(base));
  ASSERT_EQ(cached.ReadFile("f"), base);  // warm the ARC

  util::Rng rng(17);
  for (int round = 0; round < 10; ++round) {
    const std::uint64_t offset = rng.Below(static_cast<std::uint32_t>(base.size()));
    Bytes patch(1 + rng.Below(3 * kBlockSize));
    rng.Fill(patch);
    serial.WriteRange("f", offset, patch);
    cached.WriteRange("f", offset, patch);
  }
  EXPECT_EQ(cached.ReadFile("f"), serial.ReadFile("f"));
  ASSERT_EQ(cached.FileBlockCount("f"), serial.FileBlockCount("f"));
  for (std::uint64_t b = 0; b < serial.FileBlockCount("f"); ++b) {
    EXPECT_EQ(cached.FileBlock("f", b), serial.FileBlock("f", b))
        << "block " << b;
  }
}

}  // namespace
}  // namespace squirrel::zvol
