// Behaviour of the weighted ARC core (util/arc_cache.h) at weight 1, the
// classic entry-counted formulation, plus the byte-weighted BlockCache.
#include "util/arc_cache.h"

#include <gtest/gtest.h>

#include "store/block_cache.h"
#include "util/hash.h"
#include "util/rng.h"

namespace squirrel {
namespace {

/// Entry-counted ARC over block ids; every insert has weight 1.
using Arc = util::ArcCache<std::uint64_t>;

/// Block ids of the one-pass scan in the scan tests, disjoint from the hot
/// set's ids.
constexpr std::uint64_t kScanBase = 1000;

TEST(ArcCache, BasicHitAfterInsert) {
  Arc cache(8);
  EXPECT_FALSE(cache.Lookup(0));
  cache.Insert(0, 1);
  EXPECT_TRUE(cache.Lookup(0));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ArcCache, CapacityBound) {
  Arc cache(4);
  for (std::uint64_t b = 0; b < 100; ++b) cache.Insert(b, 1);
  EXPECT_LE(cache.resident_entries(), 4u);
}

TEST(ArcCache, ZeroCapacityNeverHits) {
  Arc cache(0);
  cache.Insert(0, 1);
  EXPECT_FALSE(cache.Lookup(0));
}

TEST(ArcCache, LruEvictionWithinRecencyList) {
  Arc cache(3);
  cache.Insert(0, 1);
  cache.Insert(1, 1);
  cache.Insert(2, 1);
  cache.Insert(3, 1);  // evicts block 0 (LRU of T1)
  EXPECT_FALSE(cache.Lookup(0));
  EXPECT_TRUE(cache.Lookup(3));
}

TEST(ArcCache, FrequentBlocksSurviveScan) {
  // The defining ARC property: blocks with reuse (in T2) survive a long
  // one-pass scan that would flush a plain LRU.
  Arc cache(16);
  // Establish 4 hot blocks with reuse.
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t b = 0; b < 4; ++b) {
      if (!cache.Lookup(b)) cache.Insert(b, 1);
    }
  }
  // One-pass scan of 200 cold blocks.
  for (std::uint64_t b = kScanBase; b < kScanBase + 200; ++b) {
    if (!cache.Lookup(b)) cache.Insert(b, 1);
  }
  int hot_survivors = 0;
  for (std::uint64_t b = 0; b < 4; ++b) hot_survivors += cache.Lookup(b);
  EXPECT_GE(hot_survivors, 3) << "scan must not flush the frequency list";
}

TEST(ArcCache, LruWouldFailTheSameScan) {
  // Contrast baseline documenting why ARC matters: a plain-LRU-sized
  // comparison loses all hot blocks after the scan. (Uses ARC in pure
  // recency mode by never re-touching entries.)
  Arc cache(16);
  for (std::uint64_t b = 0; b < 4; ++b) cache.Insert(b, 1);
  for (std::uint64_t b = kScanBase; b < kScanBase + 200; ++b) {
    cache.Insert(b, 1);
  }
  int survivors = 0;
  for (std::uint64_t b = 0; b < 4; ++b) survivors += cache.Lookup(b);
  EXPECT_EQ(survivors, 0) << "untouched entries are recency-only and get flushed";
}

TEST(ArcCache, GhostHitAdaptsTarget) {
  Arc cache(4);
  // Fill T1, evicting into B1.
  for (std::uint64_t b = 0; b < 8; ++b) cache.Insert(b, 1);
  const std::size_t p_before = cache.target_recency_weight();
  // Re-insert an evicted (ghost) block: B1 hit should raise p.
  EXPECT_FALSE(cache.Lookup(0));
  cache.Insert(0, 1);
  EXPECT_GE(cache.target_recency_weight(), p_before);
  EXPECT_TRUE(cache.Lookup(0));
}

TEST(ArcCache, StressRandomWorkloadInvariant) {
  Arc cache(32);
  util::Rng rng(99);
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t block = rng.Below(200);
    if (!cache.Lookup(block)) cache.Insert(block, 1);
    ASSERT_LE(cache.resident_entries(), 32u);
    ASSERT_LE(cache.target_recency_weight(), 32u);
  }
  EXPECT_GT(cache.hits(), 0u);
}

TEST(ArcCache, ZipfWorkloadBeatsPureRecency) {
  // Skewed reuse (boot blocks of popular images) should produce a solid hit
  // rate with a cache much smaller than the working set.
  Arc cache(64);
  util::Rng rng(7);
  util::ZipfSampler zipf(1000, 1.1);
  std::uint64_t hits = 0, total = 0;
  for (int op = 0; op < 30000; ++op) {
    const std::uint64_t block = zipf.Sample(rng);
    ++total;
    if (cache.Lookup(block)) {
      ++hits;
    } else {
      cache.Insert(block, 1);
    }
  }
  EXPECT_GT(static_cast<double>(hits) / static_cast<double>(total), 0.4);
}

TEST(ArcCache, ShrinkEvictsDownToBudgetInReplacementOrder) {
  Arc cache(8);
  for (std::uint64_t b = 0; b < 8; ++b) cache.Insert(b, 1);
  // Re-touch the last four so they live in T2 (frequency side).
  for (std::uint64_t b = 4; b < 8; ++b) EXPECT_TRUE(cache.Lookup(b));

  cache.Resize(4);
  EXPECT_EQ(cache.capacity(), 4u);
  EXPECT_LE(cache.resident_entries(), 4u);
  // Shrinking runs the normal REPLACE routine, which victimizes the recency
  // side first: the untouched T1 blocks go, the re-referenced T2 ones stay.
  int t2_survivors = 0;
  for (std::uint64_t b = 4; b < 8; ++b) t2_survivors += cache.Lookup(b);
  EXPECT_EQ(t2_survivors, 4);
}

TEST(ArcCache, ShrinkEvictsLruFirstWithinRecencyList) {
  Arc cache(6);
  for (std::uint64_t b = 0; b < 6; ++b) cache.Insert(b, 1);
  cache.Resize(2);
  // Pure recency contents: the two most recent inserts survive.
  EXPECT_TRUE(cache.Lookup(5));
  EXPECT_TRUE(cache.Lookup(4));
  EXPECT_FALSE(cache.Lookup(0));
  EXPECT_FALSE(cache.Lookup(3));
}

TEST(ArcCache, GrowKeepsContentsAndRaisesCeiling) {
  Arc cache(3);
  for (std::uint64_t b = 0; b < 3; ++b) cache.Insert(b, 1);
  cache.Resize(16);
  EXPECT_EQ(cache.capacity(), 16u);
  for (std::uint64_t b = 0; b < 3; ++b) EXPECT_TRUE(cache.Lookup(b));
  // The raised budget actually admits more without evicting the old set.
  for (std::uint64_t b = 3; b < 16; ++b) cache.Insert(b, 1);
  EXPECT_EQ(cache.resident_entries(), 16u);
  EXPECT_TRUE(cache.Lookup(0));
}

TEST(ArcCache, ResizeToZeroDropsEverything) {
  Arc cache(8);
  for (std::uint64_t b = 0; b < 8; ++b) cache.Insert(b, 1);
  cache.Resize(0);
  EXPECT_EQ(cache.resident_entries(), 0u);
  for (std::uint64_t b = 0; b < 8; ++b) EXPECT_FALSE(cache.Lookup(b));
  // And stays disabled, like a zero-capacity construction.
  cache.Insert(0, 1);
  EXPECT_FALSE(cache.Lookup(0));
}

TEST(ArcCache, ResizeKeepsInvariantsUnderRandomWorkload) {
  Arc cache(32);
  util::Rng rng(1234);
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t block = rng.Below(200);
    if (!cache.Lookup(block)) cache.Insert(block, 1);
    if (op % 1000 == 999) {
      // Oscillate the budget mid-workload.
      cache.Resize(op % 2000 == 999 ? 8 : 48);
    }
    ASSERT_LE(cache.resident_entries(), cache.capacity());
    ASSERT_LE(cache.target_recency_weight(), cache.capacity());
  }
}

TEST(ArcCache, BlockCacheResizeDropsPayloadsWithEntries) {
  // The byte-weighted instantiation: shrinking the BlockCache must release
  // the evicted payload bytes, and survivors must still serve hits.
  store::BlockCache cache(4 * 4096);
  util::Bytes payload(4096);
  std::vector<util::Digest> digests;
  for (std::uint64_t i = 0; i < 4; ++i) {
    payload[0] = static_cast<util::Byte>(i);
    const util::Digest digest = util::HashBlock(payload);
    cache.Admit(digest, payload.size());
    cache.Fill(digest, std::make_shared<const util::Bytes>(payload));
    digests.push_back(digest);
  }
  EXPECT_EQ(cache.resident_bytes(), 4u * 4096u);

  cache.Resize(4096);
  EXPECT_EQ(cache.capacity_bytes(), 4096u);
  EXPECT_LE(cache.resident_bytes(), 4096u);
  util::SharedBytes out;
  int hits = 0;
  for (const util::Digest& digest : digests) {
    if (cache.Lookup(digest, &out) == store::BlockCache::Outcome::kHit) {
      ++hits;
      EXPECT_EQ(out->size(), 4096u);  // payload still intact for survivors
    }
  }
  EXPECT_LE(hits, 1);

  cache.Resize(0);
  EXPECT_FALSE(cache.enabled());
  EXPECT_EQ(cache.resident_bytes(), 0u);
}

}  // namespace
}  // namespace squirrel
