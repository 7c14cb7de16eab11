// Determinism of the batch ingest pipeline: parallel WriteFile/WriteRange and
// BlockStore::PutBatch must be bit-identical to the serial reference path —
// same per-block digests, VolumeStats, StoreStats, disk offsets, clean Scrub —
// at every thread count and batch size, over randomized block mixes (holes,
// intra-file dedup hits, incompressible random blocks, compressible text).
// A source that reports its holes must give the same volume without any of
// them being read.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "buffer_source.h"
#include "util/rng.h"
#include "zvol/volume.h"

namespace squirrel::zvol {
namespace {

using util::Bytes;

using test::BufferSource;

constexpr std::uint32_t kBlockSize = 4096;

/// Randomized mix of block flavours: ~25% holes, ~25% duplicates of an
/// earlier block, ~25% incompressible random, ~25% compressible text. Ends
/// with a partial tail block so the unaligned path is covered too.
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

VolumeConfig Config(std::size_t threads, std::size_t batch_blocks) {
  return VolumeConfig{.block_size = kBlockSize,
                      .codec = compress::CodecId::kGzip6,
                      .dedup = true,
                      .fast_hash = false,
                      .ingest = {.threads = threads, .batch_blocks = batch_blocks}};
}

void ExpectSameStats(const VolumeStats& got, const VolumeStats& want) {
  EXPECT_EQ(got.file_count, want.file_count);
  EXPECT_EQ(got.logical_file_bytes, want.logical_file_bytes);
  EXPECT_EQ(got.unique_blocks, want.unique_blocks);
  EXPECT_EQ(got.physical_data_bytes, want.physical_data_bytes);
  EXPECT_EQ(got.ddt_disk_bytes, want.ddt_disk_bytes);
  EXPECT_EQ(got.ddt_core_bytes, want.ddt_core_bytes);
  EXPECT_EQ(got.blkptr_disk_bytes, want.blkptr_disk_bytes);
  EXPECT_EQ(got.disk_used_bytes, want.disk_used_bytes);
}

void ExpectSameStoreStats(const store::StoreStats& got,
                          const store::StoreStats& want) {
  EXPECT_EQ(got.unique_blocks, want.unique_blocks);
  EXPECT_EQ(got.total_refs, want.total_refs);
  EXPECT_EQ(got.logical_unique_bytes, want.logical_unique_bytes);
  EXPECT_EQ(got.logical_referenced_bytes, want.logical_referenced_bytes);
  EXPECT_EQ(got.physical_data_bytes, want.physical_data_bytes);
  EXPECT_EQ(got.ddt_disk_bytes, want.ddt_disk_bytes);
  EXPECT_EQ(got.ddt_core_bytes, want.ddt_core_bytes);
}

/// Every block pointer (including holes and disk offsets of non-holes) of
/// `name` must match the serial volume's.
void ExpectSameBlocks(const Volume& got, const Volume& serial,
                      const std::string& name) {
  ASSERT_EQ(got.FileBlockCount(name), serial.FileBlockCount(name));
  for (std::uint64_t b = 0; b < serial.FileBlockCount(name); ++b) {
    const BlockPtr& g = got.FileBlock(name, b);
    const BlockPtr& s = serial.FileBlock(name, b);
    EXPECT_EQ(g, s) << name << " block " << b;
    if (!s.hole) {
      EXPECT_EQ(got.block_store().DiskOffset(g.digest),
                serial.block_store().DiskOffset(s.digest))
          << name << " block " << b;
    }
  }
}

TEST(ParallelIngest, WriteFileMatchesSerialAcrossThreadsAndBatches) {
  // Every thread/batch combination must be bit-identical to the
  // single-threaded reference (digests, stats, disk offsets, clean scrub).
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Bytes content = MixedContent(/*blocks=*/97, seed);
    Volume serial(Config(/*threads=*/1, /*batch_blocks=*/128));
    serial.WriteFile("f", BufferSource(content));
    ASSERT_EQ(serial.ReadRange("f", 0, content.size()), content);

    for (const std::size_t threads : {2u, 8u}) {
      for (const std::size_t batch : {1u, 7u, 128u}) {
        Volume parallel(Config(threads, batch));
        parallel.WriteFile("f", BufferSource(content));
        SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                     std::to_string(threads) + " batch " + std::to_string(batch));
        EXPECT_EQ(parallel.ReadRange("f", 0, content.size()), content);
        ExpectSameBlocks(parallel, serial, "f");
        ExpectSameStats(parallel.Stats(), serial.Stats());
        ExpectSameStoreStats(parallel.block_store().stats(),
                             serial.block_store().stats());
        const Volume::ScrubReport scrub = parallel.Scrub();
        EXPECT_EQ(scrub.errors, 0u);
        EXPECT_EQ(scrub.dangling_refs, 0u);
      }
    }
  }
}

/// In-memory source that reports holes from a per-block map (every byte of
/// a reported hole is zero) and records the range of every Read.
class HoleMapSource final : public util::DataSource {
 public:
  HoleMapSource(Bytes data, std::vector<bool> hole)
      : data_(std::move(data)), hole_(std::move(hole)) {}
  std::uint64_t size() const override { return data_.size(); }
  void Read(std::uint64_t offset, util::MutableByteSpan out) const override {
    reads_.emplace_back(offset, out.size());
    std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(offset),
                out.size(), out.begin());
  }
  bool RangeHasData(std::uint64_t offset, std::uint64_t length) const override {
    for (std::uint64_t b = offset / kBlockSize;
         b <= (offset + length - 1) / kBlockSize; ++b) {
      if (!hole_[b]) return true;
    }
    return false;
  }
  const std::vector<std::pair<std::uint64_t, std::uint64_t>>& reads() const {
    return reads_;
  }

 private:
  Bytes data_;
  std::vector<bool> hole_;
  mutable std::vector<std::pair<std::uint64_t, std::uint64_t>> reads_;
};

TEST(ParallelIngest, SparseSourceSkipsReportedHoles) {
  // 300 whole blocks and a partial tail. About a third of the blocks, and
  // all of [128, 256) (a whole batch at batch_blocks 128), are reported
  // holes; MixedContent's own zero blocks, and block 7, are reported as
  // data but read as zeros, so ingest must still zero-detect them.
  constexpr std::size_t kBlocks = 300;
  Bytes content = MixedContent(kBlocks, /*seed=*/11);
  std::vector<bool> hole(kBlocks + 1, false);
  util::Rng rng(0x401e);
  for (std::size_t b = 0; b < kBlocks; ++b) {
    hole[b] = (b >= 128 && b < 256) || rng.Below(3) == 0;
  }
  hole[7] = false;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    if (hole[b] || b == 7) {
      std::fill_n(content.begin() + static_cast<std::ptrdiff_t>(b * kBlockSize),
                  kBlockSize, 0);
    }
  }

  for (const std::size_t threads : {1u, 4u}) {
    for (const std::size_t batch : {1u, 3u, 128u}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " batch " +
                   std::to_string(batch));
      Volume dense(Config(threads, batch));
      dense.WriteFile("f", BufferSource(content));
      const HoleMapSource source(content, hole);
      Volume sparse(Config(threads, batch));
      sparse.WriteFile("f", source);

      EXPECT_EQ(sparse.FileSize("f"), dense.FileSize("f"));
      ExpectSameBlocks(sparse, dense, "f");
      ExpectSameStats(sparse.Stats(), dense.Stats());
      EXPECT_EQ(sparse.Serialize(), dense.Serialize());

      // Every reported-data block is read exactly once and no reported
      // hole at all, with one block-aligned Read per run of data blocks
      // inside a batch.
      std::vector<int> times_read(hole.size(), 0);
      for (const auto& [offset, length] : source.reads()) {
        ASSERT_GT(length, 0u);
        EXPECT_EQ(offset % kBlockSize, 0u);
        EXPECT_TRUE(length % kBlockSize == 0 ||
                    offset + length == content.size());
        for (std::uint64_t b = offset / kBlockSize;
             b <= (offset + length - 1) / kBlockSize; ++b) {
          ++times_read[b];
        }
      }
      std::size_t runs = 0;
      for (std::size_t b = 0; b < hole.size(); ++b) {
        EXPECT_EQ(times_read[b], hole[b] ? 0 : 1) << "block " << b;
        if (!hole[b] && (b % batch == 0 || hole[b - 1])) ++runs;
      }
      EXPECT_EQ(source.reads().size(), runs);
    }
  }
}

TEST(ParallelIngest, PutBatchMatchesSerialPutLoop) {
  const Bytes content = MixedContent(/*blocks=*/64, /*seed=*/7);
  // Drop the hole blocks (Put never sees all-zero payloads) but keep the
  // duplicates, random and text blocks.
  std::vector<util::ByteSpan> blocks;
  for (std::size_t b = 0; b < 64; ++b) {
    util::ByteSpan block(content.data() + b * kBlockSize, kBlockSize);
    if (!util::IsAllZero(block)) blocks.push_back(block);
  }
  ASSERT_GT(blocks.size(), 16u);

  store::BlockStoreConfig config{.codec = compress::CodecId::kGzip6,
                                 .dedup = true,
                                 .fast_hash = false,
                                 .ingest = {.threads = 8, .batch_blocks = 32}};
  store::BlockStore batched(config);
  config.ingest = {};  // serial reference
  store::BlockStore serial(config);

  const std::vector<store::PutResult> got = batched.PutBatch(blocks);
  ASSERT_EQ(got.size(), blocks.size());
  std::vector<store::PutResult> want;
  for (const util::ByteSpan block : blocks) want.push_back(serial.Put(block));
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(got[i].digest, want[i].digest) << "block " << i;
    EXPECT_EQ(got[i].deduplicated, want[i].deduplicated) << "block " << i;
    EXPECT_EQ(got[i].logical_size, want[i].logical_size) << "block " << i;
    EXPECT_EQ(got[i].physical_size, want[i].physical_size) << "block " << i;
    EXPECT_EQ(batched.DiskOffset(got[i].digest),
              serial.DiskOffset(want[i].digest))
        << "block " << i;
    EXPECT_EQ(batched.RefCount(got[i].digest),
              serial.RefCount(want[i].digest));
  }
  ExpectSameStoreStats(batched.stats(), serial.stats());
}

TEST(ParallelIngest, PutBatchDedupDisabledMintsDigestsInOrder) {
  store::BlockStoreConfig config{.codec = compress::CodecId::kNull,
                                 .dedup = false,
                                 .ingest = {.threads = 4, .batch_blocks = 16}};
  store::BlockStore batched(config);
  config.ingest = {};
  store::BlockStore serial(config);

  Bytes block(kBlockSize);
  util::Rng(11).Fill(block);
  const std::vector<util::ByteSpan> blocks(3, util::ByteSpan(block));
  const std::vector<store::PutResult> got = batched.PutBatch(blocks);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const store::PutResult want = serial.Put(blocks[i]);
    EXPECT_EQ(got[i].digest, want.digest) << "synthetic digest order, block " << i;
    EXPECT_FALSE(got[i].deduplicated);
  }
  ExpectSameStoreStats(batched.stats(), serial.stats());
}

TEST(ParallelIngest, WriteRangeMatchesSerial) {
  for (const std::uint64_t seed : {21u, 22u}) {
    const Bytes base = MixedContent(/*blocks=*/40, seed);
    Volume serial(Config(/*threads=*/1, /*batch_blocks=*/128));
    Volume parallel(Config(/*threads=*/8, /*batch_blocks=*/5));
    serial.WriteFile("f", BufferSource(base));
    parallel.WriteFile("f", BufferSource(base));

    // Random overlapping rewrites: unaligned offsets, zero runs (punching
    // holes), growth past the end.
    util::Rng rng(seed * 977);
    for (int round = 0; round < 12; ++round) {
      const std::uint64_t offset = rng.Below(static_cast<std::uint32_t>(base.size()));
      Bytes patch(1 + rng.Below(6 * kBlockSize));
      if (round % 3 == 0) {
        // zeros — may turn whole blocks into holes
      } else {
        rng.Fill(patch);
      }
      serial.WriteRange("f", offset, patch);
      parallel.WriteRange("f", offset, patch);
    }

    SCOPED_TRACE("seed " + std::to_string(seed));
    ASSERT_EQ(serial.FileSize("f"), parallel.FileSize("f"));
    EXPECT_EQ(parallel.ReadRange("f", 0, parallel.FileSize("f")),
              serial.ReadRange("f", 0, serial.FileSize("f")));
    ASSERT_EQ(parallel.FileBlockCount("f"), serial.FileBlockCount("f"));
    for (std::uint64_t b = 0; b < serial.FileBlockCount("f"); ++b) {
      EXPECT_EQ(parallel.FileBlock("f", b), serial.FileBlock("f", b))
          << "block " << b;
    }
    ExpectSameStats(parallel.Stats(), serial.Stats());
    ExpectSameStoreStats(parallel.block_store().stats(),
                         serial.block_store().stats());
    const Volume::ScrubReport scrub = parallel.Scrub();
    EXPECT_EQ(scrub.errors, 0u);
    EXPECT_EQ(scrub.dangling_refs, 0u);
  }
}

TEST(ParallelIngest, ZeroThreadsPicksHardwareConcurrency) {
  // threads = 0 must still be deterministic (it only changes worker count).
  const Bytes content = MixedContent(/*blocks=*/33, /*seed=*/5);
  Volume serial(Config(/*threads=*/1, /*batch_blocks=*/64));
  Volume automatic(Config(/*threads=*/0, /*batch_blocks=*/64));
  serial.WriteFile("f", BufferSource(content));
  automatic.WriteFile("f", BufferSource(content));
  ExpectSameBlocks(automatic, serial, "f");
  ExpectSameStats(automatic.Stats(), serial.Stats());
}

}  // namespace
}  // namespace squirrel::zvol
