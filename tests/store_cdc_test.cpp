#include "store/cdc.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "buffer_source.h"
#include "util/hash.h"
#include "util/rng.h"

namespace squirrel::store {
namespace {

using util::Bytes;

using test::BufferSource;

Bytes RandomBytes(std::size_t size, std::uint64_t seed) {
  Bytes data(size);
  util::Rng(seed).Fill(data);
  return data;
}

CdcConfig TestConfig() {
  return {.min_size = 512, .avg_size = 2048, .max_size = 8192};
}

TEST(Cdc, ChunksCoverBufferExactly) {
  const Bytes data = RandomBytes(100000, 1);
  const auto chunks = ChunkBuffer(data, TestConfig());
  ASSERT_FALSE(chunks.empty());
  std::uint64_t expected = 0;
  for (const CdcChunk& chunk : chunks) {
    EXPECT_EQ(chunk.offset, expected);
    expected += chunk.length;
  }
  EXPECT_EQ(expected, data.size());
}

TEST(Cdc, SizeBoundsRespected) {
  const Bytes data = RandomBytes(300000, 2);
  const CdcConfig config = TestConfig();
  const auto chunks = ChunkBuffer(data, config);
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {  // tail may be short
    EXPECT_GE(chunks[i].length, config.min_size);
    EXPECT_LE(chunks[i].length, config.max_size);
  }
}

TEST(Cdc, AverageChunkSizeNearTarget) {
  const Bytes data = RandomBytes(4 << 20, 3);
  const CdcConfig config = TestConfig();
  const auto chunks = ChunkBuffer(data, config);
  const double mean =
      static_cast<double>(data.size()) / static_cast<double>(chunks.size());
  // min-size skipping pushes the effective average above avg_size.
  EXPECT_GT(mean, config.avg_size * 0.8);
  EXPECT_LT(mean, config.avg_size * 3.0);
}

TEST(Cdc, Deterministic) {
  const Bytes data = RandomBytes(50000, 4);
  const auto a = ChunkBuffer(data, TestConfig());
  const auto b = ChunkBuffer(data, TestConfig());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].offset, b[i].offset);
    EXPECT_EQ(a[i].length, b[i].length);
  }
}

TEST(Cdc, BoundariesResynchronizeAfterInsertion) {
  // The defining CDC property: inserting bytes near the start shifts data,
  // yet most chunk *contents* reappear (fixed-size chunking loses them all).
  const Bytes original = RandomBytes(1 << 20, 5);
  Bytes shifted;
  const Bytes insert = RandomBytes(37, 6);
  shifted.insert(shifted.end(), insert.begin(), insert.end());
  shifted.insert(shifted.end(), original.begin(), original.end());

  auto chunk_hashes = [&](const Bytes& data) {
    std::vector<std::uint64_t> hashes;
    for (const CdcChunk& chunk : ChunkBuffer(data, TestConfig())) {
      hashes.push_back(
          util::FastHash128(util::ByteSpan(data.data() + chunk.offset,
                                           chunk.length))
              .lo);
    }
    return hashes;
  };
  const auto ha = chunk_hashes(original);
  const auto hb = chunk_hashes(shifted);
  std::size_t shared = 0;
  const std::unordered_set<std::uint64_t> set_a(ha.begin(), ha.end());
  for (std::uint64_t h : hb) shared += set_a.contains(h);
  EXPECT_GT(static_cast<double>(shared) / static_cast<double>(hb.size()), 0.9);
}

TEST(Cdc, MaxSizeForcesBoundaryOnConstantData) {
  // Constant data never matches the boundary mask (same gear value every
  // byte); max_size must cap chunk growth.
  Bytes data(100000, 0x41);
  const CdcConfig config = TestConfig();
  const auto chunks = ChunkBuffer(data, config);
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].length, config.max_size);
  }
}

TEST(Cdc, InvalidConfigRejected) {
  const Bytes data = RandomBytes(1000, 7);
  EXPECT_THROW(ChunkBuffer(data, {.min_size = 0, .avg_size = 2048, .max_size = 8192}),
               std::invalid_argument);
  EXPECT_THROW(ChunkBuffer(data, {.min_size = 4096, .avg_size = 2048, .max_size = 8192}),
               std::invalid_argument);
  EXPECT_THROW(ChunkBuffer(data, {.min_size = 512, .avg_size = 3000, .max_size = 8192}),
               std::invalid_argument);  // not a power of two
}

TEST(Cdc, SourceChunkingMatchesBufferChunking) {
  const Bytes data = RandomBytes(10 << 20, 8);  // spans several windows
  BufferSource source(data);
  const auto via_source = ChunkSource(source, TestConfig());
  const auto via_buffer = ChunkBuffer(data, TestConfig());
  ASSERT_EQ(via_source.size(), via_buffer.size());
  for (std::size_t i = 0; i < via_source.size(); ++i) {
    EXPECT_EQ(via_source[i].offset, via_buffer[i].offset) << i;
    EXPECT_EQ(via_source[i].length, via_buffer[i].length) << i;
  }
}

TEST(CdcAnalyzer, IdenticalFilesFullySimilar) {
  const Bytes content = RandomBytes(256 * 1024, 9);
  CdcAnalyzer analyzer(TestConfig());
  BufferSource a(content), b(content);
  analyzer.AddFile(a);
  analyzer.AddFile(b);
  const auto result = analyzer.Finish();
  EXPECT_DOUBLE_EQ(result.cross_similarity(), 1.0);
  EXPECT_DOUBLE_EQ(result.dedup_ratio(), 2.0);
  EXPECT_GT(result.mean_chunk_size, 0.0);
}

TEST(CdcAnalyzer, ShiftedContentStillDeduplicates) {
  // Fixed-size chunking at 2 KiB finds no duplicates between a buffer and
  // its 37-byte-shifted copy; CDC recovers most of them.
  const Bytes original = RandomBytes(1 << 20, 10);
  Bytes shifted = RandomBytes(37, 11);
  shifted.insert(shifted.end(), original.begin(), original.end());
  CdcAnalyzer analyzer(TestConfig());
  BufferSource a(original), b(shifted);
  analyzer.AddFile(a);
  analyzer.AddFile(b);
  const auto result = analyzer.Finish();
  EXPECT_GT(result.cross_similarity(), 0.85);
  EXPECT_GT(result.dedup_ratio(), 1.8);
}

}  // namespace
}  // namespace squirrel::store
