#include "store/dedup_analysis.h"

#include <gtest/gtest.h>

#include "buffer_source.h"
#include "compress/codec.h"
#include "util/rng.h"

namespace squirrel::store {
namespace {

using util::Bytes;

/// In-memory DataSource over a fixed buffer.
using test::BufferSource;

Bytes RandomBytes(std::size_t size, std::uint64_t seed) {
  Bytes data(size);
  util::Rng(seed).Fill(data);
  return data;
}

TEST(DedupAnalyzer, IdenticalFilesCrossSimilarityOne) {
  const Bytes content = RandomBytes(64 * 1024, 1);
  DedupAnalyzer analyzer({.block_size = 4096, .codec = nullptr});
  for (int i = 0; i < 3; ++i) {
    BufferSource file(content);
    analyzer.AddFile(file);
  }
  const AnalysisResult result = analyzer.Finish();
  EXPECT_DOUBLE_EQ(result.cross_similarity(), 1.0);
  EXPECT_EQ(result.unique_blocks, 16u);
  EXPECT_EQ(result.nonzero_blocks, 48u);
  EXPECT_DOUBLE_EQ(result.dedup_ratio(), 3.0);
}

TEST(DedupAnalyzer, DisjointFilesCrossSimilarityZero) {
  DedupAnalyzer analyzer({.block_size = 4096, .codec = nullptr});
  for (int i = 0; i < 3; ++i) {
    BufferSource file(RandomBytes(64 * 1024, 100 + i));
    analyzer.AddFile(file);
  }
  const AnalysisResult result = analyzer.Finish();
  EXPECT_DOUBLE_EQ(result.cross_similarity(), 0.0);
  EXPECT_DOUBLE_EQ(result.dedup_ratio(), 1.0);
}

TEST(DedupAnalyzer, ZeroBlocksAreNotCounted) {
  Bytes content(16 * 4096, 0);
  // Two nonzero blocks among 16.
  content[0] = 1;
  content[5 * 4096] = 2;
  DedupAnalyzer analyzer({.block_size = 4096, .codec = nullptr});
  BufferSource file(content);
  analyzer.AddFile(file);
  const AnalysisResult result = analyzer.Finish();
  EXPECT_EQ(result.nonzero_blocks, 2u);
  EXPECT_EQ(result.zero_blocks, 14u);
  EXPECT_EQ(result.unique_blocks, 2u);
}

TEST(DedupAnalyzer, WithinFileDuplicationCountsForDedupNotSimilarity) {
  // One file consisting of the same block repeated: dedup ratio high,
  // cross-similarity zero (repetition only counts across files).
  Bytes block = RandomBytes(4096, 7);
  Bytes content;
  for (int i = 0; i < 8; ++i) content.insert(content.end(), block.begin(), block.end());
  DedupAnalyzer analyzer({.block_size = 4096, .codec = nullptr});
  BufferSource file(content);
  analyzer.AddFile(file);
  const AnalysisResult result = analyzer.Finish();
  EXPECT_DOUBLE_EQ(result.dedup_ratio(), 8.0);
  EXPECT_DOUBLE_EQ(result.cross_similarity(), 0.0);
}

TEST(DedupAnalyzer, PartialOverlapSimilarityMatchesFormula) {
  // Two files, each 4 blocks, sharing exactly 2 blocks.
  const Bytes shared1 = RandomBytes(4096, 11);
  const Bytes shared2 = RandomBytes(4096, 12);
  auto make_file = [&](std::uint64_t unique_seed) {
    Bytes content;
    content.insert(content.end(), shared1.begin(), shared1.end());
    content.insert(content.end(), shared2.begin(), shared2.end());
    const Bytes unique1 = RandomBytes(4096, unique_seed);
    const Bytes unique2 = RandomBytes(4096, unique_seed + 1);
    content.insert(content.end(), unique1.begin(), unique1.end());
    content.insert(content.end(), unique2.begin(), unique2.end());
    return content;
  };
  DedupAnalyzer analyzer({.block_size = 4096, .codec = nullptr});
  BufferSource a(make_file(1000)), b(make_file(2000));
  analyzer.AddFile(a);
  analyzer.AddFile(b);
  const AnalysisResult result = analyzer.Finish();
  // repetition: 2 shared blocks x 2 files = 4; denominator: 4 + 4 = 8.
  EXPECT_DOUBLE_EQ(result.cross_similarity(), 0.5);
  // |N| = 8 nonzero, |U| = 6 unique.
  EXPECT_DOUBLE_EQ(result.dedup_ratio(), 8.0 / 6.0);
}

TEST(DedupAnalyzer, CompressionRatioOnKnownContent) {
  // Constant bytes compress extremely well; ratio must be >> 1.
  Bytes content(32 * 4096, 'x');
  DedupAnalyzer analyzer(
      {.block_size = 4096, .codec = compress::FindCodec("gzip6")});
  BufferSource file(content);
  analyzer.AddFile(file);
  const AnalysisResult result = analyzer.Finish();
  EXPECT_GT(result.compression_ratio(), 10.0);
  EXPECT_GT(result.probed_blocks, 0u);
  EXPECT_NEAR(result.ccr(),
              result.dedup_ratio() * result.compression_ratio(), 1e-9);
}

TEST(DedupAnalyzer, IncompressibleContentRatioNearOne) {
  DedupAnalyzer analyzer(
      {.block_size = 4096, .codec = compress::FindCodec("gzip6")});
  BufferSource file(RandomBytes(64 * 4096, 31));
  analyzer.AddFile(file);
  const AnalysisResult result = analyzer.Finish();
  EXPECT_GT(result.compression_ratio(), 0.9);
  EXPECT_LT(result.compression_ratio(), 1.1);
}

TEST(DedupAnalyzer, SamplingCapKeepsEstimateStable) {
  // Same dataset analyzed with a tiny probe budget and with no cap: the
  // sampled compression ratio must stay close to the exhaustive one.
  Bytes content;
  util::Rng rng(17);
  for (int b = 0; b < 256; ++b) {
    Bytes block(4096);
    if (b % 2 == 0) {
      rng.Fill(block);  // incompressible half
    } else {
      std::fill(block.begin(), block.end(), static_cast<util::Byte>(b));
    }
    content.insert(content.end(), block.begin(), block.end());
  }
  AnalysisConfig capped{.block_size = 4096,
                        .codec = compress::FindCodec("gzip6"),
                        .probe_sample_bytes = 256 * 1024};
  AnalysisConfig full{.block_size = 4096,
                      .codec = compress::FindCodec("gzip6"),
                      .probe_sample_bytes = 0};
  DedupAnalyzer a(capped), b(full);
  BufferSource f1(content), f2(content);
  a.AddFile(f1);
  b.AddFile(f2);
  const double sampled = a.Finish().compression_ratio();
  const double exact = b.Finish().compression_ratio();
  EXPECT_NEAR(sampled, exact, exact * 0.25);
}

TEST(DedupAnalyzer, TailBlockSmallerThanBlockSize) {
  // File size not a multiple of the block size: the tail is analyzed as a
  // short block without crashing.
  Bytes content = RandomBytes(4096 * 3 + 100, 23);
  DedupAnalyzer analyzer({.block_size = 4096, .codec = nullptr});
  BufferSource file(content);
  analyzer.AddFile(file);
  const AnalysisResult result = analyzer.Finish();
  EXPECT_EQ(result.nonzero_blocks, 4u);
  EXPECT_EQ(result.logical_bytes, content.size());
}

}  // namespace
}  // namespace squirrel::store
