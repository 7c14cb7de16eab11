#include "vmi/bootset.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace squirrel::vmi {
namespace {

using util::Bytes;

CatalogConfig TestConfig(std::uint32_t images = 32) {
  CatalogConfig config;
  config.image_count = images;
  config.size_scale = 1.0 / 512.0;
  return config;
}

TEST(BootWorkingSet, RangesSortedDisjointWithinImage) {
  const Catalog catalog = Catalog::AzureCommunity(TestConfig());
  for (int i = 0; i < 4; ++i) {
    const VmImage image(catalog, catalog.images()[i]);
    const BootWorkingSet boot(catalog, image);
    const auto& ranges = boot.ranges();
    ASSERT_FALSE(ranges.empty());
    std::uint64_t total = 0;
    for (std::size_t r = 0; r < ranges.size(); ++r) {
      EXPECT_GT(ranges[r].length, 0u);
      EXPECT_LE(ranges[r].end(), image.size());
      if (r > 0) {
        EXPECT_GT(ranges[r].offset, ranges[r - 1].end());
      }
      total += ranges[r].length;
    }
    EXPECT_EQ(boot.byte_count(), total);
  }
}

TEST(BootWorkingSet, SizeNearConfiguredTarget) {
  const Catalog catalog = Catalog::AzureCommunity(TestConfig());
  const std::uint64_t target = catalog.config().ScaledCache();
  for (int i = 0; i < 8; ++i) {
    const VmImage image(catalog, catalog.images()[i]);
    const BootWorkingSet boot(catalog, image);
    EXPECT_GT(boot.byte_count(), target / 2) << i;
    EXPECT_LT(boot.byte_count(), target * 2) << i;
  }
}

TEST(BootWorkingSet, StartsWithKernelPrefix) {
  const Catalog catalog = Catalog::AzureCommunity(TestConfig());
  const VmImage image(catalog, catalog.images()[0]);
  const BootWorkingSet boot(catalog, image);
  EXPECT_EQ(boot.ranges().front().offset, 0u);
  EXPECT_TRUE(boot.Contains(0));
  EXPECT_TRUE(boot.Contains(boot.ranges().front().length - 1));
}

TEST(BootWorkingSet, ContainsMatchesRanges) {
  const Catalog catalog = Catalog::AzureCommunity(TestConfig());
  const VmImage image(catalog, catalog.images()[1]);
  const BootWorkingSet boot(catalog, image);
  for (const Range& range : boot.ranges()) {
    EXPECT_TRUE(boot.Contains(range.offset));
    EXPECT_TRUE(boot.Contains(range.end() - 1));
    EXPECT_FALSE(boot.Contains(range.end()));
  }
  EXPECT_FALSE(boot.Contains(image.size() - 1));
}

TEST(BootWorkingSet, TraceCoversExactlyTheRanges) {
  const Catalog catalog = Catalog::AzureCommunity(TestConfig());
  const VmImage image(catalog, catalog.images()[2]);
  const BootWorkingSet boot(catalog, image);
  const auto trace = boot.Trace(1);
  std::uint64_t traced = 0;
  for (const BootRead& read : trace) {
    EXPECT_TRUE(boot.Contains(read.offset)) << read.offset;
    EXPECT_TRUE(boot.Contains(read.offset + read.length - 1));
    traced += read.length;
  }
  EXPECT_EQ(traced, boot.byte_count());  // each byte read exactly once
}

TEST(BootWorkingSet, TraceDeterministicPerSeed) {
  const Catalog catalog = Catalog::AzureCommunity(TestConfig());
  const VmImage image(catalog, catalog.images()[0]);
  const BootWorkingSet boot(catalog, image);
  const auto t1 = boot.Trace(5);
  const auto t2 = boot.Trace(5);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].offset, t2[i].offset);
    EXPECT_EQ(t1[i].length, t2[i].length);
  }
}

TEST(BootWorkingSet, SameReleaseSharesMostRanges) {
  const Catalog catalog = Catalog::AzureCommunity(TestConfig(64));
  const auto& images = catalog.images();
  for (std::size_t i = 0; i < images.size(); ++i) {
    for (std::size_t j = i + 1; j < images.size(); ++j) {
      if (images[i].release_index != images[j].release_index) continue;
      const VmImage ia(catalog, images[i]), ib(catalog, images[j]);
      const BootWorkingSet ba(catalog, ia), bb(catalog, ib);
      // Measure byte overlap of the two range sets.
      std::uint64_t overlap = 0;
      for (const Range& ra : ba.ranges()) {
        for (const Range& rb : bb.ranges()) {
          const std::uint64_t lo = std::max(ra.offset, rb.offset);
          const std::uint64_t hi = std::min(ra.end(), rb.end());
          if (lo < hi) overlap += hi - lo;
        }
      }
      const double frac =
          static_cast<double>(overlap) / static_cast<double>(ba.byte_count());
      EXPECT_GT(frac, 0.6) << "boot sets of one release should mostly agree";
      return;
    }
  }
  GTEST_SKIP() << "no release pair";
}

TEST(CacheImage, ContentMatchesImageInsideRanges) {
  const Catalog catalog = Catalog::AzureCommunity(TestConfig());
  const VmImage image(catalog, catalog.images()[3]);
  const BootWorkingSet boot(catalog, image);
  const CacheImage cache(image, boot);
  EXPECT_EQ(cache.size(), image.size());

  const Range& range = boot.ranges().front();
  Bytes from_cache(range.length), from_image(range.length);
  cache.Read(range.offset, from_cache);
  image.Read(range.offset, from_image);
  EXPECT_EQ(from_cache, from_image);
}

TEST(CacheImage, ZeroOutsideRanges) {
  const Catalog catalog = Catalog::AzureCommunity(TestConfig());
  const VmImage image(catalog, catalog.images()[3]);
  const BootWorkingSet boot(catalog, image);
  const CacheImage cache(image, boot);
  // Probe the gap between the first two ranges.
  ASSERT_GE(boot.ranges().size(), 2u);
  const std::uint64_t gap_start = boot.ranges()[0].end();
  const std::uint64_t gap_len =
      std::min<std::uint64_t>(boot.ranges()[1].offset - gap_start, 8192);
  ASSERT_GT(gap_len, 0u);
  Bytes gap(gap_len);
  cache.Read(gap_start, gap);
  EXPECT_TRUE(util::IsAllZero(gap));
}

TEST(CacheImage, StraddlingReadMixesContentAndZeros) {
  const Catalog catalog = Catalog::AzureCommunity(TestConfig());
  const VmImage image(catalog, catalog.images()[0]);
  const BootWorkingSet boot(catalog, image);
  const CacheImage cache(image, boot);
  const Range& first = boot.ranges().front();
  // Read across the end of the first range into the gap.
  const std::size_t len = 4096;
  Bytes out(len);
  cache.Read(first.end() - len / 2, out);
  Bytes expected_head(len / 2);
  image.Read(first.end() - len / 2, expected_head);
  EXPECT_TRUE(std::equal(expected_head.begin(), expected_head.end(), out.begin()));
  EXPECT_TRUE(util::IsAllZero(util::ByteSpan(out.data() + len / 2, len / 2)));
}

// RangeHasData property over one source: every 64 KiB block it reports as a
// hole, and every reported-hole probe just outside an edge of `data` (the
// ranges the source must report as data), reads as zeros; every range of
// `data` reports data, down to its first and last byte. Returns the number
// of 64 KiB blocks reported as holes.
std::uint64_t ExpectSoundHoleReports(const util::DataSource& source,
                                     const std::vector<Range>& data) {
  constexpr std::uint64_t kBlock = 64 * util::kKiB;
  Bytes buffer(kBlock);
  const auto expect_zero_if_hole = [&](std::uint64_t offset,
                                       std::uint64_t length) {
    if (length == 0 || source.RangeHasData(offset, length)) return;
    const util::MutableByteSpan out(buffer.data(), length);
    source.Read(offset, out);
    EXPECT_TRUE(util::IsAllZero(out))
        << "hole reported at " << offset << "+" << length;
  };
  std::uint64_t holes = 0;
  for (std::uint64_t offset = 0; offset < source.size(); offset += kBlock) {
    const std::uint64_t length = std::min(kBlock, source.size() - offset);
    if (!source.RangeHasData(offset, length)) ++holes;
    expect_zero_if_hole(offset, length);
  }
  for (const Range& r : data) {
    EXPECT_TRUE(source.RangeHasData(r.offset, r.length)) << r.offset;
    EXPECT_TRUE(source.RangeHasData(r.offset, 1)) << r.offset;
    EXPECT_TRUE(source.RangeHasData(r.end() - 1, 1)) << r.end();
    for (const std::uint64_t k : {std::uint64_t{1}, 4 * util::kKiB, kBlock}) {
      const std::uint64_t before = std::min(k, r.offset);
      EXPECT_TRUE(source.RangeHasData(r.offset - before, before + 1))
          << r.offset;
      expect_zero_if_hole(r.offset - before, before);
      expect_zero_if_hole(r.end(), std::min(k, source.size() - r.end()));
    }
  }
  return holes;
}

TEST(VmImage, ReportedHolesReadZeroDenseAndScattered) {
  for (const bool dense : {true, false}) {
    SCOPED_TRACE(dense ? "dense" : "scattered");
    CatalogConfig config = TestConfig(8);
    config.dense_layout = dense;
    const Catalog catalog = Catalog::AzureCommunity(config);
    for (int i = 0; i < 3; ++i) {
      const VmImage image(catalog, catalog.images()[i]);
      std::vector<Range> extents;
      for (const Extent& e : image.extents()) {
        extents.push_back(Range{e.logical_offset, e.length});
      }
      EXPECT_GT(ExpectSoundHoleReports(image, extents), 0u) << i;
    }
  }
}

TEST(CacheImage, ReportedHolesReadZeroDenseAndScattered) {
  for (const bool dense : {true, false}) {
    SCOPED_TRACE(dense ? "dense" : "scattered");
    CatalogConfig config = TestConfig(8);
    config.dense_layout = dense;
    const Catalog catalog = Catalog::AzureCommunity(config);
    for (int i = 0; i < 3; ++i) {
      const VmImage image(catalog, catalog.images()[i]);
      const BootWorkingSet boot(catalog, image);
      const CacheImage cache(image, boot);
      // The cache holds data exactly where a boot range meets an extent.
      std::vector<Range> data;
      for (const Range& r : boot.ranges()) {
        for (const Extent& e : image.extents()) {
          const std::uint64_t lo = std::max(r.offset, e.logical_offset);
          const std::uint64_t hi =
              std::min(r.end(), e.logical_offset + e.length);
          if (lo < hi) data.push_back(Range{lo, hi - lo});
        }
      }
      EXPECT_GT(ExpectSoundHoleReports(cache, data), 0u) << i;
      // Every boot range holds some of the image's data.
      for (const Range& r : boot.ranges()) {
        EXPECT_TRUE(cache.RangeHasData(r.offset, r.length)) << r.offset;
      }
    }
  }
}

}  // namespace
}  // namespace squirrel::vmi
