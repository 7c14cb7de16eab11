// Twin-read helpers for the window-read suites (cow/device.h): one device
// reads each request whole, its twin reads it windowed between guard
// bytes, and the caller compares every simulated number the two produce.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cow/device.h"
#include "sim/io_context.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace squirrel::test {

inline constexpr std::uint64_t kCluster = 64 * 1024;

inline std::string HexClock(const sim::IoContext& io) {
  char text[64];
  std::snprintf(text, sizeof text, "%a", io.elapsed_ns());
  return text;
}

/// One read: the request [offset, offset + length) and the window
/// [offset + skip, offset + skip + size) the windowed twin asks for.
struct WindowCase {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint64_t skip = 0;
  std::uint64_t size = 0;
};

inline std::string Describe(const WindowCase& c) {
  return "request " + std::to_string(c.offset) + "+" +
         std::to_string(c.length) + " window " + std::to_string(c.skip) +
         "+" + std::to_string(c.size);
}

/// The whole content with a window in its middle, the reads a chain issues
/// (one whole cluster, the tail cluster short, with the guest's part as the
/// window, empty and whole windows included), then arbitrary requests up to
/// three clusters long. The list runs twice, so the second pass meets the
/// caches the first one filled.
inline std::vector<WindowCase> Cases(std::uint64_t size, std::uint64_t seed) {
  util::Rng rng(seed);
  const std::uint64_t clusters = (size + kCluster - 1) / kCluster;
  std::vector<WindowCase> cases;
  const auto cluster_case = [&](std::uint64_t c, std::uint64_t skip,
                                std::uint64_t window) {
    const std::uint64_t start = c * kCluster;
    const std::uint64_t length = std::min(kCluster, size - start);
    skip = std::min(skip, length);
    cases.push_back({start, length, skip, std::min(window, length - skip)});
  };
  cases.push_back({0, size, size / 3, size / 3});
  cluster_case(0, 0, kCluster);            // the whole cluster
  cluster_case(0, 100, 0);                 // an empty window
  cluster_case(clusters - 1, 10, kCluster);  // the short tail cluster
  cluster_case(clusters - 1, 0, 0);
  for (int i = 0; i < 24; ++i) {
    const std::uint64_t c = rng.Below(static_cast<std::uint32_t>(clusters));
    cluster_case(c, rng.Below(kCluster), 1 + rng.Below(kCluster));
  }
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t offset = rng.Below(static_cast<std::uint32_t>(size));
    const std::uint64_t length = std::min<std::uint64_t>(
        1 + rng.Below(3 * kCluster), size - offset);
    const std::uint64_t skip = rng.Below(static_cast<std::uint32_t>(length));
    cases.push_back({offset, length, skip,
                     rng.Below(static_cast<std::uint32_t>(length - skip + 1))});
  }
  const std::size_t once = cases.size();
  for (std::size_t i = 0; i < once; ++i) cases.push_back(cases[i]);
  return cases;
}

/// Reads `c` whole on `whole` and windowed on `windowed`, between guard
/// bytes, and checks the window against the whole read and `content`.
inline void ReadBoth(cow::Device& whole, cow::Device& windowed,
                     const WindowCase& c, const util::Bytes& content) {
  constexpr std::size_t kGuard = 32;
  constexpr util::Byte kPattern = 0xa5;
  util::Bytes all(c.length, 0x5a);
  whole.ReadAt(c.offset, all);
  util::Bytes guarded(c.size + 2 * kGuard, kPattern);
  windowed.ReadWindow(c.offset, c.length, c.skip,
                      util::MutableByteSpan(guarded.data() + kGuard, c.size));
  const auto window = guarded.begin() + kGuard;
  const auto skip = static_cast<std::ptrdiff_t>(c.skip);
  const auto size = static_cast<std::ptrdiff_t>(c.size);
  EXPECT_TRUE(std::equal(window, window + size, all.begin() + skip));
  EXPECT_TRUE(std::equal(
      all.begin(), all.end(),
      content.begin() + static_cast<std::ptrdiff_t>(c.offset)));
  EXPECT_TRUE(std::all_of(guarded.begin(), window,
                          [](util::Byte b) { return b == kPattern; }));
  EXPECT_TRUE(std::all_of(window + size, guarded.end(),
                          [](util::Byte b) { return b == kPattern; }));
}

}  // namespace squirrel::test
