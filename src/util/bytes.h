// Byte-size units and helpers shared across the Squirrel code base.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace squirrel::util {

using Byte = std::uint8_t;
using Bytes = std::vector<Byte>;
using ByteSpan = std::span<const Byte>;
using MutableByteSpan = std::span<Byte>;
/// An immutable, reference-counted buffer: one decompressed block shared by
/// the store's ARC, the batch read that produced it and any reader that
/// keeps it, with no copy between them (DESIGN.md §24).
using SharedBytes = std::shared_ptr<const Bytes>;

inline constexpr std::uint64_t kKiB = 1024;
inline constexpr std::uint64_t kMiB = 1024 * kKiB;
inline constexpr std::uint64_t kGiB = 1024 * kMiB;
inline constexpr std::uint64_t kTiB = 1024 * kGiB;

/// Integer ceiling division; the denominator must be nonzero.
constexpr std::uint64_t CeilDiv(std::uint64_t num, std::uint64_t den) {
  return (num + den - 1) / den;
}

/// Rounds `value` up to the next multiple of `align` (align must be nonzero).
constexpr std::uint64_t AlignUp(std::uint64_t value, std::uint64_t align) {
  return CeilDiv(value, align) * align;
}

/// Rounds `value` down to a multiple of `align` (align must be nonzero).
constexpr std::uint64_t AlignDown(std::uint64_t value, std::uint64_t align) {
  return (value / align) * align;
}

/// True if every byte in `data` is zero. Used for sparse-block elision.
/// Word-at-a-time: this runs over every scanned byte of every dataset pass.
inline bool IsAllZero(ByteSpan data) {
  std::size_t i = 0;
  while (i + 8 <= data.size()) {
    std::uint64_t word;
    __builtin_memcpy(&word, data.data() + i, 8);
    if (word != 0) return false;
    i += 8;
  }
  for (; i < data.size(); ++i) {
    if (data[i] != 0) return false;
  }
  return true;
}

/// Human-readable byte size, e.g. "16.4 TiB", "78.5 GiB", "512 B".
std::string FormatBytes(double bytes);

/// Parses a small set of unit suffixes used in test fixtures: "64K", "1M",
/// "2G" (binary units). Returns 0 on malformed input.
std::uint64_t ParseBytes(const std::string& text);

}  // namespace squirrel::util
