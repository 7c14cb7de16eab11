// Random-access read interface over a logical byte space.
//
// Synthetic VM images implement this without materializing their content:
// bytes are regenerated deterministically on every read, so a 607-image
// catalog occupies only its layout metadata in memory.
#pragma once

#include <cstdint>

#include "util/bytes.h"

namespace squirrel::util {

class DataSource {
 public:
  virtual ~DataSource() = default;

  /// Logical size in bytes (sparse regions included).
  virtual std::uint64_t size() const = 0;

  /// Fills `out` with the bytes at [offset, offset + out.size()).
  /// Reading past `size()` is a programming error.
  virtual void Read(std::uint64_t offset, MutableByteSpan out) const = 0;

  /// False only if every byte of [offset, offset + length) reads as zero,
  /// so a consumer may treat the range as a hole without reading it. True
  /// is always allowed (the default: no hole information). A source that
  /// forwards Read to another source must forward this too, or it hides
  /// the inner source's holes (DESIGN.md §22).
  virtual bool RangeHasData(std::uint64_t offset, std::uint64_t length) const {
    (void)offset;
    (void)length;
    return true;
  }
};

}  // namespace squirrel::util
