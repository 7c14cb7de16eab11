// In-memory util::DataSource over a byte buffer, shared by the suites that
// write files into volumes, register caches and boot images.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "util/bytes.h"
#include "util/source.h"

namespace squirrel::test {

/// Serves reads from its own copy of `data`, so a temporary source passed
/// to WriteFile or Register borrows nothing from the caller.
class BufferSource final : public util::DataSource {
 public:
  explicit BufferSource(util::Bytes data) : data_(std::move(data)) {}
  std::uint64_t size() const override { return data_.size(); }
  void Read(std::uint64_t offset, util::MutableByteSpan out) const override {
    std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(offset),
                out.size(), out.begin());
  }

 private:
  util::Bytes data_;
};

}  // namespace squirrel::test
