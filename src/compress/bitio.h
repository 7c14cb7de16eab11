// LSB-first bit stream reader/writer used by the Deflate-style codec.
//
// Both sides move whole words: the writer flushes 32 bits at a time and the
// reader refills a 64-bit buffer from an 8-byte load, falling back to single
// bytes only within the last 8 bytes of its input (DESIGN.md §18). The
// deflate decoder's fast loop runs the same word refill on a copy of the
// reader's state held in locals (BitReader::Save and Restore).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "util/bytes.h"

namespace squirrel::compress {

/// Little-endian load of 8 bytes from `p`, on any host byte order.
inline std::uint64_t LoadLE64(const util::Byte* p) {
  std::uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(v));
  } else {
    for (unsigned i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

/// The word refill: ORs the 8 bytes at `in` over `acc` above its `filled`
/// valid bits, sets `filled` to the at least 56 bits now valid and returns
/// the whole bytes taken (at most 7). Bits of `acc` above `filled` must be
/// zero or the stream's own next bits, so the overlapping OR is exact, and
/// the bits it leaves above the new `filled` are the stream's next bits.
/// Requires filled < 64 and 8 readable bytes at `in`.
inline std::size_t RefillWord(const util::Byte* in, std::uint64_t& acc,
                              unsigned& filled) {
  acc |= LoadLE64(in) << filled;
  const std::size_t taken = (63 - filled) >> 3;
  filled |= 56;
  return taken;
}

class BitWriter {
 public:
  /// Appends the low `count` bits of `bits` (count <= 32), LSB first.
  void Write(std::uint32_t bits, unsigned count) {
    const std::uint64_t mask = (std::uint64_t{1} << count) - 1;
    acc_ |= (bits & mask) << filled_;
    filled_ += count;
    if (filled_ >= 32) {
      const util::Byte word[4] = {
          static_cast<util::Byte>(acc_), static_cast<util::Byte>(acc_ >> 8),
          static_cast<util::Byte>(acc_ >> 16), static_cast<util::Byte>(acc_ >> 24)};
      out_.insert(out_.end(), word, word + 4);
      acc_ >>= 32;
      filled_ -= 32;
    }
  }

  /// Reserves room for `bytes` bytes of output in total. A writer that
  /// reserves its final size returns a buffer with no spare capacity.
  void Reserve(std::size_t bytes) { out_.reserve(bytes); }

  /// Flushes any partial byte (zero padded) and returns the buffer.
  util::Bytes Finish() {
    for (unsigned bit = 0; bit < filled_; bit += 8) {
      out_.push_back(static_cast<util::Byte>(acc_ >> bit));
    }
    acc_ = 0;
    filled_ = 0;
    return std::move(out_);
  }

 private:
  util::Bytes out_;
  std::uint64_t acc_ = 0;  // pending bits; the low `filled_` are valid
  unsigned filled_ = 0;    // always < 32 between calls
};

class BitReader {
 public:
  explicit BitReader(util::ByteSpan data) : data_(data) {}

  /// Tops the buffer up to at least 56 bits, or to every remaining bit when
  /// fewer remain.
  void Refill() {
    if (pos_ + 8 <= data_.size()) {
      pos_ += RefillWord(data_.data() + pos_, acc_, filled_);
      return;
    }
    while (filled_ <= 56 && pos_ < data_.size()) {
      acc_ |= static_cast<std::uint64_t>(data_[pos_++]) << filled_;
      filled_ += 8;
    }
  }

  /// Bits buffered after the last Refill.
  unsigned available() const { return filled_; }

  /// The next `count` buffered bits (count <= 32), without consuming them;
  /// bits past the end of the stream read as zero.
  std::uint32_t Peek(unsigned count) const {
    return static_cast<std::uint32_t>(acc_ & ((std::uint64_t{1} << count) - 1));
  }

  /// Drops `count` bits; requires count <= available().
  void Consume(unsigned count) {
    acc_ >>= count;
    filled_ -= count;
  }

  /// The whole reader state, for a decode loop that keeps the bit buffer in
  /// locals while it has input to spare and then hands it back: `pos` is
  /// the next input byte not yet buffered, and `acc` and `filled` are the
  /// buffer as Refill and Consume leave it.
  struct State {
    std::size_t pos;
    std::uint64_t acc;
    unsigned filled;
  };
  State Save() const { return {pos_, acc_, filled_}; }
  void Restore(const State& state) {
    pos_ = state.pos;
    acc_ = state.acc;
    filled_ = state.filled;
  }

  /// Reads `count` bits (count <= 32), LSB first. Throws on underflow.
  std::uint32_t Read(unsigned count) {
    if (filled_ < count) {
      Refill();
      if (filled_ < count) throw std::runtime_error("bit stream underflow");
    }
    const std::uint32_t value = Peek(count);
    Consume(count);
    return value;
  }

 private:
  util::ByteSpan data_;
  std::size_t pos_ = 0;
  std::uint64_t acc_ = 0;  // buffered bits; the low `filled_` are valid
  unsigned filled_ = 0;
};

}  // namespace squirrel::compress
