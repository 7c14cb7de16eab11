// The little-endian wire codec shared by every binary format the program
// writes: send streams, volume images and boot profiles (DESIGN.md §23).
//
// Integers are little-endian; strings and blobs carry a u32 length prefix;
// every format ends with a SHA-256 trailer over the bytes before it. Each
// format keeps its own error type: a Reader throws the caller's type with the
// caller's message, so a truncated send stream still surfaces as a
// zvol::StreamCorruptError and a truncated profile as a
// vmi::ProfileCorruptError. A change here moves every format's bytes at
// once, so WireFormat.GoldenBytes pins all three.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/bytes.h"
#include "util/hash.h"

namespace squirrel::util::wire {

inline constexpr std::size_t kTrailerBytes = 32;

class Writer {
 public:
  void U8(std::uint8_t v) { out_.push_back(v); }
  void U32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<Byte>(v >> (8 * i)));
  }
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<Byte>(v >> (8 * i)));
  }
  void Str(std::string_view s) {
    U32(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }
  void Blob(ByteSpan b) {
    U32(static_cast<std::uint32_t>(b.size()));
    out_.insert(out_.end(), b.begin(), b.end());
  }

  /// Bytes written so far; with Tail, lets a format checksum one record.
  std::size_t size() const { return out_.size(); }
  ByteSpan Tail(std::size_t from) const {
    return ByteSpan(out_.data() + from, out_.size() - from);
  }

  /// The bytes written, followed by their SHA-256 trailer.
  Bytes TakeWithTrailer() {
    const auto trailer = Sha256(out_);
    out_.insert(out_.end(), trailer.begin(), trailer.end());
    return std::move(out_);
  }

 private:
  Bytes out_;
};

/// Checks the SHA-256 trailer of `wire` and returns the body before it.
/// Throws Error(too_short) when `wire` cannot hold a trailer and
/// Error(mismatch) when the trailer is not the body's digest.
template <typename Error>
ByteSpan VerifyTrailer(ByteSpan wire, const char* too_short,
                       const char* mismatch) {
  if (wire.size() < kTrailerBytes) throw Error(too_short);
  const ByteSpan body = wire.first(wire.size() - kTrailerBytes);
  const auto digest = Sha256(body);
  if (std::memcmp(digest.data(), wire.data() + body.size(), kTrailerBytes) !=
      0) {
    throw Error(mismatch);
  }
  return body;
}

/// Reads what a Writer wrote; a read past the end throws Error(truncated).
template <typename Error>
class Reader {
 public:
  Reader(ByteSpan data, const char* truncated)
      : data_(data), truncated_(truncated) {}

  std::uint8_t U8() { return Raw(1)[0]; }
  std::uint32_t U32() {
    const Byte* p = Raw(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t(p[i]) << (8 * i);
    return v;
  }
  std::uint64_t U64() {
    const Byte* p = Raw(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t(p[i]) << (8 * i);
    return v;
  }
  std::string Str() {
    const std::uint32_t n = U32();
    const Byte* p = Raw(n);
    return std::string(reinterpret_cast<const char*>(p), n);
  }
  Bytes Blob() {
    const std::uint32_t n = U32();
    const Byte* p = Raw(n);
    return Bytes(p, p + n);
  }

  /// Read position and an already-read range; with them a format checks a
  /// record's checksum over the record's own bytes.
  std::size_t pos() const { return pos_; }
  ByteSpan Span(std::size_t from, std::size_t length) const {
    return data_.subspan(from, length);
  }

 private:
  const Byte* Raw(std::size_t n) {
    if (n > data_.size() - pos_) throw Error(truncated_);
    const Byte* p = data_.data() + pos_;
    pos_ += n;
    return p;
  }

  ByteSpan data_;
  const char* truncated_;
  std::size_t pos_ = 0;
};

}  // namespace squirrel::util::wire
