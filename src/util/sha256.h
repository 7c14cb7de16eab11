// Minimal from-scratch SHA-256 (FIPS 180-4). Streaming interface so the
// send/receive code can checksum without buffering whole streams.
//
// Two compression functions produce identical digests: a portable one, and
// one on the x86 SHA extensions that each process picks once when its CPU
// has them (DESIGN.md §19).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "util/bytes.h"

namespace squirrel::util {

namespace sha256_internal {

/// Folds `blocks` consecutive 64-byte blocks starting at `data` into
/// `state`. `data` needs no alignment.
using CompressFn = void (*)(std::array<std::uint32_t, 8>& state,
                            const std::uint8_t* data, std::size_t blocks);

/// Plain C++; the reference, and the only path off x86.
void CompressPortable(std::array<std::uint32_t, 8>& state,
                      const std::uint8_t* data, std::size_t blocks);

/// The SHA-extensions compression function, or nullptr when this build or
/// this CPU lacks SHA, SSE4.1 or SSSE3.
CompressFn HardwareCompress();

}  // namespace sha256_internal

class Sha256Context {
 public:
  /// Hashes with the hardware path when the CPU has it, else the portable one.
  Sha256Context();
  /// Test seam: hashes with `compress` instead of the per-process choice.
  explicit Sha256Context(sha256_internal::CompressFn compress);

  void Update(ByteSpan data);
  std::array<std::uint8_t, 32> Finish();

 private:
  sha256_internal::CompressFn compress_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_{};
  std::uint64_t total_len_ = 0;
  std::size_t buffer_len_ = 0;
};

}  // namespace squirrel::util
