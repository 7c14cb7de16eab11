// Canonical Huffman coding over a generic symbol alphabet.
//
// Code lengths are limited to kMaxCodeLength; the builder repeatedly damps
// frequencies if the optimal tree exceeds that depth (the classic zlib-style
// workaround, simpler than package-merge and near-optimal in practice).
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "compress/bitio.h"

namespace squirrel::compress {

inline constexpr unsigned kMaxCodeLength = 15;

/// Builds canonical code lengths for `freqs` (0-frequency symbols get length
/// 0 and no code). If only one symbol is used it receives length 1.
std::vector<std::uint8_t> BuildCodeLengths(const std::vector<std::uint64_t>& freqs);

/// Canonical encoder: maps symbol -> (code bits, length).
class HuffmanEncoder {
 public:
  explicit HuffmanEncoder(const std::vector<std::uint8_t>& lengths);

  /// Emits the canonical code MSB first, as the decoder walks it.
  void Encode(BitWriter& writer, std::size_t symbol) const {
    assert(lengths_[symbol] > 0 && "encoding a symbol with no code");
    writer.Write(codes_[symbol], lengths_[symbol]);
  }
  std::uint8_t length(std::size_t symbol) const { return lengths_[symbol]; }

 private:
  std::vector<std::uint8_t> lengths_;
  // Canonical codes stored bit-reversed: the LSB-first writer then emits
  // the code's MSB first in a single Write.
  std::vector<std::uint32_t> codes_;
};

/// Canonical decoder built from the same code-length vector.
///
/// A root table indexed by the next kRootBits stream bits resolves every
/// code of at most kRootBits bits in one lookup; longer codes, and codes cut
/// short by the end of the stream, take the canonical walk. Both return the
/// same symbol for every length vector, including the over-subscribed and
/// incomplete ones a damaged header carries (DESIGN.md §18).
class HuffmanDecoder {
 public:
  explicit HuffmanDecoder(const std::vector<std::uint8_t>& lengths);

  /// Decodes one symbol; throws std::runtime_error on invalid codes and
  /// when the stream ends inside a code.
  std::size_t Decode(BitReader& reader) const {
    if (reader.available() < kMaxCodeLength) reader.Refill();
    const std::uint16_t entry = root_[reader.Peek(kRootBits)];
    const unsigned len = entry & kLengthMask;
    if (len != 0 && len <= reader.available()) {
      reader.Consume(len);
      return entry >> kSymbolShift;
    }
    return DecodeSlow(reader);
  }

 private:
  static constexpr unsigned kRootBits = 10;
  static constexpr unsigned kSymbolShift = 4;
  static constexpr std::uint16_t kLengthMask = (1u << kSymbolShift) - 1;

  // The canonical walk, one bit per length.
  std::size_t DecodeSlow(BitReader& reader) const;

  // first_code_[len] / count_[len] / symbol_offset_[len] give the canonical
  // decode walk.
  std::array<std::uint32_t, kMaxCodeLength + 2> first_code_{};
  std::array<std::uint32_t, kMaxCodeLength + 2> count_{};
  std::array<std::uint32_t, kMaxCodeLength + 2> symbol_offset_{};
  std::vector<std::uint32_t> sorted_symbols_;
  // (symbol << kSymbolShift) | code length; length 0 sends the lookup to
  // the walk.
  std::array<std::uint16_t, 1u << kRootBits> root_{};
};

/// Serializes code lengths compactly (4 bits per symbol, with a simple
/// zero-run escape) and reads them back. CodeLengthsBits is the number of
/// bits WriteCodeLengths writes.
void WriteCodeLengths(BitWriter& writer, const std::vector<std::uint8_t>& lengths);
std::size_t CodeLengthsBits(const std::vector<std::uint8_t>& lengths);
std::vector<std::uint8_t> ReadCodeLengths(BitReader& reader, std::size_t symbol_count);

}  // namespace squirrel::compress
