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
  /// A decoded code, as Lookup returns it and the root table stores it:
  /// (symbol << kSymbolShift) | code length. 0 means no code.
  static constexpr unsigned kSymbolShift = 4;
  static constexpr std::uint32_t kLengthMask = (1u << kSymbolShift) - 1;

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

  /// The code at the start of `window`, whose low kMaxCodeLength bits are
  /// the next stream bits, LSB first: its entry, or 0 when no prefix of the
  /// window is a code. Nothing is consumed and nothing checks that the bits
  /// are real, so a caller must have kMaxCodeLength stream bits buffered.
  std::uint32_t Lookup(std::uint32_t window) const {
    const std::uint32_t entry = root_[window & kRootMask];
    return (entry & kLengthMask) != 0 ? entry : Walk(window);
  }

 private:
  static constexpr unsigned kRootBits = 10;
  static constexpr std::uint32_t kRootMask = (1u << kRootBits) - 1;

  // The canonical walk over the low kMaxCodeLength bits of `window`, one
  // bit per length; returns the entry of the first length whose range holds
  // the code read so far, or 0. Inline, so a decode loop that calls Lookup
  // keeps its state in registers across it.
  std::uint32_t Walk(std::uint32_t window) const {
    std::uint32_t code = 0;
    for (unsigned len = 1; len <= kMaxCodeLength; ++len) {
      code = (code << 1) | ((window >> (len - 1)) & 1u);
      // Unsigned wrap-around folds `code >= first` into the range check.
      if (code - first_code_[len] < count_[len]) {
        return (sorted_symbols_[symbol_offset_[len] + (code - first_code_[len])]
                << kSymbolShift) |
               len;
      }
    }
    return 0;
  }
  // Decode's path for long codes and the end of the stream: the walk, and
  // the underflow check.
  std::size_t DecodeSlow(BitReader& reader) const;

  // first_code_[len] / count_[len] / symbol_offset_[len] give the canonical
  // decode walk.
  std::array<std::uint32_t, kMaxCodeLength + 2> first_code_{};
  std::array<std::uint32_t, kMaxCodeLength + 2> count_{};
  std::array<std::uint32_t, kMaxCodeLength + 2> symbol_offset_{};
  std::vector<std::uint32_t> sorted_symbols_;
  // Entries of the codes of at most kRootBits bits; 0 sends the lookup to
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
