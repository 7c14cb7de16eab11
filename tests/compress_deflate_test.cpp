#include "compress/deflate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "compress/bitio.h"
#include "compress/huffman.h"
#include "util/hash.h"
#include "util/rng.h"
#include "vmi/corpus.h"

namespace squirrel::compress {
namespace {

using util::Bytes;

Bytes CompressibleText(std::size_t size, std::uint64_t seed) {
  static constexpr const char* kWords[] = {"storage ", "volume ", "block ",
                                           "cache ", "the ", "squirrel "};
  Bytes data(size);
  util::Rng rng(seed);
  std::size_t pos = 0;
  while (pos < size) {
    const char* w = kWords[rng.Below(6)];
    for (const char* p = w; *p && pos < size; ++p) {
      data[pos++] = static_cast<util::Byte>(*p);
    }
  }
  return data;
}

TEST(Deflate, HigherLevelsCompressAtLeastAsWell) {
  const Bytes data = CompressibleText(256 * 1024, 99);
  const DeflateCodec level1(1);
  const DeflateCodec level6(6);
  const DeflateCodec level9(9);
  const std::size_t size1 = level1.Compress(data).size();
  const std::size_t size6 = level6.Compress(data).size();
  const std::size_t size9 = level9.Compress(data).size();
  EXPECT_LE(size6, size1);
  EXPECT_LE(size9, size6 + size6 / 50);  // level 9 within 2% of level 6
  EXPECT_LT(size6, data.size() / 2);     // text compresses at least 2x
}

TEST(Deflate, IncompressibleFallsBackToStored) {
  Bytes data(64 * 1024);
  util::Rng(5).Fill(data);
  const DeflateCodec codec(6);
  const Bytes compressed = codec.Compress(data);
  // Stored mode: 1 mode byte + payload.
  EXPECT_EQ(compressed.size(), data.size() + 1);
  EXPECT_EQ(compressed[0], 0);
  EXPECT_EQ(codec.Decompress(compressed, data.size()), data);
}

TEST(Deflate, LongZeroRuns) {
  Bytes data(100000, 0);
  data[0] = 1;  // not all-zero, but highly compressible
  const DeflateCodec codec(6);
  const Bytes compressed = codec.Compress(data);
  EXPECT_LT(compressed.size(), 1000u);
  EXPECT_EQ(codec.Decompress(compressed, data.size()), data);
}

TEST(Deflate, RejectsBadModeByte) {
  const DeflateCodec codec(6);
  const Bytes bogus = {7, 1, 2, 3};
  EXPECT_THROW(codec.Decompress(bogus, 3), std::runtime_error);
}

TEST(Deflate, RejectsEmptyPayload) {
  const DeflateCodec codec(6);
  EXPECT_THROW(codec.Decompress({}, 10), std::runtime_error);
}

TEST(Deflate, RejectsWrongExpectedSize) {
  const DeflateCodec codec(6);
  const Bytes data = CompressibleText(1000, 1);
  const Bytes compressed = codec.Compress(data);
  EXPECT_THROW(codec.Decompress(compressed, 999), std::runtime_error);
  EXPECT_THROW(codec.Decompress(compressed, 1001), std::runtime_error);
  // A size no payload of this length can reach is refused before the
  // output buffer is allocated.
  EXPECT_THROW(codec.Decompress(compressed, std::size_t{1} << 40),
               std::runtime_error);
}

TEST(Deflate, InvalidLevelThrows) {
  EXPECT_THROW(DeflateCodec(0), std::invalid_argument);
  EXPECT_THROW(DeflateCodec(10), std::invalid_argument);
}

TEST(Deflate, NamesFollowGzipConvention) {
  EXPECT_EQ(DeflateCodec(6).name(), "gzip6");
  EXPECT_EQ(DeflateCodec(9).name(), "gzip9");
}

// --- Golden output -----------------------------------------------------------

// Fixed, seeded inputs for the pinned compressed bytes below.
Bytes GoldenInput(std::string_view kind, std::size_t size) {
  Bytes data(size);
  if (kind == "text") return CompressibleText(size, 2024);
  if (kind == "corpus") {
    vmi::GenerateCorpus(11, 3 * vmi::kCorpusGrain, data);
  } else if (kind == "zeros") {
    data[size / 3] = 0x5a;  // one nonzero byte inside a long zero run
  } else if (kind == "alternating") {
    for (std::size_t i = 0; i < size; ++i) data[i] = (i & 1) ? 0x55 : 0xaa;
  } else if (kind == "random") {
    util::Rng(31337).Fill(data);
  }
  return data;
}

std::string Sha256Hex(const Bytes& data) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string hex;
  for (std::uint8_t b : util::Sha256(data)) {
    hex += kHex[b >> 4];
    hex += kHex[b & 0xf];
  }
  return hex;
}

// The container has no version field and no checksum, and stored blocks,
// digests of send streams and every simulated byte count depend on these
// exact bytes. A codec change that alters the token stream or the bit
// packing still round-trips, so only a pinned digest catches it.
TEST(Deflate, GoldenOutput) {
  struct Golden {
    const char* kind;
    std::size_t size;
    int level;
    std::size_t compressed_size;
    const char* sha256;
  };
  static constexpr Golden kGolden[] = {
      {"text", 1, 1, 2,
       "6f950d6a7312b4b1012670bd6ae900262c9a0b5f45d14d3f74d4686fad0d5dd2"},
      {"text", 1, 6, 2,
       "6f950d6a7312b4b1012670bd6ae900262c9a0b5f45d14d3f74d4686fad0d5dd2"},
      {"text", 1, 9, 2,
       "6f950d6a7312b4b1012670bd6ae900262c9a0b5f45d14d3f74d4686fad0d5dd2"},
      {"text", 300, 1, 102,
       "1ccd4771025742466e492f127602163816489179b2da2f13e14bfd181c9b9fdc"},
      {"text", 300, 6, 102,
       "54b8881d09e8fe36ebf604bd429b163ffad94d520aab81170a0e63d436938ecb"},
      {"text", 300, 9, 102,
       "54b8881d09e8fe36ebf604bd429b163ffad94d520aab81170a0e63d436938ecb"},
      {"text", 4096, 1, 660,
       "9e7c545d1c90c69649a1be38420f571784d6ffc081ee986801cf11738a5ffa94"},
      {"text", 4096, 6, 518,
       "34911465ac810352d1a6e42ed6fe62fd9924f45547e01dd3ef6f5af187a169dc"},
      {"text", 4096, 9, 518,
       "34911465ac810352d1a6e42ed6fe62fd9924f45547e01dd3ef6f5af187a169dc"},
      {"corpus", 65536, 1, 46522,
       "3185d4e1325485fd1e1be7cfc259a8bd9301af935797c9b19dc0a604943a6587"},
      {"corpus", 65536, 6, 45931,
       "6e5dfaa28c2b56300a11a1962c4f7870139c8be0e3dc4d8d24333ff6d6269363"},
      {"corpus", 65536, 9, 45916,
       "a5f09bb1922c8ee588a4e4e1fdd18688fb5bcaf15eb383fcfdccb08812f52e58"},
      {"corpus", 131072, 1, 89043,
       "1a139af7b7de46acde5c1050b39248dcc76269bde5f55cbeb0c1d1349e30f3b2"},
      {"corpus", 131072, 6, 87515,
       "a975e6e18ceb2b649ea8b0d4887a9785c945a4db2ed6e1dd9f65f19ace22dc4d"},
      {"corpus", 131072, 9, 87492,
       "8e54b95dd9c7953833bcbe875b783397192894e93ef16807d60346c356850dee"},
      {"zeros", 100000, 1, 411,
       "ab9c0b2b907f67f2412b7409f4e821f69ff461b92be0a0529bdc4d5328df9ab7"},
      {"zeros", 100000, 6, 409,
       "3a87f22b077d391f5a420351c16c082012ca6ba4c28313abff3c1562e8e9cd45"},
      {"zeros", 100000, 9, 409,
       "ebaf8f853d4413d9f18a5f9c719a0e076f2d58caae4bae483104de135d3b71b8"},
      {"alternating", 10000, 1, 56,
       "572cb5b8aadbfccd0ad611e057264405354b4617574b4c33fc6b158d912ae724"},
      {"alternating", 10000, 6, 56,
       "572cb5b8aadbfccd0ad611e057264405354b4617574b4c33fc6b158d912ae724"},
      {"alternating", 10000, 9, 56,
       "572cb5b8aadbfccd0ad611e057264405354b4617574b4c33fc6b158d912ae724"},
      {"random", 4096, 1, 4097,
       "aa4361ec67992dc73e2a3eb9d72767cbae8ef46535e298c079e8b621ef289ccd"},
      {"random", 4096, 6, 4097,
       "aa4361ec67992dc73e2a3eb9d72767cbae8ef46535e298c079e8b621ef289ccd"},
      {"random", 4096, 9, 4097,
       "aa4361ec67992dc73e2a3eb9d72767cbae8ef46535e298c079e8b621ef289ccd"},
  };
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(std::string(g.kind) + "/" + std::to_string(g.size) +
                 "/gzip" + std::to_string(g.level));
    const Bytes input = GoldenInput(g.kind, g.size);
    const DeflateCodec codec(g.level);
    const Bytes compressed = codec.Compress(input);
    EXPECT_EQ(compressed.size(), g.compressed_size);
    EXPECT_EQ(Sha256Hex(compressed), g.sha256);
    EXPECT_EQ(codec.Decompress(compressed, input.size()), input);
  }
}

// Stores keep compressed payloads for their lifetime (the dedup table moves
// the Compress result straight into its entry), so growth slack in the
// returned buffer would be resident memory.
TEST(Deflate, CompressedPayloadHasNoSpareCapacity) {
  for (int level : {1, 6, 9}) {
    for (const char* kind : {"text", "corpus", "zeros", "random"}) {
      SCOPED_TRACE(std::string(kind) + "/gzip" + std::to_string(level));
      const Bytes compressed =
          DeflateCodec(level).Compress(GoldenInput(kind, 50000));
      EXPECT_EQ(compressed.capacity(), compressed.size());
    }
  }
}

// Small compressible inputs have a code-length header that is a large share
// of their payload; it must not be written into a buffer sized before the
// payload is. The default build compiles Compress's capacity assert out, so
// this checks the capacity directly, over every size from 1 to 600 bytes of
// three contents (a run of one byte, text, random) at each level.
TEST(Deflate, SmallPayloadsHaveNoSpareCapacity) {
  for (int level : {1, 6, 9}) {
    const DeflateCodec codec(level);
    for (std::size_t size = 1; size <= 600; ++size) {
      for (const Bytes& input :
           {Bytes(size, 'x'), CompressibleText(size, size),
            GoldenInput("random", size)}) {
        const Bytes compressed = codec.Compress(input);
        ASSERT_EQ(compressed.capacity(), compressed.size())
            << "gzip" << level << ", " << size << " bytes";
        ASSERT_EQ(codec.Decompress(compressed, input.size()), input);
      }
    }
  }
}

// --- Huffman internals -------------------------------------------------------

TEST(Huffman, CodeLengthsRespectLimit) {
  // Exponential frequencies would produce a degenerate (deep) tree without
  // the length limiter.
  std::vector<std::uint64_t> freqs(40);
  std::uint64_t f = 1;
  for (auto& x : freqs) {
    x = f;
    f = f < (1ull << 60) ? f * 2 : f;
  }
  const auto lengths = BuildCodeLengths(freqs);
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    EXPECT_LE(lengths[s], kMaxCodeLength) << s;
    EXPECT_GT(lengths[s], 0u) << s;  // all symbols used
  }
}

TEST(Huffman, KraftInequalityHolds) {
  std::vector<std::uint64_t> freqs = {5, 9, 12, 13, 16, 45, 0, 3};
  const auto lengths = BuildCodeLengths(freqs);
  double kraft = 0;
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s] > 0) kraft += std::pow(2.0, -double(lengths[s]));
    EXPECT_EQ(lengths[s] == 0, freqs[s] == 0) << s;
  }
  EXPECT_LE(kraft, 1.0 + 1e-9);
}

TEST(Huffman, SingleSymbolGetsOneBit) {
  std::vector<std::uint64_t> freqs(10, 0);
  freqs[4] = 100;
  const auto lengths = BuildCodeLengths(freqs);
  EXPECT_EQ(lengths[4], 1u);

  // Round-trip a stream of that single symbol.
  HuffmanEncoder encoder(lengths);
  BitWriter writer;
  for (int i = 0; i < 20; ++i) encoder.Encode(writer, 4);
  const Bytes wire = writer.Finish();
  BitReader reader(wire);
  HuffmanDecoder decoder(lengths);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(decoder.Decode(reader), 4u);
}

TEST(Huffman, EncodeDecodeRoundTrip) {
  std::vector<std::uint64_t> freqs = {100, 50, 25, 12, 6, 3, 1, 1};
  const auto lengths = BuildCodeLengths(freqs);
  HuffmanEncoder encoder(lengths);
  HuffmanDecoder decoder(lengths);

  util::Rng rng(77);
  std::vector<std::size_t> symbols;
  for (int i = 0; i < 5000; ++i) symbols.push_back(rng.Below(8));
  BitWriter writer;
  for (std::size_t s : symbols) encoder.Encode(writer, s);
  const Bytes wire = writer.Finish();
  BitReader reader(wire);
  for (std::size_t s : symbols) EXPECT_EQ(decoder.Decode(reader), s);
}

TEST(Huffman, FrequentSymbolsGetShorterCodes) {
  std::vector<std::uint64_t> freqs = {1000, 1, 1, 1, 1, 1, 1, 1};
  const auto lengths = BuildCodeLengths(freqs);
  for (std::size_t s = 1; s < 8; ++s) EXPECT_LE(lengths[0], lengths[s]);
}

TEST(Huffman, CodeLengthSerializationRoundTrip) {
  std::vector<std::uint8_t> lengths(300, 0);
  lengths[0] = 3;
  lengths[5] = 15;
  lengths[250] = 1;
  lengths[299] = 7;
  BitWriter writer;
  WriteCodeLengths(writer, lengths);
  const Bytes wire = writer.Finish();
  BitReader reader(wire);
  EXPECT_EQ(ReadCodeLengths(reader, 300), lengths);
  // Four lengths at 4 bits, and zero runs of 4, 64, 64, 64, 52 and 48 at
  // 10 bits each.
  EXPECT_EQ(CodeLengthsBits(lengths), 4u * 4 + 6u * 10);
  EXPECT_EQ(wire.size(), util::CeilDiv(CodeLengthsBits(lengths), 8));
}

TEST(BitIo, RoundTripMixedWidths) {
  BitWriter writer;
  writer.Write(0b101, 3);
  writer.Write(0xdead, 16);
  writer.Write(1, 1);
  writer.Write(0xffffffff, 32);
  const Bytes wire = writer.Finish();
  BitReader reader(wire);
  EXPECT_EQ(reader.Read(3), 0b101u);
  EXPECT_EQ(reader.Read(16), 0xdeadu);
  EXPECT_EQ(reader.Read(1), 1u);
  EXPECT_EQ(reader.Read(32), 0xffffffffu);
}

TEST(BitIo, UnderflowThrows) {
  BitWriter writer;
  writer.Write(0x3, 2);
  const Bytes wire = writer.Finish();
  BitReader reader(wire);
  reader.Read(8);  // the padded byte
  EXPECT_THROW(reader.Read(8), std::runtime_error);
}


// --- Reference decoder -------------------------------------------------------
//
// The bit-serial decoder that the table-driven one replaced: a byte-at-a-time
// bit reader, the canonical walk reading one bit per code length, and a
// push_back output loop. The container has no checksum, so what a damaged
// payload decodes to (or whether it throws) is observable behaviour; the
// tests below hold the production decoder to this reference on damaged and
// well-formed payloads alike.

class ReferenceBitReader {
 public:
  explicit ReferenceBitReader(util::ByteSpan data) : data_(data) {}

  std::uint32_t Read(unsigned count) {
    while (filled_ < count) {
      if (pos_ >= data_.size()) {
        throw std::runtime_error("bit stream underflow");
      }
      acc_ |= static_cast<std::uint64_t>(data_[pos_++]) << filled_;
      filled_ += 8;
    }
    const std::uint32_t value = static_cast<std::uint32_t>(
        acc_ & ((count < 32) ? ((1ull << count) - 1) : 0xffffffffull));
    acc_ >>= count;
    filled_ -= count;
    return value;
  }

  /// Bits consumed so far.
  std::size_t bits_read() const { return 8 * pos_ - filled_; }

 private:
  util::ByteSpan data_;
  std::size_t pos_ = 0;
  std::uint64_t acc_ = 0;
  unsigned filled_ = 0;
};

class ReferenceHuffmanDecoder {
 public:
  explicit ReferenceHuffmanDecoder(const std::vector<std::uint8_t>& lengths) {
    for (auto len : lengths) {
      if (len > kMaxCodeLength) throw std::runtime_error("invalid code length");
      if (len > 0) ++count_[len];
    }
    std::uint32_t code = 0;
    std::uint32_t offset = 0;
    for (unsigned len = 1; len <= kMaxCodeLength; ++len) {
      code = (code + count_[len - 1]) << 1;
      first_code_[len] = code;
      symbol_offset_[len] = offset;
      offset += count_[len];
    }
    sorted_symbols_.resize(offset);
    auto fill = symbol_offset_;
    for (std::size_t s = 0; s < lengths.size(); ++s) {
      if (lengths[s] > 0) {
        sorted_symbols_[fill[lengths[s]]++] = static_cast<std::uint32_t>(s);
      }
    }
  }

  std::size_t Decode(ReferenceBitReader& reader) const {
    std::uint32_t code = 0;
    for (unsigned len = 1; len <= kMaxCodeLength; ++len) {
      code = (code << 1) | reader.Read(1);
      if (count_[len] != 0 && code >= first_code_[len] &&
          code < first_code_[len] + count_[len]) {
        return sorted_symbols_[symbol_offset_[len] + (code - first_code_[len])];
      }
    }
    throw std::runtime_error("invalid Huffman code");
  }

 private:
  std::array<std::uint32_t, kMaxCodeLength + 2> first_code_{};
  std::array<std::uint32_t, kMaxCodeLength + 2> count_{};
  std::array<std::uint32_t, kMaxCodeLength + 2> symbol_offset_{};
  std::vector<std::uint32_t> sorted_symbols_;
};

std::vector<std::uint8_t> ReferenceReadCodeLengths(ReferenceBitReader& reader,
                                                   std::size_t symbol_count) {
  std::vector<std::uint8_t> lengths(symbol_count, 0);
  std::size_t i = 0;
  while (i < symbol_count) {
    const std::uint32_t value = reader.Read(4);
    if (value == 0) {
      const std::size_t run = reader.Read(6) + 1;
      if (i + run > symbol_count) throw std::runtime_error("code length overrun");
      i += run;
    } else {
      lengths[i++] = static_cast<std::uint8_t>(value);
    }
  }
  return lengths;
}

std::uint32_t ReferenceDecodeBucket(std::uint32_t index,
                                    ReferenceBitReader& reader) {
  if (index < 4) return index;
  const unsigned k = index / 2;
  const std::uint32_t second = index & 1u;
  const std::uint32_t extra = (k >= 1) ? reader.Read(k - 1) : 0;
  return (1u << k) | (second << (k - 1)) | extra;
}

// When `mark` is not null, *mark is set to the input byte (counting the mode
// byte) that holds the first bit of the token writing output byte
// `mark_output`.
Bytes ReferenceDecompress(util::ByteSpan input, std::size_t expected_size,
                          std::size_t mark_output = 0,
                          std::size_t* mark = nullptr) {
  constexpr std::size_t kEob = 256;
  constexpr std::size_t kLengthBase = 257;
  constexpr std::size_t kLitLenSymbols = kLengthBase + 16;
  constexpr std::size_t kDistSymbols = 48;
  constexpr std::uint32_t kMinMatch = 3;

  if (input.empty()) throw std::runtime_error("deflate: empty payload");
  const std::uint8_t mode = input[0];
  if (mode == 0) {
    if (input.size() - 1 != expected_size) {
      throw std::runtime_error("deflate: stored size mismatch");
    }
    return Bytes(input.begin() + 1, input.end());
  }
  if (mode != 1) throw std::runtime_error("deflate: bad mode byte");

  ReferenceBitReader reader(input.subspan(1));
  const auto litlen_lengths = ReferenceReadCodeLengths(reader, kLitLenSymbols);
  const auto dist_lengths = ReferenceReadCodeLengths(reader, kDistSymbols);
  const ReferenceHuffmanDecoder litlen_dec(litlen_lengths);
  const ReferenceHuffmanDecoder dist_dec(dist_lengths);

  Bytes out;
  out.reserve(expected_size);
  for (;;) {
    const std::size_t token_bit = reader.bits_read();
    const std::size_t sym = litlen_dec.Decode(reader);
    if (sym == kEob) break;
    if (sym < kEob) {
      if (mark != nullptr && out.size() == mark_output) *mark = 1 + token_bit / 8;
      out.push_back(static_cast<util::Byte>(sym));
      continue;
    }
    const std::uint32_t len =
        ReferenceDecodeBucket(static_cast<std::uint32_t>(sym - kLengthBase),
                              reader) +
        kMinMatch;
    const std::size_t dsym = dist_dec.Decode(reader);
    const std::uint32_t dist =
        ReferenceDecodeBucket(static_cast<std::uint32_t>(dsym), reader) + 1;
    if (dist > out.size()) throw std::runtime_error("deflate: bad distance");
    if (mark != nullptr && out.size() <= mark_output &&
        mark_output < out.size() + len) {
      *mark = 1 + token_bit / 8;
    }
    const std::size_t start = out.size() - dist;
    for (std::uint32_t i = 0; i < len; ++i) out.push_back(out[start + i]);
    if (out.size() > expected_size) {
      throw std::runtime_error("deflate: output overrun");
    }
  }
  if (out.size() != expected_size) {
    throw std::runtime_error("deflate: output size mismatch");
  }
  return out;
}

// What one decoder did with one input: the bytes it returned, or that it
// threw std::runtime_error (any other exception fails the test).
struct Outcome {
  bool threw = false;
  Bytes bytes;
};

template <typename F>
Outcome Capture(F&& decode) {
  try {
    return {false, decode()};
  } catch (const std::runtime_error&) {
    return {true, {}};
  }
}

// One decoded symbol, or nullopt when decoding threw std::runtime_error.
template <typename F>
std::optional<std::size_t> SymbolOrThrow(F&& decode) {
  try {
    return decode();
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

// Compares DeflateCodec against the reference on one payload.
class DifferentialDecoder {
 public:
  void Check(util::ByteSpan payload, std::size_t expected_size,
             const std::string& what) {
    const Outcome reference =
        Capture([&] { return ReferenceDecompress(payload, expected_size); });
    const Outcome actual =
        Capture([&] { return codec_.Decompress(payload, expected_size); });
    ++cases_;
    if (!reference.threw) ++decoded_;
    EXPECT_EQ(actual.threw, reference.threw) << what;
    EXPECT_TRUE(actual.bytes == reference.bytes) << what;
  }

  std::size_t cases() const { return cases_; }
  std::size_t decoded() const { return decoded_; }

 private:
  // Decompression is level independent; any level decodes every payload.
  const DeflateCodec codec_{6};
  std::size_t cases_ = 0;
  std::size_t decoded_ = 0;
};

// Bytes drawn with geometrically falling frequencies over the whole byte
// range, so the literal code reaches past the root table to 15 bits.
Bytes SkewedBytes(std::size_t size, std::uint64_t seed) {
  Bytes data(size);
  util::Rng rng(seed);
  for (auto& b : data) {
    unsigned rank = 0;
    while (rank < 255 && rng.Chance(0.55)) ++rank;
    b = static_cast<util::Byte>(rank * 37 + 11);
  }
  return data;
}

// Corpus grains with zero gaps between them, as a cache image holds the
// ranges of a boot working set and reads zeros elsewhere.
Bytes BootLikeBytes(std::size_t size, std::uint64_t seed) {
  Bytes data(size, 0);
  util::Rng rng(seed);
  for (std::size_t pos = rng.Between(1, 3) * 512; pos < size;
       pos += rng.Between(1, 3) * 512) {
    const std::size_t take =
        std::min<std::size_t>(size - pos, vmi::kCorpusGrain * rng.Between(1, 3));
    vmi::GenerateCorpus(11, rng.Below(1u << 16) * vmi::kCorpusGrain,
                        util::MutableByteSpan(data.data() + pos, take));
    pos += take;
  }
  return data;
}

// The decoder's fast loop leaves the last kMaxMatch + 16 output bytes to
// its checked loop (DESIGN.md §18).
constexpr std::size_t kHandOffOutput = 258 + 16;

// Well-formed payloads that the damage sweeps start from.
struct BasePayload {
  std::string name;
  Bytes raw;
  Bytes compressed;
  // 0 for the small bases, which the sweeps visit byte by byte. For a
  // 64 KiB base, whose sweeps are sampled, the first payload byte of the
  // token that writes output byte raw.size() - kHandOffOutput: the bytes
  // from there on decode the output around and past the hand-off.
  std::size_t handoff = 0;
};

std::vector<BasePayload> BasePayloads() {
  std::vector<BasePayload> bases;
  const std::pair<const char*, Bytes> inputs[] = {
      {"text", GoldenInput("text", 1500)},
      {"corpus", GoldenInput("corpus", 3000)},
      {"zeros", GoldenInput("zeros", 2000)},
      {"alternating", GoldenInput("alternating", 700)},
      {"skewed", SkewedBytes(2500, 8)},
      {"short", GoldenInput("text", 40)},
      {"random", GoldenInput("random", 300)},  // stored mode
  };
  for (const auto& [name, raw] : inputs) {
    for (int level : {1, 6, 9}) {
      bases.push_back({std::string(name) + "/gzip" + std::to_string(level), raw,
                       DeflateCodec(level).Compress(raw)});
    }
  }
  // Whole 64 KiB blocks at the level cache volumes use, so the fast loop
  // runs for a full block: dense, boot-like sparse, and literal codes longer
  // than the root table.
  const std::pair<const char*, Bytes> blocks[] = {
      {"corpus64k", GoldenInput("corpus", 65536)},
      {"bootlike64k", BootLikeBytes(65536, 138)},
      {"skewed64k", SkewedBytes(65536, 8)},
  };
  for (const auto& [name, raw] : blocks) {
    BasePayload base{std::string(name) + "/gzip6", raw, DeflateCodec(6).Compress(raw)};
    ReferenceDecompress(base.compressed, raw.size(), raw.size() - kHandOffOutput,
                        &base.handoff);
    bases.push_back(std::move(base));
  }
  return bases;
}

// A sampled sweep damages every byte of a 64 KiB base from here on: from 16
// before the hand-off, and at least the last 16 payload bytes.
std::size_t FirstTailByte(const BasePayload& base) {
  return std::min(base.handoff - 16, base.compressed.size() - 16);
}

// A repeating pattern of period 1-9 forces matches whose source overlaps
// their destination: the fill (period 1), byte-by-byte (2-7) and word (8, 9)
// copies. The sizes put them inside the decoder's fast loop and across its
// hand-off to the checked loop at the last kMaxMatch + 16 output bytes.
TEST(Deflate, OverlappingMatchCopy) {
  const DeflateCodec codec(6);
  for (std::size_t size : {300, 5000, 65536}) {
    for (std::size_t period = 1; period <= 9; ++period) {
      SCOPED_TRACE("size " + std::to_string(size) + " period " +
                   std::to_string(period));
      Bytes data(size);
      for (std::size_t i = 0; i < size; ++i) {
        data[i] = static_cast<util::Byte>('a' + i % period);
      }
      const Bytes compressed = codec.Compress(data);
      // 64 KiB takes about 254 maximal matches; 5,000 B fits in 50 bytes.
      EXPECT_LT(compressed.size(), size < 65536 ? 200u : 400u);
      EXPECT_EQ(ReferenceDecompress(compressed, size), data);
      EXPECT_EQ(codec.Decompress(compressed, size), data);
    }
  }
}

TEST(DeflateCorruptionFuzz, WellFormedPayloadsMatchReference) {
  DifferentialDecoder diff;
  for (const BasePayload& base : BasePayloads()) {
    diff.Check(base.compressed, base.raw.size(), base.name);
    EXPECT_EQ(ReferenceDecompress(base.compressed, base.raw.size()), base.raw)
        << base.name;
    if (base.raw.size() == 65536) {
      EXPECT_GT(base.handoff, 64u) << base.name;
      EXPECT_LT(base.handoff, base.compressed.size()) << base.name;
    }
  }
  EXPECT_EQ(diff.decoded(), diff.cases());
}

TEST(DeflateCorruptionFuzz, Truncations) {
  DifferentialDecoder diff;
  for (const BasePayload& base : BasePayloads()) {
    const std::size_t n = base.compressed.size();
    // Every cut in the first and last 64 bytes, every 7th in between. On a
    // 64 KiB base: every cut in the first 64 bytes and from FirstTailByte
    // on, and 48 spread over the rest.
    const std::size_t tail = base.handoff == 0 ? n - std::min<std::size_t>(n, 64)
                                               : FirstTailByte(base);
    const std::size_t stride = base.handoff == 0 ? 7 : n / 48;
    for (std::size_t cut = 0; cut < n; ++cut) {
      if (cut > 64 && cut < tail && cut % stride != 0) continue;
      diff.Check(util::ByteSpan(base.compressed).first(cut), base.raw.size(),
                 base.name + " cut at " + std::to_string(cut));
    }
  }
  EXPECT_GT(diff.cases(), 2000u);
}

TEST(DeflateCorruptionFuzz, BitFlips) {
  DifferentialDecoder diff;
  util::Rng rng(1405);
  std::size_t expected_cases = 0;
  for (const BasePayload& base : BasePayloads()) {
    // 250 trials of 1-3 random flips; 32 on a 64 KiB base, then one flip in
    // each byte from FirstTailByte on.
    const int trials = base.handoff == 0 ? 250 : 32;
    for (int trial = 0; trial < trials; ++trial) {
      Bytes damaged = base.compressed;
      const int flips = 1 + static_cast<int>(rng.Below(3));
      for (int f = 0; f < flips; ++f) {
        damaged[rng.Below(damaged.size())] ^=
            static_cast<util::Byte>(1u << rng.Below(8));
      }
      diff.Check(damaged, base.raw.size(),
                 base.name + " flip trial " + std::to_string(trial));
    }
    expected_cases += static_cast<std::size_t>(trials);
    if (base.handoff == 0) continue;
    for (std::size_t at = FirstTailByte(base); at < base.compressed.size(); ++at) {
      Bytes damaged = base.compressed;
      damaged[at] ^= static_cast<util::Byte>(1u << rng.Below(8));
      diff.Check(damaged, base.raw.size(),
                 base.name + " flip at " + std::to_string(at));
      ++expected_cases;
    }
  }
  EXPECT_EQ(diff.cases(), expected_cases);
}

TEST(DeflateCorruptionFuzz, HeaderByteOverwrites) {
  // The code-length header sits in the first bytes; overwriting them yields
  // over-subscribed and incomplete codes, mode bytes other than 0 and 1, and
  // stored payloads re-read as Huffman ones.
  DifferentialDecoder diff;
  util::Rng rng(2014);
  for (const BasePayload& base : BasePayloads()) {
    const std::size_t header = std::min<std::size_t>(base.compressed.size(), 64);
    for (std::size_t at = 0; at < header; ++at) {
      for (int trial = 0; trial < 4; ++trial) {
        Bytes damaged = base.compressed;
        damaged[at] = static_cast<util::Byte>(
            at == 0 && trial < 2 ? trial : rng.Below(256));
        diff.Check(damaged, base.raw.size(),
                   base.name + " byte " + std::to_string(at) + " trial " +
                       std::to_string(trial));
      }
    }
  }
  EXPECT_GT(diff.cases(), 4000u);
}

TEST(DeflateCorruptionFuzz, WrongExpectedSizes) {
  DifferentialDecoder diff;
  for (const BasePayload& base : BasePayloads()) {
    const std::size_t n = base.raw.size();
    for (std::size_t expected :
         {std::size_t{0}, std::size_t{1}, n / 2, n - 1, n + 1, n + 258, 2 * n}) {
      diff.Check(base.compressed, expected,
                 base.name + " expecting " + std::to_string(expected));
    }
  }
  EXPECT_EQ(diff.decoded(), 0u);
}

TEST(DeflateCorruptionFuzz, TrailingBytes) {
  DifferentialDecoder diff;
  util::Rng rng(77);
  const std::vector<BasePayload> bases = BasePayloads();
  for (const BasePayload& base : bases) {
    for (std::size_t extra = 1; extra <= 16; ++extra) {
      Bytes padded = base.compressed;
      for (std::size_t i = 0; i < extra; ++i) {
        padded.push_back(static_cast<util::Byte>(rng.Below(256)));
      }
      diff.Check(padded, base.raw.size(),
                 base.name + " +" + std::to_string(extra) + " bytes");
    }
  }
  // Bytes after the end-of-block symbol are ignored by Huffman payloads but
  // change a stored payload's size.
  const auto huffman = std::count_if(bases.begin(), bases.end(),
                                     [](const BasePayload& b) { return b.compressed[0] == 1; });
  EXPECT_EQ(diff.decoded(), 16u * static_cast<std::size_t>(huffman));
}

TEST(DeflateCorruptionFuzz, RandomBodiesBehindHuffmanMode) {
  // Odd trials start the body with a well-formed code-length header built
  // from random, widely skewed histograms, so their random bits reach the
  // token decoder: long codes, bad distances, overruns, early ends.
  DifferentialDecoder diff;
  util::Rng rng(4096);
  for (int trial = 0; trial < 3000; ++trial) {
    Bytes payload;
    if (trial % 2 == 0) {
      payload.resize(1 + rng.Below(400));
      rng.Fill(payload);
      payload[0] = 1;
    } else {
      const auto random_lengths = [&](std::size_t symbols) {
        std::vector<std::uint64_t> freqs(symbols, 0);
        for (auto& f : freqs) {
          if (rng.Chance(0.6)) f = 1 + rng.Below(std::uint64_t{1} << rng.Below(20));
        }
        return BuildCodeLengths(freqs);
      };
      BitWriter writer;
      writer.Write(1, 8);
      WriteCodeLengths(writer, random_lengths(273));
      WriteCodeLengths(writer, random_lengths(48));
      for (std::uint64_t words = rng.Below(64); words-- > 0;) {
        writer.Write(static_cast<std::uint32_t>(rng.Next()), 32);
      }
      payload = writer.Finish();
    }
    diff.Check(payload, rng.Below(2048), "random body " + std::to_string(trial));
  }
  EXPECT_EQ(diff.cases(), 3000u);
}

// Decodes every 15-bit stream prefix with the root-table decoder and the
// canonical walk, for code-length vectors a damaged header can carry.
TEST(Huffman, RootTableMatchesCanonicalWalk) {
  std::vector<std::vector<std::uint8_t>> cases = {
      {},                                  // empty alphabet
      {0, 0, 0, 0},                        // no codes
      {0, 0, 1, 0},                        // single symbol
      {0, 15, 0},                          // single symbol, longest code
      {1, 1, 1, 2, 3},                     // over-subscribed at one bit
      {2, 2, 2, 2, 2, 1, 3},               // over-subscribed, unsorted
      {1, 1, 12, 12, 11},                  // long codes made unreachable
      {1, 3},                              // incomplete
      {2, 5, 12, 15, 0, 10},               // incomplete across the root
  };
  // Over-subscribed: 1100 codes of 10 bits overflow the root table.
  cases.push_back(std::vector<std::uint8_t>(1100, 10));
  // Incomplete, with most codes one bit past the root table.
  std::vector<std::uint8_t> past_root(200, 11);
  past_root[0] = 3;
  past_root[1] = 4;
  cases.push_back(past_root);
  // Complete codes from real histograms, reaching 15 bits.
  {
    std::vector<std::uint64_t> freqs(273, 0);
    for (const util::Byte b : SkewedBytes(20000, 3)) ++freqs[b];
    freqs[256] = 1;
    cases.push_back(BuildCodeLengths(freqs));
    std::vector<std::uint64_t> exponential(40);
    for (std::size_t s = 0; s < exponential.size(); ++s) {
      exponential[s] = std::uint64_t{1} << s;
    }
    cases.push_back(BuildCodeLengths(exponential));
  }
  // Seeded random vectors: mostly over-subscribed, some sparse.
  util::Rng rng(15);
  for (std::size_t size : {9, 273}) {
    for (unsigned max_len : {4u, 11u, 15u}) {
      std::vector<std::uint8_t> lengths(size);
      for (auto& len : lengths) {
        len = rng.Chance(0.5) ? 0 : static_cast<std::uint8_t>(rng.Below(max_len + 1));
      }
      cases.push_back(lengths);
    }
  }

  for (std::size_t c = 0; c < cases.size(); ++c) {
    const HuffmanDecoder decoder(cases[c]);
    const ReferenceHuffmanDecoder reference(cases[c]);
    for (std::uint32_t pattern = 0; pattern < (1u << kMaxCodeLength); ++pattern) {
      // The pattern, then its complement, as a 4-byte stream; the 1- and
      // 2-byte prefixes cut codes short to exercise the underflow rule.
      const std::uint32_t stream = pattern | (~pattern << kMaxCodeLength);
      const util::Byte bytes[4] = {
          static_cast<util::Byte>(stream), static_cast<util::Byte>(stream >> 8),
          static_cast<util::Byte>(stream >> 16), static_cast<util::Byte>(stream >> 24)};
      for (std::size_t n : {1, 2, 4}) {
        if (n == 1 && pattern >= 256) continue;  // one byte holds 8 bits
        BitReader reader(util::ByteSpan(bytes, n));
        ReferenceBitReader ref_reader(util::ByteSpan(bytes, n));
        for (int symbol = 0; symbol < 2; ++symbol) {
          const auto actual = SymbolOrThrow([&] { return decoder.Decode(reader); });
          const auto expected =
              SymbolOrThrow([&] { return reference.Decode(ref_reader); });
          ASSERT_EQ(actual, expected)
              << "case " << c << " pattern " << pattern << " bytes " << n;
          if (!expected) break;
        }
      }
    }
  }
}

}  // namespace
}  // namespace squirrel::compress
