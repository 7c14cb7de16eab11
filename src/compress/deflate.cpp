#include "compress/deflate.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "compress/bitio.h"
#include "compress/huffman.h"

namespace squirrel::compress {
namespace {

// Alphabet layout: 0..255 literals, 256 end-of-block, 257.. length buckets.
constexpr std::size_t kEob = 256;
constexpr std::size_t kLengthBase = 257;
constexpr std::size_t kLengthBuckets = 16;   // covers match lengths 3..258
constexpr std::size_t kLitLenSymbols = kLengthBase + kLengthBuckets;
constexpr std::size_t kDistSymbols = 48;     // covers distances up to 2^24
constexpr std::size_t kMinMatch = 3;
constexpr std::size_t kMaxMatch = 258;

constexpr unsigned kHashBits = 15;
constexpr std::uint32_t kHashSize = 1u << kHashBits;

// Log-bucket encoding with one mantissa bit: values 0..3 map to buckets 0..3
// with no extra bits; larger values use bucket 2k+b with k-1 extra bits.
struct Bucket {
  std::uint32_t index;
  std::uint32_t extra_bits;
  std::uint32_t extra_value;
};

Bucket EncodeBucket(std::uint32_t v) {
  if (v < 4) return {v, 0, 0};
  const unsigned k = std::bit_width(v) - 1;
  const std::uint32_t second = (v >> (k - 1)) & 1u;
  return {2 * k + second, k - 1, v & ((1u << (k - 1)) - 1u)};
}

// Extra bits that follow bucket `index` (EncodeBucket's extra_bits).
constexpr std::uint32_t ExtraBits(std::size_t index) {
  return index < 4 ? 0 : static_cast<std::uint32_t>(index / 2 - 1);
}

// Smallest value in bucket `index`; its ExtraBits(index) extra bits are
// added to it (EncodeBucket's extra_value).
constexpr std::uint32_t BucketBase(std::uint32_t index) {
  if (index < 4) return index;
  const unsigned k = index / 2;
  return (1u << k) | ((index & 1u) << (k - 1));
}

std::uint32_t DecodeBucket(std::uint32_t index, BitReader& reader) {
  const std::uint32_t extra_bits = ExtraBits(index);
  return BucketBase(index) + (extra_bits > 0 ? reader.Read(extra_bits) : 0);
}

std::uint32_t Load32(const util::Byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint32_t HashAt(const util::Byte* p) {
  return (Load32(p) * 2654435761u) >> (32 - kHashBits);
}

struct Token {
  std::uint32_t literal_or_length;  // literal byte, or match length
  std::uint32_t distance;           // 0 => literal token
};

// Length of the common prefix of a/b, capped at `limit`; compares 8 bytes
// at a time and reads nothing at or past a + limit or b + limit.
std::size_t MatchLength(const util::Byte* a, const util::Byte* b,
                        std::size_t limit) {
  std::size_t n = 0;
  for (; n + 8 <= limit; n += 8) {
    const std::uint64_t diff = LoadLE64(a + n) ^ LoadLE64(b + n);
    if (diff != 0) return n + std::countr_zero(diff) / 8;
  }
  while (n < limit && a[n] == b[n]) ++n;
  return n;
}

// Each symbol costs at least one bit and a match (two symbols) writes at
// most kMaxMatch bytes, so no payload byte decodes to more output bytes.
constexpr std::size_t kMaxOutputPerPayloadByte = 8 * kMaxMatch / 2;

// DecodeFast's margins (DESIGN.md §18). With kFastInputMargin payload bytes
// unread before a token, both of its word refills (each takes at most 7
// bytes and loads 8) read real bytes, so every buffered bit is a stream bit
// and no code can underflow. With kFastOutputMargin output bytes unwritten,
// the token (at most kMaxMatch bytes) and the up to 7 bytes a word copy
// writes past a match stay inside the output.
constexpr std::size_t kFastInputMargin = 16;
constexpr std::size_t kFastOutputMargin = kMaxMatch + 16;

// A word refill leaves at least 56 bits buffered. That covers a length code
// with its extra bits, and a literal code plus the lookup of the next code
// after it; a distance code with its extra bits needs a second refill when
// fewer than kDistCodeBits are left.
constexpr unsigned kRefilledBits = 56;
constexpr unsigned kDistCodeBits = kMaxCodeLength + ExtraBits(kDistSymbols - 1);
static_assert(kMaxCodeLength + ExtraBits(kLengthBuckets - 1) <= kRefilledBits);
static_assert(2 * kMaxCodeLength <= kRefilledBits);
static_assert(kDistCodeBits <= kRefilledBits);

std::uint32_t LowBits(std::uint64_t bits, unsigned count) {
  return static_cast<std::uint32_t>(bits & ((std::uint64_t{1} << count) - 1));
}

// Decodes tokens into `dst` while DecodeFast's margins hold, with the
// reader's bit buffer in locals, and returns the bytes written. The margins
// make underflow and output overrun impossible, so neither is checked here;
// invalid codes and distances past the output throw as in the checked loop.
// An end-of-block symbol is left unread. The reader gets the state back, so
// the checked loop decodes the rest of the payload as if it had decoded all
// of it.
std::size_t DecodeFast(util::ByteSpan body, BitReader& reader,
                       const HuffmanDecoder& litlen_dec,
                       const HuffmanDecoder& dist_dec, util::Byte* dst,
                       std::size_t expected_size) {
  if (body.size() < kFastInputMargin || expected_size < kFastOutputMargin) {
    return 0;
  }
  constexpr unsigned kShift = HuffmanDecoder::kSymbolShift;
  constexpr std::uint32_t kLengthMask = HuffmanDecoder::kLengthMask;
  BitReader::State state = reader.Save();
  const util::Byte* in = body.data() + state.pos;
  const util::Byte* const in_last = body.data() + (body.size() - kFastInputMargin);
  if (in > in_last) return 0;
  std::uint64_t acc = state.acc;
  unsigned filled = state.filled;
  const std::size_t out_last = expected_size - kFastOutputMargin;
  std::size_t produced = 0;
  // Each pass starts with at least kRefilledBits buffered and `entry` looked
  // up from them. A literal leaves enough bits to look the next code up
  // before the refill, so that lookup does not wait for the refill's load.
  in += RefillWord(in, acc, filled);
  std::uint32_t entry = litlen_dec.Lookup(static_cast<std::uint32_t>(acc));
  while (produced <= out_last) {
    if (entry == 0) throw std::runtime_error("invalid Huffman code");
    const std::uint32_t sym = entry >> kShift;
    if (sym == kEob) break;
    const unsigned code_len = entry & kLengthMask;
    acc >>= code_len;
    filled -= code_len;
    if (sym < kEob) {
      dst[produced++] = static_cast<util::Byte>(sym);
      if (in > in_last) break;
      entry = litlen_dec.Lookup(static_cast<std::uint32_t>(acc));
      in += RefillWord(in, acc, filled);
      continue;
    }
    const std::uint32_t len_index = sym - kLengthBase;
    const unsigned len_extra = ExtraBits(len_index);
    const std::uint32_t len =
        BucketBase(len_index) + LowBits(acc, len_extra) + kMinMatch;
    acc >>= len_extra;
    filled -= len_extra;
    if (filled < kDistCodeBits) in += RefillWord(in, acc, filled);
    const std::uint32_t dentry = dist_dec.Lookup(static_cast<std::uint32_t>(acc));
    if (dentry == 0) throw std::runtime_error("invalid Huffman code");
    const unsigned dcode_len = dentry & kLengthMask;
    acc >>= dcode_len;
    filled -= dcode_len;
    const std::uint32_t dist_index = dentry >> kShift;
    const unsigned dist_extra = ExtraBits(dist_index);
    const std::uint32_t dist = BucketBase(dist_index) + LowBits(acc, dist_extra) + 1;
    acc >>= dist_extra;
    filled -= dist_extra;
    if (dist > produced) throw std::runtime_error("deflate: bad distance");
    util::Byte* const to = dst + produced;
    const util::Byte* const from = to - dist;
    if (dist >= 8) {
      // Each word is read at least 8 bytes behind where it is written, so
      // this equals the byte-by-byte copy up to `len`; the bytes the last
      // word writes past it are overwritten by the tokens that follow.
      for (std::uint32_t i = 0; i < len; i += 8) std::memcpy(to + i, from + i, 8);
    } else if (dist == 1) {
      std::memset(to, *from, len);
    } else {
      for (std::uint32_t i = 0; i < len; ++i) {
        to[i] = from[i];  // overlapping copies are intentional
      }
    }
    produced += len;
    if (in > in_last) break;
    in += RefillWord(in, acc, filled);
    entry = litlen_dec.Lookup(static_cast<std::uint32_t>(acc));
  }
  state.pos = static_cast<std::size_t>(in - body.data());
  state.acc = acc;
  state.filled = filled;
  reader.Restore(state);
  return produced;
}

}  // namespace

DeflateCodec::DeflateCodec(int level)
    : level_(level), name_("gzip" + std::to_string(level)) {
  if (level < 1 || level > 9) throw std::invalid_argument("deflate level");
  // Effort schedule loosely following zlib's configuration table.
  static constexpr unsigned kChains[10] = {0, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
  static constexpr unsigned kNice[10] = {0, 8, 16, 32, 32, 64, 128, 128, 258, 258};
  max_chain_ = kChains[level];
  nice_length_ = kNice[level];
  lazy_ = level >= 4;
}

util::Bytes DeflateCodec::Compress(util::ByteSpan input) const {
  // 1. LZ77 parse with a hash-chain match finder. The match-finder arrays
  // and the token buffer are per-thread scratch that only grows: `head` is
  // reset on every call, while `prev` keeps stale entries from earlier
  // calls, since a position enters a chain only through `insert`, which
  // writes its `prev` entry first. A parse emits at most one token per
  // input byte, so the token buffer never reallocates inside a call.
  struct Scratch {
    std::vector<std::int32_t> head = std::vector<std::int32_t>(kHashSize);
    std::vector<std::int32_t> prev;
    std::vector<Token> tokens;
  };
  thread_local Scratch scratch;
  const util::Byte* data = input.data();
  const std::size_t n = input.size();
  std::vector<std::int32_t>& head = scratch.head;
  std::fill(head.begin(), head.end(), -1);
  std::vector<std::int32_t>& prev = scratch.prev;
  if (prev.size() < n) prev.resize(n);
  std::vector<Token>& tokens = scratch.tokens;
  tokens.clear();
  tokens.reserve(n + 1);

  auto find_match = [&](std::size_t pos, std::size_t& best_len,
                        std::size_t& best_dist) {
    best_len = 0;
    best_dist = 0;
    // HashAt reads 4 bytes, one more than kMinMatch; a tail position with
    // fewer than 4 bytes left cannot start a match (and hashing it would
    // read past the buffer).
    if (pos + sizeof(std::uint32_t) > n) return;
    const std::size_t limit = std::min(kMaxMatch, n - pos);
    std::int32_t candidate = head[HashAt(data + pos)];
    unsigned chain = max_chain_;
    while (candidate >= 0 && chain-- > 0) {
      // A candidate beats best_len only if it also matches at best_len
      // (zlib's scan_end test); one that differs there is skipped without
      // changing which match wins. Nothing can beat a match of `limit`.
      if (best_len == limit) break;
      if (data[candidate + best_len] != data[pos + best_len]) {
        candidate = prev[candidate];
        continue;
      }
      const std::size_t len =
          MatchLength(data + candidate, data + pos, limit);
      if (len > best_len) {
        best_len = len;
        best_dist = pos - static_cast<std::size_t>(candidate);
        if (len >= nice_length_) break;
      }
      candidate = prev[candidate];
    }
    if (best_len < kMinMatch) best_len = 0;
  };

  auto insert = [&](std::size_t pos) {
    if (pos + 4 > n) return;
    const std::uint32_t h = HashAt(data + pos);
    prev[pos] = head[h];
    head[h] = static_cast<std::int32_t>(pos);
  };

  std::size_t pos = 0;
  while (pos < n) {
    std::size_t len, dist;
    find_match(pos, len, dist);

    if (lazy_ && len > 0 && len < nice_length_ && pos + 1 < n) {
      // One-step lazy evaluation: emit a literal if the next position has a
      // strictly better match.
      insert(pos);
      std::size_t next_len, next_dist;
      find_match(pos + 1, next_len, next_dist);
      if (next_len > len) {
        tokens.push_back({data[pos], 0});
        ++pos;
        len = next_len;
        dist = next_dist;
      }
    } else if (len > 0) {
      insert(pos);
    }

    if (len == 0) {
      insert(pos);
      tokens.push_back({data[pos], 0});
      ++pos;
      continue;
    }
    tokens.push_back({static_cast<std::uint32_t>(len),
                      static_cast<std::uint32_t>(dist)});
    // Register the skipped positions so later matches can reference them.
    for (std::size_t i = 1; i < len; ++i) insert(pos + i);
    pos += len;
  }

  // 2. Histogram the symbol streams.
  std::vector<std::uint64_t> litlen_freq(kLitLenSymbols, 0);
  std::vector<std::uint64_t> dist_freq(kDistSymbols, 0);
  for (const Token& t : tokens) {
    if (t.distance == 0) {
      ++litlen_freq[t.literal_or_length];
    } else {
      ++litlen_freq[kLengthBase +
                    EncodeBucket(t.literal_or_length - kMinMatch).index];
      ++dist_freq[EncodeBucket(t.distance - 1).index];
    }
  }
  ++litlen_freq[kEob];

  const auto litlen_lengths = BuildCodeLengths(litlen_freq);
  const auto dist_lengths = BuildCodeLengths(dist_freq);
  const HuffmanEncoder litlen_enc(litlen_lengths);
  const HuffmanEncoder dist_enc(dist_lengths);

  // 3. Emit the container. The code lengths and histograms give the
  // payload's exact size up front: an incompressible block falls back to
  // stored mode without being emitted, and the payload is allocated once,
  // at its final size, before its first byte is written. Stores keep it for
  // the life of a dedup-table entry, so growth slack would be resident
  // memory.
  std::uint64_t bits =
      8 + CodeLengthsBits(litlen_lengths) + CodeLengthsBits(dist_lengths);
  for (std::size_t s = 0; s < kLitLenSymbols; ++s) {
    const std::uint32_t extra = s >= kLengthBase ? ExtraBits(s - kLengthBase) : 0;
    bits += litlen_freq[s] * (litlen_lengths[s] + extra);
  }
  for (std::size_t s = 0; s < kDistSymbols; ++s) {
    bits += dist_freq[s] * (dist_lengths[s] + ExtraBits(s));
  }
  const std::size_t packed_size = (bits + 7) / 8;
  if (packed_size >= input.size() + 1) {
    // Incompressible: fall back to stored mode.
    util::Bytes stored;
    stored.reserve(input.size() + 1);
    stored.push_back(0);
    stored.insert(stored.end(), input.begin(), input.end());
    return stored;
  }
  BitWriter writer;
  writer.Reserve(packed_size);
  writer.Write(1, 8);  // mode = huffman
  WriteCodeLengths(writer, litlen_lengths);
  WriteCodeLengths(writer, dist_lengths);
  for (const Token& t : tokens) {
    if (t.distance == 0) {
      litlen_enc.Encode(writer, t.literal_or_length);
      continue;
    }
    const Bucket lb = EncodeBucket(t.literal_or_length - kMinMatch);
    litlen_enc.Encode(writer, kLengthBase + lb.index);
    if (lb.extra_bits > 0) writer.Write(lb.extra_value, lb.extra_bits);
    const Bucket db = EncodeBucket(t.distance - 1);
    dist_enc.Encode(writer, db.index);
    if (db.extra_bits > 0) writer.Write(db.extra_value, db.extra_bits);
  }
  litlen_enc.Encode(writer, kEob);
  util::Bytes packed = writer.Finish();
  assert(packed.size() == packed_size && packed.capacity() == packed_size);
  return packed;
}

util::Bytes DeflateCodec::Decompress(util::ByteSpan input,
                                     std::size_t expected_size) const {
  if (input.empty()) throw std::runtime_error("deflate: empty payload");
  const std::uint8_t mode = input[0];
  if (mode == 0) {
    if (input.size() - 1 != expected_size) {
      throw std::runtime_error("deflate: stored size mismatch");
    }
    return util::Bytes(input.begin() + 1, input.end());
  }
  if (mode != 1) throw std::runtime_error("deflate: bad mode byte");

  if (expected_size > (input.size() - 1) * kMaxOutputPerPayloadByte) {
    throw std::runtime_error("deflate: output size exceeds payload bound");
  }

  // The mode byte occupied exactly the first 8 bits of the writer's stream,
  // so the remainder is byte-aligned at offset 1.
  const util::ByteSpan body = input.subspan(1);
  BitReader reader(body);
  const auto litlen_lengths = ReadCodeLengths(reader, kLitLenSymbols);
  const auto dist_lengths = ReadCodeLengths(reader, kDistSymbols);
  const HuffmanDecoder litlen_dec(litlen_lengths);
  const HuffmanDecoder dist_dec(dist_lengths);

  util::Bytes out(expected_size);
  util::Byte* const dst = out.data();
  // The fast loop decodes while its margins hold; this checked loop
  // finishes every payload: its last bytes, underflow, overrun and the
  // end-of-block symbol.
  std::size_t produced =
      DecodeFast(body, reader, litlen_dec, dist_dec, dst, expected_size);
  for (;;) {
    const std::size_t sym = litlen_dec.Decode(reader);
    if (sym < kEob) {
      if (produced == expected_size) {
        throw std::runtime_error("deflate: output overrun");
      }
      dst[produced++] = static_cast<util::Byte>(sym);
      continue;
    }
    if (sym == kEob) break;
    const std::uint32_t len =
        DecodeBucket(static_cast<std::uint32_t>(sym - kLengthBase), reader) +
        kMinMatch;
    const std::size_t dsym = dist_dec.Decode(reader);
    const std::uint32_t dist =
        DecodeBucket(static_cast<std::uint32_t>(dsym), reader) + 1;
    if (dist > produced) throw std::runtime_error("deflate: bad distance");
    if (len > expected_size - produced) {
      throw std::runtime_error("deflate: output overrun");
    }
    util::Byte* const to = dst + produced;
    const util::Byte* const from = to - dist;
    if (dist >= len) {
      std::memcpy(to, from, len);
    } else {
      for (std::uint32_t i = 0; i < len; ++i) {
        to[i] = from[i];  // overlapping copies are intentional
      }
    }
    produced += len;
  }
  if (produced != expected_size) {
    throw std::runtime_error("deflate: output size mismatch");
  }
  return out;
}

CodecCost DeflateCodec::cost() const {
  // Compression cost grows with search effort; decompression is level
  // independent (same token stream structure).
  return {8.0 + 4.0 * level_ * level_ / 3.0, 4.0};
}

}  // namespace squirrel::compress
