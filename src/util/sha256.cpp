#include "util/sha256.h"

#include <algorithm>
#include <bit>
#include <cstring>

// The SHA-extensions path is compiled only for x86 with GCC or Clang; every
// other build has the portable path alone.
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define SQUIRREL_SHA256_X86 1
#include <immintrin.h>
#endif

namespace squirrel::util {
namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

std::uint32_t LoadBe32(const std::uint8_t* p) {
  return (std::uint32_t(p[0]) << 24) | (std::uint32_t(p[1]) << 16) |
         (std::uint32_t(p[2]) << 8) | std::uint32_t(p[3]);
}

#ifdef SQUIRREL_SHA256_X86
// Every function that uses the SHA, SSE4.1 or SSSE3 intrinsics carries this
// attribute itself, so the rest of the build stays baseline x86. GCC does
// not pass it into lambdas, hence plain functions.
#define SQUIRREL_SHA_TARGET __attribute__((target("sha,sse4.1,ssse3")))

// Four message words from 16 unaligned bytes, big-endian within each word.
SQUIRREL_SHA_TARGET inline __m128i LoadMessageWords(const std::uint8_t* p) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), byte_swap);
}

// Rounds 4*group .. 4*group+3 on message words `w`. Each
// _mm_sha256rnds2_epu32 runs two rounds and takes the words plus round
// constants in its low half.
SQUIRREL_SHA_TARGET inline void FourRounds(__m128i& abef, __m128i& cdgh,
                                           __m128i w, int group) {
  const __m128i wk = _mm_add_epi32(
      w, _mm_loadu_si128(
             reinterpret_cast<const __m128i*>(&kRoundConstants[4 * group])));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

// Message words W[t..t+3] from the sixteen before them, four per argument:
// w16 holds W[t-16..t-13], w12 W[t-12..t-9], w8 W[t-8..t-5], w4 W[t-4..t-1].
// msg1 adds sigma0(W[t-15]) to W[t-16], the alignr supplies W[t-7], and
// msg2 adds sigma1(W[t-2]), which for the upper two words is computed here.
SQUIRREL_SHA_TARGET inline __m128i NextMessageWords(__m128i w16, __m128i w12,
                                                    __m128i w8, __m128i w4) {
  const __m128i partial = _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12),
                                        _mm_alignr_epi8(w4, w8, 4));
  return _mm_sha256msg2_epu32(partial, w4);
}

// Register names list lanes high to low, as Intel's SHA documentation does.
SQUIRREL_SHA_TARGET void CompressShaExtensions(
    std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
    std::size_t blocks) {
  // state holds A..H; the round instruction wants ABEF and CDGH.
  const __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w0 = LoadMessageWords(data);
    __m128i w1 = LoadMessageWords(data + 16);
    __m128i w2 = LoadMessageWords(data + 32);
    __m128i w3 = LoadMessageWords(data + 48);
    FourRounds(abef, cdgh, w0, 0);
    FourRounds(abef, cdgh, w1, 1);
    FourRounds(abef, cdgh, w2, 2);
    FourRounds(abef, cdgh, w3, 3);
    for (int group = 4; group < 16; group += 4) {
      w0 = NextMessageWords(w0, w1, w2, w3);
      FourRounds(abef, cdgh, w0, group);
      w1 = NextMessageWords(w1, w2, w3, w0);
      FourRounds(abef, cdgh, w1, group + 1);
      w2 = NextMessageWords(w2, w3, w0, w1);
      FourRounds(abef, cdgh, w2, group + 2);
      w3 = NextMessageWords(w3, w0, w1, w2);
      FourRounds(abef, cdgh, w3, group + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(dchg, feba, 8));
}
#endif  // SQUIRREL_SHA256_X86

// The per-process choice, made on first use.
sha256_internal::CompressFn SelectedCompress() {
  static const sha256_internal::CompressFn selected =
      sha256_internal::HardwareCompress() != nullptr
          ? sha256_internal::HardwareCompress()
          : &sha256_internal::CompressPortable;
  return selected;
}

}  // namespace

namespace sha256_internal {

void CompressPortable(std::array<std::uint32_t, 8>& state,
                      const std::uint8_t* data, std::size_t blocks) {
  std::array<std::uint32_t, 8> s = state;
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = LoadBe32(data + 4 * i);
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = std::rotr(w[i - 15], 7) ^
                               std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = std::rotr(w[i - 2], 17) ^
                               std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = s[0], b = s[1], c = s[2], d = s[3];
    std::uint32_t e = s[4], f = s[5], g = s[6], h = s[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 =
          std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 =
          std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    s[0] += a;
    s[1] += b;
    s[2] += c;
    s[3] += d;
    s[4] += e;
    s[5] += f;
    s[6] += g;
    s[7] += h;
  }
  state = s;
}

CompressFn HardwareCompress() {
#ifdef SQUIRREL_SHA256_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
      __builtin_cpu_supports("ssse3")) {
    return &CompressShaExtensions;
  }
#endif
  return nullptr;
}

}  // namespace sha256_internal

Sha256Context::Sha256Context() : Sha256Context(SelectedCompress()) {}

Sha256Context::Sha256Context(sha256_internal::CompressFn compress)
    : compress_(compress), state_(kInitialState) {}

void Sha256Context::Update(ByteSpan data) {
  if (data.empty()) return;
  total_len_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(n, 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    n -= take;
    if (buffer_len_ < 64) return;
    compress_(state_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  // Whole blocks go to the compression function in one call, so its state
  // stays in registers across the run.
  if (n >= 64) {
    compress_(state_, p, n / 64);
    p += n / 64 * 64;
    n %= 64;
  }
  if (n > 0) {
    std::memcpy(buffer_.data(), p, n);
    buffer_len_ = n;
  }
}

std::array<std::uint8_t, 32> Sha256Context::Finish() {
  // 0x80, zeros, then the message's bit length in the last 8 bytes, big
  // endian. A tail of 56 bytes or more leaves no room for the length in its
  // own block, so the padding fills a second one.
  std::uint8_t tail[128] = {};
  std::memcpy(tail, buffer_.data(), buffer_len_);
  tail[buffer_len_] = 0x80;
  const std::size_t blocks = buffer_len_ < 56 ? 1 : 2;
  const std::uint64_t bit_len = total_len_ * 8;
  for (int i = 0; i < 8; ++i) {
    tail[64 * blocks - 1 - i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  }
  compress_(state_, tail, blocks);

  std::array<std::uint8_t, 32> out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

}  // namespace squirrel::util
