#include "util/hash.h"

#include <gtest/gtest.h>

#include <string_view>
#include <utility>

#include "util/sha256.h"
#include "vmi/corpus.h"

namespace squirrel::util {
namespace {

Bytes ToBytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string HexOf(const std::array<std::uint8_t, 32>& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (auto b : digest) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

// FIPS 180-4 test vectors.
TEST(Sha256, EmptyInput) {
  EXPECT_EQ(HexOf(Sha256({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(HexOf(Sha256(ToBytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(HexOf(Sha256(ToBytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256Context ctx;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.Update(chunk);
  EXPECT_EQ(HexOf(ctx.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

Bytes PatternBytes(std::size_t size) {
  Bytes data(size);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<Byte>(i * 131 + 7);
  }
  return data;
}

// Feeds `data` in awkward chunk sizes crossing the 64-byte block boundary.
std::array<std::uint8_t, 32> FinishInAwkwardChunks(Sha256Context ctx,
                                                   ByteSpan data) {
  std::size_t pos = 0;
  std::size_t chunk = 1;
  while (pos < data.size()) {
    const std::size_t take = std::min(chunk, data.size() - pos);
    ctx.Update(data.subspan(pos, take));
    pos += take;
    chunk = (chunk * 3 + 1) % 257;
  }
  return ctx.Finish();
}

TEST(Sha256, StreamingMatchesOneShot) {
  const Bytes data = PatternBytes(100000);
  EXPECT_EQ(FinishInAwkwardChunks(Sha256Context(), data), Sha256(data));
}

// Differential tests: the SHA-extensions compression function against the
// portable one, which the FIPS 180-4 vectors pin.

using sha256_internal::CompressFn;
using sha256_internal::CompressPortable;

constexpr const char* kNoShaExtensions =
    "this CPU lacks the x86 SHA extensions; only the portable path runs";

std::array<std::uint8_t, 32> Sha256With(CompressFn compress, ByteSpan data) {
  Sha256Context ctx(compress);
  ctx.Update(data);
  return ctx.Finish();
}

struct FipsVector {
  std::string_view message;
  std::string_view digest;
};

// The one-block, two-block and 896-bit messages of FIPS 180-4 plus the empty
// string, with the standard million-'a' message checked separately.
constexpr FipsVector kFipsVectors[] = {
    {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    {"abc",
     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
    {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
    {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnop"
     "jklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
     "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
};

void ExpectFipsVectors(CompressFn compress) {
  for (const FipsVector& v : kFipsVectors) {
    EXPECT_EQ(HexOf(Sha256With(compress, ToBytes(v.message))), v.digest)
        << "message of " << v.message.size() << " bytes";
  }
  Sha256Context ctx(compress);
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.Update(chunk);
  EXPECT_EQ(HexOf(ctx.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, FipsVectorsPortable) { ExpectFipsVectors(CompressPortable); }

TEST(Sha256, FipsVectorsHardware) {
  const CompressFn hardware = sha256_internal::HardwareCompress();
  if (hardware == nullptr) GTEST_SKIP() << kNoShaExtensions;
  ExpectFipsVectors(hardware);
}

TEST(Sha256, PaddingBoundaries) {
  // 55 bytes is the longest tail whose length fits in its own block; 56 to
  // 63 spill into a second block; 64 and 65 start a fresh one.
  const std::pair<std::size_t, std::string_view> cases[] = {
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0"},
  };
  for (const auto& [len, digest] : cases) {
    EXPECT_EQ(HexOf(Sha256(Bytes(len, 'a'))), digest) << len << " bytes";
  }
}

TEST(Sha256, HardwareMatchesPortableAtEveryLengthTo1024) {
  const CompressFn hardware = sha256_internal::HardwareCompress();
  if (hardware == nullptr) GTEST_SKIP() << kNoShaExtensions;
  const Bytes data = PatternBytes(1024);
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const ByteSpan span(data.data(), len);
    ASSERT_EQ(Sha256With(hardware, span), Sha256With(CompressPortable, span))
        << len << " bytes";
  }
}

TEST(Sha256, HardwareMatchesPortableOnCorpusBlocks) {
  const CompressFn hardware = sha256_internal::HardwareCompress();
  if (hardware == nullptr) GTEST_SKIP() << kNoShaExtensions;
  Bytes block(64 << 10);
  for (std::uint64_t index = 0; index < 8; ++index) {
    vmi::GenerateCorpus(/*seed=*/4242, index * block.size(), block);
    EXPECT_EQ(Sha256With(hardware, block), Sha256With(CompressPortable, block))
        << "corpus block " << index;
  }
}

TEST(Sha256, HardwareMatchesPortableOnUnalignedSpans) {
  const CompressFn hardware = sha256_internal::HardwareCompress();
  if (hardware == nullptr) GTEST_SKIP() << kNoShaExtensions;
  // The allocation is 16-byte aligned, so offset k is misaligned by k.
  const Bytes data = PatternBytes((64 << 10) + 16);
  for (std::size_t offset = 1; offset < 16; ++offset) {
    for (std::size_t len : {1ul, 55ul, 64ul, 129ul, 1000ul, 64ul << 10}) {
      const ByteSpan span(data.data() + offset, len);
      EXPECT_EQ(Sha256With(hardware, span), Sha256With(CompressPortable, span))
          << "offset " << offset << ", " << len << " bytes";
    }
  }
}

TEST(Sha256, HardwareMatchesPortableWhenStreamed) {
  const CompressFn hardware = sha256_internal::HardwareCompress();
  if (hardware == nullptr) GTEST_SKIP() << kNoShaExtensions;
  const Bytes data = PatternBytes(100000);
  EXPECT_EQ(FinishInAwkwardChunks(Sha256Context(hardware), data),
            Sha256With(CompressPortable, data));
}

TEST(HashBlock, TruncatesSha256) {
  const Bytes data = ToBytes("abc");
  const Digest digest = HashBlock(data);
  EXPECT_EQ(digest.ToHex(), "ba7816bf8f01cfea414140de5dae2223");
}

TEST(HashBlock, DistinctInputsDistinctDigests) {
  const Digest a = HashBlock(ToBytes("block-a"));
  const Digest b = HashBlock(ToBytes("block-b"));
  EXPECT_NE(a, b);
  EXPECT_NE(a.Prefix64(), b.Prefix64());
}

TEST(Fnv1a64, KnownValues) {
  // FNV-1a of empty input is the offset basis.
  EXPECT_EQ(Fnv1a64({}), 0xcbf29ce484222325ULL);
  // "a" -> standard FNV-1a 64 value.
  EXPECT_EQ(Fnv1a64(ToBytes("a")), 0xaf63dc4c8601ec8cULL);
}

TEST(Fnv1a64, SeedChangesResult) {
  const Bytes data = ToBytes("same input");
  EXPECT_NE(Fnv1a64(data, 1), Fnv1a64(data, 2));
}

TEST(FastHash128, DeterministicAndSeeded) {
  const Bytes data = ToBytes("squirrel scatter hoarding");
  const Fast128 h1 = FastHash128(data);
  const Fast128 h2 = FastHash128(data);
  EXPECT_EQ(h1.lo, h2.lo);
  EXPECT_EQ(h1.hi, h2.hi);
  const Fast128 seeded = FastHash128(data, 42);
  EXPECT_TRUE(seeded.lo != h1.lo || seeded.hi != h1.hi);
}

TEST(FastHash128, SingleBitFlipChangesBothLanes) {
  Bytes data(64, 0xAA);
  const Fast128 base = FastHash128(data);
  int lo_changes = 0, hi_changes = 0;
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    Bytes copy = data;
    copy[byte] ^= 1;
    const Fast128 h = FastHash128(copy);
    lo_changes += (h.lo != base.lo);
    hi_changes += (h.hi != base.hi);
  }
  EXPECT_EQ(lo_changes, 64);
  EXPECT_EQ(hi_changes, 64);
}

TEST(FastHash128, TailBytesMatter) {
  // Lengths not a multiple of 16 exercise the byte-serial tail.
  for (std::size_t len : {1ul, 15ul, 17ul, 31ul}) {
    Bytes a(len, 0x11), b(len, 0x11);
    b[len - 1] ^= 0xff;
    const Fast128 ha = FastHash128(a);
    const Fast128 hb = FastHash128(b);
    EXPECT_TRUE(ha.lo != hb.lo || ha.hi != hb.hi) << len;
  }
}

}  // namespace
}  // namespace squirrel::util
