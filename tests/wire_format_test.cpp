// The wire codec (util/wire.h) and the golden bytes of the three binary
// formats built on it: the send stream, the volume image and the boot
// profile. Each fixed input's serialized bytes are pinned by their SHA-256,
// so a change to an encoder that moves any byte fails here (DESIGN.md §23).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>

#include "buffer_source.h"
#include "util/hash.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/wire.h"
#include "vmi/boot_profile.h"
#include "zvol/send_stream.h"
#include "zvol/volume.h"

namespace squirrel {
namespace {

using util::Bytes;

std::string Sha256Hex(const Bytes& data) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string hex;
  for (std::uint8_t b : util::Sha256(data)) {
    hex += kHex[b >> 4];
    hex += kHex[b & 0xf];
  }
  return hex;
}

Bytes Pattern(std::size_t size, std::uint8_t seed) {
  Bytes data(size);
  for (std::size_t i = 0; i < size; ++i) {
    data[i] = static_cast<util::Byte>(seed + 7 * i);
  }
  return data;
}

/// A version-2 incremental stream, built by hand so no codec or store
/// decision feeds it: a compressed and a raw payload record, a hole, a
/// by-reference record and a deleted file.
zvol::SendStream GoldenStream() {
  zvol::SendStream s;
  s.incremental = true;
  s.from_id = 3;
  s.from_name = "s3";
  s.to_id = 4;
  s.to_name = "s4";
  s.created_at = 86400;
  s.block_size = 4096;
  s.codec = "gzip6";
  s.deleted_files = {"cache-2", "cache-5"};

  zvol::FileRecord changed;
  changed.name = "cache-7";
  changed.logical_size = 3 * 4096 + 100;
  zvol::BlockRecord compressed;
  compressed.index = 0;
  compressed.digest = util::HashBlock(Pattern(4096, 1));
  compressed.logical_size = 4096;
  compressed.has_payload = true;
  compressed.payload_compressed = true;
  compressed.payload = Pattern(300, 2);
  zvol::BlockRecord hole;
  hole.index = 1;
  hole.hole = true;
  zvol::BlockRecord by_reference;
  by_reference.index = 3;
  by_reference.digest = util::HashBlock(Pattern(100, 3));
  by_reference.logical_size = 100;
  changed.blocks = {compressed, hole, by_reference};

  zvol::FileRecord added;
  added.name = "cache-9";
  added.logical_size = 4096;
  added.whole_file = true;
  zvol::BlockRecord raw;
  raw.digest = util::HashBlock(Pattern(4096, 4));
  raw.logical_size = 4096;
  raw.has_payload = true;
  raw.payload = Pattern(4096, 4);
  raw.payload_checksum = zvol::SendStream::PayloadChecksum(raw.payload);
  added.blocks = {raw};

  s.files = {changed, added};
  return s;
}

/// Two snapshots over dense, sparse and deleted files.
std::unique_ptr<zvol::Volume> GoldenVolume() {
  auto volume = std::make_unique<zvol::Volume>(zvol::VolumeConfig{
      .block_size = 4096, .codec = compress::CodecId::kGzip6, .dedup = true});
  Bytes dense(10 * 4096);
  util::Rng(6).Fill(dense);
  Bytes sparse(8 * 4096, 0);
  sparse[4096 + 7] = 9;
  volume->WriteFile("a", test::BufferSource(dense));
  volume->WriteFile("sparse", test::BufferSource(sparse));
  volume->CreateSnapshot("s1", 100);
  volume->DeleteFile("a");
  volume->WriteFile("b", test::BufferSource(Pattern(6 * 4096 + 10, 5)));
  volume->CreateSnapshot("s2", 200);
  return volume;
}

vmi::BootProfile GoldenProfile() {
  vmi::BootProfile profile;
  static const char* kFiles[] = {"cache/a", "cache/b", "base/a"};
  util::Rng rng(42);
  for (int i = 0; i < 24; ++i) {
    profile.Record(kFiles[rng.Below(3)], rng.Below(1 << 20), rng.Chance(0.5));
  }
  return profile;
}

TEST(WireFormat, GoldenBytes) {
  // Each reader must also take the pinned bytes back to the same value.
  const Bytes stream = GoldenStream().Serialize();
  EXPECT_EQ(stream.size(), 4716u);
  EXPECT_EQ(Sha256Hex(stream),
            "718b5a83a6679b4bf79eedb0fa7f1fc0ab42b27869fb2fc25900ae8bc4eb4244");
  EXPECT_EQ(zvol::SendStream::Deserialize(stream).Serialize(), stream);

  const Bytes image = GoldenVolume()->Serialize();
  EXPECT_EQ(image.size(), 50442u);
  EXPECT_EQ(Sha256Hex(image),
            "eaecb3789c1736894c1df9fe97bc79ad9a4d6c0842deedac451ebf87cee67d00");
  EXPECT_EQ(zvol::Volume::Deserialize(image)->Serialize(), image);

  const Bytes profile = GoldenProfile().Serialize();
  EXPECT_EQ(profile.size(), 588u);
  EXPECT_EQ(Sha256Hex(profile),
            "6296e6a9a048a305a3932a1e91f0173db448cbd02a160c2fba340fa005a9e8ee");
  EXPECT_EQ(vmi::BootProfile::Deserialize(profile), GoldenProfile());
}

/// A caller's own error type: the codec must throw exactly this.
class TestFormatError : public Error {
 public:
  using Error::Error;
};

using TestReader = util::wire::Reader<TestFormatError>;

/// One of every primitive, in a fixed order.
Bytes EncodeAll() {
  util::wire::Writer w;
  w.U8(0xa5);
  w.U32(0x01020304);
  w.U64(0xfedcba9876543210ull);
  w.Str("");
  w.Str("volume");
  w.Blob(Pattern(5, 9));
  w.U32(0xffffffffu);
  w.U64(0);
  return w.TakeWithTrailer();
}

void DecodeAll(TestReader& r) {
  EXPECT_EQ(r.U8(), 0xa5);
  EXPECT_EQ(r.U32(), 0x01020304u);
  EXPECT_EQ(r.U64(), 0xfedcba9876543210ull);
  EXPECT_EQ(r.Str(), "");
  EXPECT_EQ(r.Str(), "volume");
  EXPECT_EQ(r.Blob(), Pattern(5, 9));
  EXPECT_EQ(r.U32(), 0xffffffffu);
  EXPECT_EQ(r.U64(), 0u);
}

TEST(WireCodec, RoundTripsEveryPrimitive) {
  const Bytes wire = EncodeAll();
  const util::ByteSpan body = util::wire::VerifyTrailer<TestFormatError>(
      wire, "too short", "mismatch");
  EXPECT_EQ(body.size(), 1 + 4 + 8 + 4 + 10 + 9 + 4 + 8u);
  EXPECT_EQ(wire.size(), body.size() + util::wire::kTrailerBytes);
  TestReader r(body, "truncated");
  DecodeAll(r);
  EXPECT_EQ(r.pos(), body.size());
}

TEST(WireCodec, IntegersAreLittleEndianAndLengthsPrefixed) {
  util::wire::Writer w;
  w.U32(0x01020304);
  w.Str("ab");
  EXPECT_EQ(w.size(), 10u);
  const util::ByteSpan tail = w.Tail(4);
  EXPECT_EQ(Bytes(tail.begin(), tail.end()),
            (Bytes{0x02, 0x00, 0x00, 0x00, 'a', 'b'}));
  const Bytes wire = w.TakeWithTrailer();
  EXPECT_EQ(Bytes(wire.begin(), wire.begin() + 4),
            (Bytes{0x04, 0x03, 0x02, 0x01}));
  const std::array<std::uint8_t, 32> trailer =
      util::Sha256(util::ByteSpan(wire.data(), 10));
  EXPECT_TRUE(std::equal(trailer.begin(), trailer.end(), wire.begin() + 10));
}

TEST(WireCodec, SpanReturnsAnAlreadyReadRecord) {
  util::wire::Writer w;
  w.U64(7);
  w.U32(11);
  w.U8(1);
  const Bytes wire = w.TakeWithTrailer();
  TestReader r(util::ByteSpan(wire).first(13), "truncated");
  r.U64();
  const std::size_t record_start = r.pos();
  r.U32();
  r.U8();
  const util::ByteSpan record = r.Span(record_start, 5);
  EXPECT_EQ(Bytes(record.begin(), record.end()),
            (Bytes{11, 0, 0, 0, 1}));
}

TEST(WireCodec, TruncationAtEveryPrefixThrowsTheCallersError) {
  const Bytes wire = EncodeAll();
  const std::size_t body_size = wire.size() - util::wire::kTrailerBytes;
  for (std::size_t length = 0; length < body_size; ++length) {
    SCOPED_TRACE(length);
    TestReader r(util::ByteSpan(wire.data(), length), "record truncated");
    try {
      DecodeAll(r);
      FAIL() << "a " << length << "-byte prefix decoded in full";
    } catch (const TestFormatError& e) {
      EXPECT_STREQ(e.what(), "record truncated");
    }
  }
}

TEST(WireCodec, TrailerRejectsShortInputAndEveryFlippedByte) {
  const Bytes wire = EncodeAll();
  for (std::size_t length = 0; length < util::wire::kTrailerBytes; ++length) {
    try {
      util::wire::VerifyTrailer<TestFormatError>(
          util::ByteSpan(wire.data(), length), "too short", "mismatch");
      FAIL() << length << " bytes passed the trailer check";
    } catch (const TestFormatError& e) {
      EXPECT_STREQ(e.what(), "too short");
    }
  }
  // The bare trailer of an empty body is the smallest valid input.
  EXPECT_TRUE(util::wire::VerifyTrailer<TestFormatError>(
                  util::wire::Writer().TakeWithTrailer(), "too short",
                  "mismatch")
                  .empty());
  for (std::size_t i = 0; i < wire.size(); ++i) {
    Bytes damaged = wire;
    damaged[i] ^= 0x10;
    try {
      util::wire::VerifyTrailer<TestFormatError>(damaged, "too short",
                                                 "mismatch");
      FAIL() << "flipped byte " << i << " passed the trailer check";
    } catch (const TestFormatError& e) {
      EXPECT_STREQ(e.what(), "mismatch");
    }
  }
}

}  // namespace
}  // namespace squirrel
