#include <gtest/gtest.h>

#include <algorithm>

#include "buffer_source.h"
#include "store_invariants.h"
#include "util/hash.h"
#include "util/rng.h"
#include "zvol/send_stream.h"
#include "zvol/volume.h"

namespace squirrel::zvol {
namespace {

using util::Bytes;

using test::BufferSource;

Bytes RandomBytes(std::size_t size, std::uint64_t seed) {
  Bytes data(size);
  util::Rng(seed).Fill(data);
  return data;
}

VolumeConfig SmallConfig() {
  return VolumeConfig{.block_size = 4096, .codec = compress::CodecId::kGzip6, .dedup = true};
}

/// Low-entropy text: every codec compresses it well past the 1/8th rule.
Bytes TextBytes(std::size_t size, std::uint64_t seed) {
  Bytes data(size);
  util::Rng rng(seed);
  for (auto& b : data) b = static_cast<util::Byte>('a' + rng.Below(4));
  return data;
}

/// Reads every file of `volume` at its latest state and compares.
void ExpectVolumesEqual(Volume& a, Volume& b) {
  ASSERT_EQ(a.FileNames(), b.FileNames());
  for (const std::string& name : a.FileNames()) {
    ASSERT_EQ(a.FileSize(name), b.FileSize(name)) << name;
    EXPECT_EQ(a.ReadRange(name, 0, a.FileSize(name)),
              b.ReadRange(name, 0, b.FileSize(name)))
        << name;
  }
}

TEST(SendStream, SerializeDeserializeRoundTrip) {
  SendStream stream;
  stream.incremental = true;
  stream.from_id = 3;
  stream.from_name = "from";
  stream.to_id = 4;
  stream.to_name = "to";
  stream.created_at = 12345;
  stream.block_size = 4096;
  stream.codec = "gzip6";
  stream.deleted_files = {"gone"};
  FileRecord file;
  file.name = "f";
  file.logical_size = 8192;
  file.whole_file = true;
  BlockRecord block;
  block.index = 1;
  block.logical_size = 4096;
  block.has_payload = true;
  block.payload = RandomBytes(100, 1);
  file.blocks.push_back(block);
  stream.files.push_back(file);

  const Bytes wire = stream.Serialize();
  const SendStream parsed = SendStream::Deserialize(wire);
  EXPECT_EQ(parsed.from_id, 3u);
  EXPECT_EQ(parsed.to_name, "to");
  EXPECT_EQ(parsed.codec, "gzip6");
  EXPECT_EQ(parsed.deleted_files, stream.deleted_files);
  ASSERT_EQ(parsed.files.size(), 1u);
  EXPECT_EQ(parsed.files[0].blocks[0].payload, block.payload);
  EXPECT_EQ(stream.WireSize(), wire.size());
}

TEST(SendStream, CorruptionRejected) {
  SendStream stream;
  stream.to_id = 1;
  stream.to_name = "s";
  stream.block_size = 4096;
  stream.codec = "null";
  Bytes wire = stream.Serialize();
  // Flip one payload bit — the SHA-256 trailer must catch it.
  wire[wire.size() / 2] ^= 0x01;
  EXPECT_THROW(SendStream::Deserialize(wire), std::runtime_error);
}

TEST(SendStream, TruncationRejected) {
  SendStream stream;
  stream.to_id = 1;
  stream.to_name = "s";
  stream.block_size = 4096;
  stream.codec = "null";
  Bytes wire = stream.Serialize();
  wire.resize(wire.size() - 5);
  EXPECT_THROW(SendStream::Deserialize(wire), std::runtime_error);
  EXPECT_THROW(SendStream::Deserialize(Bytes(10, 0)), std::runtime_error);
}

TEST(SendStream, Version1StreamIsRefused) {
  // A version-1 stream ("SQSS" magic) carries no record checksums. Only the
  // magic of a valid version-2 stream is rewritten and the trailer resealed,
  // so the magic check is what refuses it.
  SendStream stream;
  stream.to_id = 9;
  stream.to_name = "v1-snap";
  stream.block_size = 4096;
  stream.codec = "gzip6";
  Bytes wire = stream.Serialize();
  const std::uint32_t v1_magic = 0x53515353;  // "SQSS"
  for (int i = 0; i < 4; ++i) {
    wire[i] = static_cast<util::Byte>(v1_magic >> (8 * i));
  }
  const std::size_t body = wire.size() - 32;
  const auto trailer = util::Sha256(util::ByteSpan(wire.data(), body));
  std::copy(trailer.begin(), trailer.end(), wire.begin() + body);
  EXPECT_THROW(SendStream::Deserialize(wire), StreamCorruptError);
}

TEST(SendStream, TruncatedTrailingChecksumRejected) {
  SendStream stream;
  stream.to_id = 1;
  stream.to_name = "s";
  stream.block_size = 4096;
  stream.codec = "gzip6";
  FileRecord file;
  file.name = "f";
  file.logical_size = 4096;
  file.whole_file = true;
  BlockRecord block;
  block.has_payload = true;
  block.logical_size = 4096;
  block.payload = RandomBytes(64, 22);
  file.blocks.push_back(block);
  stream.files.push_back(file);

  Bytes wire = stream.Serialize();
  // Chop half the SHA-256 trailer: the remaining bytes reinterpret as a
  // (body, trailer) pair whose checksum cannot match.
  wire.resize(wire.size() - 8);
  EXPECT_THROW(SendStream::Deserialize(wire), StreamCorruptError);
  // And losing the whole trailer plus body bytes below the 32-byte floor is
  // reported as a truncation, not a parse error.
  EXPECT_THROW(SendStream::Deserialize(Bytes(31, 0)), StreamCorruptError);
}

TEST(Send, FullStreamReplicatesVolume) {
  Volume source(SmallConfig());
  source.WriteFile("a", BufferSource(RandomBytes(10 * 4096, 1)));
  Bytes sparse(8 * 4096, 0);
  sparse[4096] = 7;
  source.WriteFile("sparse", BufferSource(sparse));
  source.CreateSnapshot("s1", 100);

  const SendStream stream = source.Send("", "s1");
  Volume replica(SmallConfig());
  replica.Receive(SendStream::Deserialize(stream.Serialize()));

  ExpectVolumesEqual(source, replica);
  EXPECT_EQ(replica.LatestSnapshot()->name, "s1");
  EXPECT_EQ(replica.LatestSnapshot()->id, source.LatestSnapshot()->id);
}

TEST(Send, IncrementalAppliesOnTopOfBase) {
  Volume source(SmallConfig());
  source.WriteFile("a", BufferSource(RandomBytes(10 * 4096, 2)));
  source.CreateSnapshot("s1", 100);

  Volume replica(SmallConfig());
  replica.Receive(source.Send("", "s1"));

  source.WriteFile("b", BufferSource(RandomBytes(6 * 4096, 3)));
  source.DeleteFile("a");
  source.CreateSnapshot("s2", 200);

  replica.Receive(source.Send("s1", "s2"));
  ExpectVolumesEqual(source, replica);
  EXPECT_FALSE(replica.HasFile("a"));
}

TEST(Send, IncrementalOmitsPayloadsTheReceiverHas) {
  Volume source(SmallConfig());
  const Bytes shared = RandomBytes(32 * 4096, 4);
  source.WriteFile("first", BufferSource(shared));
  source.CreateSnapshot("s1", 100);

  // The second file duplicates the first: the diff must carry almost no
  // payload (Squirrel's cross-similar caches produce small diffs this way).
  source.WriteFile("second", BufferSource(shared));
  source.CreateSnapshot("s2", 200);
  const SendStream diff = source.Send("s1", "s2");
  EXPECT_EQ(diff.PayloadBytes(), 0u);
  EXPECT_LT(diff.WireSize(), 4096u);  // metadata only

  Volume replica(SmallConfig());
  replica.Receive(source.Send("", "s1"));
  replica.Receive(diff);
  ExpectVolumesEqual(source, replica);
}

TEST(Send, PayloadsCompressedOnTheWire) {
  Volume source(SmallConfig());
  const Bytes text = TextBytes(16 * 4096, 5);
  source.WriteFile("text", BufferSource(text));
  source.CreateSnapshot("s1", 100);
  const SendStream stream = source.Send("", "s1");
  EXPECT_LT(stream.PayloadBytes(), text.size() / 2);
}

TEST(Send, DuplicatePayloadSentOnceWithinStream) {
  Volume source(SmallConfig());
  const Bytes block = RandomBytes(4096, 6);
  Bytes content;
  for (int i = 0; i < 10; ++i) content.insert(content.end(), block.begin(), block.end());
  source.WriteFile("dup", BufferSource(content));
  source.CreateSnapshot("s1", 100);
  const SendStream stream = source.Send("", "s1");
  // Ten references, one payload.
  EXPECT_LE(stream.PayloadBytes(), 4096u + 64);
  Volume replica(SmallConfig());
  replica.Receive(stream);
  EXPECT_EQ(replica.ReadRange("dup", 0, content.size()), content);
}

TEST(Send, PayloadAlteredAfterSendFailsRecordChecksum) {
  // Serialize writes the checksum Send stamped; it does not re-checksum the
  // payload, so bytes altered in between reach the wire and are caught.
  Volume source(SmallConfig());
  source.WriteFile("text", BufferSource(TextBytes(4 * 4096, 7)));
  source.CreateSnapshot("s1", 100);
  SendStream stream = source.Send("", "s1");
  BlockRecord* carried = nullptr;
  for (FileRecord& file : stream.files) {
    for (BlockRecord& block : file.blocks) {
      if (block.has_payload && carried == nullptr) carried = &block;
    }
  }
  ASSERT_NE(carried, nullptr);
  ASSERT_NE(carried->payload_checksum, 0u);
  carried->payload[0] ^= 0x01;
  EXPECT_THROW(SendStream::Deserialize(stream.Serialize()), StreamMismatchError);
}

TEST(Receive, BaseMismatchThrows) {
  Volume source(SmallConfig());
  source.CreateFile("f", 4096);
  source.CreateSnapshot("s1", 100);
  source.CreateFile("g", 4096);
  source.CreateSnapshot("s2", 200);
  source.CreateFile("h", 4096);
  source.CreateSnapshot("s3", 300);

  Volume replica(SmallConfig());
  replica.Receive(source.Send("", "s1"));
  // Skipping s2: applying s2->s3 on a replica at s1 must fail.
  EXPECT_THROW(replica.Receive(source.Send("s2", "s3")),
               StreamMismatchError);
  // The correct diff still applies afterwards.
  replica.Receive(source.Send("s1", "s2"));
  replica.Receive(source.Send("s2", "s3"));
  EXPECT_EQ(replica.LatestSnapshot()->name, "s3");
}

TEST(Receive, FullStreamIntoNonEmptyVolumeThrows) {
  Volume source(SmallConfig());
  source.CreateFile("f", 4096);
  source.CreateSnapshot("s1", 100);
  source.CreateFile("g", 4096);
  source.CreateSnapshot("s2", 200);
  Volume replica(SmallConfig());
  replica.Receive(source.Send("", "s1"));
  EXPECT_THROW(replica.Receive(source.Send("", "s2")), StreamMismatchError);
}

TEST(Receive, RedeliveryIsIdempotentWithoutInjector) {
  // A stream whose `to` snapshot is already the replica's latest was applied
  // before; receiving it again changes nothing, with or without a fault
  // injector armed.
  Volume source(SmallConfig());
  source.WriteFile("a", BufferSource(RandomBytes(4 * 4096, 21)));
  source.CreateSnapshot("s1", 100);
  source.WriteFile("b", BufferSource(RandomBytes(4 * 4096, 22)));
  source.CreateSnapshot("s2", 200);

  Volume replica(SmallConfig());
  replica.Receive(source.Send("", "s1"));
  const SendStream incremental = source.Send("s1", "s2");
  replica.Receive(incremental);
  const Bytes applied = replica.Serialize();
  replica.Receive(incremental);
  EXPECT_EQ(replica.Serialize(), applied);

  Volume resynced(SmallConfig());
  const SendStream full = source.Send("", "s2");
  resynced.ReceiveFull(full);
  const Bytes resynced_image = resynced.Serialize();
  resynced.ReceiveFull(full);
  EXPECT_EQ(resynced.Serialize(), resynced_image);
  resynced.Receive(full);
  EXPECT_EQ(resynced.Serialize(), resynced_image);
}

TEST(Receive, BlockSizeMismatchThrows) {
  Volume source(SmallConfig());
  source.CreateFile("f", 4096);
  source.CreateSnapshot("s1", 100);
  Volume replica(VolumeConfig{.block_size = 8192, .codec = compress::CodecId::kGzip6});
  EXPECT_THROW(replica.Receive(source.Send("", "s1")), StreamMismatchError);
}

TEST(Receive, CorruptSenderBlockRejectedByReceiver) {
  // Send ships payloads as stored, without reading them back, so a block
  // corrupted on the sender travels; the receiver's decode and digest check
  // rejects the stream before anything changes. gzip6 stores the damaged
  // block compressed, null stores it raw.
  for (const compress::CodecId codec :
       {compress::CodecId::kGzip6, compress::CodecId::kNull}) {
    SCOPED_TRACE(std::string(compress::CodecName(codec)));
    const VolumeConfig config{.block_size = 4096, .codec = codec, .dedup = true};
    Volume source(config);
    source.WriteFile("a", BufferSource(RandomBytes(4 * 4096, 31)));
    source.CreateSnapshot("s1", 100);
    source.WriteFile("b", BufferSource(TextBytes(4 * 4096, 32)));
    source.CreateSnapshot("s2", 200);
    Volume replica(config);
    replica.Receive(source.Send("", "s1"));
    const Bytes before = replica.Serialize();

    ASSERT_TRUE(source.CorruptBlockForTesting("b", 1));
    SendStream incremental;
    SendStream full;
    ASSERT_NO_THROW(incremental = source.Send("s1", "s2"));
    ASSERT_NO_THROW(full = source.Send("", "s2"));
    EXPECT_THROW(replica.Receive(incremental), StreamCorruptError);
    EXPECT_EQ(replica.Serialize(), before);
    EXPECT_THROW(replica.ReceiveFull(full), StreamCorruptError);
    EXPECT_EQ(replica.Serialize(), before);
    test::ExpectVolumeInvariants(replica);
  }
}

TEST(Receive, CodecMismatchRejected) {
  // A receiver keeps carried payloads in the form the sender stored them,
  // so a stream must carry the receiver's own codec.
  Volume source(SmallConfig());
  const Bytes a = TextBytes(4 * 4096, 41);
  source.WriteFile("a", BufferSource(a));
  source.CreateSnapshot("s1", 100);
  source.WriteFile("b", BufferSource(TextBytes(4 * 4096, 42)));
  source.CreateSnapshot("s2", 200);

  const VolumeConfig lz4{.block_size = 4096, .codec = compress::CodecId::kLz4,
                         .dedup = true};
  Volume empty(lz4);
  const Bytes empty_image = empty.Serialize();
  EXPECT_THROW(empty.Receive(source.Send("", "s1")), StreamMismatchError);
  EXPECT_EQ(empty.Serialize(), empty_image);

  // An lz4 replica whose latest snapshot has the stream base's identity.
  Volume replica(lz4);
  replica.WriteFile("a", BufferSource(a));
  replica.CreateSnapshot("s1", 100);
  const Bytes before = replica.Serialize();
  EXPECT_THROW(replica.Receive(source.Send("s1", "s2")), StreamMismatchError);
  EXPECT_EQ(replica.Serialize(), before);
  EXPECT_THROW(replica.ReceiveFull(source.Send("", "s2")),
               StreamMismatchError);
  EXPECT_EQ(replica.Serialize(), before);
  test::ExpectVolumeInvariants(replica);
}

TEST(ReceiveFull, ResetsStaleReplica) {
  Volume source(SmallConfig());
  source.WriteFile("a", BufferSource(RandomBytes(4 * 4096, 7)));
  source.CreateSnapshot("s1", 100);

  Volume replica(SmallConfig());
  replica.Receive(source.Send("", "s1"));

  // Source advances twice and prunes; the replica's base is gone.
  source.WriteFile("b", BufferSource(RandomBytes(4 * 4096, 8)));
  source.CreateSnapshot("s2", 2000000);
  source.WriteFile("c", BufferSource(RandomBytes(4 * 4096, 9)));
  source.CreateSnapshot("s3", 3000000);
  source.PruneSnapshots(10, 4000000);
  ASSERT_EQ(source.FindSnapshot("s1"), nullptr);

  replica.ReceiveFull(source.Send("", "s3"));
  ExpectVolumesEqual(source, replica);
  EXPECT_EQ(replica.LatestSnapshot()->name, "s3");
  EXPECT_EQ(replica.snapshots().size(), 1u);
}

TEST(Send, ShrunkFileTailBlocksReleasedOnReceiver) {
  Volume source(SmallConfig());
  source.WriteFile("f", BufferSource(RandomBytes(8 * 4096, 10)));
  source.CreateSnapshot("s1", 100);
  Volume replica(SmallConfig());
  replica.Receive(source.Send("", "s1"));

  source.WriteFile("f", BufferSource(RandomBytes(2 * 4096, 11)));
  source.CreateSnapshot("s2", 200);
  replica.Receive(source.Send("s1", "s2"));
  ExpectVolumesEqual(source, replica);
  EXPECT_EQ(replica.FileSize("f"), 2u * 4096);
}

TEST(Send, FromMustPrecedeTo) {
  Volume source(SmallConfig());
  source.CreateFile("f", 4096);
  source.CreateSnapshot("s1", 100);
  source.CreateSnapshot("s2", 200);
  EXPECT_THROW(source.Send("s2", "s1"), std::invalid_argument);
  EXPECT_THROW(source.Send("s1", "missing"), NoSuchSnapshotError);
  EXPECT_THROW(source.Send("missing", "s2"), NoSuchSnapshotError);
}

}  // namespace
}  // namespace squirrel::zvol
