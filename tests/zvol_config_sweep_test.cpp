// Cross-configuration sweep: the full volume life cycle — ingest, snapshot,
// incremental replication, scrub, persistence round trip — must hold for
// every (block size x codec x hash mode) combination, not just the defaults
// the benches use.
#include <gtest/gtest.h>

#include <tuple>

#include "buffer_source.h"
#include "util/rng.h"
#include "zvol/volume.h"

namespace squirrel::zvol {
namespace {

using util::Bytes;

using test::BufferSource;

// Mixed-texture content: zero stretches, compressible text, random tails,
// plus duplicated segments so every feature (holes, compression, dedup) is
// exercised regardless of configuration.
Bytes MixedContent(std::size_t size, std::uint64_t seed) {
  Bytes data(size, 0);
  util::Rng rng(seed);
  std::size_t pos = 0;
  while (pos < size) {
    const std::size_t len = std::min<std::size_t>(size - pos, 3000 + rng.Below(9000));
    switch (rng.Below(4)) {
      case 0:
        break;  // zeros
      case 1:
        for (std::size_t i = 0; i < len; ++i) {
          data[pos + i] = static_cast<util::Byte>('a' + rng.Below(5));
        }
        break;
      case 2:
        rng.Fill(util::MutableByteSpan(data.data() + pos, len));
        break;
      default:  // duplicate of an earlier region when possible
        if (pos > len) {
          std::copy_n(data.begin(), len,
                      data.begin() + static_cast<std::ptrdiff_t>(pos));
        }
        break;
    }
    pos += len;
  }
  return data;
}

using Param = std::tuple<std::uint32_t, std::string, bool>;  // bs, codec, fast

class VolumeConfigSweep : public ::testing::TestWithParam<Param> {
 protected:
  VolumeConfig Config() const {
    const auto& [bs, codec, fast] = GetParam();
    return VolumeConfig{.block_size = bs,
                        .codec = *compress::ParseCodec(codec),
                        .dedup = true,
                        .fast_hash = fast};
  }
};

TEST_P(VolumeConfigSweep, FullLifeCycle) {
  Volume source(Config());

  // Ingest two generations of files.
  const Bytes gen1 = MixedContent(200000, 1);
  const Bytes gen2 = MixedContent(150000, 2);
  source.WriteFile("one", BufferSource(gen1));
  source.CreateSnapshot("s1", 100);
  source.WriteFile("two", BufferSource(gen2));
  source.DeleteFile("one");
  source.CreateSnapshot("s2", 200);

  // Replicate incrementally.
  Volume replica(Config());
  replica.Receive(SendStream::Deserialize(source.Send("", "s1").Serialize()));
  replica.Receive(SendStream::Deserialize(source.Send("s1", "s2").Serialize()));
  ASSERT_EQ(replica.FileNames(), source.FileNames());
  EXPECT_EQ(replica.ReadRange("two", 0, gen2.size()), gen2);

  // Scrub both sides.
  EXPECT_EQ(source.Scrub().errors, 0u);
  EXPECT_EQ(replica.Scrub().errors, 0u);

  // Persistence round trip of the replica preserves replication ability.
  const auto restored = Volume::Deserialize(replica.Serialize());
  EXPECT_EQ(restored->ReadRange("two", 0, gen2.size()), gen2);
  source.WriteFile("three", BufferSource(MixedContent(90000, 3)));
  source.CreateSnapshot("s3", 300);
  restored->Receive(source.Send("s2", "s3"));
  EXPECT_TRUE(restored->HasFile("three"));

  // Accounting sanity at every configuration.
  const VolumeStats stats = restored->Stats();
  EXPECT_GT(stats.unique_blocks, 0u);
  EXPECT_EQ(stats.disk_used_bytes,
            stats.physical_data_bytes + stats.ddt_disk_bytes +
                stats.blkptr_disk_bytes);
}

TEST_P(VolumeConfigSweep, SendCarriesStoredFormReplicaKeepsIt) {
  // Wire and volume identity oracle. Every carried payload of a full and an
  // incremental stream is the codec's output when that saves at least 1/8th
  // of the block and the raw bytes otherwise — the rule Send applied when it
  // recompressed each block itself — and after Receive the replica stores
  // every block in the same physical size as the source.
  const VolumeConfig config = Config();
  Volume source(config);
  source.WriteFile("one", BufferSource(MixedContent(200000, 1)));
  source.CreateSnapshot("s1", 100);
  source.WriteFile("two", BufferSource(MixedContent(150000, 2)));
  source.DeleteFile("one");
  source.CreateSnapshot("s2", 200);

  const compress::Codec& codec = compress::GetCodec(config.codec);
  const auto expect_stored_rule = [&](const SendStream& stream,
                                      const std::string& which) {
    std::size_t carried = 0;
    for (const FileRecord& file : stream.files) {
      for (const BlockRecord& rec : file.blocks) {
        if (!rec.has_payload) continue;
        ++carried;
        const Bytes raw = source.block_store().Get(rec.digest);
        const Bytes compressed = codec.Compress(raw);
        const bool keep = config.codec != compress::CodecId::kNull &&
                          compressed.size() + raw.size() / 8 <= raw.size();
        EXPECT_EQ(rec.payload_compressed, keep)
            << which << " " << file.name << " block " << rec.index;
        EXPECT_TRUE(rec.payload == (keep ? compressed : raw))
            << which << " " << file.name << " block " << rec.index;
      }
    }
    EXPECT_GT(carried, 0u) << which;
  };
  const SendStream full = source.Send("", "s1");
  const SendStream incremental = source.Send("s1", "s2");
  expect_stored_rule(full, "full");
  expect_stored_rule(incremental, "incremental");

  Volume replica(config);
  replica.Receive(full);
  replica.Receive(incremental);
  std::size_t checked = 0;
  for (const auto& snap : replica.snapshots()) {
    for (const auto& [name, meta] : snap->files) {
      for (const BlockPtr& ptr : meta.blocks) {
        if (ptr.hole) continue;
        ++checked;
        EXPECT_EQ(replica.block_store().PhysicalSize(ptr.digest),
                  source.block_store().PhysicalSize(ptr.digest))
            << snap->name << " " << name;
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST_P(VolumeConfigSweep, CorruptionAlwaysDetected) {
  Volume volume(Config());
  const Bytes content = MixedContent(160000, 4);
  volume.WriteFile("f", BufferSource(content));
  // Corrupt the first non-hole block.
  bool corrupted = false;
  for (std::uint64_t b = 0; b < volume.FileBlockCount("f") && !corrupted; ++b) {
    corrupted = volume.CorruptBlockForTesting("f", b);
  }
  ASSERT_TRUE(corrupted);
  EXPECT_GE(volume.Scrub().errors, 1u);
}

std::string SweepName(const ::testing::TestParamInfo<Param>& info) {
  return "bs" + std::to_string(std::get<0>(info.param) / 1024) + "k_" +
         std::get<1>(info.param) +
         (std::get<2>(info.param) ? "_fast" : "_sha");
}

INSTANTIATE_TEST_SUITE_P(
    Configs, VolumeConfigSweep,
    ::testing::Combine(::testing::Values(4096u, 16384u, 65536u, 131072u),
                       ::testing::Values("null", "gzip1", "gzip6", "lz4",
                                         "lzjb", "zle"),
                       ::testing::Bool()),
    SweepName);

}  // namespace
}  // namespace squirrel::zvol
