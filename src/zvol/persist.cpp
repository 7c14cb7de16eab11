// Volume persistence: Serialize() / Deserialize() members of zvol::Volume.
//
// Image layout (all little-endian, SHA-256 trailer over the body):
//   magic "SQVC", version
//   config: block_size, codec, dedup, fast_hash
//   next snapshot id
//   block section: count, then per unique digest the raw payload
//   table section: live table + each snapshot (id, name, created_at, files)
//
// Payloads are stored raw and recompressed on load — physical pool layout
// is not part of the logical volume state.
#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "util/wire.h"
#include "zvol/volume.h"

namespace squirrel::zvol {
namespace {

constexpr std::uint32_t kMagic = 0x53515643;  // "SQVC"
constexpr std::uint32_t kVersion = 1;

void WriteTable(util::wire::Writer& w, const FileTable& table) {
  w.U32(static_cast<std::uint32_t>(table.size()));
  for (const auto& [name, meta] : table) {
    w.Str(name);
    w.U64(meta.logical_size);
    w.U64(meta.blocks.size());
    for (const BlockPtr& ptr : meta.blocks) {
      w.U8(ptr.hole ? 1 : 0);
      if (!ptr.hole) {
        w.Blob(util::ByteSpan(ptr.digest.bytes.data(), ptr.digest.bytes.size()));
        w.U32(ptr.logical_size);
      }
    }
  }
}

FileTable ReadTable(util::wire::Reader<VolumeImageError>& r) {
  FileTable table;
  const std::uint32_t files = r.U32();
  for (std::uint32_t f = 0; f < files; ++f) {
    const std::string name = r.Str();
    FileMeta meta;
    meta.logical_size = r.U64();
    const std::uint64_t count = r.U64();
    std::vector<BlockPtr>& blocks = meta.blocks.Mutable();
    blocks.resize(count);
    for (BlockPtr& ptr : blocks) {
      const bool hole = r.U8() != 0;
      if (!hole) {
        const util::Bytes digest = r.Blob();
        if (digest.size() != ptr.digest.bytes.size()) {
          throw VolumeImageError("volume image: bad digest size");
        }
        ptr.hole = false;
        std::memcpy(ptr.digest.bytes.data(), digest.data(), digest.size());
        ptr.logical_size = r.U32();
      }
    }
    table.emplace(name, std::move(meta));
  }
  return table;
}

}  // namespace

util::Bytes Volume::Serialize() const {
  util::wire::Writer w;
  w.U32(kMagic);
  w.U32(kVersion);
  w.U32(config_.block_size);
  // The image format carries the codec by name (boundary string); the
  // ingest parallelism knobs are runtime tuning and not serialized.
  w.Str(std::string(compress::CodecName(config_.codec)));
  w.U8(config_.dedup ? 1 : 0);
  w.U8(config_.fast_hash ? 1 : 0);
  w.U64(next_snapshot_id_);

  // Unique blocks, reachable from any table.
  std::unordered_set<util::Digest, util::DigestHasher> digests;
  auto collect = [&](const FileTable& table) {
    for (const auto& [name, meta] : table) {
      for (const BlockPtr& ptr : meta.blocks) {
        if (!ptr.hole) digests.insert(ptr.digest);
      }
    }
  };
  collect(files_);
  for (const auto& snap : snapshots_) collect(snap->files);

  // Fetch the payloads through the batched, cache-aware read path in
  // ingest-sized rounds (digest order unchanged: the set's iteration
  // order, exactly what the serial Get loop walked). The verified read
  // path makes this the integrity gate too — serializing a store with a
  // corrupt block throws BlockCorruptionError instead of embedding garbage.
  const std::vector<util::Digest> ordered(digests.begin(), digests.end());
  w.U64(ordered.size());
  const std::size_t batch_blocks =
      std::max<std::size_t>(1, config_.ingest.batch_blocks);
  for (std::size_t base = 0; base < ordered.size(); base += batch_blocks) {
    const std::size_t n = std::min(batch_blocks, ordered.size() - base);
    const std::vector<util::SharedBytes> payloads = store_.GetBatchShared(
        store::kDefaultTenant,
        std::span<const util::Digest>(ordered.data() + base, n));
    for (std::size_t i = 0; i < n; ++i) {
      const util::Digest& digest = ordered[base + i];
      w.Blob(util::ByteSpan(digest.bytes.data(), digest.bytes.size()));
      w.Blob(*payloads[i]);
    }
  }

  WriteTable(w, files_);
  w.U32(static_cast<std::uint32_t>(snapshots_.size()));
  for (const auto& snap : snapshots_) {
    w.U64(snap->id);
    w.Str(snap->name);
    w.U64(snap->created_at);
    WriteTable(w, snap->files);
  }

  return w.TakeWithTrailer();
}

std::unique_ptr<Volume> Volume::Deserialize(util::ByteSpan image) {
  util::wire::Reader<VolumeImageError> r(
      util::wire::VerifyTrailer<VolumeImageError>(
          image, "volume image too short", "volume image checksum mismatch"),
      "volume image truncated");
  if (r.U32() != kMagic) throw VolumeImageError("volume image bad magic");
  if (r.U32() != kVersion) throw VolumeImageError("volume image bad version");

  VolumeConfig config;
  config.block_size = r.U32();
  const std::string codec_name = r.Str();
  const std::optional<compress::CodecId> codec = compress::ParseCodec(codec_name);
  if (!codec) {
    throw VolumeImageError("volume image: unknown codec " + codec_name);
  }
  config.codec = *codec;
  config.dedup = r.U8() != 0;
  config.fast_hash = r.U8() != 0;
  auto volume = std::make_unique<Volume>(config);
  volume->next_snapshot_id_ = r.U64();

  // Insert every unique block once (artificial reference, dropped at the
  // end once the tables hold their own references).
  const std::uint64_t block_count = r.U64();
  std::vector<util::Digest> inserted;
  inserted.reserve(block_count);
  // Without dedup the store mints fresh synthetic digests on load, so table
  // pointers must be rewritten from the recorded ids to the new ones.
  std::unordered_map<util::Digest, util::Digest, util::DigestHasher> remap;
  // Blocks load through PutBatch in ingest-sized rounds (parallel hash +
  // compress, ordered commit — digests and synthetic ids land exactly as
  // the serial Put loop minted them).
  const std::size_t batch_blocks =
      std::max<std::size_t>(1, config.ingest.batch_blocks);
  std::vector<util::Digest> expected_batch;
  std::vector<util::Bytes> payload_batch;
  std::vector<util::ByteSpan> spans;
  const auto flush = [&]() {
    spans.clear();
    for (const util::Bytes& p : payload_batch) spans.emplace_back(p);
    const std::vector<store::PutResult> puts = volume->store_.PutBatch(spans);
    for (std::size_t i = 0; i < puts.size(); ++i) {
      if (config.dedup && puts[i].digest != expected_batch[i]) {
        throw VolumeImageError("volume image: payload does not match digest");
      }
      if (!config.dedup) remap.emplace(expected_batch[i], puts[i].digest);
      inserted.push_back(puts[i].digest);
    }
    expected_batch.clear();
    payload_batch.clear();
  };
  for (std::uint64_t b = 0; b < block_count; ++b) {
    const util::Bytes digest_bytes = r.Blob();
    util::Bytes payload = r.Blob();
    util::Digest expected;
    if (digest_bytes.size() != expected.bytes.size()) {
      throw VolumeImageError("volume image: bad digest size");
    }
    std::memcpy(expected.bytes.data(), digest_bytes.data(), digest_bytes.size());
    // A valid image never records an empty or all-zero payload (those are
    // holes); reject instead of handing the store an input it asserts on.
    if (payload.empty() || util::IsAllZero(payload)) {
      throw VolumeImageError("volume image: empty or all-zero block payload");
    }
    expected_batch.push_back(expected);
    payload_batch.push_back(std::move(payload));
    if (payload_batch.size() == batch_blocks) flush();
  }
  flush();

  // Rewrites a freshly read table's pointers to the store's ids and
  // restores the sharing the volume had (DESIGN.md §25): a file whose list
  // equals the same-named file's in the snapshot read just before, or else
  // in the live table, takes that list's handle. Each table then takes one
  // reference per non-hole pointer, as RetainTable does.
  const FileTable* const live = &volume->files_;
  auto retain = [&](FileTable& table, const FileTable* previous) {
    for (auto& [name, meta] : table) {
      if (!config.dedup) {
        for (BlockPtr& ptr : meta.blocks.Mutable()) {
          if (ptr.hole) continue;
          const auto it = remap.find(ptr.digest);
          if (it == remap.end()) {
            throw VolumeImageError("volume image: unmapped block reference");
          }
          ptr.digest = it->second;
        }
      }
      for (const FileTable* from : {previous, live}) {
        if (from == nullptr || from == &table) continue;
        const auto it = from->find(name);
        if (it != from->end() && it->second.blocks == meta.blocks) {
          meta.blocks = it->second.blocks;
          break;
        }
      }
      for (const BlockPtr& ptr : meta.blocks) {
        if (!ptr.hole) volume->store_.Ref(ptr.digest);
      }
    }
  };

  volume->files_ = ReadTable(r);
  retain(volume->files_, nullptr);
  const FileTable* previous = nullptr;
  const std::uint32_t snapshot_count = r.U32();
  for (std::uint32_t s = 0; s < snapshot_count; ++s) {
    auto snap = std::make_unique<Snapshot>();
    snap->id = r.U64();
    snap->name = r.Str();
    snap->created_at = r.U64();
    snap->files = ReadTable(r);
    retain(snap->files, previous);
    previous = &snap->files;
    volume->snapshots_.push_back(std::move(snap));
  }

  // Drop the artificial per-block references.
  for (const util::Digest& digest : inserted) volume->store_.Unref(digest);
  return volume;
}

}  // namespace squirrel::zvol
