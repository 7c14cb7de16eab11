#include "zvol/volume.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <unordered_set>

#include "util/fault_injector.h"

namespace squirrel::zvol {
namespace {

using DigestSet = std::unordered_set<util::Digest, util::DigestHasher>;

DigestSet ReachableDigests(const FileTable& table) {
  DigestSet set;
  for (const auto& [name, meta] : table) {
    for (const BlockPtr& ptr : meta.blocks) {
      if (!ptr.hole) set.insert(ptr.digest);
    }
  }
  return set;
}

}  // namespace

/// Undo log for Receive's staged apply. Store operations performed through
/// the txn are applied immediately (so first-fit allocation sees the
/// stream's own op sequence) and logged with their inverse; Rollback
/// replays the inverses in reverse order. An Unref that would free the last
/// reference snapshots the payload first (through the ARC-bypassing
/// GetUncached) so the inverse is a re-Put — that restoration requires
/// content-addressed digests (dedup on), which every cluster path
/// satisfies; in those paths the live table always equals the latest
/// snapshot's table when a stream applies, so refcounts stay >= 2 and the
/// case cannot occur at all.
class Volume::StoreTxn {
 public:
  explicit StoreTxn(store::BlockStore& store) : store_(store) {}

  void Ref(const util::Digest& digest) {
    store_.Ref(digest);
    undo_.push_back({Undo::kUnref, digest, {}});
  }

  void Unref(const util::Digest& digest) {
    const bool last = store_.RefCount(digest) == 1;
    util::Bytes payload;
    if (last) payload = store_.GetUncached(digest);
    store_.Unref(digest);
    if (last) {
      undo_.push_back({Undo::kRestore, digest, std::move(payload)});
    } else {
      undo_.push_back({Undo::kRef, digest, {}});
    }
  }

  std::vector<store::PutResult> PutBatch(
      std::span<const store::SuppliedBlock> blocks) {
    std::vector<store::PutResult> results = store_.PutBatch(blocks);
    // PutBatch is atomic (it unwinds itself on crash/no-space before
    // throwing), so the whole batch logs only on success.
    for (const store::PutResult& result : results) {
      undo_.push_back({Undo::kUnref, result.digest, {}});
    }
    return results;
  }

  void Rollback() {
    for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
      switch (it->kind) {
        case Undo::kUnref:
          store_.Unref(it->digest);
          break;
        case Undo::kRef:
          store_.Ref(it->digest);
          break;
        case Undo::kRestore: {
          const store::PutResult result = store_.Put(
              util::ByteSpan(it->payload.data(), it->payload.size()));
          assert(result.digest == it->digest &&
                 "rollback payload restore requires dedup digests");
          (void)result;
          break;
        }
      }
    }
    undo_.clear();
  }

 private:
  struct Undo {
    enum Kind { kUnref, kRef, kRestore } kind;
    util::Digest digest;
    util::Bytes payload;  // kRestore only
  };
  store::BlockStore& store_;
  std::vector<Undo> undo_;
};

Volume::Volume(VolumeConfig config)
    : config_(config),
      store_(store::BlockStoreConfig{config.codec, config.dedup,
                                     config.fast_hash, config.ingest,
                                     config.read, config.capacity_bytes}) {
  if (config_.block_size == 0) {
    throw std::invalid_argument("block_size must be positive");
  }
}

Volume::~Volume() = default;

RepairSession::RepairSession(std::vector<RepairPeer> peers,
                             util::FaultInjector* faults)
    : faults_(faults) {
  peers_.reserve(peers.size());
  for (const RepairPeer& peer : peers) peers_.push_back({peer, 0, false});
}

std::uint64_t RepairSession::peers_blacklisted() const {
  std::uint64_t n = 0;
  for (const PeerState& state : peers_) {
    if (state.blacklisted) ++n;
  }
  return n;
}

bool RepairSession::RepairBlock(store::BlockStore& store,
                                const util::Digest& digest,
                                std::uint64_t* fetched_bytes) {
  bool lied_before = false;
  for (PeerState& state : peers_) {
    if (state.blacklisted || state.peer.store == nullptr) continue;
    util::Bytes raw;
    try {
      raw = state.peer.store->Get(digest);
    } catch (const Error&) {
      continue;  // unavailable, not malicious: no strike
    }
    // A Byzantine peer's Get succeeded but the bytes it hands over are a
    // consistent, well-formed lie (same wrong payload every retry) — the
    // receiving digest check is the only defence.
    if (faults_ != nullptr && faults_->PeerIsByzantine(state.peer.id)) {
      faults_->MutatePayload(state.peer.id, digest,
                             util::MutableByteSpan(raw.data(), raw.size()));
    }
    if (fetched_bytes != nullptr) *fetched_bytes += raw.size();
    if (store.Repair(digest, raw)) {
      if (lied_before) ++resourced_blocks_;
      return true;
    }
    // Served bytes failed the digest re-hash: Byzantine evidence. Retrying
    // this peer would re-serve the same lie, so strike it and move on.
    ++byzantine_rejected_;
    if (faults_ != nullptr) faults_->RecordByzantineDetected();
    lied_before = true;
    if (++state.strikes >= kStrikeLimit) state.blacklisted = true;
  }
  return false;
}

std::vector<BlockPtr>& BlockList::Mutable() {
  if (list_ == nullptr) {
    list_ = std::make_shared<std::vector<BlockPtr>>();
  } else if (list_.use_count() > 1) {
    list_ = std::make_shared<std::vector<BlockPtr>>(*list_);
  }
  return *list_;
}

const std::vector<BlockPtr> BlockList::kNoBlocks;

void Volume::ReleaseTable(const FileTable& table) {
  for (const auto& [name, meta] : table) {
    for (const BlockPtr& ptr : meta.blocks) {
      if (!ptr.hole) store_.Unref(ptr.digest);
    }
  }
}

void Volume::RetainTable(const FileTable& table) {
  for (const auto& [name, meta] : table) {
    for (const BlockPtr& ptr : meta.blocks) {
      if (!ptr.hole) store_.Ref(ptr.digest);
    }
  }
}

void ReadBlockBytes(util::ByteSpan payload, std::uint64_t within,
                    util::MutableByteSpan out) {
  const std::uint64_t copy =
      within < payload.size()
          ? std::min<std::uint64_t>(out.size(), payload.size() - within)
          : 0;
  if (copy > 0) std::memcpy(out.data(), payload.data() + within, copy);
  std::memset(out.data() + copy, 0, out.size() - copy);
}

const FileMeta& Volume::RequireRange(const std::string& name,
                                     std::uint64_t offset,
                                     std::uint64_t length) const {
  const FileMeta& meta = File(name);
  if (offset + length > meta.logical_size) {
    throw std::out_of_range("read past end of " + name);
  }
  return meta;
}

const FileMeta& Volume::File(const std::string& name) const {
  const auto it = files_.find(name);
  if (it == files_.end()) throw NoSuchFileError(name);
  return it->second;
}

FileMeta& Volume::RequireFile(const std::string& name) {
  const auto it = files_.find(name);
  if (it == files_.end()) throw NoSuchFileError(name);
  return it->second;
}

void Volume::ForEachIngest(std::size_t count,
                           const std::function<void(std::size_t)>& fn) {
  util::ThreadPool* pool = store_.worker_pool();
  if (pool == nullptr || config_.ingest.threads == 1 || count < 2) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  pool->ParallelFor(count, fn);
}

FileMeta Volume::IngestSource(const util::DataSource& data) {
  FileMeta meta;
  meta.logical_size = data.size();
  const std::uint64_t block_size = config_.block_size;
  const std::uint64_t block_count =
      util::CeilDiv(meta.logical_size, block_size);
  std::vector<BlockPtr>& blocks = meta.blocks.Mutable();
  blocks.resize(block_count);

  const std::size_t batch_blocks =
      std::max<std::size_t>(1, config_.ingest.batch_blocks);
  // Left uninitialized: only the bytes a Read below fills are looked at, and
  // a mostly sparse source never touches most of the buffer.
  const auto buffer = std::make_unique_for_overwrite<util::Byte[]>(
      batch_blocks * static_cast<std::size_t>(block_size));
  std::vector<std::size_t> to_read;  // batch positions of may-have-data blocks
  std::vector<std::uint8_t> is_zero(batch_blocks);
  std::vector<util::ByteSpan> payloads;
  std::vector<std::uint64_t> payload_index;

  for (std::uint64_t base = 0; base < block_count; base += batch_blocks) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(batch_blocks, block_count - base));
    const std::uint64_t offset = base * block_size;
    const std::uint64_t bytes = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(n) * block_size, meta.logical_size - offset);
    const auto chunk = [&](std::size_t j) {
      const std::uint64_t start = static_cast<std::uint64_t>(j) * block_size;
      const std::uint64_t len =
          std::min<std::uint64_t>(block_size, bytes - start);
      return util::ByteSpan(buffer.get() + start, len);
    };

    // Stage 0: a block the source reports as a hole stays a hole without
    // being read; each maximal run of the other blocks takes one Read.
    to_read.clear();
    for (std::size_t j = 0; j < n; ++j) {
      if (data.RangeHasData(offset + j * block_size, chunk(j).size())) {
        to_read.push_back(j);
      }
    }
    for (std::size_t r = 0; r < to_read.size();) {
      std::size_t end = r + 1;
      while (end < to_read.size() && to_read[end] == to_read[end - 1] + 1) {
        ++end;
      }
      const std::uint64_t start = to_read[r] * block_size;
      const std::uint64_t stop =
          std::min<std::uint64_t>((to_read[end - 1] + 1) * block_size, bytes);
      data.Read(offset + start,
                util::MutableByteSpan(buffer.get() + start, stop - start));
      r = end;
    }

    // Stage 1a: zero-detect the blocks read, in parallel (stage 1b, hashing,
    // runs inside PutBatch on the same pool).
    ForEachIngest(to_read.size(), [&](std::size_t r) {
      is_zero[r] = util::IsAllZero(chunk(to_read[r]));
    });

    payloads.clear();
    payload_index.clear();
    for (std::size_t r = 0; r < to_read.size(); ++r) {
      if (is_zero[r]) continue;  // stays a hole
      payloads.push_back(chunk(to_read[r]));
      payload_index.push_back(base + to_read[r]);
    }
    const std::vector<store::PutResult> puts = store_.PutBatch(payloads);
    for (std::size_t k = 0; k < puts.size(); ++k) {
      blocks[payload_index[k]] =
          BlockPtr{false, puts[k].digest, puts[k].logical_size};
    }
  }
  return meta;
}

void Volume::WriteFile(const std::string& name, const util::DataSource& data) {
  FileMeta meta = IngestSource(data);
  auto it = files_.find(name);
  if (it != files_.end()) {
    for (const BlockPtr& ptr : it->second.blocks) {
      if (!ptr.hole) store_.Unref(ptr.digest);
    }
    it->second = std::move(meta);
  } else {
    files_.emplace(name, std::move(meta));
  }
}

void Volume::CreateFile(const std::string& name, std::uint64_t logical_size) {
  FileMeta meta;
  meta.logical_size = logical_size;
  meta.blocks.Mutable().resize(util::CeilDiv(logical_size, config_.block_size));
  auto it = files_.find(name);
  if (it != files_.end()) {
    for (const BlockPtr& ptr : it->second.blocks) {
      if (!ptr.hole) store_.Unref(ptr.digest);
    }
    it->second = std::move(meta);
  } else {
    files_.emplace(name, std::move(meta));
  }
}

void Volume::WriteRange(const std::string& name, std::uint64_t offset,
                        util::ByteSpan data) {
  FileMeta& meta = RequireFile(name);
  const std::uint64_t end = offset + data.size();
  if (end > meta.logical_size) {
    meta.logical_size = end;
    meta.blocks.Mutable().resize(util::CeilDiv(end, config_.block_size));
  }
  if (data.empty()) return;
  // A snapshot that shares this file's list keeps it; the write goes to
  // the file's own copy.
  std::vector<BlockPtr>& blocks = meta.blocks.Mutable();

  const std::uint64_t first_block = offset / config_.block_size;
  const std::uint64_t last_block = (end - 1) / config_.block_size;
  const std::size_t batch_blocks =
      std::max<std::size_t>(1, config_.ingest.batch_blocks);
  util::Bytes buffer(batch_blocks * static_cast<std::size_t>(config_.block_size));
  std::vector<std::uint8_t> is_zero(batch_blocks);
  std::vector<util::ByteSpan> payloads;
  std::vector<std::uint64_t> payload_index;

  for (std::uint64_t base = first_block; base <= last_block;
       base += batch_blocks) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(batch_blocks, last_block - base + 1));
    const auto block_len_of = [&](std::size_t j) {
      const std::uint64_t block_start =
          (base + j) * static_cast<std::uint64_t>(config_.block_size);
      return std::min<std::uint64_t>(config_.block_size,
                                     meta.logical_size - block_start);
    };

    // Stage 0: fetch the old payloads of every touched non-hole block in
    // one cache-aware GetBatch (parallel decompress, ARC hits for blocks
    // recently read — the copy-on-read population case).
    std::vector<const util::Bytes*> old_blocks(n, nullptr);
    std::vector<util::Digest> old_digests;
    std::vector<std::size_t> old_slots;
    for (std::size_t j = 0; j < n; ++j) {
      const BlockPtr& ptr = blocks[base + j];
      if (ptr.hole) continue;
      old_digests.push_back(ptr.digest);
      old_slots.push_back(j);
    }
    const std::vector<util::SharedBytes> olds =
        store_.GetBatchShared(old_digests);
    for (std::size_t k = 0; k < old_slots.size(); ++k) {
      old_blocks[old_slots[k]] = olds[k].get();
    }

    // Stage 1: materialize the new content of every touched block
    // (read-modify-write) and zero-detect it, in parallel. This stage only
    // reads the fetched payloads; all store mutation happens in the ordered
    // stage below.
    ForEachIngest(n, [&](std::size_t j) {
      const std::uint64_t block_index = base + j;
      const std::uint64_t block_start =
          block_index * static_cast<std::uint64_t>(config_.block_size);
      const std::uint64_t block_len = block_len_of(j);
      util::MutableByteSpan block(
          buffer.data() + j * static_cast<std::size_t>(config_.block_size),
          block_len);
      if (old_blocks[j] != nullptr) {
        ReadBlockBytes(*old_blocks[j], 0, block);
      } else {
        std::memset(block.data(), 0, block.size());
      }
      const std::uint64_t from = std::max(offset, block_start);
      const std::uint64_t to = std::min(end, block_start + block_len);
      std::memcpy(block.data() + (from - block_start),
                  data.data() + (from - offset), to - from);
      is_zero[j] = util::IsAllZero(block);
    });

    // Stage 2: ordered commit — drop the old references, then batch-put the
    // non-zero replacements and install the new pointers.
    for (std::size_t j = 0; j < n; ++j) {
      BlockPtr& ptr = blocks[base + j];
      if (!ptr.hole) store_.Unref(ptr.digest);
      ptr = BlockPtr{};
    }
    payloads.clear();
    payload_index.clear();
    for (std::size_t j = 0; j < n; ++j) {
      if (is_zero[j]) continue;
      payloads.emplace_back(
          buffer.data() + j * static_cast<std::size_t>(config_.block_size),
          block_len_of(j));
      payload_index.push_back(base + j);
    }
    const std::vector<store::PutResult> puts = store_.PutBatch(payloads);
    for (std::size_t k = 0; k < puts.size(); ++k) {
      blocks[payload_index[k]] =
          BlockPtr{false, puts[k].digest, puts[k].logical_size};
    }
  }
}

util::Bytes Volume::ReadRange(const std::string& name, std::uint64_t offset,
                              std::uint64_t length) const {
  RequireRange(name, offset, length);  // before sizing the buffer
  util::Bytes out(length);
  ReadRangeInto(name, offset, length, 0, out);
  return out;
}

void Volume::ReadRangeInto(const std::string& name, std::uint64_t offset,
                           std::uint64_t length, std::uint64_t skip,
                           util::MutableByteSpan out,
                           std::vector<util::SharedBytes>* blocks) const {
  const FileMeta& meta = RequireRange(name, offset, length);
  if (skip > length || out.size() > length - skip) {
    throw std::out_of_range("read window outside the request on " + name);
  }
  if (blocks != nullptr) blocks->clear();
  if (length == 0) return;

  const std::uint64_t first_block = offset / config_.block_size;
  const std::uint64_t last_block = (offset + length - 1) / config_.block_size;
  const std::uint64_t window = offset + skip;
  const std::uint64_t window_end = window + out.size();
  if (blocks != nullptr) blocks->resize(last_block - first_block + 1);
  const std::size_t batch_blocks =
      std::max<std::size_t>(1, config_.ingest.batch_blocks);
  // Cluster readahead: when the decompressed-block ARC is on, each request
  // round also fetches the next readahead_blocks pointers so a sequential
  // reader (the QCOW2 64 KiB-cluster access pattern) finds them warm.
  const std::uint64_t readahead =
      config_.read.cache_bytes > 0 ? config_.read.readahead_blocks : 0;

  std::vector<util::Digest> digests;
  for (std::uint64_t base = first_block; base <= last_block;
       base += batch_blocks) {
    const std::uint64_t round_last =
        std::min<std::uint64_t>(base + batch_blocks - 1, last_block);
    const std::uint64_t fetch_last = std::min<std::uint64_t>(
        round_last + readahead, meta.blocks.size() - 1);
    digests.clear();
    for (std::uint64_t i = base; i <= fetch_last; ++i) {
      const BlockPtr& ptr = meta.blocks[i];
      if (!ptr.hole) digests.push_back(ptr.digest);
    }
    std::vector<util::SharedBytes> fetched = store_.GetBatchShared(digests);

    // The round's non-hole blocks are the leading entries of `fetched`, in
    // block order; any after them are readahead only. Each block copies
    // its part of the window, which may be empty.
    std::size_t k = 0;
    for (std::uint64_t b = base; b <= round_last; ++b) {
      const std::uint64_t block_start = b * config_.block_size;
      const std::uint64_t from = std::max(window, block_start);
      const std::uint64_t to =
          std::min<std::uint64_t>(window_end, block_start + config_.block_size);
      if (meta.blocks[b].hole) {
        if (from < to) std::memset(out.data() + (from - window), 0, to - from);
        continue;
      }
      if (from < to) {
        ReadBlockBytes(*fetched[k], from - block_start,
                       out.subspan(from - window, to - from));
      }
      if (blocks != nullptr) (*blocks)[b - first_block] = std::move(fetched[k]);
      ++k;
    }
  }
}

util::Bytes Volume::ReadFile(const std::string& name) const {
  return ReadRange(name, 0, FileSize(name));
}

bool Volume::HasFile(const std::string& name) const {
  return files_.contains(name);
}

std::uint64_t Volume::FileSize(const std::string& name) const {
  return File(name).logical_size;
}

std::vector<std::string> Volume::FileNames() const {
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, meta] : files_) names.push_back(name);
  return names;
}

void Volume::DeleteFile(const std::string& name) {
  auto it = files_.find(name);
  if (it == files_.end()) throw NoSuchFileError(name);
  for (const BlockPtr& ptr : it->second.blocks) {
    if (!ptr.hole) store_.Unref(ptr.digest);
  }
  files_.erase(it);
}

const BlockPtr& Volume::FileBlock(const std::string& name,
                                  std::uint64_t index) const {
  return File(name).blocks.at(index);
}

std::uint64_t Volume::FileBlockCount(const std::string& name) const {
  return File(name).blocks.size();
}

Volume::FileStats Volume::StatFile(const std::string& name) const {
  const FileMeta& meta = File(name);
  FileStats stats;
  stats.logical_size = meta.logical_size;
  std::uint64_t logical_nonzero = 0;
  for (const BlockPtr& ptr : meta.blocks) {
    if (ptr.hole) {
      ++stats.hole_blocks;
      continue;
    }
    ++stats.nonzero_blocks;
    logical_nonzero += ptr.logical_size;
    const std::uint32_t physical = store_.PhysicalSize(ptr.digest);
    stats.referenced_physical_bytes += physical;
    if (store_.RefCount(ptr.digest) == 1) {
      stats.unique_physical_bytes += physical;
    }
  }
  if (stats.referenced_physical_bytes > 0) {
    stats.compression_ratio =
        static_cast<double>(logical_nonzero) /
        static_cast<double>(stats.referenced_physical_bytes);
  }
  return stats;
}

const Snapshot& Volume::CreateSnapshot(const std::string& name,
                                       std::uint64_t now) {
  if (FindSnapshot(name) != nullptr) {
    throw std::invalid_argument("snapshot exists: " + name);
  }
  auto snap = std::make_unique<Snapshot>();
  snap->id = next_snapshot_id_++;
  snap->name = name;
  snap->created_at = now;
  snap->files = files_;
  RetainTable(snap->files);
  snapshots_.push_back(std::move(snap));
  return *snapshots_.back();
}

const Snapshot* Volume::FindSnapshot(const std::string& name) const {
  for (const auto& snap : snapshots_) {
    if (snap->name == name) return snap.get();
  }
  return nullptr;
}

const Snapshot* Volume::LatestSnapshot() const {
  return snapshots_.empty() ? nullptr : snapshots_.back().get();
}

void Volume::DestroySnapshot(const std::string& name) {
  auto it = std::find_if(snapshots_.begin(), snapshots_.end(),
                         [&](const auto& s) { return s->name == name; });
  if (it == snapshots_.end()) throw NoSuchSnapshotError(name);
  ReleaseTable((*it)->files);
  snapshots_.erase(it);
}

std::size_t Volume::PruneSnapshots(std::uint64_t retention_seconds,
                                   std::uint64_t now) {
  if (snapshots_.size() <= 1) return 0;
  std::size_t destroyed = 0;
  // The latest snapshot is always kept regardless of age (Section 3.4).
  for (std::size_t i = 0; i + 1 < snapshots_.size();) {
    const Snapshot& snap = *snapshots_[i];
    if (snap.created_at + retention_seconds < now) {
      ReleaseTable(snap.files);
      snapshots_.erase(snapshots_.begin() + static_cast<std::ptrdiff_t>(i));
      ++destroyed;
    } else {
      ++i;
    }
  }
  return destroyed;
}

SendStream Volume::Send(const std::string& from_name,
                        const std::string& to_name) const {
  const Snapshot* to = FindSnapshot(to_name);
  if (to == nullptr) throw NoSuchSnapshotError(to_name);

  const Snapshot* from = nullptr;
  if (!from_name.empty()) {
    from = FindSnapshot(from_name);
    if (from == nullptr) throw NoSuchSnapshotError(from_name);
    if (from->id >= to->id) {
      throw std::invalid_argument("send: from must precede to");
    }
  }

  SendStream stream;
  stream.incremental = from != nullptr;
  stream.from_id = from ? from->id : 0;
  stream.from_name = from ? from->name : "";
  stream.to_id = to->id;
  stream.to_name = to->name;
  stream.created_at = to->created_at;
  stream.block_size = config_.block_size;
  // The wire format carries the codec by name (boundary string).
  stream.codec = std::string(compress::CodecName(config_.codec));

  const DigestSet known =
      from ? ReachableDigests(from->files) : DigestSet{};
  DigestSet carried;  // avoid sending the same payload twice in one stream

  auto make_record = [&](const BlockPtr& ptr, std::uint64_t index) {
    BlockRecord rec;
    rec.index = index;
    rec.hole = ptr.hole;
    if (ptr.hole) return rec;
    rec.digest = ptr.digest;
    rec.logical_size = ptr.logical_size;
    if (!known.contains(ptr.digest) && !carried.contains(ptr.digest)) {
      carried.insert(ptr.digest);
      rec.has_payload = true;  // payload materialized in the batch pass below
    }
    return rec;
  };

  if (from != nullptr) {
    for (const auto& [name, meta] : from->files) {
      if (!to->files.contains(name)) stream.deleted_files.push_back(name);
    }
  }

  for (const auto& [name, meta] : to->files) {
    const FileMeta* old = nullptr;
    if (from != nullptr) {
      auto it = from->files.find(name);
      if (it != from->files.end()) old = &it->second;
    }
    FileRecord rec;
    rec.name = name;
    rec.logical_size = meta.logical_size;
    if (old == nullptr) {
      rec.whole_file = true;
      for (std::uint64_t i = 0; i < meta.blocks.size(); ++i) {
        if (!meta.blocks[i].hole) {
          rec.blocks.push_back(make_record(meta.blocks[i], i));
        }
      }
    } else {
      if (*old == meta) continue;  // unchanged file
      for (std::uint64_t i = 0; i < meta.blocks.size(); ++i) {
        const BlockPtr* old_ptr =
            i < old->blocks.size() ? &old->blocks[i] : nullptr;
        if (old_ptr != nullptr && *old_ptr == meta.blocks[i]) continue;
        rec.blocks.push_back(make_record(meta.blocks[i], i));
      }
    }
    if (rec.whole_file || !rec.blocks.empty() ||
        (old != nullptr && old->logical_size != meta.logical_size)) {
      stream.files.push_back(std::move(rec));
    }
  }

  // Carried payloads travel as stored (ZFS compressed send): each record
  // copies its block's bytes and compressed flag out of the DDT entry, with
  // no decompression, verification, ARC traffic or compression. The
  // receiver's digest check stands in for a verified read here. Copies and
  // record checksums run in parallel on the worker pool.
  std::vector<BlockRecord*> payload_recs;
  for (FileRecord& f : stream.files) {
    for (BlockRecord& b : f.blocks) {
      if (b.has_payload) payload_recs.push_back(&b);
    }
  }
  store_.ForEachRead(payload_recs.size(), [&](std::size_t k) {
    BlockRecord& rec = *payload_recs[k];
    store::StoredBlock stored = store_.GetStored(rec.digest);
    rec.payload = std::move(stored.payload);
    rec.payload_compressed = stored.compressed;
    rec.payload_checksum = SendStream::PayloadChecksum(rec.payload);
  });
  return stream;
}

void Volume::ValidateStream(const SendStream& stream,
                            bool store_references) const {
  const compress::Codec* codec = compress::FindCodec(stream.codec);
  if (codec == nullptr) {
    throw StreamCorruptError("receive: unknown codec " + stream.codec);
  }
  // New blocks keep the carried bytes as their stored form, which only
  // this volume's own codec can decode later.
  if (codec != &store_.codec()) {
    throw StreamMismatchError("receive: codec mismatch");
  }

  // Validate structure and record checksums, and decode and verify every
  // carried payload, before touching any table or store state — a damaged
  // stream must leave the volume unchanged. Checksums are re-checked here
  // (not just at Deserialize) so corruption of an in-memory stream that
  // never crossed the wire encoding is caught too. Decoding runs in
  // parallel on the worker pool; failures are recorded per record and
  // thrown for the first bad record in stream order, so the error is
  // identical at any thread count.
  std::vector<const BlockRecord*> payloads;
  // Digests the apply will have put by the time it installs the current
  // file's pointers: it puts each file's payloads before its pointers.
  DigestSet carried_digests;
  for (const FileRecord& f : stream.files) {
    const std::uint64_t block_count =
        util::CeilDiv(f.logical_size, stream.block_size);
    for (const BlockRecord& b : f.blocks) {
      if (b.has_payload) carried_digests.insert(b.digest);
    }
    std::uint64_t prev_index = 0;
    bool first = true;
    for (const BlockRecord& b : f.blocks) {
      if (b.index >= block_count) {
        throw StreamCorruptError("receive: block index out of range");
      }
      if (!first && b.index <= prev_index) {
        throw StreamCorruptError("receive: block indices out of order");
      }
      first = false;
      prev_index = b.index;
      if (!b.has_payload) {
        if (!b.hole && !carried_digests.contains(b.digest) &&
            !(store_references && store_.Contains(b.digest))) {
          throw StreamCorruptError(
              "receive: stream references a block this volume does not hold");
        }
        continue;
      }
      if (b.hole) {
        throw StreamCorruptError("receive: hole record carries a payload");
      }
      // Deserialize always fills the checksum (and has verified it); zero
      // marks a hand-built in-memory record with none to check.
      if (b.payload_checksum != 0 &&
          SendStream::PayloadChecksum(b.payload) != b.payload_checksum) {
        throw StreamMismatchError("receive: record checksum mismatch");
      }
      payloads.push_back(&b);
    }
  }
  enum Verdict : std::uint8_t { kGood, kUndecodable, kMislabeled };
  std::vector<std::uint8_t> verdicts(payloads.size(), kGood);
  store_.ForEachRead(payloads.size(), [&](std::size_t k) {
    const BlockRecord& b = *payloads[k];
    util::Bytes decoded;
    if (b.payload_compressed) {
      try {
        decoded = codec->Decompress(b.payload, b.logical_size);
      } catch (const std::runtime_error&) {
        verdicts[k] = kUndecodable;  // damage broke the compressed framing
        return;
      }
    }
    const util::ByteSpan raw = b.payload_compressed
                                   ? util::ByteSpan(decoded)
                                   : util::ByteSpan(b.payload);
    // Reject payloads a healthy sender never produces: wrong length, empty,
    // or all zeros (holes are never carried as payloads).
    if (raw.size() != b.logical_size || raw.empty() || util::IsAllZero(raw)) {
      verdicts[k] = kUndecodable;
    } else if (config_.dedup && store_.ComputeDigest(raw) != b.digest) {
      // The sender ships stored bytes unverified and the apply installs
      // them under the record's digest, so they must hash to it.
      // Synthetic digests (dedup off) carry no hash.
      verdicts[k] = kMislabeled;
    }
  });
  for (const std::uint8_t verdict : verdicts) {
    if (verdict == kUndecodable) {
      throw StreamCorruptError("receive: undecodable block payload");
    }
    if (verdict == kMislabeled) {
      throw StreamCorruptError(
          "receive: block payload does not match its digest");
    }
  }
}

void Volume::ApplyStreamToTable(const SendStream& stream, FileTable& table,
                                StoreTxn& txn) {
  const auto crash_site = [&](const char* site, std::uint64_t salt = 0) {
    if (faults_ != nullptr) faults_->CrashPoint(site, salt);
  };

  crash_site("receive/validated");

  std::uint64_t deletion_index = 0;
  for (const std::string& name : stream.deleted_files) {
    crash_site("receive/delete", deletion_index++);
    auto it = table.find(name);
    if (it == table.end()) {
      throw StreamCorruptError("receive: deletion of unknown file " + name);
    }
    for (const BlockPtr& ptr : it->second.blocks) {
      if (!ptr.hole) txn.Unref(ptr.digest);
    }
    table.erase(it);
  }

  std::uint64_t file_index = 0;
  for (const FileRecord& f : stream.files) {
    crash_site("receive/file", file_index++);
    auto it = table.find(f.name);
    if (f.whole_file && it != table.end()) {
      for (const BlockPtr& ptr : it->second.blocks) {
        if (!ptr.hole) txn.Unref(ptr.digest);
      }
      table.erase(it);
      it = table.end();
    }
    const std::uint64_t new_count =
        util::CeilDiv(f.logical_size, stream.block_size);
    FileMeta& meta = it != table.end() ? it->second : table[f.name];
    meta.logical_size = f.logical_size;
    // A file the stream touches gets its own list; the untouched ones keep
    // sharing theirs with the snapshots.
    std::vector<BlockPtr>& blocks = meta.blocks.Mutable();
    // A shrinking file drops its tail blocks; release their references
    // before the resize discards the pointers.
    for (std::uint64_t i = new_count; i < blocks.size(); ++i) {
      if (!blocks[i].hole) txn.Unref(blocks[i].digest);
    }
    blocks.resize(new_count);

    // Drop every touched block's old reference first. This is safe to batch
    // ahead of the inserts because the live table equals the latest
    // snapshot's table when a stream applies, so snapshot references keep
    // any still-needed block alive across the reordering.
    for (const BlockRecord& b : f.blocks) {
      BlockPtr& ptr = blocks[b.index];
      if (!ptr.hole) {
        txn.Unref(ptr.digest);
        ptr = BlockPtr{};
      }
    }

    // Batch-put this file's carried payloads as the sender stored them
    // (ValidateStream verified each against its digest, so the store skips
    // hashing and compressing), then install pointers in record order — a
    // later record may reference the digest a carried payload just
    // inserted.
    std::vector<store::SuppliedBlock> payloads;
    for (const BlockRecord& b : f.blocks) {
      if (!b.has_payload) continue;
      payloads.push_back(
          {b.digest, b.payload, b.logical_size, b.payload_compressed});
    }
    const std::vector<store::PutResult> puts = txn.PutBatch(payloads);
    std::size_t next_put = 0;
    for (const BlockRecord& b : f.blocks) {
      if (b.hole) continue;
      BlockPtr& ptr = blocks[b.index];
      if (b.has_payload) {
        const store::PutResult& put = puts[next_put++];
        ptr = BlockPtr{false, put.digest, put.logical_size};
      } else {
        // Backstop: ValidateStream saw the digest carried or held, but
        // the apply can still lose it — an unref above may have dropped
        // its last reference, and with dedup off a carried payload is put
        // under a synthetic digest of this store's own.
        if (!store_.Contains(b.digest)) {
          throw StreamCorruptError(
              "receive: stream references a block this volume does not hold");
        }
        txn.Ref(b.digest);
        ptr = BlockPtr{false, b.digest, b.logical_size};
      }
    }
  }
}

void Volume::CommitReceive(const SendStream& stream) {
  // Stage against a shadow copy of the file table; the store operations
  // run for real but carry an undo log. Any failure — simulated crash,
  // disk-full, stream damage discovered mid-apply — rolls the store back
  // and discards the staged table, so the volume is exactly as it was.
  FileTable staged = files_;
  StoreTxn txn(store_);
  try {
    if (faults_ != nullptr) faults_->CrashPoint("receive/begin");
    ApplyStreamToTable(stream, staged, txn);
    if (faults_ != nullptr) faults_->CrashPoint("receive/staged");
  } catch (...) {
    txn.Rollback();
    throw;
  }
  // Commit point: the table swap plus snapshot retention below is the
  // atomic metadata flip — no crash site interrupts it, mirroring a
  // journaled rename. A crash after "receive/committed" finds the stream
  // fully applied; re-delivery is an idempotent no-op.
  files_ = std::move(staged);

  auto snap = std::make_unique<Snapshot>();
  snap->id = stream.to_id;
  snap->name = stream.to_name;
  snap->created_at = stream.created_at;
  snap->files = files_;
  RetainTable(snap->files);
  snapshots_.push_back(std::move(snap));
  next_snapshot_id_ = std::max(next_snapshot_id_, stream.to_id + 1);
  if (faults_ != nullptr) faults_->CrashPoint("receive/committed");
}

void Volume::Receive(const SendStream& stream) {
  if (stream.block_size != config_.block_size) {
    throw StreamMismatchError("receive: block size mismatch");
  }
  const Snapshot* latest = LatestSnapshot();
  // Idempotent re-delivery: a stream whose `to` snapshot is already latest
  // was applied before (say, by an apply that crashed after its commit
  // point), so the retry no-ops.
  if (latest != nullptr && latest->id == stream.to_id &&
      latest->name == stream.to_name) {
    return;
  }
  if (stream.incremental) {
    if (latest == nullptr || latest->id != stream.from_id ||
        latest->name != stream.from_name) {
      throw StreamMismatchError("receive: base snapshot mismatch");
    }
  } else if (latest != nullptr) {
    throw StreamMismatchError("receive: full stream into non-empty volume");
  }

  ValidateStream(stream, /*store_references=*/true);
  CommitReceive(stream);
}

void Volume::ReceiveFull(const SendStream& stream) {
  if (stream.incremental) {
    throw std::invalid_argument("ReceiveFull requires a full stream");
  }
  if (stream.block_size != config_.block_size) {
    throw StreamMismatchError("receive: block size mismatch");
  }
  // Validate the stream in full — codec, shape, checksums, references,
  // payload decode and digests — BEFORE dropping anything: a mismatched or
  // damaged stream must leave the volume untouched. The drop releases
  // every block the store holds, so only the stream's own payloads can
  // satisfy a reference.
  ValidateStream(stream, /*store_references=*/false);

  // Idempotent re-delivery, as in Receive.
  const Snapshot* latest = LatestSnapshot();
  if (latest != nullptr && latest->id == stream.to_id &&
      latest->name == stream.to_name) {
    return;
  }
  if (faults_ != nullptr) faults_->CrashPoint("receive_full/begin");

  // Drop everything: live files and snapshots. A crash between here and the
  // commit leaves an empty volume — the rejoining-node state §3.5 already
  // handles: the next sync finds no local snapshot and full-resyncs.
  ReleaseTable(files_);
  files_.clear();
  for (const auto& snap : snapshots_) ReleaseTable(snap->files);
  snapshots_.clear();
  if (faults_ != nullptr) faults_->CrashPoint("receive_full/dropped");

  CommitReceive(stream);
}

std::vector<util::Digest> Volume::CollectScrubDigests(
    std::uint64_t* dangling_refs) const {
  // Each unique digest is collected once even if referenced many times —
  // like ZFS, a scrub walks physical blocks. The walk is serial (cheap
  // pointer chasing); verification of the collected digests runs in
  // parallel through VerifyBatch.
  std::unordered_set<util::Digest, util::DigestHasher> checked;
  std::vector<util::Digest> to_verify;
  auto scrub_table = [&](const FileTable& table) {
    for (const auto& [name, meta] : table) {
      for (const BlockPtr& ptr : meta.blocks) {
        if (ptr.hole) continue;
        if (!store_.Contains(ptr.digest)) {
          ++*dangling_refs;
          continue;
        }
        if (!checked.insert(ptr.digest).second) continue;
        to_verify.push_back(ptr.digest);
      }
    }
  };
  scrub_table(files_);
  for (const auto& snap : snapshots_) scrub_table(snap->files);
  return to_verify;
}

Volume::ScrubReport Volume::Scrub() const {
  ScrubReport report;
  const std::vector<util::Digest> to_verify =
      CollectScrubDigests(&report.dangling_refs);
  report.blocks_checked = to_verify.size();
  const std::vector<std::uint8_t> ok = store_.VerifyBatch(to_verify);
  for (const std::uint8_t bit : ok) {
    if (bit == 0) ++report.errors;
  }
  return report;
}

Volume::RepairReport Volume::ScrubRepair(RepairSession& session) {
  RepairReport report;
  const std::vector<util::Digest> to_verify =
      CollectScrubDigests(&report.dangling_refs);
  report.blocks_checked = to_verify.size();
  const std::vector<std::uint8_t> ok = store_.VerifyBatch(to_verify);
  for (std::size_t i = 0; i < to_verify.size(); ++i) {
    if (ok[i]) continue;
    ++report.errors_found;
    std::uint64_t fetched = 0;
    try {
      if (session.RepairBlock(store_, to_verify[i], &fetched)) {
        ++report.repaired;
        report.repaired_bytes += fetched;
      } else {
        ++report.unrepairable;  // every live peer lied or lacks the block
      }
    } catch (const store::NoSpaceError&) {
      // A size-changing repair can outgrow a full pool. Skip-and-report:
      // the block stays corrupt (readable only via peers), the scrub keeps
      // going, and the caller sees the skip count instead of an abort.
      ++report.no_space_skips;
      ++report.unrepairable;
    }
  }
  report.peers_blacklisted = session.peers_blacklisted();
  report.resourced_blocks = session.resourced_blocks();
  report.byzantine_rejected = session.byzantine_rejected();
  return report;
}

util::Bytes Volume::ReadRangeRepair(const std::string& name,
                                    std::uint64_t offset, std::uint64_t length,
                                    RepairSession& session,
                                    std::uint64_t* fetched_bytes) {
  RequireRange(name, offset, length);  // before sizing the buffer
  util::Bytes out(length);
  ReadRangeRepairInto(name, offset, length, 0, out, session, fetched_bytes);
  return out;
}

void Volume::ReadRangeRepairInto(const std::string& name, std::uint64_t offset,
                                 std::uint64_t length, std::uint64_t skip,
                                 util::MutableByteSpan out,
                                 RepairSession& session,
                                 std::uint64_t* fetched_bytes,
                                 std::vector<util::SharedBytes>* blocks) {
  DigestSet repaired;
  while (true) {
    try {
      ReadRangeInto(name, offset, length, skip, out, blocks);
      return;
    } catch (const store::BlockCorruptionError& e) {
      // One corrupt block surfaces per attempt; heal it through the session
      // (lying peers strike out, the block re-sources from the next
      // replica) and retry. A repaired block is re-verified content, so it
      // cannot fail again — each round makes progress or rethrows.
      if (!repaired.insert(e.digest()).second) throw;
      if (!session.RepairBlock(store_, e.digest(), fetched_bytes)) throw e;
    }
  }
}

bool Volume::CorruptBlockForTesting(const std::string& name,
                                    std::uint64_t index) {
  const auto it = files_.find(name);
  if (it == files_.end() || index >= it->second.blocks.size()) return false;
  const BlockPtr& ptr = it->second.blocks[index];
  if (ptr.hole) return false;
  return store_.CorruptPayloadForTesting(ptr.digest);
}

bool Volume::TruncateBlockForTesting(const std::string& name,
                                     std::uint64_t index) {
  const auto it = files_.find(name);
  if (it == files_.end() || index >= it->second.blocks.size()) return false;
  const BlockPtr& ptr = it->second.blocks[index];
  if (ptr.hole) return false;
  return store_.CorruptTruncatePayloadForTesting(ptr.digest);
}

VolumeStats Volume::Stats() const {
  const store::StoreStats& s = store_.stats();
  VolumeStats v;
  v.file_count = files_.size();
  v.snapshot_count = snapshots_.size();
  for (const auto& [name, meta] : files_) v.logical_file_bytes += meta.logical_size;
  v.unique_blocks = s.unique_blocks;
  v.physical_data_bytes = s.physical_data_bytes;
  v.ddt_disk_bytes = s.ddt_disk_bytes;
  v.ddt_core_bytes = s.ddt_core_bytes;
  v.blkptr_disk_bytes = s.total_refs * store::kBlockPointerBytes;
  v.disk_used_bytes = s.disk_bytes() + v.blkptr_disk_bytes;
  return v;
}

}  // namespace squirrel::zvol
