#include "sim/devices.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

namespace squirrel::sim {
namespace {

// XFS-like layout perturbation: extent e of a file lands at
// disk_base + e * extent + jitter(e), keeping extents internally contiguous.
constexpr std::uint64_t kFileExtentBytes = 8ull << 20;

std::uint64_t ExtentJitter(std::uint64_t device_id, std::uint64_t extent) {
  // Deterministic, small (0..3 MiB), varies per extent.
  const std::uint64_t h =
      (device_id * 0x9e3779b97f4a7c15ULL) ^ (extent * 0xff51afd7ed558ccdULL);
  return (h >> 17) % (3ull << 20);
}

}  // namespace

// --- LocalFileDevice ---------------------------------------------------------

LocalFileDevice::LocalFileDevice(const util::DataSource* content,
                                 IoContext* io, std::uint64_t device_id,
                                 std::uint64_t disk_base,
                                 std::uint32_t io_block)
    : content_(content),
      io_(io),
      device_id_(device_id),
      disk_base_(disk_base),
      io_block_(io_block) {}

std::uint64_t LocalFileDevice::PhysicalOffset(std::uint64_t logical) const {
  const std::uint64_t extent = logical / kFileExtentBytes;
  return disk_base_ + extent * (kFileExtentBytes + (3ull << 20)) +
         ExtentJitter(device_id_, extent) + logical % kFileExtentBytes;
}

std::uint64_t LocalFileDevice::BlockLength(std::uint64_t b) const {
  const std::uint64_t block_start = b * io_block_;
  const std::uint64_t file_size = content_->size();
  // Saturate at EOF: `file_size - block_start` would wrap for blocks past
  // the end, turning a zero-length tail into a full-block charge.
  if (block_start >= file_size) return 0;
  return std::min<std::uint64_t>(io_block_, file_size - block_start);
}

void LocalFileDevice::SetProfileRecorder(vmi::BootProfile* profile,
                                         std::string name) {
  profile_ = profile;
  profile_name_ = std::move(name);
}

void LocalFileDevice::ReadWindow(std::uint64_t offset, std::uint64_t length,
                                 std::uint64_t skip,
                                 util::MutableByteSpan out) {
  content_->Read(offset + skip, out);
  if (io_ == nullptr || length == 0) return;
  // Charge page-cache-aware block I/O.
  const std::uint64_t total_blocks =
      (content_->size() + io_block_ - 1) / io_block_;
  if (total_blocks == 0) return;
  const std::uint64_t first = offset / io_block_;
  if (first >= total_blocks) return;
  // Clamp the charged window to the final (possibly partial) block: a read
  // grazing EOF must never charge blocks past the end of the file.
  const std::uint64_t last = std::min<std::uint64_t>(
      (offset + length - 1) / io_block_, total_blocks - 1);
  std::vector<IoContext::AsyncRead> batch;
  for (std::uint64_t b = first; b <= last; ++b) {
    const bool hit = io_->page_cache().Lookup(device_id_, b);
    if (profile_ != nullptr) profile_->Record(profile_name_, b, hit);
    if (hit) continue;
    const std::uint64_t len = BlockLength(b);
    if (io_->InFlight(device_id_, b)) {
      // Readahead from an earlier call already has this block on the wire:
      // the barrier to its completion replaces the disk charge.
      io_->JoinInFlight(device_id_, b);
      io_->page_cache().Insert(device_id_, b, static_cast<std::uint32_t>(len));
      continue;
    }
    batch.push_back(
        IoContext::AsyncRead{PhysicalOffset(b * io_block_), len, 0.0, b});
  }
  if (!batch.empty()) {
    io_->ChargeAsyncReadBatch(batch, [&](std::uint64_t b) {
      io_->page_cache().Insert(device_id_, b,
                               static_cast<std::uint32_t>(BlockLength(b)));
    });
  }
  if (io_->config().readahead_blocks > 0) {
    const std::uint64_t until = std::min<std::uint64_t>(
        total_blocks, last + 1 + io_->config().readahead_blocks);
    for (std::uint64_t b = last + 1; b < until; ++b) {
      if (io_->page_cache().Resident(device_id_, b)) continue;
      if (io_->InFlight(device_id_, b)) continue;
      const std::uint64_t len = BlockLength(b);
      if (len == 0) break;  // nothing left to prefetch past EOF
      io_->PrefetchDiskRead(device_id_, b, PhysicalOffset(b * io_block_), len);
    }
  }
}

PrefetchOutcome LocalFileDevice::PrefetchBlock(std::uint64_t block) {
  if (io_ == nullptr) return PrefetchOutcome::kSkipped;
  const std::uint64_t len = BlockLength(block);
  if (len == 0) return PrefetchOutcome::kSkipped;
  if (io_->page_cache().Resident(device_id_, block)) {
    return PrefetchOutcome::kSkipped;
  }
  if (io_->InFlight(device_id_, block)) return PrefetchOutcome::kIssued;
  return io_->PrefetchDiskRead(device_id_, block,
                               PhysicalOffset(block * io_block_), len)
             ? PrefetchOutcome::kIssued
             : PrefetchOutcome::kDropped;
}

void LocalFileDevice::WriteAt(std::uint64_t, util::ByteSpan) {
  // The content source is immutable; local-file writes only occur on CoR
  // cache devices (LocalCacheDevice) or CoW overlays.
  throw std::logic_error("LocalFileDevice is read-only");
}

// --- LocalCacheDevice --------------------------------------------------------

LocalCacheDevice::LocalCacheDevice(std::uint64_t logical_size,
                                   std::uint32_t cluster_size, IoContext* io,
                                   std::uint64_t device_id,
                                   std::uint64_t disk_base)
    : logical_size_(logical_size),
      cluster_size_(cluster_size),
      io_(io),
      device_id_(device_id),
      disk_base_(disk_base) {}

bool LocalCacheDevice::Present(std::uint64_t offset) const {
  return clusters_.contains(offset / cluster_size_);
}

void LocalCacheDevice::ReadWindow(std::uint64_t offset, std::uint64_t length,
                                  std::uint64_t skip,
                                  util::MutableByteSpan out) {
  const std::uint64_t window = offset + skip;
  const std::uint64_t window_end = window + out.size();
  const std::uint64_t end = offset + length;
  std::uint64_t pos = offset;
  while (pos < end) {
    const std::uint64_t index = pos / cluster_size_;
    const std::uint64_t next =
        std::min<std::uint64_t>((index + 1) * cluster_size_, end);
    const auto it = clusters_.find(index);
    if (it == clusters_.end()) {
      throw std::logic_error("reading unpopulated cache cluster");
    }
    // This cluster's part of the window, possibly empty.
    const std::uint64_t from = std::max(pos, window);
    const std::uint64_t to = std::min(next, window_end);
    if (from < to) {
      std::memcpy(out.data() + (from - window),
                  it->second.data() + (from - index * cluster_size_),
                  to - from);
    }
    if (io_ != nullptr) {
      if (!io_->page_cache().Lookup(device_id_, index)) {
        io_->ChargeDiskRead(disk_base_ + physical_.at(index), it->second.size());
        io_->page_cache().Insert(device_id_, index,
                                 static_cast<std::uint32_t>(it->second.size()));
      }
    }
    pos = next;
  }
}

void LocalCacheDevice::WriteAt(std::uint64_t offset, util::ByteSpan data) {
  std::uint64_t pos = 0;
  while (pos < data.size()) {
    const std::uint64_t abs = offset + pos;
    const std::uint64_t index = abs / cluster_size_;
    const std::uint64_t within = abs % cluster_size_;
    const std::uint64_t take =
        std::min<std::uint64_t>(cluster_size_ - within, data.size() - pos);
    auto it = clusters_.find(index);
    if (it == clusters_.end()) {
      it = clusters_.emplace(index, util::Bytes(cluster_size_, 0)).first;
      physical_.emplace(index, alloc_cursor_);
      alloc_cursor_ += cluster_size_;
      populated_bytes_ += cluster_size_;
    }
    std::memcpy(it->second.data() + within, data.data() + pos, take);
    // CoR writes are buffered and flushed in the background; the page cache
    // absorbs them, so no synchronous latency is charged.
    if (io_ != nullptr) {
      io_->page_cache().Insert(device_id_, index, cluster_size_);
    }
    pos += take;
  }
}

void LocalCacheDevice::Warm(
    const util::DataSource& content,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& ranges) {
  util::Bytes buffer(cluster_size_);
  for (const auto& [offset, length] : ranges) {
    const std::uint64_t first = offset / cluster_size_;
    const std::uint64_t last = (offset + length - 1) / cluster_size_;
    for (std::uint64_t c = first; c <= last; ++c) {
      if (clusters_.contains(c)) continue;
      const std::uint64_t start = c * cluster_size_;
      const std::uint64_t len =
          std::min<std::uint64_t>(cluster_size_, logical_size_ - start);
      util::MutableByteSpan span(buffer.data(), len);
      content.Read(start, span);
      util::Bytes cluster(cluster_size_, 0);
      std::memcpy(cluster.data(), buffer.data(), len);
      clusters_.emplace(c, std::move(cluster));
      physical_.emplace(c, alloc_cursor_);
      alloc_cursor_ += cluster_size_;
      populated_bytes_ += cluster_size_;
    }
  }
}

// --- VolumeFileDevice --------------------------------------------------------

VolumeFileDevice::VolumeFileDevice(zvol::Volume* volume, std::string file,
                                   IoContext* io, std::uint64_t device_id,
                                   std::uint32_t presence_window)
    : volume_(volume),
      file_(std::move(file)),
      io_(io),
      device_id_(device_id),
      presence_window_(presence_window) {}

std::uint64_t VolumeFileDevice::size() const {
  return volume_->FileSize(file_);
}

bool VolumeFileDevice::Present(std::uint64_t offset) const {
  const zvol::FileMeta& meta = volume_->File(file_);
  const std::uint32_t block_size = volume_->config().block_size;
  const std::uint64_t window_start =
      offset / presence_window_ * presence_window_;
  const std::uint64_t window_end = std::min<std::uint64_t>(
      window_start + presence_window_, meta.logical_size);
  for (std::uint64_t pos = window_start; pos < window_end; pos += block_size) {
    const std::uint64_t block = pos / block_size;
    if (block >= meta.blocks.size()) break;
    if (!meta.blocks[block].hole) return true;
  }
  return false;
}

void VolumeFileDevice::SetRepairSources(std::vector<zvol::RepairPeer> peers,
                                        NetworkAccountant* network,
                                        std::uint32_t node_id,
                                        util::FaultInjector* faults) {
  repair_session_ =
      std::make_unique<zvol::RepairSession>(std::move(peers), faults);
  repair_network_ = network;
  repair_node_id_ = node_id;
}

VolumeFileDevice::PreHealStats VolumeFileDevice::PreHealBlocks(
    std::span<const std::uint64_t> blocks) {
  if (repair_session_ == nullptr) {
    throw std::logic_error("PreHealBlocks requires repair sources");
  }
  PreHealStats stats;
  const zvol::FileMeta& meta = volume_->File(file_);
  const std::uint32_t block_size = volume_->config().block_size;
  const std::uint64_t block_count = meta.blocks.size();
  std::size_t i = 0;
  while (i < blocks.size()) {
    std::size_t j = i + 1;
    while (j < blocks.size() && blocks[j] == blocks[j - 1] + 1) ++j;
    if (blocks[i] < block_count) {
      const std::uint64_t offset = blocks[i] * block_size;
      const std::uint64_t end_block =
          std::min<std::uint64_t>(blocks[j - 1] + 1, block_count);
      const std::uint64_t length =
          std::min<std::uint64_t>(end_block * block_size, meta.logical_size) -
          offset;
      // The run is read for its side effects (heal, ARC fill): an empty
      // window copies none of its bytes.
      std::uint64_t fetched = 0;
      volume_->ReadRangeRepairInto(file_, offset, length, 0, {},
                                   *repair_session_, &fetched);
      if (fetched > 0) {
        ++stats.repair_fetches;
        stats.repaired_bytes += fetched;
        if (repair_network_ != nullptr) {
          repair_network_->Transfer(/*from=*/0, repair_node_id_, fetched);
        }
      }
    }
    i = j;
  }
  return stats;
}

void VolumeFileDevice::SetProfileRecorder(vmi::BootProfile* profile) {
  profile_ = profile;
}

std::uint64_t VolumeFileDevice::BlockLength(const zvol::FileMeta& meta,
                                            std::uint64_t b) const {
  const std::uint32_t block_size = volume_->config().block_size;
  const std::uint64_t block_start = b * block_size;
  // Saturate at EOF — see LocalFileDevice::BlockLength.
  if (block_start >= meta.logical_size) return 0;
  return std::min<std::uint64_t>(block_size, meta.logical_size - block_start);
}

PrefetchOutcome VolumeFileDevice::PrefetchBlock(std::uint64_t block) {
  if (io_ == nullptr) return PrefetchOutcome::kSkipped;
  const zvol::FileMeta& meta = volume_->File(file_);
  if (block >= meta.blocks.size() || BlockLength(meta, block) == 0) {
    return PrefetchOutcome::kSkipped;
  }
  const zvol::BlockPtr& ptr = meta.blocks[block];
  if (ptr.hole) return PrefetchOutcome::kSkipped;
  if (io_->page_cache().Resident(device_id_, block)) {
    return PrefetchOutcome::kSkipped;
  }
  if (io_->InFlight(device_id_, block)) return PrefetchOutcome::kIssued;
  const store::BlockStore& store = volume_->block_store();
  return io_->PrefetchDiskRead(device_id_, block, store.DiskOffset(ptr.digest),
                               store.PhysicalSize(ptr.digest))
             ? PrefetchOutcome::kIssued
             : PrefetchOutcome::kDropped;
}

std::uint64_t VolumeFileDevice::WarmCacheFromBlocks(
    std::span<const std::uint64_t> blocks) {
  const zvol::FileMeta& meta = volume_->File(file_);
  std::vector<util::Digest> digests;
  digests.reserve(blocks.size());
  for (const std::uint64_t b : blocks) {
    if (b >= meta.blocks.size()) continue;
    const zvol::BlockPtr& ptr = meta.blocks[b];
    if (ptr.hole) continue;
    digests.push_back(ptr.digest);
  }
  return volume_->block_store().WarmCache(digests);
}

void VolumeFileDevice::ReadWindow(std::uint64_t offset, std::uint64_t length,
                                  std::uint64_t skip,
                                  util::MutableByteSpan out) {
  // One file-table lookup per call; nothing below changes the table.
  const zvol::FileMeta& meta = volume_->File(file_);
  const std::uint32_t block_size = volume_->config().block_size;
  // Accounting covers the whole request and runs before the read executes,
  // so cache residency reflects the state this request found (the read
  // itself warms the store's ARC).
  bool page_cache_hit = false;  // every non-hole block requested hit
  const std::uint64_t block_count = meta.blocks.size();
  if (io_ != nullptr && length > 0 && block_count > 0 &&
      offset / block_size < block_count) {
    const store::BlockStore& store = volume_->block_store();
    const std::uint64_t first = offset / block_size;
    // Clamp the charged window to the file's final block: a read grazing
    // EOF must never walk (or prefetch past) blocks the file doesn't have.
    const std::uint64_t last = std::min<std::uint64_t>(
        (offset + length - 1) / block_size, block_count - 1);
    // Every block access walks the dedup table, whose size no step of this
    // pass changes.
    const std::uint64_t ddt_entries = store.stats().unique_blocks;

    // Collect the blocks that miss the page cache, then probe the store's
    // ARC for all of them in one batched call (one lock acquisition instead
    // of one per block).
    std::vector<std::uint64_t> pending;
    std::vector<std::uint8_t> in_flight;  // parallel to pending
    std::vector<util::Digest> digests;
    for (std::uint64_t b = first; b <= last; ++b) {
      const zvol::BlockPtr& ptr = meta.blocks[b];
      if (ptr.hole) continue;  // holes are free
      io_->ChargeDdtLookup(ddt_entries);
      const bool hit = io_->page_cache().Lookup(device_id_, b);
      if (profile_ != nullptr) profile_->Record(file_, b, hit);
      if (hit) continue;
      pending.push_back(b);
      in_flight.push_back(io_->InFlight(device_id_, b) ? 1 : 0);
      digests.push_back(ptr.digest);
    }
    page_cache_hit = pending.empty();
    // Decompression CPU is charged per block unless the decompressed payload
    // is already resident in the store's ARC (ReadConfig::cache_bytes > 0),
    // where a hit serves the plain bytes straight from memory. A request
    // the page cache served whole has nothing to probe.
    const std::vector<std::uint8_t> resident =
        page_cache_hit ? std::vector<std::uint8_t>()
                       : store.CachedDecompressedBatch(digests);
    const double decompress_per_byte =
        store.codec().cost().decompress_ns_per_byte;
    // Blocks already on the wire from readahead: barrier to their
    // completion (overlapped with whatever the guest did meanwhile)
    // instead of a fresh disk charge.
    for (std::size_t k = 0; k < pending.size(); ++k) {
      if (!in_flight[k]) continue;
      const std::uint64_t b = pending[k];
      const zvol::BlockPtr& ptr = meta.blocks[b];
      io_->JoinInFlight(device_id_, b);
      if (!resident[k]) {
        io_->ChargeNs(decompress_per_byte *
                      static_cast<double>(ptr.logical_size));
      }
      io_->page_cache().Insert(device_id_, b, ptr.logical_size);
    }
    // The rest go through the bounded queue in windows of `depth`, each at
    // the block's scattered pool offset; the completion callback runs in
    // completion order, after that block's decompression is charged, and
    // fills the page cache.
    std::vector<IoContext::AsyncRead> batch;
    for (std::size_t k = 0; k < pending.size(); ++k) {
      if (in_flight[k]) continue;
      const zvol::BlockPtr& ptr = meta.blocks[pending[k]];
      batch.push_back(IoContext::AsyncRead{
          store.DiskOffset(ptr.digest), store.PhysicalSize(ptr.digest),
          resident[k] ? 0.0
                      : decompress_per_byte *
                            static_cast<double>(ptr.logical_size),
          pending[k]});
    }
    if (!batch.empty()) {
      io_->ChargeAsyncReadBatch(batch, [&](std::uint64_t b) {
        io_->page_cache().Insert(device_id_, b, meta.blocks[b].logical_size);
      });
    }
    // Sequential readahead: prefetch the blocks past this read without
    // touching the guest clock. Consumption joins them above.
    const std::uint32_t readahead = io_->config().readahead_blocks;
    if (readahead > 0) {
      const std::uint64_t until =
          std::min<std::uint64_t>(block_count, last + 1 + readahead);
      for (std::uint64_t b = last + 1; b < until; ++b) {
        const zvol::BlockPtr& ptr = meta.blocks[b];
        if (ptr.hole) continue;
        if (io_->page_cache().Resident(device_id_, b)) continue;
        if (io_->InFlight(device_id_, b)) continue;
        io_->PrefetchDiskRead(device_id_, b, store.DiskOffset(ptr.digest),
                              store.PhysicalSize(ptr.digest));
      }
    }
  }

  // The page cache already served this request in the model: copy the
  // window from the bytes earlier reads returned instead of fetching and
  // decoding them again.
  if (page_cache_hit && ServeHeld(meta, offset, length, skip, out)) {
    ReleaseEvicted();
    return;
  }

  // The volume fetches every block of the request and copies the window
  // straight into `out`; with an IoContext it also hands back the blocks'
  // shared payloads for Hold.
  std::vector<util::SharedBytes>* blocks = io_ != nullptr ? &fetched_ : nullptr;
  if (repair_session_ == nullptr) {
    volume_->ReadRangeInto(file_, offset, length, skip, out, blocks);
  } else {
    // Degraded mode: a corrupt local block is healed on demand from the
    // first honest replica that has it (the storage node in a one-peer
    // session); the re-fetched bytes are charged as network traffic (the
    // cost curve BENCH_faults measures).
    std::uint64_t fetched = 0;
    volume_->ReadRangeRepairInto(file_, offset, length, skip, out,
                                 *repair_session_, &fetched, blocks);
    degraded_.peers_blacklisted = repair_session_->peers_blacklisted();
    degraded_.resourced_blocks = repair_session_->resourced_blocks();
    degraded_.byzantine_rejected = repair_session_->byzantine_rejected();
    if (fetched > 0) {
      ++degraded_.repair_reads;
      degraded_.repaired_bytes += fetched;
      if (repair_network_ != nullptr) {
        const double ns =
            repair_network_->Transfer(/*from=*/0, repair_node_id_, fetched);
        if (io_ != nullptr) io_->ChargeNs(ns);
      }
    }
  }
  if (io_ != nullptr) {
    Hold(meta, offset, length);
    ReleaseEvicted();
  }
}

bool VolumeFileDevice::ServeHeld(const zvol::FileMeta& meta,
                                 std::uint64_t offset, std::uint64_t length,
                                 std::uint64_t skip,
                                 util::MutableByteSpan out) const {
  if (offset + length > meta.logical_size) return false;
  const std::uint32_t block_size = volume_->config().block_size;
  const std::uint64_t first = offset / block_size;
  const std::uint64_t last = (offset + length - 1) / block_size;
  // Check every block of the request, not only the window's, before
  // copying: the request is what a volume read would serve, and a refused
  // read leaves `out` alone.
  for (std::uint64_t b = first; b <= last; ++b) {
    const zvol::BlockPtr& ptr = meta.blocks[b];
    if (ptr.hole) continue;
    const auto it = held_.find(b);
    // The digest guard: a block rewritten behind the device (or a file
    // grown past it) reads through the volume again.
    if (it == held_.end() || it->second.digest != ptr.digest ||
        it->second.length != BlockLength(meta, b)) {
      return false;
    }
  }
  const std::uint64_t window = offset + skip;
  const std::uint64_t window_end = window + out.size();
  for (std::uint64_t b = first; b <= last; ++b) {
    const std::uint64_t block_start = b * block_size;
    const std::uint64_t from = std::max(window, block_start);
    const std::uint64_t to =
        std::min<std::uint64_t>(window_end, block_start + block_size);
    if (from >= to) continue;  // outside the window
    const util::MutableByteSpan dst = out.subspan(from - window, to - from);
    if (meta.blocks[b].hole) {
      std::memset(dst.data(), 0, dst.size());
    } else {
      zvol::ReadBlockBytes(*held_.at(b).payload, from - block_start, dst);
    }
  }
  return true;
}

void VolumeFileDevice::Hold(const zvol::FileMeta& meta, std::uint64_t offset,
                            std::uint64_t length) {
  const std::uint32_t block_size = volume_->config().block_size;
  const std::uint64_t first = offset / block_size;
  const std::uint64_t end = offset + length;
  for (std::uint64_t b = (offset + block_size - 1) / block_size;; ++b) {
    const std::uint64_t block_start = b * block_size;
    const std::uint64_t block_length = BlockLength(meta, b);
    if (block_length == 0 || block_start + block_length > end) break;
    const zvol::BlockPtr& ptr = meta.blocks[b];
    // A block the page cache did not keep (no capacity, or evicted by a
    // later block of this read) would never be served.
    if (ptr.hole || !io_->page_cache().Resident(device_id_, b)) continue;
    held_[b] = HeldBlock{ptr.digest, block_length,
                         std::move(fetched_[b - first])};
  }
  fetched_.clear();
}

void VolumeFileDevice::ReleaseEvicted() {
  std::erase_if(held_, [&](const auto& entry) {
    return !io_->page_cache().Resident(device_id_, entry.first);
  });
}

std::uint64_t VolumeFileDevice::held_bytes() const {
  std::uint64_t bytes = 0;
  for (const auto& [block, held] : held_) bytes += held.payload->size();
  return bytes;
}

void VolumeFileDevice::WriteAt(std::uint64_t offset, util::ByteSpan data) {
  volume_->WriteRange(file_, offset, data);
  if (io_ != nullptr) {
    // Hashing (~1 ns/B) and compression CPU; the allocation itself is
    // flushed lazily by the transaction group, so no disk latency here.
    io_->ChargeNs((1.0 + volume_->block_store().codec().cost().compress_ns_per_byte) *
                  static_cast<double>(data.size()));
  }
}

// --- RemoteImageDevice -------------------------------------------------------

RemoteImageDevice::RemoteImageDevice(const util::DataSource* content,
                                     IoContext* io,
                                     NetworkAccountant* network,
                                     std::uint32_t node_id,
                                     AllocationMap allocation)
    : content_(content),
      io_(io),
      network_(network),
      node_id_(node_id),
      allocation_(std::move(allocation)) {}

void RemoteImageDevice::ReadWindow(std::uint64_t offset, std::uint64_t length,
                                   std::uint64_t skip,
                                   util::MutableByteSpan out) {
  content_->Read(offset + skip, out);
  bytes_fetched_ += length;
  if (network_ != nullptr) {
    // Served by the parallel file system; the caller decided which storage
    // node backs this image when it created the accountant mapping. Node 0
    // of the accountant range is used when no finer mapping is configured.
    const double ns = network_->Transfer(/*from=*/0, node_id_, length);
    if (io_ != nullptr) io_->ChargeNs(ns);
  } else if (io_ != nullptr) {
    // No network model: charge a nominal remote latency.
    io_->ChargeNs(200e3 + static_cast<double>(length) / 0.125);
  }
}

}  // namespace squirrel::sim
