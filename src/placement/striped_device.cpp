#include "placement/striped_device.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace squirrel::placement {

namespace {

// Shard extents land digest-scattered across the node's pool, like the
// block store's deduplicated extents; the modelled span sets the seek
// distances the disk model sees.
constexpr std::uint64_t kModeledShardSpan = 16ull << 30;

std::uint64_t ShardDiskOffset(const util::Digest& digest) {
  return digest.Prefix64() % kModeledShardSpan;
}

}  // namespace

StripedFileDevice::StripedFileDevice(const zvol::Volume* metadata,
                                     std::string file,
                                     const ReconstructionSource* source,
                                     const store::BlockStore* storage,
                                     sim::IoContext* io,
                                     sim::NetworkAccountant* network,
                                     std::uint32_t node_id)
    : metadata_(metadata),
      file_(std::move(file)),
      source_(source),
      storage_(storage),
      io_(io),
      network_(network),
      node_id_(node_id) {}

std::uint64_t StripedFileDevice::size() const {
  return metadata_->FileSize(file_);
}

bool StripedFileDevice::Present(std::uint64_t offset) const {
  // The set collectively holds every materialized block, so presence is a
  // metadata question: is there a non-hole block under this offset?
  const zvol::FileMeta& meta = metadata_->File(file_);
  const std::uint64_t b = offset / metadata_->config().block_size;
  return b < meta.blocks.size() && !meta.blocks[b].hole;
}

const util::Bytes& StripedFileDevice::AssembleBlock(const zvol::BlockPtr& ptr) {
  const auto cached = assembled_.find(ptr.digest);
  if (cached != assembled_.end()) return cached->second;

  ++stats_.blocks_served;
  std::optional<ReconstructionSource::GatherResult> gathered =
      source_->Gather(ptr.digest);
  if (gathered.has_value() &&
      storage_->ComputeDigest(gathered->payload) == ptr.digest) {
    stats_.local_shard_bytes += gathered->local_bytes;
    stats_.remote_shard_bytes += gathered->remote_bytes;
    if (io_ != nullptr && gathered->local_bytes > 0) {
      io_->ChargeDiskRead(ShardDiskOffset(ptr.digest), gathered->local_bytes);
    }
    for (const auto& [peer, bytes] : gathered->remote_reads) {
      if (network_ != nullptr) {
        const double ns = network_->Transfer(peer, node_id_, bytes);
        if (io_ != nullptr) io_->ChargeNs(ns);
      }
    }
    if (gathered->decoded) {
      ++stats_.reconstructed_blocks;
      stats_.parity_reads += gathered->parity_shards_read;
      if (io_ != nullptr) {
        io_->ChargeNs(kDecodeNsPerByte *
                      static_cast<double>(gathered->payload.size()));
      }
    }
    return assembled_.emplace(ptr.digest, std::move(gathered->payload))
        .first->second;
  }

  // Too few reachable shards (more than m members down), or the rebuild
  // failed the digest check (a Byzantine shard slipped into the chosen k):
  // whole-block fetch from the storage node. Get() digest-verifies.
  ++stats_.reconstruct_fallbacks;
  util::Bytes raw = storage_->Get(ptr.digest);
  ++stats_.storage_fetches;
  stats_.storage_fetch_bytes += raw.size();
  if (network_ != nullptr) {
    const double ns = network_->Transfer(/*from=*/0, node_id_, raw.size());
    if (io_ != nullptr) io_->ChargeNs(ns);
  }
  return assembled_.emplace(ptr.digest, std::move(raw)).first->second;
}

void StripedFileDevice::ReadWindow(std::uint64_t offset, std::uint64_t length,
                                   std::uint64_t skip,
                                   util::MutableByteSpan out) {
  if (length == 0) return;
  const zvol::FileMeta& meta = metadata_->File(file_);
  const std::uint32_t block_size = metadata_->config().block_size;
  const std::uint64_t window = offset + skip;
  const std::uint64_t window_end =
      std::min<std::uint64_t>(window + out.size(), meta.logical_size);
  std::fill(out.begin(), out.end(), util::Byte{0});

  // Every block of the request is resolved and assembled; only the window
  // is copied.
  const std::uint64_t first = offset / block_size;
  const std::uint64_t end = std::min<std::uint64_t>(offset + length,
                                                    meta.logical_size);
  const std::uint64_t ddt_entries =
      io_ != nullptr ? metadata_->block_store().stats().unique_blocks : 0;
  for (std::uint64_t b = first; b < meta.blocks.size() && b * block_size < end;
       ++b) {
    const zvol::BlockPtr& ptr = meta.blocks[b];
    if (ptr.hole) continue;  // holes read as zeros, free
    // Every block access resolves the shard map — charged like the DDT
    // walk the full-replica path pays.
    if (io_ != nullptr) io_->ChargeDdtLookup(ddt_entries);
    const util::Bytes& payload = AssembleBlock(ptr);
    const std::uint64_t block_start = b * block_size;
    const std::uint64_t copy_from = std::max(window, block_start);
    const std::uint64_t copy_end =
        std::min<std::uint64_t>(window_end, block_start + payload.size());
    if (copy_end <= copy_from) continue;
    std::memcpy(out.data() + (copy_from - window),
                payload.data() + (copy_from - block_start),
                copy_end - copy_from);
  }
}

void StripedFileDevice::WriteAt(std::uint64_t, util::ByteSpan) {
  throw Error("StripedFileDevice is read-only: boots write into the overlay");
}

}  // namespace squirrel::placement
