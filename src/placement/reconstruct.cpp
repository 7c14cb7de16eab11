#include "placement/reconstruct.h"

#include <algorithm>
#include <utility>

namespace squirrel::placement {

ReconstructionSource::ReconstructionSource(const ReedSolomon* codec,
                                           std::vector<ShardPeer> peers)
    : codec_(codec), peers_(std::move(peers)) {}

std::optional<ReconstructionSource::GatherResult>
ReconstructionSource::Gather(const util::Digest& digest) const {
  const std::uint32_t k = codec_->data_shards();
  const std::uint32_t total = codec_->total_shards();

  // Reachable shard slots, indexed by shard number. A set member holds at
  // most one shard per block, so first-writer-wins is unambiguous.
  struct Slot {
    const ShardEntry* entry = nullptr;
    bool local = false;
    std::uint32_t node_id = 0;
  };
  std::vector<Slot> slots(total);
  std::uint32_t payload_size = 0;
  for (const ShardPeer& peer : peers_) {
    if (!peer.online || peer.store == nullptr) continue;
    const ShardEntry* entry = peer.store->Find(digest);
    if (entry == nullptr || entry->shard_index >= total) continue;
    if (slots[entry->shard_index].entry != nullptr) continue;
    slots[entry->shard_index] = {entry, peer.local, peer.node_id};
    payload_size = entry->payload_size;
  }

  // Choose k slots preferring data shards: iterating shard numbers in order
  // (data 0..k-1 first) does exactly that.
  std::vector<std::uint32_t> chosen;
  chosen.reserve(k);
  for (std::uint32_t i = 0; i < total && chosen.size() < k; ++i) {
    if (slots[i].entry != nullptr) chosen.push_back(i);
  }
  if (chosen.size() < k) return std::nullopt;

  GatherResult result;
  std::vector<std::optional<util::Bytes>> shards(total);
  for (const std::uint32_t i : chosen) {
    shards[i] = slots[i].entry->bytes;
    if (slots[i].local) {
      result.local_bytes += slots[i].entry->bytes.size();
    } else {
      result.remote_bytes += slots[i].entry->bytes.size();
      result.remote_reads.emplace_back(slots[i].node_id,
                                       slots[i].entry->bytes.size());
    }
    if (i >= k) {
      ++result.parity_shards_read;
      result.decoded = true;
    }
  }
  result.payload = codec_->Reconstruct(shards, payload_size);
  return result;
}

}  // namespace squirrel::placement
