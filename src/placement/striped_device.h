// The striped boot cache device — VolumeFileDevice's counterpart when the
// placement policy shards the working set across a storage set.
//
// Under striping a compute node keeps no whole-block replica; its ccVolume
// is empty and its ShardStore holds one shard per unique block. A boot's
// cache layer instead reads through this device: file-table *metadata*
// (block pointers) comes from the replicated catalog (modelled by reading
// the scVolume's table — metadata is tiny and stays fully replicated), and
// each block's *payload* is gathered from the stripe:
//
//   1. the node's own shard comes off local disk (scattered-offset charge);
//   2. the other k−1 data shards stream from set peers (one set-local
//      network transfer each, L/k bytes);
//   3. when a data-shard holder is offline, parity shards from survivors
//      take its place and a Reed–Solomon decode rebuilds the payload
//      (parity_reads / reconstructed_blocks accounting);
//   4. if fewer than k shards are reachable — more than m set members down
//      — or the rebuilt payload fails the digest check, the device falls
//      back to a whole-block fetch from the storage node
//      (reconstruct_fallbacks, the storage-refetch traffic striping exists
//      to avoid).
//
// Assembled blocks are kept in an in-memory map (the node's page cache for
// this boot; no eviction — one boot's working set fits) so repeated guest
// reads of a hot block gather once. Every payload that leaves the device
// was digest-verified against the block pointer, so Byzantine shard peers
// reduce to fallbacks, never to wrong guest bytes.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "cow/device.h"
#include "placement/reconstruct.h"
#include "sim/io_context.h"
#include "sim/network.h"
#include "store/block_store.h"
#include "util/hash.h"
#include "zvol/volume.h"

namespace squirrel::placement {

class StripedFileDevice final : public cow::WritableDevice {
 public:
  /// Reed–Solomon decode CPU, charged per rebuilt payload byte when parity
  /// participates (a single GF(256) multiply-accumulate pass per row).
  static constexpr double kDecodeNsPerByte = 0.8;

  /// `metadata` is the volume holding the authoritative file table (the
  /// scVolume); `source` gathers shards across the set; `storage` is the
  /// storage node's block store, the whole-block fallback. `io` and
  /// `network` may be null (functional mode, no charging). All borrowed.
  StripedFileDevice(const zvol::Volume* metadata, std::string file,
                    const ReconstructionSource* source,
                    const store::BlockStore* storage, sim::IoContext* io,
                    sim::NetworkAccountant* network, std::uint32_t node_id);

  std::uint64_t size() const override;
  bool Present(std::uint64_t offset) const override;
  /// Charges and assembles every block of the request; copies only the
  /// window (holes and bytes past a block's payload read as zeros).
  void ReadWindow(std::uint64_t offset, std::uint64_t length,
                  std::uint64_t skip, util::MutableByteSpan out) override;
  /// The striped cache is read-only: boots run the chain with
  /// copy_on_read off, so the overlay absorbs all writes. Throws.
  void WriteAt(std::uint64_t offset, util::ByteSpan data) override;

  struct StripedReadStats {
    std::uint64_t blocks_served = 0;        // non-hole blocks assembled
    std::uint64_t local_shard_bytes = 0;    // read from the node's own store
    std::uint64_t remote_shard_bytes = 0;   // pulled from set peers
    std::uint64_t reconstructed_blocks = 0; // rebuilt through parity
    std::uint64_t parity_reads = 0;         // parity shards consumed
    std::uint64_t reconstruct_fallbacks = 0;  // gathers that fell through
    std::uint64_t storage_fetches = 0;      // whole-block storage refetches
    std::uint64_t storage_fetch_bytes = 0;
  };
  const StripedReadStats& stats() const { return stats_; }

 private:
  /// Assembles (or returns the cached copy of) the payload behind `ptr`.
  const util::Bytes& AssembleBlock(const zvol::BlockPtr& ptr);

  const zvol::Volume* metadata_;
  std::string file_;
  const ReconstructionSource* source_;
  const store::BlockStore* storage_;
  sim::IoContext* io_;
  sim::NetworkAccountant* network_;
  std::uint32_t node_id_;
  std::unordered_map<util::Digest, util::Bytes, util::DigestHasher> assembled_;
  StripedReadStats stats_;
};

}  // namespace squirrel::placement
