// Degraded-read reconstruction from a storage set's shard stores.
//
// A ReconstructionSource binds one block's worth of machinery together: the
// (k, m) Reed–Solomon codec, the stripe peers of one storage set (their
// ShardStores and liveness), and the gather protocol:
//
//   1. collect the shard slots reachable on online peers;
//   2. pick k of them, preferring data shards (a rebuild from all-data
//      slots is pure reassembly — no field arithmetic, no parity reads);
//   3. decode and reassemble the payload.
//
// Gather() reports what the rebuild cost — local vs remote shard bytes and
// how many parity shards participated — so the boot device can charge disk
// and network honestly.
//
// Payloads leave Gather() *unverified*: the caller owns the digest check
// (the striped boot device compares the store's ComputeDigest against the
// block pointer), mirroring the repair path's single-defence design.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "placement/reed_solomon.h"
#include "placement/shard_store.h"
#include "util/bytes.h"
#include "util/hash.h"

namespace squirrel::placement {

/// One stripe peer: a storage-set member and its shard store. `local`
/// marks the node performing the read — its shard comes off local disk,
/// everyone else's crosses the set network.
struct ShardPeer {
  std::uint32_t node_id = 0;
  const ShardStore* store = nullptr;
  bool online = true;
  bool local = false;
};

class ReconstructionSource {
 public:
  /// `codec` is borrowed and must outlive the source.
  ReconstructionSource(const ReedSolomon* codec, std::vector<ShardPeer> peers);

  struct GatherResult {
    util::Bytes payload;
    std::uint64_t local_bytes = 0;   // shard bytes read from the local store
    std::uint64_t remote_bytes = 0;  // shard bytes pulled from set peers
    std::uint32_t parity_shards_read = 0;
    /// True when parity participated (an RS decode ran, not a reassembly).
    bool decoded = false;
    /// (peer node id, shard bytes) per remote shard read — the boot device
    /// charges each as a set-local network transfer.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> remote_reads;
  };

  /// Gathers k shards of `digest` across the set and rebuilds the payload.
  /// Returns nullopt when fewer than k shards are reachable on online
  /// peers. The payload is not digest-verified here.
  std::optional<GatherResult> Gather(const util::Digest& digest) const;

 private:
  const ReedSolomon* codec_;
  std::vector<ShardPeer> peers_;
};

}  // namespace squirrel::placement
