// Squirrel: fully replicated scatter-hoarded storage of VMI caches
// (Section 3).
//
// One storage-side cache volume (scVolume) holds the deduplicated,
// compressed boot caches of every registered VMI. Every compute node holds a
// ccVolume — a full replica kept in sync through ZFS-style incremental
// snapshot streams:
//
//   Register(request):   boot once near the storage node to produce the
//                        cache, store it in the scVolume, snapshot, and
//                        multicast the snapshot diff to all online compute
//                        nodes (§3.2).
//   Boot(node, request): chain an empty CoW overlay over the node's ccVolume
//                        cache file over the (remote) base VMI; a warm
//                        replica serves every boot read locally (§3.3).
//   Deregister(image):   delete the cache (no snapshot; the deletion
//                        propagates with the next registration) (§3.4).
//   SyncNode(node):      on node boot, catch up from its latest local
//                        snapshot; if the storage side already pruned that
//                        snapshot, fall back to full replication (§3.5).
//   RunGc():             daily cron — prune snapshots older than the
//                        retention window, always keeping the latest (§3.4).
//
// Workflow inputs travel in request structs (RegisterRequest, BootRequest)
// with a shared SimClock `now` convention — see core/config.h for the
// configuration and clock types.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.h"
#include "cow/chain.h"
#include "placement/layout.h"
#include "placement/reed_solomon.h"
#include "placement/shard_store.h"
#include "placement/striped_device.h"
#include "sim/boot_sim.h"
#include "sim/devices.h"
#include "sim/io_context.h"
#include "sim/network.h"
#include "sim/profile_prefetch.h"
#include "util/fault_injector.h"
#include "util/source.h"
#include "zvol/volume.h"

namespace squirrel::core {

/// Register a VMI's boot cache with the cluster (§3.2).
struct RegisterRequest {
  std::string image_id;
  /// The boot working set view of the image — what the registration boot
  /// writes copy-on-read. Borrowed for the duration of the call.
  const util::DataSource& cache_content;
  /// Simulated time of the registration (snapshot timestamp).
  SimClock now{};
};

/// Boot a VM from a compute node's local ccVolume replica (§3.3).
struct BootRequest {
  std::string image_id;
  /// The (remote) base VMI the CoW chain bottoms out in.
  const util::DataSource& base_image;
  /// The boot's read trace, replayed through the chain.
  const std::vector<vmi::BootRead>& trace;
  /// Optional write trace (logs, /run, tmp) replayed into the VM's CoW
  /// overlay after the reads.
  const std::vector<vmi::BootRead>* writes = nullptr;
  /// Optional sparse map of the base image, so copy-on-write fills of
  /// unallocated ranges stay off the network.
  sim::RemoteImageDevice::AllocationMap allocation = {};
  /// Optional profile recording/replay (pre-heal + prefetch).
  const BootProfileRun* profile = nullptr;
  sim::BootSimConfig boot_config{};
  /// Chooses the repair session's peer list. Every boot heals corrupt
  /// ccVolume blocks through a RepairSession; by default it holds only the
  /// storage node. When set, the other online compute replicas that hold
  /// this cache file are tried first and the storage node last. Compute
  /// peers may serve Byzantine payloads under the cluster's fault injector;
  /// lying peers strike out and the block re-sources from the next replica.
  bool peer_repair_sources = false;
  /// Tenant (VM owner) this boot's ARC residency is charged to (see
  /// store::TenantId; per-tenant budgets come from store::CacheController).
  /// Appended last so positional initializers predating the field keep
  /// their meaning. Default 0 = untagged single-tenant mode, which keeps
  /// every cache code path bit-identical to the pre-tenant tree.
  store::TenantId tenant = store::kDefaultTenant;
};

struct RegistrationReport {
  std::string image_id;
  std::string snapshot_name;
  std::uint64_t cache_logical_bytes = 0;  // nonzero cache content written
  std::uint64_t diff_wire_bytes = 0;      // incremental stream size
  std::uint32_t receivers = 0;            // online compute nodes updated
  double total_seconds = 0.0;             // §3.2: should be well under a minute
  TransferStats transfers{};              // delivery attempts/retries per run
};

struct SyncReport {
  bool full_resync = false;
  std::uint64_t wire_bytes = 0;
  std::uint32_t snapshots_advanced = 0;
  double seconds = 0.0;
  TransferStats transfers{};
};

struct BootReport {
  sim::BootResult result;
  std::uint64_t network_bytes = 0;  // base-VMI bytes pulled over the network
  /// Degraded-mode healing during the boot: corrupt ccVolume blocks
  /// re-fetched on demand through the repair session (bytes included in
  /// network_bytes), and the Byzantine payloads, struck-out peers and
  /// re-sourced blocks of that session.
  sim::VolumeFileDevice::DegradedReadStats degraded;
  /// Pre-heal pass (profile replay with pre_heal): range reads that had to
  /// fetch clean copies through the repair session *before* the guest
  /// started — repairs moved off the boot's critical path. Bytes are
  /// included in network_bytes but charge no simulated boot time.
  sim::VolumeFileDevice::PreHealStats preheal;
  /// Profile-guided background reads issued while the guest booted.
  sim::ProfilePrefetchStats prefetch;
  /// Striped-placement boots only (zero under full replication): shard
  /// traffic, parity rebuilds, and whole-block storage-node refetches.
  placement::StripedFileDevice::StripedReadStats striped;
};

/// One compute node: its ccVolume and availability state.
class ComputeNode {
 public:
  ComputeNode(std::uint32_t id, const zvol::VolumeConfig& config)
      : id_(id), volume_(config) {}

  std::uint32_t id() const { return id_; }
  bool online() const { return online_; }
  void set_online(bool online) { online_ = online; }

  zvol::Volume& volume() { return volume_; }
  const zvol::Volume& volume() const { return volume_; }

  /// Striped placement: this node's shard of each unique block (empty under
  /// full replication, where `volume()` holds whole-block replicas instead).
  placement::ShardStore& shards() { return shards_; }
  const placement::ShardStore& shards() const { return shards_; }

  /// Latest scVolume snapshot id whose shard set this node has installed
  /// (the striped analogue of the ccVolume's own snapshot chain).
  std::uint64_t shard_synced_id() const { return shard_synced_id_; }
  void set_shard_synced_id(std::uint64_t id) { shard_synced_id_ = id; }

 private:
  std::uint32_t id_;
  bool online_ = true;
  zvol::Volume volume_;
  placement::ShardStore shards_;
  std::uint64_t shard_synced_id_ = 0;
};

class SquirrelCluster {
 public:
  /// Node ids: 0 is the storage node; compute nodes are 1..compute_count.
  SquirrelCluster(SquirrelConfig config, std::uint32_t compute_count,
                  sim::NetworkConfig net_config = {});

  // --- workflows -----------------------------------------------------------

  /// Registers a VMI: ingest the cache, snapshot the scVolume, and fan the
  /// incremental diff out to all online nodes.
  RegistrationReport Register(const RegisterRequest& request);

  /// Deletes the cache from the scVolume. No snapshot (§3.4); ccVolumes
  /// learn about it with the next registration's snapshot.
  void Deregister(const std::string& image_id, SimClock now);

  /// Brings one node's ccVolume up to date (the node-boot path, §3.5).
  SyncReport SyncNode(std::uint32_t compute_node, SimClock now);

  /// Daily garbage collection on the scVolume and every online ccVolume.
  void RunGc(SimClock now);

  /// Boots a VM on `compute_node` from its local ccVolume replica, chained
  /// over the remote base image. Returns boot timing and the network bytes
  /// the boot consumed (zero when the replica is warm). See BootRequest for
  /// the optional write trace, allocation map, and profile run.
  BootReport Boot(std::uint32_t compute_node, const BootRequest& request,
                  sim::IoContext& io);

  // --- introspection ---------------------------------------------------------

  zvol::Volume& storage_volume() { return sc_volume_; }
  ComputeNode& compute_node(std::uint32_t i) { return *compute_nodes_.at(i); }
  std::uint32_t compute_count() const {
    return static_cast<std::uint32_t>(compute_nodes_.size());
  }
  sim::NetworkAccountant& network() { return network_; }
  const SquirrelConfig& config() const { return config_; }

  /// The storage-set layout, or nullptr under full replication.
  const placement::StorageSetLayout* layout() const {
    return layout_.has_value() ? &*layout_ : nullptr;
  }
  /// True when `compute_node` (0-based index) stores shards instead of
  /// whole-block replicas.
  bool NodeStriped(std::uint32_t compute_node) const {
    return layout_.has_value() && layout_->NodeStriped(compute_node + 1);
  }

  /// Arms fault injection on replication transfers, degraded boots, crash
  /// points inside every volume's Receive path, and the Byzantine peer
  /// model. The injector is borrowed (caller keeps ownership); nullptr
  /// disarms, and a disarmed cluster's accounting is bit-identical to one
  /// that never had an injector. Arming forwards to the scVolume and every
  /// ccVolume, whose Receive paths then fire their crash sites.
  void SetFaultInjector(util::FaultInjector* faults) {
    faults_ = faults;
    sc_volume_.SetFaultInjector(faults);
    for (const auto& node : compute_nodes_) {
      node->volume().SetFaultInjector(faults);
    }
  }

  /// Registered image ids, in registration order.
  const std::vector<std::string>& registered_images() const {
    return registered_;
  }

  static std::string CacheFileName(const std::string& image_id) {
    return "cache/" + image_id;
  }

 private:
  /// Striped propagation: installs every shard `node` should hold for the
  /// scVolume's current file table but doesn't yet. Returns the shard bytes
  /// newly installed (the node's wire cost).
  std::uint64_t InstallShards(ComputeNode& node);

  /// Boot through the striped cache device (placement::StripedFileDevice)
  /// instead of the node's (empty) ccVolume replica.
  BootReport BootStriped(std::uint32_t compute_node, const BootRequest& request,
                         sim::IoContext& io);

  SquirrelConfig config_;
  zvol::Volume sc_volume_;
  std::vector<std::unique_ptr<ComputeNode>> compute_nodes_;
  sim::NetworkAccountant network_;
  std::vector<std::string> registered_;
  std::uint64_t registration_counter_ = 0;
  util::FaultInjector* faults_ = nullptr;  // borrowed; nullptr = no faults
  std::uint64_t transfer_counter_ = 0;
  /// Striped placement only (nullopt under full replication, which must
  /// stay byte-identical to the pre-placement paths).
  std::optional<placement::StorageSetLayout> layout_;
  std::optional<placement::ReedSolomon> codec_;
};

}  // namespace squirrel::core
