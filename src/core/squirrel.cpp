#include "core/squirrel.h"

#include <algorithm>
#include <stdexcept>

#include "placement/reconstruct.h"
#include "placement/striped_device.h"
#include "util/rng.h"

namespace squirrel::core {
namespace {

std::string SnapshotName(std::uint64_t counter) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "reg-%06llu",
                static_cast<unsigned long long>(counter));
  return buf;
}

}  // namespace

SquirrelCluster::SquirrelCluster(SquirrelConfig config,
                                 std::uint32_t compute_count,
                                 sim::NetworkConfig net_config)
    : config_(config),
      sc_volume_(config.volume),
      network_(compute_count + 1, net_config) {
  // Rejected here rather than by the first Register, which would already
  // have snapshotted the scVolume.
  if (config_.transfer.window == 0) {
    throw std::invalid_argument("scatter-gather window must be >= 1");
  }
  compute_nodes_.reserve(compute_count);
  for (std::uint32_t i = 0; i < compute_count; ++i) {
    compute_nodes_.push_back(std::make_unique<ComputeNode>(i, config.volume));
  }
  if (config_.placement.striped()) {
    config_.placement.Validate();
    layout_.emplace(config_.placement, compute_count);
    codec_.emplace(config_.placement.data_shards,
                   config_.placement.parity_shards);
  }
}

std::uint64_t SquirrelCluster::InstallShards(ComputeNode& node) {
  // Walk the scVolume's live table and install every shard this node should
  // hold but doesn't. Dedup carries over to shards for free: a block shared
  // with an earlier image already has its shard installed and is skipped, so
  // the charged bytes shrink with cross-image similarity exactly like the
  // full-replication diff streams do.
  const std::uint32_t net_id = node.id() + 1;
  std::uint64_t installed_bytes = 0;
  for (const std::string& name : sc_volume_.FileNames()) {
    const std::uint64_t count = sc_volume_.FileBlockCount(name);
    for (std::uint64_t b = 0; b < count; ++b) {
      const zvol::BlockPtr& ptr = sc_volume_.FileBlock(name, b);
      if (ptr.hole) continue;
      const std::optional<std::uint32_t> shard =
          layout_->ShardOfNode(net_id, ptr.digest);
      if (!shard.has_value()) continue;
      if (node.shards().Contains(ptr.digest)) continue;
      const util::Bytes raw = sc_volume_.block_store().Get(ptr.digest);
      // Encode-on-ingest: the storage node computes the stripe once per
      // block and ships one shard per member; receivers never see payloads
      // they are not assigned.
      std::vector<util::Bytes> shards = codec_->Encode(raw);
      util::Bytes& mine = shards[*shard];
      installed_bytes += mine.size();
      node.shards().Put(ptr.digest, *shard,
                        static_cast<std::uint32_t>(raw.size()),
                        std::move(mine));
    }
  }
  return installed_bytes;
}

RegistrationReport SquirrelCluster::Register(const RegisterRequest& request) {
  const std::string& image_id = request.image_id;
  if (sc_volume_.HasFile(CacheFileName(image_id))) {
    throw std::invalid_argument("image already registered: " + image_id);
  }

  RegistrationReport report;
  report.image_id = image_id;

  // 1. The registration boot on the storage node produces the cache content
  //    copy-on-read; we ingest its final state directly (§3.2 step 1-2).
  const std::string previous_snapshot =
      sc_volume_.LatestSnapshot() ? sc_volume_.LatestSnapshot()->name : "";
  sc_volume_.WriteFile(CacheFileName(image_id), request.cache_content);
  report.total_seconds += config_.registration_boot_seconds;

  // 2. Snapshot the scVolume for this registration (§3.2 step 3).
  report.snapshot_name = SnapshotName(++registration_counter_);
  sc_volume_.CreateSnapshot(report.snapshot_name, request.now.seconds());
  report.total_seconds += config_.snapshot_seconds;

  // 3. Incremental diff against the previous snapshot, multicast to every
  //    online compute node (§3.2 step 4).
  const zvol::SendStream stream =
      sc_volume_.Send(previous_snapshot, report.snapshot_name);
  const util::Bytes wire = stream.Serialize();
  report.diff_wire_bytes = wire.size();
  report.total_seconds += static_cast<double>(wire.size()) /
                          config_.stream_processing_bytes_per_second;
  const zvol::SendStream parsed = zvol::SendStream::Deserialize(wire);

  if (layout_.has_value()) {
    // Striped propagation: metadata (file table + block pointers, payloads
    // stripped) multicasts to every online node — it is what Boot's striped
    // cache device reads block pointers from — while payloads travel as one
    // shard per set member (encode-on-ingest at the storage node). Nodes in
    // sets too small for a stripe receive the whole stream, like the
    // default policy. The scatter-gather retry engine stays on the
    // full-replication path; striped delivery is modelled fault-free.
    std::uint64_t payload_bytes = 0;
    for (const auto& fr : parsed.files) {
      for (const auto& br : fr.blocks) {
        if (br.has_payload) payload_bytes += br.payload.size();
      }
    }
    const std::uint64_t meta_bytes =
        wire.size() > payload_bytes ? wire.size() - payload_bytes : 0;
    std::vector<std::uint32_t> online_ids;
    for (const auto& node : compute_nodes_) {
      if (node->online()) online_ids.push_back(node->id() + 1);
    }
    report.total_seconds += network_.Multicast(0, online_ids, meta_bytes) / 1e9;
    for (const auto& node : compute_nodes_) {
      if (!node->online()) continue;
      if (NodeStriped(node->id())) {
        // A striped node that missed earlier diffs while offline catches up
        // on its next boot-time sync, like the legacy stale-replica path.
        if (parsed.incremental && node->shard_synced_id() != parsed.from_id) {
          continue;
        }
        const std::uint64_t bytes = InstallShards(*node);
        if (bytes > 0) {
          report.total_seconds +=
              network_.Transfer(0, node->id() + 1, bytes) / 1e9;
        }
        node->set_shard_synced_id(parsed.to_id);
        ++report.receivers;
      } else {
        if (parsed.incremental &&
            node->volume().LatestSnapshot() == nullptr) {
          continue;
        }
        report.total_seconds +=
            network_.Transfer(0, node->id() + 1, wire.size()) / 1e9;
        try {
          node->volume().Receive(parsed);
          ++report.receivers;
        } catch (const zvol::StreamMismatchError&) {
          // Stale replica; resolved by SyncNode later.
        } catch (const util::CrashError&) {
          ++report.transfers.crashed_applies;
        }
      }
    }
  } else {
    std::vector<std::uint32_t> receivers;
    for (const auto& node : compute_nodes_) {
      if (node->online()) receivers.push_back(node->id() + 1);
    }
    double distribution_ns = 0.0;
    switch (config_.propagation) {
      case PropagationStrategy::kMulticast:
        distribution_ns = network_.Multicast(0, receivers, wire.size());
        break;
      case PropagationStrategy::kUnicast:
        distribution_ns = network_.UnicastAll(0, receivers, wire.size());
        break;
      case PropagationStrategy::kPipeline:
        distribution_ns = network_.Pipeline(0, receivers, wire.size());
        break;
    }
    report.total_seconds += distribution_ns / 1e9;

    const std::uint64_t transfer_id = ++transfer_counter_;
    std::vector<ComputeNode*> eligible;
    std::vector<std::uint32_t> eligible_ids;
    for (const auto& node : compute_nodes_) {
      if (!node->online()) continue;
      if (node->volume().LatestSnapshot() == nullptr && parsed.incremental) {
        // A node that joined after earlier registrations but was never synced
        // cannot apply an incremental diff; it catches up on its next boot.
        continue;
      }
      eligible.push_back(node.get());
      eligible_ids.push_back(node->id() + 1);
    }
    // One stream scatters to every eligible node; per-node retry tails run
    // concurrently on the event loop, so the registration's critical path
    // extends by the fan out's makespan, not the sum of tails.
    ScatterGatherTransfer transfer(&network_, faults_, config_.retry,
                                   config_.transfer);
    const ScatterGatherResult fanout = transfer.Run(
        parsed, wire.size(), eligible_ids, transfer_id, report.transfers);
    report.total_seconds += fanout.makespan_seconds;
    for (std::size_t i = 0; i < eligible.size(); ++i) {
      if (!fanout.outcomes[i].delivered) {
        continue;  // abandoned; SyncNode reconciles later (§3.5)
      }
      try {
        eligible[i]->volume().Receive(parsed);
        ++report.receivers;
      } catch (const zvol::StreamMismatchError&) {
        // Stale replica (missed earlier diffs); resolved by SyncNode later.
      } catch (const util::CrashError&) {
        // The node died mid-apply. Its transactional Receive either rolled
        // back (replica unchanged, SyncNode re-delivers) or crashed after the
        // commit point (replica current; re-delivery no-ops). Either way the
        // cluster keeps going without this receiver.
        ++report.transfers.crashed_applies;
      }
    }
  }

  // Cache accounting for the report.
  const std::string file = CacheFileName(image_id);
  for (std::uint64_t b = 0; b < sc_volume_.FileBlockCount(file); ++b) {
    const zvol::BlockPtr& ptr = sc_volume_.FileBlock(file, b);
    if (!ptr.hole) report.cache_logical_bytes += ptr.logical_size;
  }

  registered_.push_back(image_id);
  return report;
}

void SquirrelCluster::Deregister(const std::string& image_id, SimClock) {
  const std::string file = CacheFileName(image_id);
  if (!sc_volume_.HasFile(file)) {
    throw std::invalid_argument("image not registered: " + image_id);
  }
  sc_volume_.DeleteFile(file);
  std::erase(registered_, image_id);
  // No snapshot here (§3.4): the deletion reaches ccVolumes with the next
  // registration's snapshot, and the blocks stay pinned by old snapshots
  // until garbage collection prunes them.
}

SyncReport SquirrelCluster::SyncNode(std::uint32_t compute_node, SimClock) {
  ComputeNode& node = *compute_nodes_.at(compute_node);
  SyncReport report;

  const zvol::Snapshot* sc_latest = sc_volume_.LatestSnapshot();
  if (sc_latest == nullptr) return report;  // nothing registered yet

  if (NodeStriped(compute_node)) {
    // Striped catch-up: rather than replaying diff streams, walk the
    // current table and install every missing shard — idempotent and
    // equivalent, since the shard layout is a pure function of the digest.
    if (node.shard_synced_id() == sc_latest->id) return report;
    report.full_resync = node.shard_synced_id() == 0;
    const std::uint64_t bytes = InstallShards(node);
    report.wire_bytes = bytes;
    if (bytes > 0) {
      report.seconds += network_.Transfer(0, compute_node + 1, bytes) / 1e9;
      report.seconds += static_cast<double>(bytes) /
                        config_.stream_processing_bytes_per_second;
    }
    report.snapshots_advanced =
        static_cast<std::uint32_t>(sc_latest->id - node.shard_synced_id());
    node.set_shard_synced_id(sc_latest->id);
    return report;
  }

  const zvol::Snapshot* local = node.volume().LatestSnapshot();
  if (local != nullptr && local->id == sc_latest->id) return report;

  const bool have_base =
      local != nullptr && sc_volume_.FindSnapshot(local->name) != nullptr &&
      sc_volume_.FindSnapshot(local->name)->id == local->id;

  zvol::SendStream stream;
  if (have_base) {
    stream = sc_volume_.Send(local->name, sc_latest->name);
  } else {
    // §3.5 scenario 2: offline longer than the retention window (or a brand
    // new node) — replicate the entire scVolume.
    report.full_resync = true;
    stream = sc_volume_.Send("", sc_latest->name);
  }

  const util::Bytes wire = stream.Serialize();
  report.wire_bytes = wire.size();
  report.seconds += network_.Transfer(0, compute_node + 1, wire.size()) / 1e9;
  report.seconds += static_cast<double>(wire.size()) /
                    config_.stream_processing_bytes_per_second;

  const zvol::SendStream parsed = zvol::SendStream::Deserialize(wire);
  ScatterGatherTransfer transfer(&network_, faults_, config_.retry,
                                 config_.transfer);
  const ScatterGatherResult delivery =
      transfer.Run(parsed, wire.size(), {compute_node + 1},
                   ++transfer_counter_, report.transfers);
  report.seconds += delivery.outcomes.front().seconds;
  if (!delivery.outcomes.front().delivered) {
    // Every attempt faulted: the node stays stale (snapshots_advanced == 0)
    // and the next boot-time sync tries again.
    return report;
  }
  const std::uint64_t before =
      node.volume().LatestSnapshot() ? node.volume().LatestSnapshot()->id : 0;
  try {
    if (report.full_resync) {
      node.volume().ReceiveFull(parsed);
    } else {
      node.volume().Receive(parsed);
    }
  } catch (const util::CrashError&) {
    // Crash mid-apply: the replica rolled back to its pre-stream state (or,
    // for a full resync killed between drop and commit, to empty — §3.5
    // scenario 2 re-replicates it). The next boot-time sync reconciles;
    // report it stale rather than advanced.
    ++report.transfers.crashed_applies;
    return report;
  }
  report.snapshots_advanced = static_cast<std::uint32_t>(
      node.volume().LatestSnapshot()->id - before);
  return report;
}

void SquirrelCluster::RunGc(SimClock now) {
  sc_volume_.PruneSnapshots(config_.retention_seconds, now.seconds());
  for (const auto& node : compute_nodes_) {
    if (node->online()) {
      node->volume().PruneSnapshots(config_.retention_seconds, now.seconds());
    }
  }
}

BootReport SquirrelCluster::BootStriped(std::uint32_t compute_node,
                                        const BootRequest& request,
                                        sim::IoContext& io) {
  const util::DataSource& base_image = request.base_image;
  const std::string file = CacheFileName(request.image_id);
  if (!sc_volume_.HasFile(file)) {
    throw std::invalid_argument("no registered cache for " + request.image_id);
  }
  const std::uint32_t net_id = compute_node + 1;
  const std::uint64_t net_before = network_.bytes_in(net_id);

  // The stripe: every member of this node's storage set, with its current
  // liveness. An offline member's shards are unreachable — that is exactly
  // the degraded case parity exists for.
  std::vector<placement::ShardPeer> peers;
  for (const std::uint32_t member :
       layout_->SetMembers(layout_->SetOfNode(net_id))) {
    const ComputeNode& m = *compute_nodes_.at(member - 1);
    peers.push_back({member, &m.shards(), m.online(), member == net_id});
  }
  placement::ReconstructionSource source(&*codec_, std::move(peers));

  // §3.3's chain with the striped cache layer: metadata from the replicated
  // catalog (modelled by the scVolume's table), payloads gathered from the
  // set, whole-block storage fetches only as a last resort.
  cow::QcowOverlay overlay(base_image.size(), cow::kDefaultClusterSize);
  placement::StripedFileDevice cache(&sc_volume_, file, &source,
                                     &sc_volume_.block_store(), &io,
                                     &network_, net_id);
  sim::RemoteImageDevice base(&base_image, &io, &network_, net_id,
                              request.allocation);
  cow::Chain chain(&overlay, &cache, &base, /*copy_on_read=*/false);

  BootReport report;
  // Profile recording/replay, ARC warming and pre-heal are whole-replica
  // features; a striped boot runs unprofiled (DESIGN.md §16).
  report.result = sim::SimulateBoot(chain, request.trace, io,
                                    request.boot_config, request.writes,
                                    /*prefetch=*/nullptr);
  report.network_bytes = network_.bytes_in(net_id) - net_before;
  report.striped = cache.stats();
  return report;
}

BootReport SquirrelCluster::Boot(std::uint32_t compute_node,
                                 const BootRequest& request,
                                 sim::IoContext& io) {
  if (NodeStriped(compute_node)) {
    return BootStriped(compute_node, request, io);
  }
  const util::DataSource& base_image = request.base_image;
  const BootProfileRun* profile = request.profile;
  ComputeNode& node = *compute_nodes_.at(compute_node);
  const std::string file = CacheFileName(request.image_id);
  if (!node.volume().HasFile(file)) {
    throw std::invalid_argument("ccVolume has no cache for " +
                                request.image_id + " — sync the node first");
  }

  const std::uint64_t net_before = network_.bytes_in(compute_node + 1);

  // §3.3: empty CoW overlay -> ccVolume cache file -> base VMI.
  cow::QcowOverlay overlay(base_image.size(), cow::kDefaultClusterSize);
  sim::VolumeFileDevice cache(&node.volume(), file, &io,
                              /*device_id=*/0x1000 + compute_node);
  // Degraded-mode fallback: a corrupt ccVolume block heals on demand
  // through a repair session, charged as network traffic to this node. With
  // a healthy replica this changes nothing. The session holds the storage
  // node (peer id 0, always honest) last; with peer_repair_sources every
  // other online replica that also holds this cache file is tried first.
  // Compute peers may serve Byzantine payloads under the fault injector, so
  // the session's strike counter is what keeps a degraded boot completing:
  // lying peers blacklist out and the block re-sources down the list.
  std::vector<zvol::RepairPeer> peers;
  if (request.peer_repair_sources) {
    for (const auto& other : compute_nodes_) {
      if (other->id() == compute_node || !other->online()) continue;
      if (!other->volume().HasFile(file)) continue;
      peers.push_back({other->id() + 1, &other->volume().block_store()});
    }
  }
  peers.push_back({0, &sc_volume_.block_store()});
  cache.SetRepairSources(std::move(peers), &network_, compute_node + 1,
                         faults_);
  sim::RemoteImageDevice base(&base_image, &io, &network_, compute_node + 1,
                              request.allocation);
  // The ccVolume is read-only to VMs: copy-on-read happened at registration.
  cow::Chain chain(&overlay, &cache, &base, /*copy_on_read=*/false);

  BootReport report;
  if (profile != nullptr && profile->record != nullptr) {
    cache.SetProfileRecorder(profile->record);
  }
  sim::ProfilePrefetcher prefetcher(
      profile != nullptr ? profile->replay : nullptr, &io);
  sim::ProfilePrefetcher* prefetch = nullptr;
  if (profile != nullptr && profile->replay != nullptr) {
    std::vector<std::uint64_t> touched =
        profile->replay->BlocksForFile(file, /*misses_only=*/false);
    std::sort(touched.begin(), touched.end());
    if (profile->pre_heal) {
      // Pre-heal: heal (and warm) the profile's blocks through the repair
      // session before the guest starts; the wire bytes are charged to the
      // network accountant but not to the guest clock.
      report.preheal = cache.PreHealBlocks(touched);
    } else {
      cache.WarmCacheFromBlocks(touched);  // ARC-warm replay
    }
    prefetcher.Bind(file, &cache);
    prefetch = &prefetcher;
  }
  report.result = sim::SimulateBoot(chain, request.trace, io,
                                    request.boot_config, request.writes,
                                    prefetch);
  report.network_bytes = network_.bytes_in(compute_node + 1) - net_before;
  report.degraded = cache.degraded_stats();
  report.prefetch = prefetcher.stats();
  return report;
}

}  // namespace squirrel::core
