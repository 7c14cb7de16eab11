// Cluster-facing configuration and clock types — the one include that
// defines (or coherently re-exports) everything a caller needs to configure
// Squirrel workflows:
//
//   SimClock              simulated wall-clock shared by the cluster
//                         workflows and the discrete-event engine
//   SquirrelConfig        cluster-wide tuning (volume, propagation,
//                         retention, retry, transfer)
//   PropagationStrategy   how registration diffs reach compute nodes
//   BootProfileRun        profile-guided boot replay/record options
//   RetryPolicy           capped-exponential retry schedule   (scatter_gather.h)
//   ScatterGatherConfig   fan-out delivery engine tuning      (scatter_gather.h)
//   TransferStats         per-report delivery accounting      (scatter_gather.h)
//
// Benches and tests include this header instead of reaching into
// core/scatter_gather.h through squirrel.h's transitive includes.
#pragma once

#include <cstdint>

#include "core/scatter_gather.h"
#include "placement/layout.h"
#include "vmi/boot_profile.h"
#include "zvol/volume.h"

namespace squirrel::core {

/// Simulated wall-clock time. The event engine counts nanoseconds in a
/// double (sim::event::EventLoop::now_ns); the cluster workflows — snapshot
/// timestamps, retention windows — speak whole seconds. SimClock is the
/// bridge: one value both sides can read in their own unit, so callers stop
/// threading raw `now` integers by hand.
class SimClock {
 public:
  constexpr SimClock() = default;

  static constexpr SimClock FromSeconds(std::uint64_t seconds) {
    return SimClock(static_cast<double>(seconds) * 1e9);
  }

  /// Whole simulated seconds (truncating) — the unit of snapshot
  /// timestamps and retention windows.
  constexpr std::uint64_t seconds() const {
    return static_cast<std::uint64_t>(ns_ / 1e9);
  }
  /// Nanoseconds — the event loop's unit (EventLoop::now_ns()).
  constexpr double ns() const { return ns_; }

  constexpr SimClock AdvancedBySeconds(double seconds) const {
    return SimClock(ns_ + seconds * 1e9);
  }

  friend constexpr bool operator==(SimClock a, SimClock b) {
    return a.ns_ == b.ns_;
  }
  friend constexpr bool operator<(SimClock a, SimClock b) {
    return a.ns_ < b.ns_;
  }
  friend constexpr bool operator<=(SimClock a, SimClock b) {
    return a.ns_ <= b.ns_;
  }

 private:
  explicit constexpr SimClock(double ns) : ns_(ns) {}
  double ns_ = 0.0;
};

/// How a registration diff reaches the compute nodes (§3.2 discusses IP
/// multicast; §5.2 the peer-to-peer / LANTorrent-style alternatives).
enum class PropagationStrategy {
  kMulticast,  // one stream on the wire, all online nodes receive (default)
  kUnicast,    // one stream per node — storage-node egress scales with n
  kPipeline,   // LANTorrent-style chain: each node receives and forwards once
};

struct SquirrelConfig {
  /// 64 KiB, gzip6, dedup — the paper's choice. `volume.ingest` (threads,
  /// batch size) flows through to the scVolume and every ccVolume, so
  /// Register's cache ingest runs on the batch hash/compress pipeline;
  /// accounting is identical at any thread count.
  zvol::VolumeConfig volume{};
  PropagationStrategy propagation = PropagationStrategy::kMulticast;
  /// Offline-propagation window `n` (§3.4/§3.5), in simulated seconds.
  std::uint64_t retention_seconds = 7ull * 24 * 3600;
  /// Time one registration boot takes on the storage node (the paper
  /// measured < 20 s average for the dataset).
  double registration_boot_seconds = 20.0;
  /// Snapshot creation cost (read-only snapshots are cheap).
  double snapshot_seconds = 0.1;
  /// Throughput of generating/apply a send stream, bytes/s.
  double stream_processing_bytes_per_second = 200e6;
  /// Retry schedule for registration propagation and node sync transfers.
  RetryPolicy retry{};
  /// Fan-out delivery: retries run event-driven, with chunked
  /// retransmissions contending for the sender link; `window` chunks per
  /// receiver may be in flight (see core/scatter_gather.h).
  ScatterGatherConfig transfer{};
  /// Replication policy. The default (full replication) takes the exact
  /// pre-placement code paths — byte-identical accounting. kStriped groups
  /// compute nodes into storage sets and erasure-codes each unique block
  /// across its set (see placement/layout.h and DESIGN.md §16); nodes in a
  /// trailing set too small for a stripe keep full replicas.
  placement::PlacementConfig placement{};
};

/// Profile-guided boot support (both directions of the profile lifecycle).
struct BootProfileRun {
  /// Profile to replay ahead of the guest: pre-heal (or ARC-warm) its
  /// blocks before the boot, then prefetch them during it. Null = off.
  const vmi::BootProfile* replay = nullptr;
  /// Profile to record this boot's cache-device touches into. Recording is
  /// pure bookkeeping — the recorded boot is bit-identical to an
  /// unprofiled one. Null = off.
  vmi::BootProfile* record = nullptr;
  /// Route the profile's blocks through the degraded-read repair path
  /// before the guest starts: a corrupt replica heals off the critical
  /// path (and the reads warm the decompressed-block ARC as a side
  /// effect). When false, replay only warms the ARC.
  bool pre_heal = true;
};

}  // namespace squirrel::core
