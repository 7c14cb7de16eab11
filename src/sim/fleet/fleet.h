// Region-scale fleet simulation of Squirrel boot storms (ISSUE 6 tentpole).
//
// FleetScenario drives thousands of lightweight compute-node models through
// Zipf-skewed multi-tenant storm phases on the deterministic event engine:
//
//   register   all images registered at t=0 through a bounded number of
//              registration slots — the registration-*storm* axis extending
//              §3.2's "well under a minute" single-registration claim to
//              concurrent registrations (completion latency includes queue
//              wait on the storage node and the shared multicast link).
//   deploy     every node boots one VM, images Zipf-sampled, arrivals spread
//              over a deploy window (ScaleStore-style skewed workload).
//   autoscale  a fraction of the fleet boots extra VMs in a tight burst.
//   patch      patch-Tuesday: a batch of re-registrations submitted at once
//              (second registration storm) while nodes keep booting the
//              affected images.
//   churn      nodes leave (offline window, §3.4) and rejoin mid-run
//              (SyncNode catch-up over the shared storage link, §3.5);
//              boots issued at rejoin pay the catch-up latency.
//
// Per-node state is compact (a few words per node — no zvol::Volume per
// node): a node's replica is warm for an image iff its synced snapshot
// version covers the image's latest registration, exactly the §3.2/§3.5
// propagation model. Per-boot cost comes from a calibrated single-boot cost
// model (core::CalibrateFleetModel measures a real SquirrelCluster) with
// warm / prefetch / degraded / remote-pull paths and deterministic jitter.
//
// Determinism: every random draw comes from the loop-owned RNG in event
// order, shared resources (registration slots, the storage uplink) are
// FIFO reservations made in event order, and the event loop's
// (time, sequence) total order is stable — so one (config, seed) replays to
// a byte-identical FleetReport and event trace on every run and at any host
// thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/event/event_loop.h"
#include "util/rng.h"
#include "util/stats.h"

namespace squirrel::sim::fleet {

/// Per-boot / per-registration cost model, calibrated from the real
/// single-node simulation (core::CalibrateFleetModel) or used with these
/// defaults (rough dataset-scale numbers).
struct FleetModel {
  /// Warm local boot (replica covers the image) without prefetch:
  /// guest-CPU dominated. Calibrated and reported; the scenario charges
  /// prefetch_boot_seconds.
  double warm_boot_seconds = 14.5;
  /// Warm boot with profile-guided prefetch — every fleet boot's cost.
  double prefetch_boot_seconds = 13.8;
  /// Extra seconds when the replica is degraded and repairs on demand;
  /// pre-healing absorbs all but a quarter of it.
  double degraded_extra_seconds = 3.0;
  /// Fraction of boots that hit a degraded replica.
  double degraded_fraction = 0.0;
  /// Mean per-image boot-cache size (the §3.5 full-pull transfer unit).
  double cache_bytes = 12e6;
  /// Mean incremental snapshot diff shipped per registration (§3.2).
  double diff_bytes = 1.5e6;
  /// Registration boot + snapshot on the storage node (§3.2).
  double registration_boot_seconds = 20.0;
  double snapshot_seconds = 0.1;
  /// Send-stream generate/apply throughput, bytes/second.
  double stream_bytes_per_second = 200e6;
  /// Shared storage-node uplink (multicast diffs, sync catch-ups, remote
  /// pulls all contend FIFO on this link). 10 GbE default.
  double storage_link_bytes_per_second = 1.25e9;
  /// Deterministic per-task cost jitter: multiplier uniform in [1-j, 1+j].
  double jitter_fraction = 0.05;
};

/// Scenario shape. Phases run in the fixed order register → deploy →
/// autoscale → patch → churn, each gated on the previous one draining.
struct FleetConfig {
  std::uint32_t nodes = 2000;
  std::uint32_t images = 64;
  /// Zipf exponent for image popularity (ScaleStore-style skew).
  double zipf_s = 0.9;
  std::uint64_t seed = 42;
  FleetModel model{};

  bool run_deploy = true;
  bool run_autoscale = true;
  bool run_patch = true;
  bool run_churn = true;

  /// Concurrent registrations the storage node admits (slot queue).
  std::uint32_t registration_slots = 1;
  double deploy_window_seconds = 60.0;
  double autoscale_fraction = 0.25;
  double autoscale_window_seconds = 5.0;
  /// Re-registrations submitted at once on patch Tuesday.
  std::uint32_t patch_registrations = 8;
  double patch_window_seconds = 30.0;
  /// Fraction of nodes booting a patched image during the patch phase.
  double patch_boot_fraction = 0.5;
  double churn_fraction = 0.02;
  double churn_offline_seconds = 120.0;
  /// Background boots during churn, as a fraction of the fleet.
  double churn_background_fraction = 0.1;

  /// Record the event trace (FormatTrace) for replay tests.
  bool trace = false;

  // --- striped-placement model (ISSUE 9) ------------------------------------
  // When enabled, compute nodes group into storage sets of
  // `storage_set_size`; each node stores only its erasure-coded shard of
  // every cache (a (data+parity)/(data·set_size) capacity fraction of full
  // replication), boots gather the missing data shards from set peers over a
  // per-set LAN link, and degraded boots rebuild blocks from parity (decode
  // CPU on the critical path). Plain numbers, mirroring
  // placement::PlacementConfig — the fleet sim must not depend on the
  // placement library. A trailing set smaller than data+parity keeps full
  // replicas (no gather, no shrink), matching the cluster's fallback.
  // Default off: the report stays byte-identical to the pre-placement model
  // (no extra RNG draws, no extra JSON).
  bool placement_enabled = false;
  std::uint32_t storage_set_size = 6;
  std::uint32_t data_shards = 4;
  std::uint32_t parity_shards = 2;
  /// Intra-set LAN link for boot-time shard gathers (FIFO per set).
  double set_link_bytes_per_second = 1.25e9;
  /// Reed–Solomon decode throughput for parity rebuilds, bytes/second.
  double decode_bytes_per_second = 1.25e9;
};

/// Striped-placement accounting (zeros and omitted from the JSON when the
/// placement model is off).
struct PlacementStats {
  bool enabled = false;
  std::uint32_t storage_set_size = 0;
  std::uint32_t data_shards = 0;
  std::uint32_t parity_shards = 0;
  std::uint32_t set_count = 0;  // full stripes; trailing nodes replicate
  /// Per-node cache capacity vs full replication: (k+m)/(k·set_size).
  double per_node_capacity_fraction = 1.0;
  double shard_gather_bytes = 0.0;  // intra-set boot traffic
  std::uint64_t reconstructions = 0;  // degraded boots rebuilt from parity
  double decode_seconds = 0.0;        // total decode CPU charged
};

struct PhaseStats {
  std::string name;
  std::uint64_t boots = 0;
  std::uint64_t remote_boots = 0;  // paid sync/pull latency (not warm-local)
  double window_seconds = 0.0;
  double throughput_boots_per_second = 0.0;
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
  double p999_seconds = 0.0;
  double mean_seconds = 0.0;
  double max_seconds = 0.0;
};

/// The §3.2 registration-storm axis: completion latency includes queueing
/// on the registration slots and the shared link; service latency is the
/// unqueued per-registration work.
struct RegistrationStormStats {
  std::uint64_t registrations = 0;
  std::uint32_t slots = 1;
  double service_p50_seconds = 0.0;
  double completion_p50_seconds = 0.0;
  double completion_p99_seconds = 0.0;
  double completion_max_seconds = 0.0;
  /// §3.2's claim, extended: did every registration — including queue wait
  /// under the storm — still complete well under a minute?
  bool all_under_minute = false;
};

struct FleetReport {
  std::uint32_t nodes = 0;
  std::uint32_t images = 0;
  double zipf_s = 0.0;
  std::uint64_t seed = 0;
  std::vector<PhaseStats> phases;
  RegistrationStormStats registration;
  std::uint64_t total_boots = 0;
  std::uint64_t sync_catchups = 0;
  double sync_bytes = 0.0;
  double sim_seconds = 0.0;
  std::uint64_t events_fired = 0;
  PlacementStats placement{};

  /// Deterministic JSON: same report → byte-identical string.
  std::string ToJson() const;
};

class FleetScenario {
 public:
  explicit FleetScenario(const FleetConfig& config);

  /// Runs every enabled phase to completion and returns the report.
  FleetReport Run();

  event::EventLoop& loop() { return loop_; }

 private:
  /// A node is a handful of words — warm iff synced_version covers the
  /// image's registration version.
  struct NodeState {
    std::uint32_t synced_version = 0;
    std::uint16_t active_boots = 0;
    std::uint8_t online = 1;
  };
  struct PhaseAccum {
    const char* name;
    double start_ns = 0.0;
    double last_done_ns = 0.0;
    std::uint64_t boots = 0;
    std::uint64_t remote = 0;
    util::StreamingHistogram latency{4096, 0.005};
  };

  void StartNextPhase();
  void TaskDone();
  void ScheduleBoot(std::uint32_t node, std::uint32_t image, double at_ns);
  void SubmitRegistration(std::uint32_t image, double at_ns);
  void ScheduleChurn();
  double ReserveLink(double bytes, double earliest_ns);
  double Jitter();
  std::uint32_t SampleImage();

  /// True when `node` lives in a full stripe set (placement on and the node
  /// is not in the trailing undersized set, which keeps full replicas).
  bool NodeStriped(std::uint32_t node) const;
  /// Per-node stored/transferred fraction of a cache vs full replication.
  double ShardFraction() const;
  /// FIFO reservation on one storage set's intra-set LAN link.
  double ReserveSetLink(std::uint32_t set, double bytes, double earliest_ns);

  FleetConfig config_;
  event::EventLoop loop_;
  util::ZipfSampler zipf_;
  std::vector<NodeState> nodes_;
  /// Per-node earliest time the replica is usable (sync catch-up gate).
  std::vector<double> node_available_ns_;
  std::vector<std::uint32_t> image_version_;
  std::uint32_t cluster_version_ = 0;
  double link_free_ns_ = 0.0;
  std::vector<double> reg_slot_free_ns_;
  std::uint64_t outstanding_ = 0;
  std::vector<const char*> phase_plan_;
  std::size_t phase_cursor_ = 0;
  std::vector<PhaseAccum> phases_;
  util::StreamingHistogram reg_service_{4096, 0.005};
  util::StreamingHistogram reg_completion_{4096, 0.005};
  std::uint64_t registrations_done_ = 0;
  std::uint64_t sync_catchups_ = 0;
  double sync_bytes_ = 0.0;
  std::uint64_t total_boots_ = 0;
  /// Striped placement only (empty/zero when the model is off).
  std::vector<double> set_link_free_ns_;
  std::uint32_t set_count_ = 0;
  double shard_gather_bytes_ = 0.0;
  std::uint64_t reconstructions_ = 0;
  double decode_seconds_ = 0.0;
};

}  // namespace squirrel::sim::fleet
