// Ablation: crash and Byzantine fault model vs recovery cost
// (BENCH_crash.json).
//
// Two sweeps over the robustness subsystem (DESIGN.md §15):
//
//   crash      — seeded process deaths inside the transactional Receive path
//                while registrations fan out. A crashed apply rolls back
//                (never torn); the node goes stale and reconciles through
//                the boot-time sync path, whose re-deliveries are fresh coin
//                flips, so recovery converges at any rate < 1. Reports
//                crashed applies, recovery syncs, full resyncs, and verifies
//                every node converges to the storage node's latest snapshot.
//   byzantine  — degraded boots heal corrupt ccVolume blocks through a
//                multi-peer RepairSession (other compute replicas first, the
//                storage node last) while a swept fraction of those peers
//                serve well-formed-but-wrong payloads. The post-decompress
//                digest check rejects the lies, strikes the peers out, and
//                re-sources from the next replica. Reports lies rejected,
//                peers blacklisted, blocks re-sourced, and verifies every
//                degraded boot still completes.
//
// All faults are schedule-driven from one seed: rerunning the binary
// reproduces every number bit-identically.
#include <algorithm>

#include "bench/ingest_common.h"
#include "core/squirrel.h"
#include "util/fault_injector.h"
#include "util/json.h"
#include "util/stats.h"
#include "util/table.h"

using namespace squirrel;
using namespace squirrel::bench;

namespace {

core::SquirrelConfig ClusterConfig() {
  core::SquirrelConfig config;
  config.volume = zvol::VolumeConfig{.block_size = 64 * 1024,
                                     .codec = compress::CodecId::kGzip6,
                                     .dedup = true,
                                     .fast_hash = true};
  return config;
}

sim::NetworkConfig GigabitNet() {
  sim::NetworkConfig net;
  net.bandwidth_bytes_per_ns = 0.125;  // 1 GbE
  return net;
}

struct CrashRow {
  double rate = 0.0;
  std::uint64_t crashed_applies = 0;  // registration fan-out applies killed
  std::uint64_t recovery_syncs = 0;   // SyncNode calls until convergence
  std::uint64_t sync_crashes = 0;     // syncs killed and retried
  std::uint64_t full_resyncs = 0;
  std::uint32_t consistent_nodes = 0;
  std::uint32_t nodes = 0;
};

CrashRow RunCrashSweep(const vmi::Catalog& catalog, double rate,
                       std::uint64_t seed) {
  constexpr std::uint32_t kNodes = 4;
  core::SquirrelCluster cluster(ClusterConfig(), kNodes, GigabitNet());
  util::FaultInjector faults(seed, {.crash_rate = rate});
  if (rate > 0) cluster.SetFaultInjector(&faults);

  CrashRow row;
  row.rate = rate;
  row.nodes = kNodes;
  std::uint64_t now = 0;
  for (const vmi::ImageSpec& spec : catalog.images()) {
    const vmi::VmImage image(catalog, spec);
    const vmi::BootWorkingSet boot(catalog, image);
    const auto report = cluster.Register(
        {spec.name, vmi::CacheImage(image, boot),
         core::SimClock::FromSeconds(now += 60)});
    row.crashed_applies += report.transfers.crashed_applies;
  }

  // Crashed nodes rolled back mid-apply and went stale; reconcile them the
  // way a rebooted node would (§3.5). A sync that crashes is simply retried.
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    for (int attempt = 0; attempt < 1000; ++attempt) {
      const auto sync =
          cluster.SyncNode(n, core::SimClock::FromSeconds(100000 + attempt));
      ++row.recovery_syncs;
      row.full_resyncs += sync.full_resync;
      row.sync_crashes += sync.transfers.crashed_applies;
      if (sync.transfers.crashed_applies == 0) break;
    }
  }

  const auto& snaps = cluster.storage_volume().snapshots();
  const std::string latest = snaps.empty() ? "" : snaps.back()->name;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    const zvol::Volume& volume = cluster.compute_node(n).volume();
    bool consistent =
        !volume.snapshots().empty() && volume.snapshots().back()->name == latest;
    for (const std::string& id : cluster.registered_images()) {
      consistent = consistent &&
                   volume.HasFile(core::SquirrelCluster::CacheFileName(id));
    }
    row.consistent_nodes += consistent;
  }
  return row;
}

struct ByzantineRow {
  double rate = 0.0;
  std::uint64_t boots = 0;
  std::uint64_t completed = 0;
  std::uint64_t repair_reads = 0;
  std::uint64_t byzantine_rejected = 0;
  std::uint64_t max_peers_blacklisted = 0;  // worst single boot
  std::uint64_t resourced_blocks = 0;
  std::uint64_t byzantine_served = 0;
  std::uint64_t byzantine_detected = 0;
  double mean_boot_seconds = 0.0;
};

ByzantineRow RunByzantineSweep(const vmi::Catalog& catalog, double rate,
                               std::uint64_t seed) {
  // Smaller blocks than the crash sweep: strikes accrue per healed block
  // within one boot's RepairSession, so each cache must span enough unique
  // blocks for a consistent liar to strike out even on tiny datasets.
  core::SquirrelConfig config = ClusterConfig();
  config.volume.block_size = 4 * 1024;
  core::SquirrelCluster cluster(config, /*compute_count=*/4, GigabitNet());
  std::uint64_t now = 0;
  for (const vmi::ImageSpec& spec : catalog.images()) {
    const vmi::VmImage image(catalog, spec);
    const vmi::BootWorkingSet boot(catalog, image);
    cluster.Register({spec.name, vmi::CacheImage(image, boot),
                      core::SimClock::FromSeconds(now += 60)});
  }

  // Corrupt every stored payload on the booting node so boots run fully
  // degraded: each unique block read must heal through the repair peers (the
  // other compute replicas and the storage node), which stay healthy — only
  // their honesty varies with the swept rate.
  util::FaultInjector corrupt(seed + 1, {.block_corrupt_rate = 1.0});
  cluster.compute_node(0).volume().InjectFaults(corrupt);

  util::FaultInjector faults(seed, {.byzantine_peer_rate = rate});
  if (rate > 0) cluster.SetFaultInjector(&faults);

  ByzantineRow row;
  row.rate = rate;
  util::RunningStats seconds;
  for (const vmi::ImageSpec& spec : catalog.images()) {
    const vmi::VmImage image(catalog, spec);
    const vmi::BootWorkingSet boot(catalog, image);
    const auto trace = boot.Trace(1);
    sim::IoContext io;
    const core::BootReport report = cluster.Boot(
        0,
        {.image_id = spec.name, .base_image = image, .trace = trace,
         .peer_repair_sources = true},
        io);
    ++row.boots;
    row.completed += report.result.seconds > 0;
    row.repair_reads += report.degraded.repair_reads;
    row.byzantine_rejected += report.degraded.byzantine_rejected;
    row.max_peers_blacklisted =
        std::max(row.max_peers_blacklisted, report.degraded.peers_blacklisted);
    row.resourced_blocks += report.degraded.resourced_blocks;
    seconds.Add(report.result.seconds);
  }
  if (rate > 0) {
    row.byzantine_served = faults.stats().byzantine_served;
    row.byzantine_detected = faults.stats().byzantine_detected;
  }
  row.mean_boot_seconds = seconds.mean();
  return row;
}

void WriteJson(const std::vector<CrashRow>& crash,
               const std::vector<ByzantineRow>& byzantine,
               const Options& options) {
  util::JsonWriter json;
  json.Group().Str("bench", "crash");
  json.Group().Uint("images", options.images);
  json.Group().Uint("seed", options.seed);
  json.Group().Rows("crash");
  for (const CrashRow& r : crash) {
    json.Object()
        .Double("crash_rate", "%g", r.rate)
        .Uint("crashed_applies", r.crashed_applies)
        .Uint("recovery_syncs", r.recovery_syncs)
        .Uint("sync_crashes", r.sync_crashes)
        .Uint("full_resyncs", r.full_resyncs)
        .Uint("consistent_nodes", r.consistent_nodes)
        .Uint("nodes", r.nodes)
        .End();
  }
  json.End();
  json.Group().Rows("byzantine");
  for (const ByzantineRow& r : byzantine) {
    json.Object()
        .Double("byzantine_peer_rate", "%g", r.rate)
        .Uint("boots", r.boots)
        .Uint("completed", r.completed)
        .Uint("repair_reads", r.repair_reads)
        .Uint("byzantine_rejected", r.byzantine_rejected)
        .Uint("peers_blacklisted", r.max_peers_blacklisted)
        .Uint("resourced_blocks", r.resourced_blocks)
        .Uint("byzantine_served", r.byzantine_served)
        .Uint("byzantine_detected", r.byzantine_detected)
        .Double("mean_boot_seconds", "%.4f", r.mean_boot_seconds)
        .End();
  }
  json.End();
  WriteBenchJson("BENCH_crash.json", json.Finish());
}

}  // namespace

int main(int argc, char** argv) {
  Options options = ParseOptions(argc, argv);
  if (options.images == 607) options.images = 24;
  PrintHeader("ablation_crash",
              "Ablation: crash + Byzantine fault rates vs recovery cost",
              options);
  const vmi::Catalog catalog =
      vmi::Catalog::AzureCommunity(MakeCatalogConfig(options));

  std::vector<CrashRow> crash;
  for (const double rate : {0.0, 0.02, 0.05, 0.1}) {
    crash.push_back(RunCrashSweep(catalog, rate, options.seed));
  }
  util::Table crash_table({"crash rate", "crashed applies", "recovery syncs",
                           "sync crashes", "full resyncs", "consistent"});
  for (const CrashRow& r : crash) {
    crash_table.AddRow(
        {util::Table::Num(r.rate, 2), std::to_string(r.crashed_applies),
         std::to_string(r.recovery_syncs), std::to_string(r.sync_crashes),
         std::to_string(r.full_resyncs),
         std::to_string(r.consistent_nodes) + "/" + std::to_string(r.nodes)});
  }
  std::printf("%s\n", crash_table.Render().c_str());

  std::vector<ByzantineRow> byzantine;
  for (const double rate : {0.0, 0.5, 1.0}) {
    byzantine.push_back(RunByzantineSweep(catalog, rate, options.seed));
  }
  util::Table byz_table({"byzantine rate", "boots", "completed", "repairs",
                         "lies rejected", "blacklisted", "re-sourced",
                         "mean boot(s)"});
  for (const ByzantineRow& r : byzantine) {
    byz_table.AddRow(
        {util::Table::Num(r.rate, 2), std::to_string(r.boots),
         std::to_string(r.completed), std::to_string(r.repair_reads),
         std::to_string(r.byzantine_rejected),
         std::to_string(r.max_peers_blacklisted),
         std::to_string(r.resourced_blocks),
         util::Table::Num(r.mean_boot_seconds, 3)});
  }
  std::printf("%s", byz_table.Render().c_str());

  std::printf(
      "\nreading: crashed applies always roll back and the boot-time sync\n"
      "path re-converges every node to the latest snapshot, and lying repair\n"
      "peers are struck out by the digest check while degraded boots keep\n"
      "completing from the next healthy replica — §3's replication survives\n"
      "deaths and Byzantine peers, not just bit rot.\n");

  WriteJson(crash, byzantine, options);
  return 0;
}
