// Ablation: replication policy vs per-node disk and degraded-boot latency
// (BENCH_placement.json) — the Figure 18 axis extended beyond full
// replication (ISSUE 9, DESIGN.md §16).
//
// Two sweeps over the placement subsystem:
//
//   cluster — a real SquirrelCluster sized to one storage set, registered
//             with the catalog under full replication and under striped
//             (k data + m parity) placement. Reports the per-node stored
//             bytes (the k/(k+m) capacity win), healthy boot latency, and
//             degraded boot latency with m set peers offline — every block
//             must rebuild through parity with ZERO storage-node refetches.
//   fleet   — the region-scale fleet model with the striped-placement
//             extension: per-set shard-gather links, shard-sized catch-ups,
//             and decode CPU on degraded boots, swept over (k+m, set size).
//
// All runs are seeded and deterministic: rerunning the binary reproduces
// every number bit-identically.
#include <algorithm>
#include <numeric>
#include <vector>

#include "bench/ingest_common.h"
#include "core/squirrel.h"
#include "sim/fleet/fleet.h"
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

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto index = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

struct ClusterRow {
  std::string policy;  // "full" or "k+m"
  std::uint32_t set_size = 0;
  /// Mean raw bytes stored per striped node (full replication: the raw
  /// bytes of one whole replica), and the striped/full ratio.
  double per_node_raw_bytes = 0.0;
  double per_node_fraction = 1.0;
  double healthy_mean_seconds = 0.0;
  double healthy_p99_seconds = 0.0;
  double degraded_mean_seconds = 0.0;
  double degraded_p99_seconds = 0.0;
  std::uint64_t reconstructed_blocks = 0;
  std::uint64_t parity_reads = 0;
  std::uint64_t reconstruct_fallbacks = 0;
  std::uint64_t storage_refetches = 0;  // must stay 0 with <= m peers down
};

/// One policy through one storage set: register the catalog, boot every
/// image healthy, knock out `parity` set peers, boot every image degraded.
ClusterRow RunClusterSweep(const vmi::Catalog& catalog, std::uint32_t data,
                           std::uint32_t parity) {
  constexpr std::uint32_t kNodes = 6;
  const bool striped = data > 0;
  core::SquirrelConfig config = ClusterConfig();
  if (striped) {
    config.placement.policy = placement::PolicyKind::kStriped;
    config.placement.data_shards = data;
    config.placement.parity_shards = parity;
  }
  core::SquirrelCluster cluster(config, kNodes, GigabitNet());

  ClusterRow row;
  row.policy = striped
                   ? std::to_string(data) + "+" + std::to_string(parity)
                   : "full";
  row.set_size = striped ? data + parity : kNodes;

  std::uint64_t now = 0;
  for (const vmi::ImageSpec& spec : catalog.images()) {
    const vmi::VmImage image(catalog, spec);
    const vmi::BootWorkingSet boot(catalog, image);
    cluster.Register({spec.name, vmi::CacheImage(image, boot),
                      core::SimClock::FromSeconds(now += 60)});
  }

  // Per-node stored bytes, raw on both sides: a full replica's raw unique
  // bytes vs the mean shard bytes across node 0's set.
  const double full_raw = static_cast<double>(
      cluster.storage_volume().block_store().stats().logical_unique_bytes);
  if (striped) {
    const placement::StorageSetLayout& layout = *cluster.layout();
    double shard_bytes = 0.0;
    std::uint32_t members = 0;
    for (const std::uint32_t net_id : layout.SetMembers(0)) {
      shard_bytes +=
          static_cast<double>(cluster.compute_node(net_id - 1).shards()
                                  .shard_bytes());
      ++members;
    }
    row.per_node_raw_bytes = members > 0 ? shard_bytes / members : 0.0;
  } else {
    row.per_node_raw_bytes = full_raw;
  }
  row.per_node_fraction = full_raw > 0.0 ? row.per_node_raw_bytes / full_raw
                                         : 1.0;

  auto boot_all = [&](std::vector<double>* seconds) {
    for (const vmi::ImageSpec& spec : catalog.images()) {
      const vmi::VmImage image(catalog, spec);
      const vmi::BootWorkingSet boot(catalog, image);
      const auto trace = boot.Trace(1);
      sim::IoContext io;
      const core::BootReport report = cluster.Boot(
          0, {.image_id = spec.name, .base_image = image, .trace = trace},
          io);
      seconds->push_back(report.result.seconds);
      row.reconstructed_blocks += report.striped.reconstructed_blocks;
      row.parity_reads += report.striped.parity_reads;
      row.reconstruct_fallbacks += report.striped.reconstruct_fallbacks;
      row.storage_refetches += report.striped.storage_fetches;
    }
  };

  std::vector<double> healthy;
  boot_all(&healthy);
  row.healthy_mean_seconds =
      healthy.empty() ? 0.0
                      : std::accumulate(healthy.begin(), healthy.end(), 0.0) /
                            static_cast<double>(healthy.size());
  row.healthy_p99_seconds = Percentile(healthy, 99.0);

  // Degrade the set: knock out `parity` peers (never the booting node).
  // Reconstruction must carry every striped boot — zero storage refetches.
  const std::uint32_t down = striped ? parity : 2;
  for (std::uint32_t n = 1; n <= down && n < kNodes; ++n) {
    cluster.compute_node(n).set_online(false);
  }
  std::vector<double> degraded;
  boot_all(&degraded);
  row.degraded_mean_seconds =
      degraded.empty()
          ? 0.0
          : std::accumulate(degraded.begin(), degraded.end(), 0.0) /
                static_cast<double>(degraded.size());
  row.degraded_p99_seconds = Percentile(degraded, 99.0);
  return row;
}

struct FleetRow {
  std::string policy;  // "off" or "k+m"
  std::uint32_t set_size = 0;
  double per_node_capacity_fraction = 1.0;
  double deploy_p99_seconds = 0.0;
  std::uint64_t reconstructions = 0;
  double shard_gather_bytes = 0.0;
  double sim_seconds = 0.0;
};

FleetRow RunFleetSweep(std::uint32_t data, std::uint32_t parity,
                       std::uint32_t set_size, std::uint32_t images,
                       std::uint64_t seed) {
  sim::fleet::FleetConfig config;
  config.nodes = 240;
  config.images = images;
  config.seed = seed;
  config.model.degraded_fraction = 0.05;  // exercise parity rebuilds
  if (data > 0) {
    config.placement_enabled = true;
    config.data_shards = data;
    config.parity_shards = parity;
    config.storage_set_size = set_size;
  }
  sim::fleet::FleetScenario scenario(config);
  const sim::fleet::FleetReport report = scenario.Run();

  FleetRow row;
  row.policy = data > 0
                   ? std::to_string(data) + "+" + std::to_string(parity)
                   : "off";
  row.set_size = data > 0 ? report.placement.storage_set_size : 0;
  row.per_node_capacity_fraction =
      data > 0 ? report.placement.per_node_capacity_fraction : 1.0;
  for (const sim::fleet::PhaseStats& phase : report.phases) {
    if (phase.name == "deploy") row.deploy_p99_seconds = phase.p99_seconds;
  }
  row.reconstructions = report.placement.reconstructions;
  row.shard_gather_bytes = report.placement.shard_gather_bytes;
  row.sim_seconds = report.sim_seconds;
  return row;
}

void WriteJson(const std::vector<ClusterRow>& cluster,
               const std::vector<FleetRow>& fleet, const Options& options) {
  util::JsonWriter json;
  json.Group().Str("bench", "placement");
  json.Group().Uint("images", options.images);
  json.Group().Uint("seed", options.seed);
  json.Group().Rows("cluster");
  for (const ClusterRow& r : cluster) {
    json.Object()
        .Str("policy", r.policy)
        .Uint("set_size", r.set_size)
        .Double("per_node_raw_bytes", "%.0f", r.per_node_raw_bytes)
        .Double("per_node_fraction", "%.4f", r.per_node_fraction)
        .Double("healthy_mean_seconds", "%.4f", r.healthy_mean_seconds)
        .Double("healthy_p99_seconds", "%.4f", r.healthy_p99_seconds)
        .Double("degraded_mean_seconds", "%.4f", r.degraded_mean_seconds)
        .Double("degraded_p99_seconds", "%.4f", r.degraded_p99_seconds)
        .Uint("reconstructed_blocks", r.reconstructed_blocks)
        .Uint("parity_reads", r.parity_reads)
        .Uint("reconstruct_fallbacks", r.reconstruct_fallbacks)
        .Uint("storage_refetches", r.storage_refetches)
        .End();
  }
  json.End();
  json.Group().Rows("fleet");
  for (const FleetRow& r : fleet) {
    json.Object()
        .Str("policy", r.policy)
        .Uint("set_size", r.set_size)
        .Double("per_node_capacity_fraction", "%.4f",
                r.per_node_capacity_fraction)
        .Double("deploy_p99_seconds", "%.4f", r.deploy_p99_seconds)
        .Uint("reconstructions", r.reconstructions)
        .Double("shard_gather_bytes", "%.0f", r.shard_gather_bytes)
        .Double("sim_seconds", "%.4f", r.sim_seconds)
        .End();
  }
  json.End();
  WriteBenchJson("BENCH_placement.json", json.Finish());
}

}  // namespace

int main(int argc, char** argv) {
  Options options = ParseOptions(argc, argv);
  if (options.images == 607) options.images = 16;
  PrintHeader("ablation_placement",
              "Ablation: replication policy (full vs erasure-coded striping) "
              "vs per-node disk and degraded boots",
              options);
  const vmi::Catalog catalog =
      vmi::Catalog::AzureCommunity(MakeCatalogConfig(options));

  std::vector<ClusterRow> cluster;
  cluster.push_back(RunClusterSweep(catalog, 0, 0));  // full replication
  cluster.push_back(RunClusterSweep(catalog, 2, 1));
  cluster.push_back(RunClusterSweep(catalog, 4, 2));
  util::Table cluster_table({"policy", "node bytes", "fraction",
                             "healthy p99(s)", "degraded p99(s)", "rebuilt",
                             "parity reads", "fallbacks", "refetches"});
  for (const ClusterRow& r : cluster) {
    cluster_table.AddRow(
        {r.policy, util::Table::Num(r.per_node_raw_bytes, 0),
         util::Table::Num(r.per_node_fraction, 3),
         util::Table::Num(r.healthy_p99_seconds, 3),
         util::Table::Num(r.degraded_p99_seconds, 3),
         std::to_string(r.reconstructed_blocks),
         std::to_string(r.parity_reads),
         std::to_string(r.reconstruct_fallbacks),
         std::to_string(r.storage_refetches)});
  }
  std::printf("%s\n", cluster_table.Render().c_str());

  std::vector<FleetRow> fleet;
  fleet.push_back(RunFleetSweep(0, 0, 0, options.images, options.seed));
  fleet.push_back(RunFleetSweep(2, 1, 3, options.images, options.seed));
  fleet.push_back(RunFleetSweep(4, 2, 6, options.images, options.seed));
  fleet.push_back(RunFleetSweep(4, 2, 8, options.images, options.seed));
  util::Table fleet_table({"policy", "set size", "capacity frac",
                           "deploy p99(s)", "rebuilds", "gather bytes"});
  for (const FleetRow& r : fleet) {
    fleet_table.AddRow({r.policy, std::to_string(r.set_size),
                        util::Table::Num(r.per_node_capacity_fraction, 3),
                        util::Table::Num(r.deploy_p99_seconds, 2),
                        std::to_string(r.reconstructions),
                        util::Table::Num(r.shard_gather_bytes, 0)});
  }
  std::printf("%s", fleet_table.Render().c_str());

  std::printf(
      "\nreading: striping shrinks each node's cache footprint toward 1/k of\n"
      "a full replica while degraded boots (up to m set peers down) rebuild\n"
      "every missing block from parity — no storage-node refetches — at a\n"
      "bounded latency premium over a healthy boot.\n");

  WriteJson(cluster, fleet, options);
  return 0;
}
