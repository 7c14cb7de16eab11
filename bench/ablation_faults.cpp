// Ablation: fault rates vs self-healing cost (BENCH_faults.json).
//
// Two sweeps over the fault-injection subsystem:
//
//   corruption  — flip bits in one compute node's ccVolume at a per-block
//                 rate, then scrub-repair against the storage node's healthy
//                 scVolume (§3's full replication is what makes every block
//                 repairable). Reports errors found, blocks repaired, bytes
//                 re-fetched, and verifies the post-repair scrub is clean.
//   transfers   — fail/corrupt registration diff transfers at a per-attempt
//                 rate; the retry layer (capped exponential backoff, resume
//                 at record granularity) keeps delivering. Reports retries,
//                 retransmitted bytes, abandonments, and the registration
//                 latency tail the retries add.
//
// All faults are schedule-driven from one seed: rerunning the binary
// reproduces every number bit-identically.
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

/// Registers the whole catalog's caches into `cluster`.
void PopulateCluster(core::SquirrelCluster& cluster,
                     const vmi::Catalog& catalog,
                     core::TransferStats* totals,
                     util::RunningStats* reg_seconds) {
  std::uint64_t now = 0;
  for (const vmi::ImageSpec& spec : catalog.images()) {
    const vmi::VmImage image(catalog, spec);
    const vmi::BootWorkingSet boot(catalog, image);
    const auto report =
        cluster.Register({spec.name, vmi::CacheImage(image, boot), core::SimClock::FromSeconds(now += 60)});
    if (totals != nullptr) {
      totals->attempts += report.transfers.attempts;
      totals->retries += report.transfers.retries;
      totals->abandoned += report.transfers.abandoned;
      totals->retransmitted_bytes += report.transfers.retransmitted_bytes;
      totals->backoff_seconds += report.transfers.backoff_seconds;
    }
    if (reg_seconds != nullptr) reg_seconds->Add(report.total_seconds);
  }
}

struct CorruptionRow {
  double rate = 0.0;
  std::uint64_t blocks_checked = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t errors_found = 0;
  std::uint64_t repaired = 0;
  std::uint64_t unrepairable = 0;
  std::uint64_t repaired_bytes = 0;
  std::uint64_t post_scrub_errors = 0;
};

CorruptionRow RunCorruptionSweep(const vmi::Catalog& catalog, double rate,
                                 std::uint64_t seed) {
  core::SquirrelCluster cluster(ClusterConfig(), /*compute_count=*/2,
                                GigabitNet());
  PopulateCluster(cluster, catalog, nullptr, nullptr);
  zvol::Volume& victim = cluster.compute_node(0).volume();

  util::FaultInjector faults(seed, {.block_corrupt_rate = rate});
  CorruptionRow row;
  row.rate = rate;
  row.corrupted = victim.InjectFaults(faults);
  zvol::RepairSession session({{0, &cluster.storage_volume().block_store()}});
  const zvol::Volume::RepairReport repair = victim.ScrubRepair(session);
  row.blocks_checked = repair.blocks_checked;
  row.errors_found = repair.errors_found;
  row.repaired = repair.repaired;
  row.unrepairable = repair.unrepairable;
  row.repaired_bytes = repair.repaired_bytes;
  row.post_scrub_errors = victim.Scrub().errors;
  return row;
}

struct TransferRow {
  double rate = 0.0;
  core::TransferStats totals;
  double mean_reg_seconds = 0.0;
  double max_reg_seconds = 0.0;
};

TransferRow RunTransferSweep(const vmi::Catalog& catalog, double rate,
                             std::uint64_t seed) {
  util::FaultInjector faults(seed, {.transfer_fail_rate = rate,
                                    .transfer_corrupt_rate = rate / 2,
                                    .transfer_delay_seconds = 0.05});
  TransferRow row;
  row.rate = rate;
  util::RunningStats seconds;
  core::SquirrelCluster cluster(ClusterConfig(), /*compute_count=*/8,
                                GigabitNet());
  if (rate > 0) cluster.SetFaultInjector(&faults);
  PopulateCluster(cluster, catalog, &row.totals, &seconds);
  row.mean_reg_seconds = seconds.mean();
  row.max_reg_seconds = seconds.max();
  return row;
}

void WriteJson(const std::vector<CorruptionRow>& corruption,
               const std::vector<TransferRow>& transfers,
               const Options& options) {
  util::JsonWriter json;
  json.Group().Str("bench", "faults");
  json.Group().Uint("images", options.images);
  json.Group().Uint("seed", options.seed);
  json.Group().Rows("corruption");
  for (const CorruptionRow& r : corruption) {
    json.Object()
        .Double("block_corrupt_rate", "%g", r.rate)
        .Uint("blocks_checked", r.blocks_checked)
        .Uint("blocks_corrupted", r.corrupted)
        .Uint("errors_found", r.errors_found)
        .Uint("repaired", r.repaired)
        .Uint("unrepairable", r.unrepairable)
        .Uint("repaired_bytes", r.repaired_bytes)
        .Uint("post_scrub_errors", r.post_scrub_errors)
        .End();
  }
  json.End();
  json.Group().Rows("transfers");
  for (const TransferRow& r : transfers) {
    json.Object()
        .Double("transfer_fail_rate", "%g", r.rate)
        .Uint("attempts", r.totals.attempts)
        .Uint("retries", r.totals.retries)
        .Uint("abandoned", r.totals.abandoned)
        .Uint("retransmitted_bytes", r.totals.retransmitted_bytes)
        .Double("backoff_seconds", "%.3f", r.totals.backoff_seconds)
        .Double("mean_registration_seconds", "%.4f", r.mean_reg_seconds)
        .Double("max_registration_seconds", "%.4f", r.max_reg_seconds)
        .End();
  }
  json.End();
  WriteBenchJson("BENCH_faults.json", json.Finish());
}

}  // namespace

int main(int argc, char** argv) {
  Options options = ParseOptions(argc, argv);
  if (options.images == 607) options.images = 24;
  PrintHeader("ablation_faults",
              "Ablation: fault rate vs self-healing and retry cost",
              options);
  const vmi::Catalog catalog =
      vmi::Catalog::AzureCommunity(MakeCatalogConfig(options));

  std::vector<CorruptionRow> corruption;
  for (const double rate : {0.0, 1e-4, 1e-3, 1e-2}) {
    corruption.push_back(RunCorruptionSweep(catalog, rate, options.seed));
  }
  util::Table scrub_table({"corrupt rate", "blocks", "injected", "found",
                           "repaired", "unrepairable", "re-fetched",
                           "post-scrub err"});
  for (const CorruptionRow& r : corruption) {
    scrub_table.AddRow(
        {util::Table::Num(r.rate, 4), std::to_string(r.blocks_checked),
         std::to_string(r.corrupted), std::to_string(r.errors_found),
         std::to_string(r.repaired), std::to_string(r.unrepairable),
         util::FormatBytes(static_cast<double>(r.repaired_bytes)),
         std::to_string(r.post_scrub_errors)});
  }
  std::printf("%s\n", scrub_table.Render().c_str());

  std::vector<TransferRow> transfers;
  for (const double rate : {0.0, 0.05, 0.15, 0.3}) {
    transfers.push_back(RunTransferSweep(catalog, rate, options.seed));
  }
  util::Table retry_table({"fail rate", "attempts", "retries", "abandoned",
                           "re-sent", "backoff(s)", "mean reg(s)",
                           "max reg(s)"});
  for (const TransferRow& r : transfers) {
    retry_table.AddRow(
        {util::Table::Num(r.rate, 2), std::to_string(r.totals.attempts),
         std::to_string(r.totals.retries), std::to_string(r.totals.abandoned),
         util::FormatBytes(static_cast<double>(r.totals.retransmitted_bytes)),
         util::Table::Num(r.totals.backoff_seconds, 2),
         util::Table::Num(r.mean_reg_seconds, 3),
         util::Table::Num(r.max_reg_seconds, 3)});
  }
  std::printf("%s", retry_table.Render().c_str());

  std::printf(
      "\nreading: every corrupted block a scrub finds is restored from the\n"
      "storage node's replica (digest-verified; the follow-up scrub is\n"
      "clean), and transfer faults cost retries and backoff latency, not\n"
      "lost cache updates — replication keeps the robustness story of §3\n"
      "at a bounded network premium.\n");

  WriteJson(corruption, transfers, options);
  return 0;
}
