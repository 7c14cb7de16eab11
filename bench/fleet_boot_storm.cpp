// Region-scale fleet boot storms (BENCH_fleet.json).
//
// Drives fleet::FleetScenario — thousands of lightweight compute-node
// models on the deterministic event engine — through Zipf-skewed storm
// phases (deploy wave, autoscale burst, patch-Tuesday re-registration
// churn, node churn with §3.5 rejoin catch-up), with per-boot costs
// calibrated from a real single-node SquirrelCluster run. Reports boot
// throughput and p50/p99/p999 boot latency per phase, plus the
// registration-storm axis extending §3.2's "well under a minute" claim to
// concurrent registrations.
//
// Fleet flags (in addition to the shared harness flags):
//   --nodes=N   compute nodes in the fleet (default 2000)
//   --zipf=S    Zipf exponent for image popularity (default 0.9)
//   --storm=X   all|deploy|autoscale|patch|churn (default all)
//   --stripe k+m           striped placement: erasure-code each cache block
//                          into k data + m parity shards per storage set
//                          (e.g. --stripe 4+2); default off keeps the JSON
//                          byte-identical to full replication
//   --storage-set-size S   failure-domain size (requires --stripe; default
//                          and minimum k+m)
#include <cstdio>

#include "bench/harness.h"
#include "core/fleet_calibrate.h"
#include "sim/fleet/fleet.h"
#include "util/table.h"

using namespace squirrel;
using namespace squirrel::bench;

int main(int argc, char** argv) {
  FleetOptions options = ParseFleetOptions(argc, argv);
  // The full 607-image catalog is a registration-storm stress test in
  // itself; default the fleet to the paper-ish 64 images instead.
  if (options.base.images == 607) options.base.images = 64;
  PrintHeader("fleet_boot_storm",
              "fleet-scale boot storms (ROADMAP fleet item; §3.2/§3.5 at "
              "region scale)",
              options.base);
  std::printf("fleet: %u nodes, zipf %.3f, storm %s\n", options.nodes,
              options.zipf_s, options.storm.c_str());
  if (options.placement) {
    std::printf("placement: striped %u+%u, storage sets of %u\n",
                options.data_shards, options.parity_shards,
                options.storage_set_size != 0
                    ? options.storage_set_size
                    : options.data_shards + options.parity_shards);
  }
  std::printf("\n");

  // Calibrate the per-boot cost model from a real single-node cluster.
  const sim::fleet::FleetModel model = core::CalibrateFleetModel(
      MakeCatalogConfig(options.base), /*sample_images=*/4);
  std::printf(
      "calibrated: warm boot %.2f s, prefetch boot %.2f s, cache %.0f B, "
      "diff %.0f B\n\n",
      model.warm_boot_seconds, model.prefetch_boot_seconds, model.cache_bytes,
      model.diff_bytes);

  sim::fleet::FleetConfig config;
  config.nodes = options.nodes;
  config.images = options.base.images;
  config.zipf_s = options.zipf_s;
  config.seed = options.base.seed;
  config.model = model;
  if (options.storm != "all") {
    config.run_deploy = options.storm == "deploy";
    config.run_autoscale = options.storm == "autoscale";
    config.run_patch = options.storm == "patch";
    config.run_churn = options.storm == "churn";
  }
  if (options.placement) {
    config.placement_enabled = true;
    config.data_shards = options.data_shards;
    config.parity_shards = options.parity_shards;
    config.storage_set_size =
        options.storage_set_size != 0
            ? options.storage_set_size
            : options.data_shards + options.parity_shards;
  }

  sim::fleet::FleetScenario scenario(config);
  const sim::fleet::FleetReport report = scenario.Run();

  util::Table table({"phase", "boots", "remote", "window(s)", "boots/s",
                     "p50(s)", "p99(s)", "p999(s)"});
  for (const sim::fleet::PhaseStats& phase : report.phases) {
    table.AddRow({phase.name, std::to_string(phase.boots),
                  std::to_string(phase.remote_boots),
                  util::Table::Num(phase.window_seconds, 1),
                  util::Table::Num(phase.throughput_boots_per_second, 1),
                  util::Table::Num(phase.p50_seconds, 2),
                  util::Table::Num(phase.p99_seconds, 2),
                  util::Table::Num(phase.p999_seconds, 2)});
  }
  std::printf("%s", table.Render().c_str());
  std::printf(
      "\nregistration storm: %llu registrations on %u slot(s), completion "
      "p50 %.1f s, p99 %.1f s, max %.1f s (%s a minute)\n",
      static_cast<unsigned long long>(report.registration.registrations),
      report.registration.slots, report.registration.completion_p50_seconds,
      report.registration.completion_p99_seconds,
      report.registration.completion_max_seconds,
      report.registration.all_under_minute ? "all under" : "NOT all under");
  std::printf("totals: %llu boots, %llu sync catch-ups, %.0f sim s, %llu "
              "events\n",
              static_cast<unsigned long long>(report.total_boots),
              static_cast<unsigned long long>(report.sync_catchups),
              report.sim_seconds,
              static_cast<unsigned long long>(report.events_fired));

  WriteBenchJson("BENCH_fleet.json", report.ToJson());
  return 0;
}
