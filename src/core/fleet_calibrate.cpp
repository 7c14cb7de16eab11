#include "core/fleet_calibrate.h"

#include <algorithm>

#include "core/squirrel.h"
#include "sim/io_context.h"
#include "util/stats.h"
#include "vmi/boot_profile.h"
#include "vmi/bootset.h"
#include "vmi/image.h"

namespace squirrel::core {

sim::fleet::FleetModel CalibrateFleetModel(
    const vmi::CatalogConfig& catalog_config, std::uint32_t sample_images) {
  vmi::CatalogConfig config = catalog_config;
  config.image_count = std::max<std::uint32_t>(
      1, std::min(sample_images, catalog_config.image_count));
  const vmi::Catalog catalog = vmi::Catalog::AzureCommunity(config);

  SquirrelConfig cluster_config;
  cluster_config.volume = zvol::VolumeConfig{.block_size = 64 * 1024,
                                             .codec = compress::CodecId::kGzip6,
                                             .dedup = true,
                                             .fast_hash = true};
  cluster_config.volume.read.cache_bytes = 8ull << 20;
  SquirrelCluster cluster(cluster_config, /*compute_count=*/1);

  util::RunningStats warm_seconds, prefetch_seconds, cache_bytes, diff_bytes;
  std::uint64_t now = 60;
  for (const vmi::ImageSpec& spec : catalog.images()) {
    const vmi::VmImage image(catalog, spec);
    const vmi::BootWorkingSet boot(catalog, image);
    const RegistrationReport reg = cluster.Register(
        {spec.name, vmi::CacheImage(image, boot), SimClock::FromSeconds(now)});
    now += 60;
    cache_bytes.Add(static_cast<double>(reg.cache_logical_bytes));
    diff_bytes.Add(static_cast<double>(reg.diff_wire_bytes));

    const auto trace = boot.Trace(1);
    // Warm boot on the replica, recording a profile.
    vmi::BootProfile recorded;
    BootProfileRun record_run;
    record_run.record = &recorded;
    {
      sim::IoContext io;
      const BootReport report = cluster.Boot(
          0, {.image_id = spec.name, .base_image = image, .trace = trace,
              .profile = &record_run},
          io);
      warm_seconds.Add(report.result.seconds);
    }
    // Second boot replaying the profile: the recorded blocks warm the ARC
    // before the boot, and the prefetcher keeps them in flight ahead of the
    // guest through the default depth-1 disk queue (one at a time, so a
    // prefetch overlaps guest CPU but never another disk read).
    BootProfileRun replay_run;
    replay_run.replay = &recorded;
    {
      sim::IoContext io;
      const BootReport report = cluster.Boot(
          0, {.image_id = spec.name, .base_image = image, .trace = trace,
              .profile = &replay_run},
          io);
      prefetch_seconds.Add(report.result.seconds);
    }
  }

  sim::fleet::FleetModel model;
  model.warm_boot_seconds = warm_seconds.mean();
  // The prefetch path can only help; clamp calibration noise.
  model.prefetch_boot_seconds =
      std::min(prefetch_seconds.mean(), warm_seconds.mean());
  model.cache_bytes = std::max(1.0, cache_bytes.mean());
  model.diff_bytes = std::max(1.0, diff_bytes.mean());
  // Measured registration time includes the fixed boot-once cost configured
  // on the cluster; keep that split so the fleet's slot model matches.
  model.registration_boot_seconds = cluster.config().registration_boot_seconds;
  model.snapshot_seconds = cluster.config().snapshot_seconds;
  model.stream_bytes_per_second =
      cluster.config().stream_processing_bytes_per_second;
  return model;
}

}  // namespace squirrel::core
