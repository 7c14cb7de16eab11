// Figure 11: average VM boot time across cVolume block sizes, with four
// configurations:
//   warm caches - zfs   boot from the deduplicated+compressed cVolume replica
//   qcow2 - xfs         baseline: CoW over the VMI stored on the local disk
//   cold caches - xfs   first boot: CoR populating a local cache file
//   warm caches - xfs   boot from a warm cache file on the plain local fs
//
// Expected shape (paper): warm-zfs beats the baseline by ~10-16% at >=32 KB
// (the QCOW2-cluster page-cache prefetch masks the dedup/decompress costs),
// degrades sharply below 8 KB (DDT lookups and block scattering), and 128 KB
// is slightly slower than 64 KB (cluster-size mismatch). The XFS lines are
// flat: they do not depend on the volume block size.
#include "bench/ingest_common.h"
#include "cow/chain.h"
#include "sim/boot_sim.h"
#include "sim/devices.h"
#include "util/stats.h"
#include "util/table.h"

using namespace squirrel;
using namespace squirrel::bench;

namespace {

struct SampleVm {
  std::unique_ptr<vmi::VmImage> image;
  std::unique_ptr<vmi::BootWorkingSet> boot;
  std::vector<vmi::BootRead> trace;
};

// Set from the CLI options in main(): the boot config projects the
// (downscaled) I/O time back to paper scale, and the I/O config shrinks the
// disk seek tiers / page cache to match the dataset scale.
sim::BootSimConfig g_boot_config;
sim::IoContextConfig g_io_config;
bool g_profile = false;  // --profile: record first boot, replay the rest

double WarmZfsBoot(const vmi::Catalog& catalog,
                   const std::vector<SampleVm>& vms, std::uint32_t block_size) {
  // One shared cVolume holding every sampled cache (as Squirrel would).
  // Profile mode gives the volume a decompressed-block ARC so the replay's
  // warm pass has somewhere to put the profile's payloads.
  zvol::VolumeConfig volume_config{.block_size = block_size,
                                   .codec = compress::CodecId::kGzip6,
                                   .dedup = true,
                                   .fast_hash = true};
  if (g_profile) volume_config.read.cache_bytes = 256ull << 20;
  zvol::Volume volume(volume_config);
  for (std::size_t i = 0; i < vms.size(); ++i) {
    const vmi::CacheImage cache(*vms[i].image, *vms[i].boot);
    volume.WriteFile("cache-" + std::to_string(i), cache);
  }
  util::RunningStats stats;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    const std::string cache_file = "cache-" + std::to_string(i);
    const std::string base_name = "base-" + std::to_string(i);
    vmi::BootProfile profile;
    if (g_profile) {
      // Recording pass: a first (unmeasured) boot writes the profile.
      // Recording itself is free — the recorded boot's timing is
      // bit-identical to an unprofiled one.
      sim::IoContext rio(g_io_config);
      cow::QcowOverlay overlay(vms[i].image->size(), cow::kDefaultClusterSize);
      sim::VolumeFileDevice cache(&volume, cache_file, &rio, 1000 + i);
      cache.SetProfileRecorder(&profile);
      sim::LocalFileDevice base(vms[i].image.get(), &rio, 1, 40ull << 30);
      base.SetProfileRecorder(&profile, base_name);
      cow::Chain chain(&overlay, &cache, &base, false);
      sim::SimulateBoot(chain, vms[i].trace, rio, g_boot_config);
    }
    sim::IoContext io(g_io_config);
    cow::QcowOverlay overlay(vms[i].image->size(), cow::kDefaultClusterSize);
    sim::VolumeFileDevice cache(&volume, cache_file, &io, 1000 + i);
    sim::LocalFileDevice base(vms[i].image.get(), &io, 1, 40ull << 30);
    cow::Chain chain(&overlay, &cache, &base, false);
    sim::ProfilePrefetcher prefetcher(&profile, &io);
    sim::ProfilePrefetcher* prefetch = nullptr;
    if (g_profile) {
      cache.WarmCacheFromBlocks(
          profile.BlocksForFile(cache_file, /*misses_only=*/false));
      prefetcher.Bind(cache_file, &cache);
      prefetcher.Bind(base_name, &base);
      prefetch = &prefetcher;
    }
    stats.Add(sim::SimulateBoot(chain, vms[i].trace, io, g_boot_config,
                                nullptr, prefetch)
                  .seconds);
  }
  (void)catalog;
  return stats.mean();
}

double QcowXfsBoot(const std::vector<SampleVm>& vms) {
  util::RunningStats stats;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    sim::IoContext io(g_io_config);
    cow::QcowOverlay overlay(vms[i].image->size(), cow::kDefaultClusterSize);
    sim::LocalFileDevice base(vms[i].image.get(), &io, 2000 + i, 0);
    cow::Chain chain(&overlay, nullptr, &base, false);
    stats.Add(sim::SimulateBoot(chain, vms[i].trace, io, g_boot_config).seconds);
  }
  return stats.mean();
}

double ColdCacheXfsBoot(const std::vector<SampleVm>& vms) {
  util::RunningStats stats;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    sim::IoContext io(g_io_config);
    cow::QcowOverlay overlay(vms[i].image->size(), cow::kDefaultClusterSize);
    sim::LocalCacheDevice cache(vms[i].image->size(), cow::kDefaultClusterSize,
                                &io, 3000 + i, 20ull << 30);
    sim::LocalFileDevice base(vms[i].image.get(), &io, 4000 + i, 0);
    cow::Chain chain(&overlay, &cache, &base, /*copy_on_read=*/true);
    stats.Add(sim::SimulateBoot(chain, vms[i].trace, io, g_boot_config).seconds);
  }
  return stats.mean();
}

double WarmCacheXfsBoot(const std::vector<SampleVm>& vms) {
  util::RunningStats stats;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    sim::IoContext io(g_io_config);
    cow::QcowOverlay overlay(vms[i].image->size(), cow::kDefaultClusterSize);
    sim::LocalCacheDevice cache(vms[i].image->size(), cow::kDefaultClusterSize,
                                &io, 5000 + i, 20ull << 30);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
    for (const vmi::Range& r : vms[i].boot->ranges()) {
      ranges.emplace_back(r.offset, r.length);
    }
    cache.Warm(*vms[i].image, ranges);
    sim::LocalFileDevice base(vms[i].image.get(), &io, 6000 + i, 0);
    cow::Chain chain(&overlay, &cache, &base, false);
    stats.Add(sim::SimulateBoot(chain, vms[i].trace, io, g_boot_config).seconds);
  }
  return stats.mean();
}

}  // namespace

int main(int argc, char** argv) {
  Options options = ParseOptions(argc, argv);
  if (options.images == 607) options.images = 48;  // boot-time sample
  PrintHeader("fig11_boot_time",
              "Figure 11: boot performance from deduplicated and compressed "
              "VMI caches",
              options);
  vmi::CatalogConfig catalog_config = MakeCatalogConfig(options);
  catalog_config.dense_layout = false;  // boot files spread across the disk
  const vmi::Catalog catalog = vmi::Catalog::AzureCommunity(catalog_config);
  const double dataset_scale = options.scale * options.cache_multiplier;
  g_boot_config.io_time_multiplier = 1.0 / dataset_scale;
  g_io_config = sim::ScaledIoConfig(dataset_scale);
  // Every boot's disk reads go through the event-driven queue. The default
  // (depth 1, no readahead) serves one read at a time; deeper queues with
  // readahead overlap disk service with guest decompression (the ZFS
  // prefetch effect).
  g_io_config.disk_queue_depth = options.disk_queue_depth;
  g_io_config.readahead_blocks = options.readahead_blocks;
  if (options.disk_queue_depth > 1 || options.readahead_blocks > 0) {
    std::printf("async disk engine: depth %u, readahead %u blocks\n\n",
                options.disk_queue_depth, options.readahead_blocks);
  }
  g_profile = options.profile;
  if (g_profile) {
    std::printf("profile-guided prefetch: first boot records, measured boots "
                "replay (warm ARC + prefetch)\n\n");
  }

  std::vector<SampleVm> vms;
  for (const vmi::ImageSpec& spec : catalog.images()) {
    SampleVm vm;
    vm.image = std::make_unique<vmi::VmImage>(catalog, spec);
    vm.boot = std::make_unique<vmi::BootWorkingSet>(catalog, *vm.image);
    vm.trace = vm.boot->Trace(spec.seed);
    vms.push_back(std::move(vm));
  }

  // The XFS configurations do not depend on the volume block size.
  const double qcow2_xfs = QcowXfsBoot(vms);
  const double cold_xfs = ColdCacheXfsBoot(vms);
  const double warm_xfs = WarmCacheXfsBoot(vms);

  std::vector<std::uint32_t> block_kbs =
      options.fast ? std::vector<std::uint32_t>{4, 64}
                   : std::vector<std::uint32_t>{1, 2, 4, 8, 16, 32, 64, 128};
  util::Table table({"block(KB)", "warm caches-zfs", "qcow2-xfs",
                     "cold caches-xfs", "warm caches-xfs"});
  double warm_zfs_64 = 0;
  for (std::uint32_t kb : block_kbs) {
    const double warm_zfs = WarmZfsBoot(catalog, vms, kb * 1024);
    if (kb == 64) warm_zfs_64 = warm_zfs;
    table.AddRow({std::to_string(kb), util::Table::Num(warm_zfs, 1) + " s",
                  util::Table::Num(qcow2_xfs, 1) + " s",
                  util::Table::Num(cold_xfs, 1) + " s",
                  util::Table::Num(warm_xfs, 1) + " s"});
  }
  std::printf("%s", table.Render().c_str());
  if (warm_zfs_64 > 0) {
    std::printf("\nwarm-zfs @64KB vs qcow2-xfs baseline: %+.1f%% "
                "(paper: ~10-16%% faster)\n",
                (qcow2_xfs - warm_zfs_64) / qcow2_xfs * 100.0);
  }
  std::printf(
      "shape check: warm-zfs is fastest near 64 KB and degrades sharply at\n"
      "small block sizes; the XFS rows are flat across the sweep.\n");
  return 0;
}
