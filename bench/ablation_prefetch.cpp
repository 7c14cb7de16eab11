// Ablation: profile-guided boot prefetch and pre-healing vs device
// readahead (BENCH_prefetch.json).
//
// Device readahead (PR 4) is volume-local and strictly sequential. A boot,
// though, touches a stable block list in a stable order, so a profile
// recorded from the first boot (vmi::BootProfile) can do strictly better:
// warm the decompressed-block ARC with exactly the boot working set before
// the guest starts, then keep the profile's blocks in flight ahead of the
// guest's cursor (sim::ProfilePrefetcher). The degraded rows additionally
// route the profile through the repair read path *before* the boot, moving
// corruption healing off the critical path.
//
// Modes, all on the warm-zfs boot path of Figure 11 (8 KB cVolume so each
// 64 KB QCOW2 cluster spans eight blocks):
//
//   sync                     depth 1, no readahead: one read at a time
//                            (the baseline)
//   depth8                   async queue, no readahead
//   depth8+ra16              async queue + sequential device readahead
//   depth8+ra16+profile      readahead + profile replay (ARC warm + prefetch)
//   degraded on-demand       1-in-5 blocks corrupt; repairs healed on demand
//                            inside the boot (critical-path repair reads)
//   degraded pre-heal        same corruption; the profile's blocks are healed
//                            before the guest starts
//
// Expected shape: the profile row is strictly faster than readahead-only at
// the same depth (the ARC warm removes decompression CPU from every miss and
// the prefetcher covers non-sequential jumps readahead cannot), and the
// pre-heal row reports (near) zero critical-path repair reads where the
// on-demand row pays one per corrupt cluster.
#include <algorithm>

#include "bench/ingest_common.h"
#include "cow/chain.h"
#include "sim/boot_sim.h"
#include "sim/devices.h"
#include "util/json.h"
#include "util/stats.h"
#include "util/table.h"
#include "vmi/boot_profile.h"

using namespace squirrel;
using namespace squirrel::bench;

namespace {

struct SampleVm {
  std::unique_ptr<vmi::VmImage> image;
  std::unique_ptr<vmi::BootWorkingSet> boot;
  std::vector<vmi::BootRead> trace;
};

constexpr std::uint32_t kBlockSize = 8 * 1024;
constexpr std::uint64_t kArcBytes = 64ull << 20;
constexpr std::uint32_t kDepth = 8;
constexpr std::uint32_t kReadahead = 16;
constexpr std::uint64_t kCorruptStride = 5;  // corrupt every 5th block

struct Mode {
  const char* name;
  std::uint32_t depth;
  std::uint32_t readahead;
  bool profile;
  bool degraded;
  bool pre_heal;
};

struct ModeResult {
  double mean_seconds = 0.0;
  std::uint64_t repair_reads = 0;      // demand repairs on the critical path
  std::uint64_t repaired_bytes = 0;
  std::uint64_t preheal_fetches = 0;   // pre-boot repair range fetches
  std::uint64_t preheal_bytes = 0;
  std::uint64_t prefetch_issued = 0;
};

std::string CacheFile(std::size_t i) { return "cache-" + std::to_string(i); }

std::unique_ptr<zvol::Volume> MakeVolume(const std::vector<SampleVm>& vms,
                                         std::uint64_t cache_bytes) {
  zvol::VolumeConfig config{.block_size = kBlockSize,
                            .codec = compress::CodecId::kGzip6,
                            .dedup = true,
                            .fast_hash = true};
  config.read.cache_bytes = cache_bytes;
  auto volume = std::make_unique<zvol::Volume>(config);
  for (std::size_t i = 0; i < vms.size(); ++i) {
    const vmi::CacheImage cache(*vms[i].image, *vms[i].boot);
    volume->WriteFile(CacheFile(i), cache);
  }
  return volume;
}

/// First (unmeasured) boots under the async engine, each recording its touch
/// trace. Profiles take a Serialize/Deserialize round trip so the bench
/// exercises the persisted wire format, not just the in-memory object.
std::vector<vmi::BootProfile> RecordProfiles(
    const std::vector<SampleVm>& vms, const sim::IoContextConfig& io_template,
    const sim::BootSimConfig& boot_config) {
  const auto volume = MakeVolume(vms, /*cache_bytes=*/0);
  std::vector<vmi::BootProfile> profiles(vms.size());
  for (std::size_t i = 0; i < vms.size(); ++i) {
    sim::IoContextConfig io_config = io_template;
    io_config.disk_queue_depth = kDepth;
    io_config.readahead_blocks = kReadahead;
    sim::IoContext io(io_config);
    cow::QcowOverlay overlay(vms[i].image->size(), cow::kDefaultClusterSize);
    sim::VolumeFileDevice cache(volume.get(), CacheFile(i), &io, 1000 + i);
    cache.SetProfileRecorder(&profiles[i]);
    sim::LocalFileDevice base(vms[i].image.get(), &io, 1, 40ull << 30);
    cow::Chain chain(&overlay, &cache, &base, false);
    sim::SimulateBoot(chain, vms[i].trace, io, boot_config);
    const util::Bytes wire = profiles[i].Serialize();
    profiles[i] = vmi::BootProfile::Deserialize(wire);
  }
  return profiles;
}

ModeResult RunMode(const Mode& mode, const std::vector<SampleVm>& vms,
                   const std::vector<vmi::BootProfile>& profiles,
                   const sim::IoContextConfig& io_template,
                   const sim::BootSimConfig& boot_config) {
  // Fresh volumes per mode: the decompressed-block ARC must start cold so
  // modes cannot contaminate each other through shared cache state.
  const auto volume = MakeVolume(vms, kArcBytes);
  std::unique_ptr<zvol::Volume> healthy;  // repair peer for degraded rows
  if (mode.degraded) {
    healthy = MakeVolume(vms, /*cache_bytes=*/0);
    for (std::size_t i = 0; i < vms.size(); ++i) {
      const std::uint64_t count = volume->FileBlockCount(CacheFile(i));
      for (std::uint64_t b = 0; b < count; b += kCorruptStride) {
        volume->CorruptBlockForTesting(CacheFile(i), b);
      }
    }
  }

  ModeResult result;
  util::RunningStats stats;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    const std::string file = CacheFile(i);
    sim::IoContextConfig io_config = io_template;
    io_config.disk_queue_depth = mode.depth;
    io_config.readahead_blocks = mode.readahead;
    sim::IoContext io(io_config);
    cow::QcowOverlay overlay(vms[i].image->size(), cow::kDefaultClusterSize);
    sim::VolumeFileDevice cache(volume.get(), file, &io, 1000 + i);
    if (mode.degraded) {
      cache.SetRepairSources({{0, &healthy->block_store()}}, nullptr, 0,
                             nullptr);
    }
    sim::LocalFileDevice base(vms[i].image.get(), &io, 1, 40ull << 30);
    cow::Chain chain(&overlay, &cache, &base, false);

    sim::ProfilePrefetcher prefetcher(&profiles[i], &io);
    sim::ProfilePrefetcher* prefetch = nullptr;
    if (mode.profile) {
      std::vector<std::uint64_t> blocks =
          profiles[i].BlocksForFile(file, /*misses_only=*/false);
      if (mode.pre_heal) {
        // Heal (and warm) the profile's blocks before the guest starts —
        // the repairs the on-demand row pays inside the boot happen here,
        // off the critical path.
        std::sort(blocks.begin(), blocks.end());
        const sim::VolumeFileDevice::PreHealStats healed =
            cache.PreHealBlocks(blocks);
        result.preheal_fetches += healed.repair_fetches;
        result.preheal_bytes += healed.repaired_bytes;
      } else {
        cache.WarmCacheFromBlocks(blocks);
      }
      prefetcher.Bind(file, &cache);
      prefetch = &prefetcher;
    }

    stats.Add(sim::SimulateBoot(chain, vms[i].trace, io, boot_config, nullptr,
                                prefetch)
                  .seconds);
    result.repair_reads += cache.degraded_stats().repair_reads;
    result.repaired_bytes += cache.degraded_stats().repaired_bytes;
    result.prefetch_issued += prefetcher.stats().issued;
  }
  result.mean_seconds = stats.mean();
  return result;
}

void WriteJson(const std::vector<Mode>& modes,
               const std::vector<ModeResult>& results,
               double baseline_seconds, const Options& options) {
  util::JsonWriter json;
  json.Group().Str("bench", "prefetch");
  json.Group().Uint("images", options.images);
  json.Group().Uint("seed", options.seed);
  json.Group().Double("sync_baseline_seconds", "%.9f", baseline_seconds);
  json.Group().Rows("modes");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Mode& m = modes[i];
    const ModeResult& r = results[i];
    json.Object()
        .Str("mode", m.name)
        .Uint("depth", m.depth)
        .Uint("readahead", m.readahead)
        .Bool("profile", m.profile)
        .Bool("degraded", m.degraded)
        .Bool("pre_heal", m.pre_heal)
        .Double("mean_boot_seconds", "%.9f", r.mean_seconds)
        .Double("speedup_vs_sync", "%.4f",
                r.mean_seconds > 0 ? baseline_seconds / r.mean_seconds : 0.0)
        .Uint("repair_reads", r.repair_reads)
        .Uint("repaired_bytes", r.repaired_bytes)
        .Uint("preheal_fetches", r.preheal_fetches)
        .Uint("preheal_bytes", r.preheal_bytes)
        .Uint("prefetch_issued", r.prefetch_issued)
        .End();
  }
  json.End();
  WriteBenchJson("BENCH_prefetch.json", json.Finish());
}

}  // namespace

int main(int argc, char** argv) {
  Options options = ParseOptions(argc, argv);
  if (options.images == 607) options.images = 16;  // boot-time sample
  PrintHeader("ablation_prefetch",
              "Ablation: profile-guided prefetch + pre-healing vs device "
              "readahead on the warm-zfs boot path",
              options);
  vmi::CatalogConfig catalog_config = MakeCatalogConfig(options);
  catalog_config.dense_layout = false;
  const vmi::Catalog catalog = vmi::Catalog::AzureCommunity(catalog_config);
  const double dataset_scale = options.scale * options.cache_multiplier;
  sim::BootSimConfig boot_config;
  boot_config.io_time_multiplier = 1.0 / dataset_scale;
  const sim::IoContextConfig io_template = sim::ScaledIoConfig(dataset_scale);

  std::vector<SampleVm> vms;
  for (const vmi::ImageSpec& spec : catalog.images()) {
    SampleVm vm;
    vm.image = std::make_unique<vmi::VmImage>(catalog, spec);
    vm.boot = std::make_unique<vmi::BootWorkingSet>(catalog, *vm.image);
    vm.trace = vm.boot->Trace(spec.seed);
    vms.push_back(std::move(vm));
  }

  const std::vector<vmi::BootProfile> profiles =
      RecordProfiles(vms, io_template, boot_config);

  const std::vector<Mode> modes = {
      {"sync", 1, 0, false, false, false},
      {"depth8", kDepth, 0, false, false, false},
      {"depth8+ra16", kDepth, kReadahead, false, false, false},
      {"depth8+ra16+profile", kDepth, kReadahead, true, false, false},
      {"degraded on-demand", kDepth, kReadahead, false, true, false},
      {"degraded pre-heal", kDepth, kReadahead, true, true, true},
  };

  // The first mode (sync) is the baseline.
  std::vector<ModeResult> results;
  for (const Mode& mode : modes) {
    results.push_back(RunMode(mode, vms, profiles, io_template, boot_config));
  }
  const double baseline_seconds = results.front().mean_seconds;

  util::Table table({"mode", "mean boot(s)", "speedup", "repair reads",
                     "preheal fetches", "prefetch issued"});
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const ModeResult& r = results[i];
    table.AddRow({modes[i].name, util::Table::Num(r.mean_seconds, 2),
                  util::Table::Num(baseline_seconds / r.mean_seconds, 3) + "x",
                  std::to_string(r.repair_reads),
                  std::to_string(r.preheal_fetches),
                  std::to_string(r.prefetch_issued)});
  }
  std::printf("%s", table.Render().c_str());
  std::printf(
      "\nreading: the profile row must be strictly faster than readahead-only\n"
      "at the same depth (ARC warm removes per-miss decompression, the\n"
      "prefetcher covers non-sequential jumps); the pre-heal row moves the\n"
      "on-demand row's critical-path repair reads to before the boot.\n");

  WriteJson(modes, results, baseline_seconds, options);
  return 0;
}
