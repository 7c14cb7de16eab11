// Ablation: async disk queue depth x readahead vs boot time
// (BENCH_async_io.json).
//
// The discrete-event disk engine (sim/event/) charges every simulated disk
// read: reads flow through a bounded queue with adjacent coalescing and
// elevator ordering, and device readahead overlaps disk service with guest
// decompression. This sweep quantifies each knob on the warm-zfs boot path
// of Figure 11 (one shared cVolume, QCOW2 overlay over a VolumeFileDevice):
//
//   depth 1, readahead 0 the default: one read at a time, each charged in
//                        full before the next starts (the baseline)
//   depth > 1            out-of-order completions, coalescing, elevator
//   readahead > 0        prefetch issued past each read, never stalling the
//                        guest, dropped when the queue is full
//
// Expected shape: time drops strictly below the depth-1 baseline once
// depth > 1 and readahead > 0 — the overlap the paper's ZFS prefetch
// measurements attribute to the ARC + vdev queue.
#include "bench/ingest_common.h"
#include "cow/chain.h"
#include "sim/boot_sim.h"
#include "sim/devices.h"
#include "util/json.h"
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

struct SweepPoint {
  std::uint32_t depth = 1;
  std::uint32_t readahead = 0;
  double mean_seconds = 0.0;
  sim::event::DiskQueueStats queue;  // aggregated over all boots
};

/// Mean warm-zfs boot time over `vms` under one queue configuration.
SweepPoint RunPoint(zvol::Volume& volume,
                    const std::vector<SampleVm>& vms,
                    const sim::IoContextConfig& io_template,
                    const sim::BootSimConfig& boot_config, std::uint32_t depth,
                    std::uint32_t readahead) {
  SweepPoint point;
  point.depth = depth;
  point.readahead = readahead;
  util::RunningStats stats;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    sim::IoContextConfig io_config = io_template;
    io_config.disk_queue_depth = depth;
    io_config.readahead_blocks = readahead;
    sim::IoContext io(io_config);
    cow::QcowOverlay overlay(vms[i].image->size(), cow::kDefaultClusterSize);
    sim::VolumeFileDevice cache(&volume, "cache-" + std::to_string(i), &io,
                                1000 + i);
    sim::LocalFileDevice base(vms[i].image.get(), &io, 1, 40ull << 30);
    cow::Chain chain(&overlay, &cache, &base, false);
    stats.Add(sim::SimulateBoot(chain, vms[i].trace, io, boot_config).seconds);
    const sim::event::DiskQueueStats& q = io.disk_queue()->stats();
    point.queue.submitted += q.submitted;
    point.queue.completed += q.completed;
    point.queue.physical_ops += q.physical_ops;
    point.queue.coalesced += q.coalesced;
    point.queue.reordered += q.reordered;
    point.queue.submit_stalls += q.submit_stalls;
    point.queue.prefetch_drops += q.prefetch_drops;
    point.queue.busy_ns += q.busy_ns;
  }
  point.mean_seconds = stats.mean();
  return point;
}

void WriteJson(const std::vector<SweepPoint>& points, double baseline_seconds,
               const Options& options) {
  util::JsonWriter json;
  json.Group().Str("bench", "async_io");
  json.Group().Uint("images", options.images);
  json.Group().Uint("seed", options.seed);
  json.Group().Double("sync_baseline_seconds", "%.9f", baseline_seconds);
  json.Group().Rows("sweep");
  for (const SweepPoint& p : points) {
    json.Object()
        .Uint("depth", p.depth)
        .Uint("readahead", p.readahead)
        .Double("mean_boot_seconds", "%.9f", p.mean_seconds)
        .Double("speedup_vs_sync", "%.4f",
                p.mean_seconds > 0 ? baseline_seconds / p.mean_seconds : 0.0)
        .Uint("physical_ops", p.queue.physical_ops)
        .Uint("coalesced", p.queue.coalesced)
        .Uint("reordered", p.queue.reordered)
        .Uint("prefetch_drops", p.queue.prefetch_drops)
        .End();
  }
  json.End();
  WriteBenchJson("BENCH_async_io.json", json.Finish());
}

}  // namespace

int main(int argc, char** argv) {
  Options options = ParseOptions(argc, argv);
  if (options.images == 607) options.images = 24;  // boot-time sample
  PrintHeader("ablation_async_io",
              "Ablation: async disk queue depth x readahead on the warm-zfs "
              "boot path",
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

  // An 8 KB cVolume: each 64 KB QCOW2 cluster spans eight volume blocks, so
  // every cluster read is a multi-request batch with coalescing/readahead
  // room — the regime where the queue's knobs actually bite.
  zvol::Volume volume(zvol::VolumeConfig{.block_size = 8 * 1024,
                                         .codec = compress::CodecId::kGzip6,
                                         .dedup = true,
                                         .fast_hash = true});
  for (std::size_t i = 0; i < vms.size(); ++i) {
    const vmi::CacheImage cache(*vms[i].image, *vms[i].boot);
    volume.WriteFile("cache-" + std::to_string(i), cache);
  }

  const std::vector<std::pair<std::uint32_t, std::uint32_t>> sweep =
      options.fast
          ? std::vector<std::pair<std::uint32_t, std::uint32_t>>{
                {1, 0}, {8, 16}}
          : std::vector<std::pair<std::uint32_t, std::uint32_t>>{
                {1, 0},  {2, 0},  {4, 0},  {8, 0},   {4, 8},
                {8, 8},  {8, 16}, {16, 16}, {16, 32}};

  // The first point (depth 1, readahead 0) is the baseline.
  std::vector<SweepPoint> points;
  for (const auto& [depth, readahead] : sweep) {
    points.push_back(RunPoint(volume, vms, io_template, boot_config, depth,
                              readahead));
  }
  const double baseline_seconds = points.front().mean_seconds;

  util::Table table({"depth", "readahead", "mean boot(s)", "speedup",
                     "phys ops", "coalesced", "reordered", "ra drops"});
  for (const SweepPoint& p : points) {
    table.AddRow(
        {std::to_string(p.depth),
         std::to_string(p.readahead), util::Table::Num(p.mean_seconds, 2),
         util::Table::Num(baseline_seconds / p.mean_seconds, 3) + "x",
         std::to_string(p.queue.physical_ops),
         std::to_string(p.queue.coalesced), std::to_string(p.queue.reordered),
         std::to_string(p.queue.prefetch_drops)});
  }
  std::printf("%s", table.Render().c_str());
  std::printf(
      "\nreading: depth 1 / readahead 0 is the baseline (one read at a time,\n"
      "each charged in full); deeper queues with readahead overlap disk\n"
      "service with guest decompression and merge adjacent cluster blocks\n"
      "into fewer physical ops, strictly lowering simulated boot time.\n");

  WriteJson(points, baseline_seconds, options);
  return 0;
}
