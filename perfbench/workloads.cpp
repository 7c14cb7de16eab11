#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#include "compress/codec.h"
#include "core/squirrel.h"
#include "host_speed.h"
#include "trace.h"
#include "util/hash.h"
#include "util/rng.h"
#include "vmi/bootset.h"
#include "vmi/catalog.h"
#include "vmi/image.h"

namespace squirrel::perfbench {
namespace {

constexpr std::uint64_t kDaySeconds = 24 * 3600;
constexpr double kKiB = 1024.0;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kMB = 1e6;

// --- small statistics helpers -----------------------------------------------

/// Linear-interpolated percentile (q in [0, 1]) of an unsorted sample.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- generated inputs ---------------------------------------------------------

/// One boot of an image: its read trace and write trace.
struct BootTrace {
  std::vector<vmi::BootRead> reads;
  std::vector<vmi::BootRead> writes;
  std::uint64_t read_bytes = 0;
};

/// One catalog image with every input the benchmark derives from it.
struct VmInputs {
  std::string name;
  std::unique_ptr<vmi::VmImage> image;
  std::unique_ptr<vmi::BootWorkingSet> boot;
  std::unique_ptr<vmi::CacheImage> cache;
  std::vector<BootTrace> traces;  // boot workloads only
};

struct CatalogShape {
  std::uint32_t images = 0;
  double scale = 0.0;              // CatalogConfig::size_scale
  double cache_multiplier = 0.0;   // applied to CatalogConfig::cache_bytes
  bool dense_layout = true;
};

vmi::Catalog MakeCatalog(const CatalogShape& shape, std::uint64_t seed) {
  vmi::CatalogConfig config;
  config.image_count = shape.images;
  config.seed = seed;
  config.size_scale = shape.scale;
  config.cache_bytes = static_cast<std::uint64_t>(
      static_cast<double>(config.cache_bytes) * shape.cache_multiplier);
  config.dense_layout = shape.dense_layout;
  return vmi::Catalog::AzureCommunity(config);
}

/// Builds every image's inputs, with `traces_per_image` boot traces each
/// (distinct trace seeds: same working set, different read splits/order).
std::vector<VmInputs> MakeInputs(const vmi::Catalog& catalog,
                                 std::uint32_t traces_per_image) {
  std::vector<VmInputs> vms;
  vms.reserve(catalog.images().size());
  for (const vmi::ImageSpec& spec : catalog.images()) {
    VmInputs vm;
    vm.name = spec.name;
    vm.image = std::make_unique<vmi::VmImage>(catalog, spec);
    vm.boot = std::make_unique<vmi::BootWorkingSet>(catalog, *vm.image);
    vm.cache = std::make_unique<vmi::CacheImage>(*vm.image, *vm.boot);
    for (std::uint32_t k = 0; k < traces_per_image; ++k) {
      BootTrace trace;
      trace.reads = vm.boot->Trace(spec.seed + k);
      trace.writes = vm.boot->WriteTrace(spec.seed + k);
      for (const vmi::BootRead& read : trace.reads) trace.read_bytes += read.length;
      vm.traces.push_back(std::move(trace));
    }
    vms.push_back(std::move(vm));
  }
  return vms;
}

/// Seeded permutation of [0, n).
std::vector<std::size_t> Permutation(std::size_t n, util::Rng& rng) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  return order;
}

// --- run bookkeeping ------------------------------------------------------------

/// Failure and violation accounting shared by every op and check.
class Ledger {
 public:
  explicit Ledger(RunResult* result) : result_(result) {}

  void Threw(const std::string& what) {
    ++result_->threw;
    Note(what);
  }
  void Violation(const std::string& what) {
    ++result_->violations;
    Note(what);
  }
  void Attempted() { ++result_->attempted; }

 private:
  void Note(const std::string& what) {
    if (result_->problems.size() < 8) result_->problems.push_back(what);
  }
  RunResult* result_;
};

/// Per-layer figures of one traced phase. Every workload prints the full
/// set, so a figure whose layer the workload never reaches reads 0.
struct LayerFigures {
  double op_ms = 0, op_self_ms = 0;
  double register_pct = 0, sync_pct = 0, deregister_pct = 0, gc_pct = 0,
         boot_pct = 0;
  double receivers_per_register = 0, transfer_attempts_per_register = 0,
         transfer_retries = 0;
  double vmi_setup_ms = 0, vmi_read_pct_of_op = 0, vmi_read_mb_per_register = 0,
         vmi_base_read_kb_per_boot = 0;
  double zvol_diff_kb_per_register = 0, zvol_sync_kb_per_sync = 0,
         zvol_snapshots_per_sync = 0, zvol_live_files = 0,
         zvol_snapshots_retained = 0, zvol_disk_used_mb_per_node = 0;
  double store_new_unique_blocks_per_register = 0, store_dedup_hit_ratio = 0,
         store_compression_ratio = 0, store_ddt_core_kb_per_node = 0,
         store_free_hole_kb_per_node = 0, store_free_extents_per_node = 0,
         store_blocks_requested_per_boot = 0, store_decompressed_mb_per_boot = 0,
         store_decompress_amplification = 0, store_arc_hit_ratio = 0,
         store_arc_resident_mb = 0;
  double sim_io_s_per_op = 0, sim_page_cache_hit_ratio = 0,
         sim_guest_kb_per_boot = 0, sim_net_bytes_per_boot = 0,
         sim_net_kb_per_register = 0;
  double cow_cache_kb_per_boot = 0, cow_base_kb_per_boot = 0,
         cow_write_kb_per_boot = 0;
  double gzip6_compress_mb_s = 0, gzip6_decompress_mb_s = 0, sha256_mb_s = 0;
  double trace_overhead_pct = 0;
};

std::vector<Metric> PerLayerMetrics(const LayerFigures& f) {
  return {
      {"core.op_ms", f.op_ms, "ms"},
      {"core.op_self_ms", f.op_self_ms, "ms"},
      {"core.register_pct", f.register_pct, "%"},
      {"core.sync_pct", f.sync_pct, "%"},
      {"core.deregister_pct", f.deregister_pct, "%"},
      {"core.gc_pct", f.gc_pct, "%"},
      {"core.boot_pct", f.boot_pct, "%"},
      {"core.receivers_per_register", f.receivers_per_register, "count"},
      {"core.transfer_attempts_per_register", f.transfer_attempts_per_register,
       "count"},
      {"core.transfer_retries", f.transfer_retries, "count"},
      {"vmi.setup_ms", f.vmi_setup_ms, "ms"},
      {"vmi.read_pct_of_op", f.vmi_read_pct_of_op, "%"},
      {"vmi.read_mb_per_register", f.vmi_read_mb_per_register, "MB"},
      {"vmi.base_read_kb_per_boot", f.vmi_base_read_kb_per_boot, "KiB"},
      {"zvol.diff_kb_per_register", f.zvol_diff_kb_per_register, "KiB"},
      {"zvol.sync_kb_per_sync", f.zvol_sync_kb_per_sync, "KiB"},
      {"zvol.snapshots_per_sync", f.zvol_snapshots_per_sync, "count"},
      {"zvol.live_files", f.zvol_live_files, "count"},
      {"zvol.snapshots_retained", f.zvol_snapshots_retained, "count"},
      {"zvol.disk_used_mb_per_node", f.zvol_disk_used_mb_per_node, "MiB"},
      {"store.new_unique_blocks_per_register",
       f.store_new_unique_blocks_per_register, "count"},
      {"store.dedup_hit_ratio", f.store_dedup_hit_ratio, "ratio"},
      {"store.compression_ratio", f.store_compression_ratio, "ratio"},
      {"store.ddt_core_kb_per_node", f.store_ddt_core_kb_per_node, "KiB"},
      {"store.free_hole_kb_per_node", f.store_free_hole_kb_per_node, "KiB"},
      {"store.free_extents_per_node", f.store_free_extents_per_node, "count"},
      {"store.blocks_requested_per_boot", f.store_blocks_requested_per_boot,
       "count"},
      {"store.decompressed_mb_per_boot", f.store_decompressed_mb_per_boot, "MB"},
      {"store.decompress_amplification", f.store_decompress_amplification,
       "ratio"},
      {"store.arc_hit_ratio", f.store_arc_hit_ratio, "ratio"},
      {"store.arc_resident_mb", f.store_arc_resident_mb, "MiB"},
      {"sim.io_s_per_op", f.sim_io_s_per_op, "s"},
      {"sim.page_cache_hit_ratio", f.sim_page_cache_hit_ratio, "ratio"},
      {"sim.guest_kb_per_boot", f.sim_guest_kb_per_boot, "KiB"},
      {"sim.net_bytes_per_boot", f.sim_net_bytes_per_boot, "B"},
      {"sim.net_kb_per_register", f.sim_net_kb_per_register, "KiB"},
      {"cow.cache_kb_per_boot", f.cow_cache_kb_per_boot, "KiB"},
      {"cow.base_kb_per_boot", f.cow_base_kb_per_boot, "KiB"},
      {"cow.write_kb_per_boot", f.cow_write_kb_per_boot, "KiB"},
      {"compress.gzip6_compress_mb_s", f.gzip6_compress_mb_s, "MB/s"},
      {"compress.gzip6_decompress_mb_s", f.gzip6_decompress_mb_s, "MB/s"},
      {"util.sha256_mb_s", f.sha256_mb_s, "MB/s"},
      {"trace.overhead_pct", f.trace_overhead_pct, "%"},
  };
}

/// The end-to-end figures every workload reports. The primary op is
/// Register on register_churn and Boot on boot_cold/boot_warm.
struct EndToEnd {
  double ops_per_s = 0;       // timed ops of every type per wall second
  std::vector<double> op_ms;  // primary-op wall times
  double sim_op_s_mean = 0;
  double wire_kb_per_register = 0;
  double disk_bytes_per_cache_byte = 0;
};

/// The end-to-end metrics; host times are scaled by the host slowness
/// measured around them (see host_speed.h).
std::vector<Metric> EndToEndMetrics(double setup_s, const EndToEnd& e,
                                    double slowness) {
  return {
      {"setup_s", setup_s, "s"},
      {"ops_per_s", e.ops_per_s * slowness, "1/s"},
      {"op_ms_p50", Percentile(e.op_ms, 0.5) / slowness, "ms"},
      {"op_ms_p90", Percentile(e.op_ms, 0.9) / slowness, "ms"},
      {"peak_rss_mb", PeakRssMiB(), "MiB"},
      {"sim_op_s_mean", e.sim_op_s_mean, "s"},
      {"wire_kb_per_register", e.wire_kb_per_register, "KiB"},
      {"disk_bytes_per_cache_byte", e.disk_bytes_per_cache_byte, "ratio"},
  };
}

/// Runs `op` as one measured op: counts it, times it into `sink` (when it
/// returns) and books an exception as a failed op.
template <typename Op>
bool TimedOp(Ledger& ledger, std::vector<double>& sink, const char* what,
             Op&& op) {
  ledger.Attempted();
  const std::int64_t start = NowNs();
  try {
    op();
  } catch (const std::exception& e) {
    ledger.Threw(std::string(what) + " threw: " + e.what());
    return false;
  }
  sink.push_back(static_cast<double>(NowNs() - start) / 1e6);
  return true;
}

double SumMs(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

// --- outside-in correctness checks --------------------------------------------

/// Every online node's latest snapshot equals the scVolume snapshot of the
/// same name: same id, same file table.
void CheckReplicas(core::SquirrelCluster& cluster, Ledger& ledger) {
  for (std::uint32_t i = 0; i < cluster.compute_count(); ++i) {
    core::ComputeNode& node = cluster.compute_node(i);
    if (!node.online()) continue;
    const zvol::Snapshot* local = node.volume().LatestSnapshot();
    const zvol::Snapshot* remote =
        local ? cluster.storage_volume().FindSnapshot(local->name) : nullptr;
    if (local == nullptr || remote == nullptr || remote->id != local->id ||
        remote->files != local->files) {
      ledger.Violation("node " + std::to_string(i) +
                       ": latest snapshot differs from the scVolume's");
    }
  }
}

/// Each live cache, read back through Volume::ReadRange over its boot
/// ranges, equals the vmi::CacheImage bytes.
void CheckCacheBytes(const zvol::Volume& volume, const std::string& where,
                     const std::vector<const VmInputs*>& live, Ledger& ledger) {
  util::Bytes expected;
  for (const VmInputs* vm : live) {
    const std::string file = core::SquirrelCluster::CacheFileName(vm->name);
    bool equal = volume.HasFile(file);
    for (const vmi::Range& r : vm->boot->ranges()) {
      if (!equal) break;
      expected.resize(r.length);
      vm->cache->Read(r.offset, expected);
      equal = volume.ReadRange(file, r.offset, r.length) == expected;
    }
    if (!equal) ledger.Violation(where + ": cache bytes differ for " + vm->name);
  }
}

// --- layer probes ---------------------------------------------------------------

/// Times gzip6 Compress/Decompress and SHA-256 over a fixed sample of the
/// workload's own non-hole blocks, read back through Volume::ReadRange.
void ProbeCodecAndHash(const zvol::Volume& volume,
                       const std::vector<const VmInputs*>& live,
                       LayerFigures& figures) {
  constexpr std::size_t kSampleBlocks = 32;
  constexpr std::int64_t kProbeNs = 150'000'000;
  const std::uint32_t block_size = volume.config().block_size;
  std::vector<util::Bytes> sample;
  for (const VmInputs* vm : live) {
    const std::string file = core::SquirrelCluster::CacheFileName(vm->name);
    for (std::uint64_t b = 0; b < volume.FileBlockCount(file); ++b) {
      if (sample.size() == kSampleBlocks) break;
      if (volume.FileBlock(file, b).hole) continue;
      const std::uint64_t offset = b * block_size;
      const std::uint64_t length =
          std::min<std::uint64_t>(block_size, volume.FileSize(file) - offset);
      sample.push_back(volume.ReadRange(file, offset, length));
    }
  }
  if (sample.empty()) return;
  const compress::Codec& codec = compress::GetCodec(compress::CodecId::kGzip6);
  std::vector<util::Bytes> packed;
  for (const util::Bytes& block : sample) packed.push_back(codec.Compress(block));

  // Repeats passes over the sample until kProbeNs elapsed; returns MB/s of
  // uncompressed bytes processed.
  const auto rate = [&](const auto& pass) {
    std::uint64_t bytes = 0;
    const std::int64_t start = NowNs();
    std::int64_t elapsed = 0;
    do {
      bytes += pass();
      elapsed = NowNs() - start;
    } while (elapsed < kProbeNs);
    return static_cast<double>(bytes) / kMB / (static_cast<double>(elapsed) / 1e9);
  };
  figures.gzip6_compress_mb_s = rate([&] {
    std::uint64_t bytes = 0;
    for (const util::Bytes& block : sample) {
      codec.Compress(block);
      bytes += block.size();
    }
    return bytes;
  });
  figures.gzip6_decompress_mb_s = rate([&] {
    std::uint64_t bytes = 0;
    for (std::size_t i = 0; i < sample.size(); ++i) {
      codec.Decompress(packed[i], sample[i].size());
      bytes += sample[i].size();
    }
    return bytes;
  });
  figures.sha256_mb_s = rate([&] {
    std::uint64_t bytes = 0;
    for (const util::Bytes& block : sample) {
      util::HashBlock(block);
      bytes += block.size();
    }
    return bytes;
  });
}

/// Volume-level figures averaged over the compute nodes.
void NodeStoreFigures(core::SquirrelCluster& cluster, LayerFigures& f) {
  double disk = 0, ddt = 0, holes = 0, extents = 0, logical = 0, physical = 0;
  const double n = cluster.compute_count();
  for (std::uint32_t i = 0; i < cluster.compute_count(); ++i) {
    const zvol::Volume& volume = cluster.compute_node(i).volume();
    const store::StoreStats stats = volume.block_store().stats();
    const store::SpaceMapStats space = volume.block_store().space_map_stats();
    disk += static_cast<double>(volume.Stats().disk_used_bytes);
    ddt += static_cast<double>(stats.ddt_core_bytes);
    holes += static_cast<double>(space.free_hole_bytes);
    extents += static_cast<double>(space.free_extents);
    logical += static_cast<double>(stats.logical_unique_bytes);
    physical += static_cast<double>(stats.physical_data_bytes);
  }
  f.zvol_disk_used_mb_per_node = disk / n / kMiB;
  f.store_ddt_core_kb_per_node = ddt / n / kKiB;
  f.store_free_hole_kb_per_node = holes / n / kKiB;
  f.store_free_extents_per_node = extents / n;
  f.store_compression_ratio = Ratio(logical, physical);
  const zvol::VolumeStats sc = cluster.storage_volume().Stats();
  f.zvol_live_files = static_cast<double>(sc.file_count);
  f.zvol_snapshots_retained = static_cast<double>(sc.snapshot_count);
}

/// ccVolume disk bytes per logical nonzero byte of the caches in its live
/// table, averaged over the online compute nodes (Table 1, Fig 8).
double DiskBytesPerCacheByte(core::SquirrelCluster& cluster) {
  double sum = 0;
  int nodes = 0;
  for (std::uint32_t i = 0; i < cluster.compute_count(); ++i) {
    const zvol::Volume& volume = cluster.compute_node(i).volume();
    if (!cluster.compute_node(i).online()) continue;
    double nonzero = 0;
    for (const std::string& file : volume.FileNames()) {
      for (std::uint64_t b = 0; b < volume.FileBlockCount(file); ++b) {
        const zvol::BlockPtr& ptr = volume.FileBlock(file, b);
        if (!ptr.hole) nonzero += ptr.logical_size;
      }
    }
    sum += Ratio(static_cast<double>(volume.Stats().disk_used_bytes), nonzero);
    ++nodes;
  }
  return nodes > 0 ? sum / nodes : 0.0;
}

std::uint64_t NetBytesIn(core::SquirrelCluster& cluster) {
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < cluster.compute_count(); ++i) {
    total += cluster.network().bytes_in(i + 1);
  }
  return total;
}

// --- workloads --------------------------------------------------------------------

class Workload {
 public:
  /// Primary ops a phase completes at least, so that op_ms_p90 has 10
  /// samples beyond it; the simulated figures average over the first kSimOps.
  static constexpr std::size_t kMinOps = 100;
  static constexpr std::size_t kSimOps = 100;

  virtual ~Workload() = default;
  /// Builds inputs and cluster state; everything before the first timed op.
  /// Ticks `speed` after each workflow call.
  virtual void Setup(Tracer* tracer, HostSpeed& speed) = 0;

  /// Runs closed-loop steps until `seconds` passed and kMinOps primary ops
  /// completed, or until a hard cap that keeps the run inside its time
  /// budget. A non-null tracer records spans and the per-layer counters.
  /// `speed` samples the host between steps. Returns the phase's wall
  /// seconds without the samples.
  double RunPhase(double seconds, Tracer* tracer, HostSpeed& speed) {
    BeginPhase();
    speed.Start();
    const double cap = std::max(3.0 * seconds, seconds + 30.0);
    while ((speed.WallSeconds() < seconds || PrimaryOps() < kMinOps) &&
           speed.WallSeconds() < cap) {
      Step(tracer);
      speed.Tick();
    }
    return speed.WorkSeconds();
  }

  /// Outside-in correctness checks, run untimed after a measured phase.
  virtual void Check() = 0;
  virtual EndToEnd EndToEndFigures(double wall_s) const = 0;
  virtual LayerFigures LayerFiguresOf(double wall_s) = 0;
  /// Per-op-type figures for the report (whole-phase percentiles).
  virtual std::vector<Metric> Detail() const = 0;
  /// Volume the layer probes read their block sample from, and its caches.
  virtual const zvol::Volume& ProbeVolume() = 0;
  virtual std::vector<const VmInputs*> LiveInputs() const = 0;

 protected:
  /// Starts a new phase's accounting (and replays the same op sequence
  /// where the workload's state allows it).
  virtual void BeginPhase() = 0;
  /// One closed-loop step: one or more timed ops.
  virtual void Step(Tracer* tracer) = 0;
  /// Ops of the primary type completed in the current phase.
  virtual std::size_t PrimaryOps() const = 0;
};

// register_churn: the control plane at steady state. 3 compute nodes, a
// 64-image catalog, 32 live caches. Each step deregisters the oldest cache,
// registers the next image, advances the clock by a day and runs GC. One
// node at a time is offline for 4 steps and then returns through an
// incremental SyncNode, so every Register has exactly 2 receivers and every
// SyncNode advances exactly 4 snapshots.
class RegisterChurn final : public Workload {
 public:
  static constexpr std::uint32_t kNodes = 3;
  static constexpr std::uint32_t kCatalogImages = 64;
  static constexpr std::size_t kLive = 32;
  static constexpr std::uint64_t kOfflineSteps = 4;
  static constexpr CatalogShape kShape{kCatalogImages, 1.0 / 4096.0, 8.0, true};

  RegisterChurn(std::uint64_t seed, RunResult* result)
      : seed_(seed), ledger_(result) {}

  void Setup(Tracer* tracer, HostSpeed& speed) override {
    util::Rng rng(seed_);
    {
      ScopedSpan span(tracer, "vmi.setup");
      catalog_ = std::make_unique<vmi::Catalog>(MakeCatalog(kShape, seed_));
      vms_ = MakeInputs(*catalog_, /*traces_per_image=*/0);
      util::Rng order_rng = rng.Fork(1);
      order_ = Permutation(vms_.size(), order_rng);
    }
    rotation_rng_ = rng.Fork(2);
    cluster_ = std::make_unique<core::SquirrelCluster>(core::SquirrelConfig{},
                                                        kNodes);
    for (std::size_t k = 0; k < kLive; ++k) {
      const VmInputs& vm = vms_[order_[next_++ % vms_.size()]];
      cluster_->Register({vm.name, *vm.cache, now_});
      live_.push_back(&vm);
      now_ = now_.AdvancedBySeconds(kDaySeconds);
      cluster_->RunGc(now_);
      speed.Tick();
    }
    offline_ = static_cast<std::uint32_t>(rotation_rng_.Below(kNodes));
    cluster_->compute_node(offline_).set_online(false);
  }

  void Check() override {
    CheckReplicas(*cluster_, ledger_);
    const std::vector<const VmInputs*> live = LiveInputs();
    CheckCacheBytes(cluster_->storage_volume(), "scVolume", live, ledger_);
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      if (!cluster_->compute_node(i).online()) continue;
      CheckCacheBytes(cluster_->compute_node(i).volume(),
                      "node " + std::to_string(i), live, ledger_);
    }
  }

  EndToEnd EndToEndFigures(double wall_s) const override {
    EndToEnd e;
    e.ops_per_s = static_cast<double>(register_ms_.size() + deregister_ms_.size() +
                                      gc_ms_.size() + sync_ms_.size()) /
                  wall_s;
    e.op_ms = register_ms_;
    e.sim_op_s_mean = Mean(sim_register_s_);
    e.wire_kb_per_register = Mean(sim_wire_bytes_) / kKiB;
    e.disk_bytes_per_cache_byte = sim_disk_ratio_.value_or(0.0);
    return e;
  }

  LayerFigures LayerFiguresOf(double wall_s) override {
    LayerFigures f;
    const double regs = static_cast<double>(register_ms_.size());
    const double syncs = static_cast<double>(sync_ms_.size());
    const double wall_ms = wall_s * 1e3;
    f.op_ms = Mean(register_ms_);
    f.op_self_ms = f.op_ms - traced_.vmi_read_ms / regs;
    f.vmi_read_pct_of_op = 100.0 * Ratio(traced_.vmi_read_ms, SumMs(register_ms_));
    f.register_pct = 100.0 * SumMs(register_ms_) / wall_ms;
    f.sync_pct = 100.0 * SumMs(sync_ms_) / wall_ms;
    f.deregister_pct = 100.0 * SumMs(deregister_ms_) / wall_ms;
    f.gc_pct = 100.0 * SumMs(gc_ms_) / wall_ms;
    f.receivers_per_register = traced_.receivers / regs;
    f.transfer_attempts_per_register = traced_.attempts / regs;
    f.transfer_retries = traced_.retries;
    f.vmi_read_mb_per_register = traced_.vmi_read_bytes / regs / kMB;
    f.zvol_diff_kb_per_register = traced_.diff_bytes / regs / kKiB;
    f.zvol_sync_kb_per_sync = Ratio(traced_.sync_bytes, syncs) / kKiB;
    f.zvol_snapshots_per_sync = Ratio(traced_.sync_snapshots, syncs);
    f.store_new_unique_blocks_per_register = traced_.new_unique / regs;
    f.store_dedup_hit_ratio =
        Ratio(traced_.nonhole_blocks - traced_.new_unique, traced_.nonhole_blocks);
    f.sim_io_s_per_op = traced_.sim_io_s / regs;
    f.sim_net_kb_per_register = traced_.net_bytes / regs / kKiB;
    NodeStoreFigures(*cluster_, f);
    return f;
  }

  std::vector<Metric> Detail() const override {
    return {
        {"register_ms_p50", Percentile(register_ms_, 0.5), "ms"},
        {"register_ms_p90", Percentile(register_ms_, 0.9), "ms"},
        {"sync_ms_p50", Percentile(sync_ms_, 0.5), "ms"},
        {"deregister_ms_p50", Percentile(deregister_ms_, 0.5), "ms"},
        {"gc_ms_p50", Percentile(gc_ms_, 0.5), "ms"},
        {"registrations", static_cast<double>(register_ms_.size()), "count"},
        {"syncs", static_cast<double>(sync_ms_.size()), "count"},
        {"cache_kb_mean", Mean(sim_cache_bytes_) / kKiB, "KiB"},
    };
  }

  const zvol::Volume& ProbeVolume() override {
    return cluster_->storage_volume();
  }

  std::vector<const VmInputs*> LiveInputs() const override {
    return {live_.begin(), live_.end()};
  }

 private:
  struct Traced {
    double vmi_read_ms = 0, vmi_read_bytes = 0, receivers = 0, attempts = 0,
           retries = 0, diff_bytes = 0, sync_bytes = 0, sync_snapshots = 0,
           new_unique = 0, nonhole_blocks = 0, sim_io_s = 0, net_bytes = 0;
  };

  void BeginPhase() override {
    register_ms_.clear();
    deregister_ms_.clear();
    gc_ms_.clear();
    sync_ms_.clear();
    traced_ = {};
  }

  std::size_t PrimaryOps() const override { return register_ms_.size(); }

  void Step(Tracer* tracer) override {
    ++step_;
    const std::uint64_t op = step_;
    if (step_ > 1 && (step_ - 1) % kOfflineSteps == 0) Sync(tracer, op);

    const VmInputs* oldest = live_.front();
    live_.pop_front();
    TimedOp(ledger_, deregister_ms_, "Deregister", [&] {
      ScopedSpan span(tracer, "core.deregister", op);
      cluster_->Deregister(oldest->name, now_);
    });

    const VmInputs& vm = vms_[order_[next_++ % vms_.size()]];
    Register(vm, tracer, op);
    live_.push_back(&vm);

    now_ = now_.AdvancedBySeconds(kDaySeconds);
    TimedOp(ledger_, gc_ms_, "RunGc", [&] {
      ScopedSpan span(tracer, "core.gc", op);
      cluster_->RunGc(now_);
    });
    if (sim_register_s_.size() == kSimOps && !sim_disk_ratio_) {
      sim_disk_ratio_ = DiskBytesPerCacheByte(*cluster_);
    }
  }

  void Register(const VmInputs& vm, Tracer* tracer, std::uint64_t op) {
    core::RegistrationReport report;
    store::StoreStats before{};
    std::uint64_t net_before = 0;
    if (tracer != nullptr) {
      before = cluster_->storage_volume().block_store().stats();
      net_before = NetBytesIn(*cluster_);
    }
    std::int32_t span_index = -1;
    std::uint64_t source_bytes = 0;
    const bool ok = TimedOp(ledger_, register_ms_, "Register", [&] {
      ScopedSpan span(tracer, "core.register", op);
      span_index = span.index();
      if (tracer == nullptr) {
        report = cluster_->Register({vm.name, *vm.cache, now_});
      } else {
        const TracedSource source(*vm.cache, tracer, op);
        report = cluster_->Register({vm.name, source, now_});
        source_bytes = source.bytes();
      }
    });
    if (!ok) return;
    if (report.receivers != kNodes - 1) {
      ledger_.Violation("Register " + vm.name + " reached " +
                        std::to_string(report.receivers) + " receivers");
    }
    if (sim_register_s_.size() < kSimOps) {
      sim_register_s_.push_back(report.total_seconds);
      sim_wire_bytes_.push_back(static_cast<double>(report.diff_wire_bytes));
      sim_cache_bytes_.push_back(static_cast<double>(report.cache_logical_bytes));
    }
    if (tracer == nullptr) return;
    const store::StoreStats after = cluster_->storage_volume().block_store().stats();
    const core::SquirrelConfig& config = cluster_->config();
    traced_.vmi_read_ms += tracer->ChildMs(span_index, "vmi.read");
    traced_.vmi_read_bytes += static_cast<double>(source_bytes);
    traced_.receivers += report.receivers;
    traced_.attempts += static_cast<double>(report.transfers.attempts);
    traced_.retries += static_cast<double>(report.transfers.retries);
    traced_.diff_bytes += static_cast<double>(report.diff_wire_bytes);
    traced_.new_unique +=
        static_cast<double>(after.unique_blocks - before.unique_blocks);
    traced_.nonhole_blocks += static_cast<double>(report.cache_logical_bytes) /
                              cluster_->storage_volume().config().block_size;
    traced_.sim_io_s += report.total_seconds - config.registration_boot_seconds -
                        config.snapshot_seconds;
    traced_.net_bytes += static_cast<double>(NetBytesIn(*cluster_) - net_before);
  }

  void Sync(Tracer* tracer, std::uint64_t op) {
    cluster_->compute_node(offline_).set_online(true);
    core::SyncReport report;
    const bool ok = TimedOp(ledger_, sync_ms_, "SyncNode", [&] {
      ScopedSpan span(tracer, "core.sync", op);
      report = cluster_->SyncNode(offline_, now_);
    });
    if (ok && (report.full_resync || report.snapshots_advanced != kOfflineSteps)) {
      ledger_.Violation("SyncNode of node " + std::to_string(offline_) +
                        " was not an incremental " +
                        std::to_string(kOfflineSteps) + "-snapshot catch-up");
    }
    if (tracer != nullptr) {
      traced_.sync_bytes += static_cast<double>(report.wire_bytes);
      traced_.sync_snapshots += report.snapshots_advanced;
    }
    offline_ = static_cast<std::uint32_t>(
        (offline_ + 1 + rotation_rng_.Below(kNodes - 1)) % kNodes);
    cluster_->compute_node(offline_).set_online(false);
  }

  std::uint64_t seed_;
  Ledger ledger_;
  std::unique_ptr<vmi::Catalog> catalog_;
  std::vector<VmInputs> vms_;
  std::vector<std::size_t> order_;
  util::Rng rotation_rng_;
  std::unique_ptr<core::SquirrelCluster> cluster_;
  std::deque<const VmInputs*> live_;
  std::size_t next_ = 0;
  std::uint64_t step_ = 0;
  std::uint32_t offline_ = 0;
  core::SimClock now_ = core::SimClock::FromSeconds(kDaySeconds);

  std::vector<double> register_ms_, deregister_ms_, gc_ms_, sync_ms_;
  std::vector<double> sim_register_s_, sim_wire_bytes_, sim_cache_bytes_;
  std::optional<double> sim_disk_ratio_;
  Traced traced_;
};

// boot_cold / boot_warm: the data plane. 24 images registered on 2 compute
// nodes during set-up; each measured boot picks an image, one of its boot
// traces and a node uniformly, and replays the trace plus its write trace.
// boot_cold keeps the default config (ARC off): every block read is
// decompressed and verified. boot_warm gives the ccVolumes an ARC budget
// above their unique-block bytes and fills it with one unmeasured boot per
// image and node: every block read is an ARC hit. Each boot is checked to
// have taken its workload's path, so no run mixes the two.
class BootWorkload final : public Workload {
 public:
  static constexpr std::uint32_t kNodes = 2;
  static constexpr std::uint32_t kImages = 24;
  /// Boot traces per image. Cold-boot cost follows a trace's read count,
  /// so several traces per image average that out within a run.
  static constexpr std::uint32_t kTracesPerImage = 4;
  /// dense_layout off: boot files spread across the disk, as in Fig 11.
  static constexpr CatalogShape kShape{kImages, 1.0 / 2048.0, 8.0, false};
  /// boot_warm's ARC budget, as a multiple of the catalog's summed boot
  /// working sets (an upper bound on a node's unique-block bytes); the slack
  /// covers uneven spread of blocks across the 16 ARC stripes.
  static constexpr double kArcBudgetFactor = 2.0;

  BootWorkload(bool warm, std::uint64_t seed, RunResult* result)
      : warm_(warm), seed_(seed), ledger_(result) {}

  void Setup(Tracer* tracer, HostSpeed& speed) override {
    util::Rng rng(seed_);
    {
      ScopedSpan span(tracer, "vmi.setup");
      catalog_ = std::make_unique<vmi::Catalog>(MakeCatalog(kShape, seed_));
      vms_ = MakeInputs(*catalog_, kTracesPerImage);
    }
    boot_rng_start_ = rng.Fork(2);
    const double dataset_scale = kShape.scale * kShape.cache_multiplier;
    io_config_ = sim::ScaledIoConfig(dataset_scale);
    boot_config_.io_time_multiplier = 1.0 / dataset_scale;

    core::SquirrelConfig config;
    if (warm_) {
      std::uint64_t working_sets = 0;
      for (const VmInputs& vm : vms_) working_sets += vm.boot->byte_count();
      config.volume.read.cache_bytes = static_cast<std::uint64_t>(
          kArcBudgetFactor * static_cast<double>(working_sets));
    }
    cluster_ = std::make_unique<core::SquirrelCluster>(config, kNodes);
    for (std::size_t i = 0; i < vms_.size(); ++i) {
      const core::RegistrationReport report = cluster_->Register(
          {vms_[i].name, *vms_[i].cache, core::SimClock::FromSeconds(60 * (i + 1))});
      setup_wire_bytes_.push_back(static_cast<double>(report.diff_wire_bytes));
      speed.Tick();
    }
    if (warm_) {
      for (std::uint32_t node = 0; node < kNodes; ++node) {
        for (const VmInputs& vm : vms_) {
          sim::IoContext io(io_config_);
          cluster_->Boot(node, Request(vm, vm.traces.front(), *vm.image), io);
          speed.Tick();
        }
      }
    }
    disk_ratio_ = DiskBytesPerCacheByte(*cluster_);
  }

  void Check() override {
    CheckReplicas(*cluster_, ledger_);
    const std::vector<const VmInputs*> live = LiveInputs();
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      CheckCacheBytes(cluster_->compute_node(i).volume(),
                      "node " + std::to_string(i), live, ledger_);
    }
  }

  EndToEnd EndToEndFigures(double wall_s) const override {
    EndToEnd e;
    e.ops_per_s = static_cast<double>(boot_ms_.size()) / wall_s;
    e.op_ms = boot_ms_;
    e.sim_op_s_mean = Mean(sim_boot_s_);
    e.wire_kb_per_register = Mean(setup_wire_bytes_) / kKiB;
    e.disk_bytes_per_cache_byte = disk_ratio_;
    return e;
  }

  LayerFigures LayerFiguresOf(double wall_s) override {
    LayerFigures f;
    const double boots = static_cast<double>(boot_ms_.size());
    const Traced& t = traced_;
    f.op_ms = Mean(boot_ms_);
    f.op_self_ms = f.op_ms - t.vmi_read_ms / boots;
    f.vmi_read_pct_of_op = 100.0 * Ratio(t.vmi_read_ms, SumMs(boot_ms_));
    f.boot_pct = 100.0 * SumMs(boot_ms_) / (wall_s * 1e3);
    f.vmi_base_read_kb_per_boot = t.vmi_read_bytes / boots / kKiB;
    f.store_blocks_requested_per_boot = t.blocks_requested / boots;
    f.store_decompressed_mb_per_boot = t.decompressed_bytes / boots / kMB;
    f.store_decompress_amplification = Ratio(t.decompressed_bytes, t.guest_bytes);
    f.store_arc_hit_ratio = Ratio(t.cache_hits, t.blocks_requested);
    double resident = 0;
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      resident += static_cast<double>(
          cluster_->compute_node(i).volume().block_store().read_stats().cached_bytes);
    }
    f.store_arc_resident_mb = resident / kNodes / kMiB;
    f.sim_io_s_per_op = t.io_s / boots;
    f.sim_page_cache_hit_ratio =
        Ratio(t.page_cache_hits, t.page_cache_hits + t.page_cache_misses);
    f.sim_guest_kb_per_boot = t.guest_bytes / boots / kKiB;
    f.sim_net_bytes_per_boot = t.net_bytes / boots;
    f.cow_cache_kb_per_boot = t.cache_bytes / boots / kKiB;
    f.cow_base_kb_per_boot = t.base_bytes / boots / kKiB;
    f.cow_write_kb_per_boot = t.write_bytes / boots / kKiB;
    NodeStoreFigures(*cluster_, f);
    return f;
  }

  std::vector<Metric> Detail() const override {
    double unique = 0;
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      unique += static_cast<double>(
          cluster_->compute_node(i).volume().block_store().stats().logical_unique_bytes);
    }
    double cache = 0;
    for (const VmInputs& vm : vms_) cache += static_cast<double>(vm.boot->byte_count());
    return {
        {"boot_ms_p50", Percentile(boot_ms_, 0.5), "ms"},
        {"boot_ms_p90", Percentile(boot_ms_, 0.9), "ms"},
        {"boots", static_cast<double>(boot_ms_.size()), "count"},
        {"cache_kb_mean", cache / kImages / kKiB, "KiB"},
        {"node_unique_block_mb", unique / kNodes / kMiB, "MiB"},
        {"arc_budget_mb",
         static_cast<double>(cluster_->config().volume.read.cache_bytes) / kMiB,
         "MiB"},
    };
  }

  const zvol::Volume& ProbeVolume() override {
    return cluster_->compute_node(0).volume();
  }

  std::vector<const VmInputs*> LiveInputs() const override {
    std::vector<const VmInputs*> live;
    for (const VmInputs& vm : vms_) live.push_back(&vm);
    return live;
  }

 private:
  struct Traced {
    double vmi_read_ms = 0, vmi_read_bytes = 0, blocks_requested = 0,
           decompressed_bytes = 0, cache_hits = 0, guest_bytes = 0,
           cache_bytes = 0, base_bytes = 0, write_bytes = 0, io_s = 0,
           page_cache_hits = 0, page_cache_misses = 0, net_bytes = 0;
  };

  core::BootRequest Request(const VmInputs& vm, const BootTrace& trace,
                            const util::DataSource& base) const {
    const vmi::VmImage* image = vm.image.get();
    return core::BootRequest{
        .image_id = vm.name,
        .base_image = base,
        .trace = trace.reads,
        .writes = &trace.writes,
        .allocation =
            [image](std::uint64_t offset, std::uint64_t length) {
              return image->RangeHasData(offset, length);
            },
        .boot_config = boot_config_};
  }

  void BeginPhase() override {
    boot_ms_.clear();
    traced_ = {};
    boot_rng_ = boot_rng_start_;  // every phase replays the same boots
  }

  std::size_t PrimaryOps() const override { return boot_ms_.size(); }

  void Step(Tracer* tracer) override {
    const VmInputs& vm = vms_[boot_rng_.Below(vms_.size())];
    const BootTrace& trace = vm.traces[boot_rng_.Below(vm.traces.size())];
    const auto node = static_cast<std::uint32_t>(boot_rng_.Below(kNodes));
    const std::uint64_t op = ++op_counter_;
    const store::BlockStore& store =
        cluster_->compute_node(node).volume().block_store();
    const store::ReadStats before = store.read_stats();
    sim::IoContext io(io_config_);
    core::BootReport report;
    std::int32_t span_index = -1;
    std::uint64_t base_bytes = 0;
    const bool ok = TimedOp(ledger_, boot_ms_, "Boot", [&] {
      ScopedSpan span(tracer, "core.boot", op);
      span_index = span.index();
      if (tracer == nullptr) {
        report = cluster_->Boot(node, Request(vm, trace, *vm.image), io);
      } else {
        const TracedSource base(*vm.image, tracer, op);
        report = cluster_->Boot(node, Request(vm, trace, base), io);
        base_bytes = base.bytes();
      }
    });
    if (!ok) return;
    const store::ReadStats after = store.read_stats();
    const std::uint64_t requested = after.blocks_requested - before.blocks_requested;
    const std::uint64_t hits = after.cache_hits - before.cache_hits;
    if (warm_ ? (requested == 0 || hits != requested) : hits != 0) {
      ledger_.Violation("Boot " + vm.name + " on node " + std::to_string(node) +
                        ": " + std::to_string(hits) + " ARC hits of " +
                        std::to_string(requested) + " block reads");
    }
    if (report.network_bytes != 0) {
      ledger_.Violation("Boot " + vm.name + " pulled " +
                        std::to_string(report.network_bytes) + " network bytes");
    }
    const sim::BootResult& r = report.result;
    if (r.bytes_read != trace.read_bytes) {
      ledger_.Violation("Boot " + vm.name + " read " + std::to_string(r.bytes_read) +
                        " bytes of a " + std::to_string(trace.read_bytes) +
                        "-byte trace");
    }
    // A warm replica serves every guest read from the cache file: nothing
    // reaches the base image, and the cache layer serves whole clusters, so
    // at least the guest's bytes.
    if (r.base_bytes_read != 0 || r.cache_bytes_read < r.bytes_read) {
      ledger_.Violation("Boot " + vm.name + " read " +
                        std::to_string(r.base_bytes_read) + " base-image bytes and " +
                        std::to_string(r.cache_bytes_read) + " cache bytes of " +
                        std::to_string(r.bytes_read));
    }
    if (sim_boot_s_.size() < kSimOps) sim_boot_s_.push_back(r.seconds);
    if (tracer == nullptr) return;
    traced_.vmi_read_ms += tracer->ChildMs(span_index, "vmi.read");
    traced_.vmi_read_bytes += static_cast<double>(base_bytes);
    traced_.blocks_requested += static_cast<double>(requested);
    traced_.cache_hits += static_cast<double>(hits);
    traced_.decompressed_bytes +=
        static_cast<double>(after.decompressed_bytes - before.decompressed_bytes);
    traced_.guest_bytes += static_cast<double>(r.bytes_read);
    traced_.cache_bytes += static_cast<double>(r.cache_bytes_read);
    traced_.base_bytes += static_cast<double>(r.base_bytes_read);
    traced_.write_bytes += static_cast<double>(r.bytes_written);
    traced_.io_s += r.io_seconds;
    traced_.page_cache_hits += static_cast<double>(r.page_cache_hits);
    traced_.page_cache_misses += static_cast<double>(r.page_cache_misses);
    traced_.net_bytes += static_cast<double>(report.network_bytes);
  }

  bool warm_;
  std::uint64_t seed_;
  Ledger ledger_;
  std::unique_ptr<vmi::Catalog> catalog_;
  std::vector<VmInputs> vms_;
  util::Rng boot_rng_start_, boot_rng_;
  sim::IoContextConfig io_config_;
  sim::BootSimConfig boot_config_;
  std::unique_ptr<core::SquirrelCluster> cluster_;
  std::uint64_t op_counter_ = 0;

  std::vector<double> boot_ms_;
  std::vector<double> sim_boot_s_, setup_wire_bytes_;
  double disk_ratio_ = 0;
  Traced traced_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed, RunResult* result) {
  if (name == "register_churn") return std::make_unique<RegisterChurn>(seed, result);
  if (name == "boot_cold") return std::make_unique<BootWorkload>(false, seed, result);
  if (name == "boot_warm") return std::make_unique<BootWorkload>(true, seed, result);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace

RunResult RunWorkload(const RunOptions& options) {
  // Set-ups per untraced run behind the setup_s median.
  constexpr int kSetups = 3;

  RunResult result;
  Tracer tracer;
  HostSpeed speed;

  // Each set-up builds a fresh workload; the previous one is destroyed first
  // so that only one cluster is ever alive. The last one is measured.
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s, wall_setup_s, setup_slowness;
  for (int i = 0; i < (options.trace ? 1 : kSetups); ++i) {
    workload.reset();
    workload = MakeWorkload(options.workload, options.seed, &result);
    speed.Start();
    workload->Setup(options.trace ? &tracer : nullptr, speed);
    wall_setup_s.push_back(speed.WorkSeconds());
    setup_slowness.push_back(speed.Slowness());
    setup_s.push_back(wall_setup_s.back() / setup_slowness.back());
  }
  result.setup_s = Percentile(setup_s, 0.5);

  const double wall_s = workload->RunPhase(options.seconds, nullptr, speed);
  const double slowness = speed.Slowness();
  workload->Check();
  const EndToEnd untraced = workload->EndToEndFigures(wall_s);
  result.detail = workload->Detail();
  result.detail.insert(
      result.detail.end(),
      {{"wall_setup_s", Percentile(wall_setup_s, 0.5), "s"},
       {"setup_s_first", setup_s.front(), "s"},
       {"wall_ops_per_s", untraced.ops_per_s, "1/s"},
       {"wall_op_ms_p50", Percentile(untraced.op_ms, 0.5), "ms"},
       {"wall_op_ms_p90", Percentile(untraced.op_ms, 0.9), "ms"},
       {"host_slowness_setup", Percentile(setup_slowness, 0.5), "ratio"},
       {"host_slowness", slowness, "ratio"},
       {"host_samples", static_cast<double>(speed.samples()), "count"}});
  if (!options.trace) {
    result.metrics = EndToEndMetrics(result.setup_s, untraced, slowness);
    return result;
  }

  const double traced_wall_s = workload->RunPhase(options.seconds, &tracer, speed);
  const double traced_slowness = speed.Slowness();
  workload->Check();
  LayerFigures figures = workload->LayerFiguresOf(traced_wall_s);
  figures.vmi_setup_ms = tracer.FirstMs("vmi.setup");
  ProbeCodecAndHash(workload->ProbeVolume(), workload->LiveInputs(), figures);
  const double traced_ops_per_s =
      workload->EndToEndFigures(traced_wall_s).ops_per_s * traced_slowness;
  figures.trace_overhead_pct =
      100.0 * (untraced.ops_per_s * slowness / traced_ops_per_s - 1.0);
  result.metrics = PerLayerMetrics(figures);
  if (!options.spans_path.empty() && !tracer.WriteJsonLines(options.spans_path)) {
    throw std::runtime_error("cannot write spans to " + options.spans_path);
  }
  return result;
}

}  // namespace squirrel::perfbench
