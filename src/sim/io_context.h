// Shared I/O simulation state for one compute node: a simulated clock, the
// node's local disk, its page cache, and CPU cost accounting.
//
// Every disk read flows through the node's event-driven AsyncDiskQueue
// (sim/event/disk_queue.h), which gives the disk its own timeline: the guest
// clock advances to a request's completion only when it consumes the data,
// so readahead issued ahead of consumption overlaps with guest CPU (the ZFS
// behaviour behind the paper's Fig 11). At the default depth of 1 with no
// readahead the queue serves one request at a time, so each read advances
// the clock by exactly its DiskModel cost; deeper queues add coalescing and
// elevator ordering.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>

#include "sim/disk_model.h"
#include "sim/event/disk_queue.h"
#include "sim/event/event_loop.h"
#include "sim/page_cache.h"

namespace squirrel::sim {

struct IoContextConfig {
  DiskModelConfig disk{};
  /// Page cache budget available to the boot path. DAS-4 nodes have 24 GB,
  /// but a loaded compute node leaves far less for one VM's backing reads.
  std::uint64_t page_cache_bytes = 2ull << 30;
  /// Dedup-table lookup cost: base plus a term growing with table size
  /// (hash-walk plus the chance of an ARC miss on a cold DDT leaf).
  double ddt_lookup_base_ns = 2000.0;
  double ddt_lookup_per_log2_entry_ns = 400.0;
  /// Disk queue depth: requests outstanding at once. Must be >= 1; the
  /// IoContext constructor throws std::invalid_argument on 0.
  std::uint32_t disk_queue_depth = 1;
  /// Device-level readahead: blocks prefetched past each read. Prefetches
  /// never stall the guest and are dropped when the queue is full.
  std::uint32_t readahead_blocks = 0;
};

/// Adapts the I/O cost model to a linearly downscaled dataset: a byte
/// distance of d between scaled offsets corresponds to d / dataset_scale on
/// the real disk, so the seek-distance tiers (and the page-cache budget)
/// shrink by the same factor. Offsets themselves stay in scaled space, which
/// preserves contiguity of adjacent blocks.
inline IoContextConfig ScaledIoConfig(double dataset_scale,
                                      IoContextConfig config = {}) {
  config.disk.track_distance = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             static_cast<double>(config.disk.track_distance) * dataset_scale));
  config.disk.short_distance = std::max<std::uint64_t>(
      config.disk.track_distance + 1,
      static_cast<std::uint64_t>(
          static_cast<double>(config.disk.short_distance) * dataset_scale));
  // Clamp to one page, mirroring the distance-tier guards: at deep
  // downscales the budget would otherwise truncate to 0 bytes and silently
  // disable the page cache (a disabled cache is a modelling decision, not a
  // rounding artifact).
  config.page_cache_bytes = std::max<std::uint64_t>(
      4096, static_cast<std::uint64_t>(
                static_cast<double>(config.page_cache_bytes) * dataset_scale));
  return config;
}

class IoContext {
 public:
  explicit IoContext(IoContextConfig config = {});
  IoContext(const IoContext&) = delete;
  IoContext& operator=(const IoContext&) = delete;

  DiskModel& disk() { return disk_; }
  PageCache& page_cache() { return page_cache_; }
  const IoContextConfig& config() const { return config_; }

  void ChargeNs(double ns) { clock_ns_ += ns; }
  /// One read submitted to the disk queue and waited for: the guest clock
  /// advances to its completion.
  void ChargeDiskRead(std::uint64_t offset, std::uint64_t length);
  void ChargeDdtLookup(std::uint64_t table_entries);

  double elapsed_ns() const { return clock_ns_; }
  double elapsed_seconds() const { return clock_ns_ / 1e9; }

  // --- disk queue ------------------------------------------------------------

  event::AsyncDiskQueue* disk_queue() { return &disk_queue_; }

  /// One read of the batched submit/reap path. `cpu_ns` is charged after the
  /// request's completion barrier (decompression of that block); `cookie` is
  /// handed back through `on_complete` (page-cache bookkeeping).
  struct AsyncRead {
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    double cpu_ns = 0.0;
    std::uint64_t cookie = 0;
  };

  /// Batched submit/reap: issues `reads` through the queue in windows of the
  /// configured depth and consumes completions in completion order — the
  /// guest clock advances to each completion (max), then pays that read's
  /// CPU. At depth 1 each read is charged in full before the next starts.
  void ChargeAsyncReadBatch(
      std::span<const AsyncRead> reads,
      const std::function<void(std::uint64_t cookie)>& on_complete);

  /// Issues a background prefetch for (device, block); never advances the
  /// guest clock. Returns false when dropped (queue full).
  bool PrefetchDiskRead(std::uint64_t device, std::uint64_t block,
                        std::uint64_t offset, std::uint64_t length);

  /// True while a prefetch for (device, block) has not been consumed.
  bool InFlight(std::uint64_t device, std::uint64_t block) const;

  /// Consumes an in-flight prefetch: the guest clock advances to its
  /// completion (a no-op if it already completed in the past) and the entry
  /// is retired. Returns the completion time.
  double JoinInFlight(std::uint64_t device, std::uint64_t block);

 private:
  struct BlockKey {
    std::uint64_t device;
    std::uint64_t block;
    bool operator==(const BlockKey&) const = default;
  };
  struct BlockKeyHasher {
    std::size_t operator()(const BlockKey& k) const noexcept {
      return static_cast<std::size_t>((k.device * 0x9e3779b97f4a7c15ULL) ^
                                      (k.block * 0xff51afd7ed558ccdULL));
    }
  };

  IoContextConfig config_;
  DiskModel disk_;
  PageCache page_cache_;
  double clock_ns_ = 0.0;
  event::EventLoop loop_;
  event::AsyncDiskQueue disk_queue_;
  std::unordered_map<BlockKey, event::RequestId, BlockKeyHasher> in_flight_;
};

}  // namespace squirrel::sim
