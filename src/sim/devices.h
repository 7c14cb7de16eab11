// Chain devices bound to the simulation substrate.
//
// Each device implements cow::Device (or WritableDevice) and, when given an
// IoContext, charges the simulated costs of serving reads:
//
//   LocalFileDevice   a file on the node's local (XFS) file system: mostly
//                     sequential physical layout, page-cached reads.
//   VolumeFileDevice  a file inside a zvol::Volume (the ccVolume): per-block
//                     DDT lookup, page cache keyed by volume block, disk
//                     reads at the block's *physical* (scattered) offset,
//                     decompression CPU. Page-cache hits are served from the
//                     bytes an earlier read of the block returned.
//   RemoteImageDevice the base VMI behind the parallel file system: charges
//                     network transfer and counts the bytes Figure 18 plots.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cow/device.h"
#include "sim/io_context.h"
#include "sim/network.h"
#include "sim/profile_prefetch.h"
#include "util/source.h"
#include "vmi/boot_profile.h"
#include "zvol/volume.h"

namespace squirrel::sim {

/// A file on the node's local file system. The physical layout is modelled
/// as `disk_base + fragmentation`-perturbed logical offsets: extents of
/// `extent_bytes` stay contiguous, successive extents land a pseudo-random
/// short distance apart (XFS allocation groups).
class LocalFileDevice final : public cow::WritableDevice,
                              public PrefetchTarget {
 public:
  LocalFileDevice(const util::DataSource* content, IoContext* io,
                  std::uint64_t device_id, std::uint64_t disk_base,
                  std::uint32_t io_block = 64 * 1024);

  std::uint64_t size() const override { return content_->size(); }
  bool Present(std::uint64_t) const override { return true; }
  /// Charges, page-caches and records every block of the request, reads
  /// only the window from the content source.
  void ReadWindow(std::uint64_t offset, std::uint64_t length,
                  std::uint64_t skip, util::MutableByteSpan out) override;
  void WriteAt(std::uint64_t offset, util::ByteSpan data) override;

  /// Records every charged block touch into `profile` under `name`
  /// (hit = found in the page cache). Recording is pure bookkeeping: the
  /// clock, caches and counters are bit-identical with or without it.
  void SetProfileRecorder(vmi::BootProfile* profile, std::string name);

  /// PrefetchTarget: background-read one io_block (clamped at EOF) through
  /// the disk queue. Never advances the guest clock.
  PrefetchOutcome PrefetchBlock(std::uint64_t block) override;
  std::uint64_t device_id() const override { return device_id_; }

 private:
  std::uint64_t PhysicalOffset(std::uint64_t logical) const;
  /// Charged bytes of block `b`: io_block, clamped at the final partial
  /// block; 0 for blocks at or past EOF (never issue wrapped-around reads).
  std::uint64_t BlockLength(std::uint64_t b) const;

  const util::DataSource* content_;
  IoContext* io_;  // may be null (functional mode)
  std::uint64_t device_id_;
  std::uint64_t disk_base_;
  std::uint32_t io_block_;
  vmi::BootProfile* profile_ = nullptr;  // borrowed; null = not recording
  std::string profile_name_;
};

/// A sparse cache file on the local file system, populated by copy-on-read.
/// Present() consults the populated-cluster bitmap; contents are buffered in
/// memory (the simulation does not need them on disk).
class LocalCacheDevice final : public cow::WritableDevice {
 public:
  LocalCacheDevice(std::uint64_t logical_size, std::uint32_t cluster_size,
                   IoContext* io, std::uint64_t device_id,
                   std::uint64_t disk_base);

  std::uint64_t size() const override { return logical_size_; }
  bool Present(std::uint64_t offset) const override;
  /// Charges every cluster of the request; copies only the window.
  void ReadWindow(std::uint64_t offset, std::uint64_t length,
                  std::uint64_t skip, util::MutableByteSpan out) override;
  void WriteAt(std::uint64_t offset, util::ByteSpan data) override;

  std::uint64_t populated_bytes() const { return populated_bytes_; }

  /// Pre-populates from another device (a warm cache on plain XFS).
  void Warm(const util::DataSource& content,
            const std::vector<std::pair<std::uint64_t, std::uint64_t>>& ranges);

 private:
  std::uint64_t logical_size_;
  std::uint32_t cluster_size_;
  IoContext* io_;
  std::uint64_t device_id_;
  std::uint64_t disk_base_;
  std::unordered_map<std::uint64_t, util::Bytes> clusters_;
  std::uint64_t populated_bytes_ = 0;
  // Physical placement follows population order (CoR appends), which is why
  // a warm XFS cache reads back nearly sequentially.
  std::unordered_map<std::uint64_t, std::uint64_t> physical_;
  std::uint64_t alloc_cursor_ = 0;
};

/// A file stored in a zvol::Volume (Squirrel's ccVolume).
///
/// Presence is evaluated at `presence_window` granularity (the QCOW2 cluster
/// size by default): a cluster counts as cached when any volume block inside
/// it is materialized. Cache files are populated cluster-wise by
/// copy-on-read, so a cluster whose leading blocks happen to be zeros (file
/// system slack before a misaligned package) is still present; the zvol
/// stores those zeros as holes.
///
/// Page-cache hits are served from memory, as the simulated charges already
/// assume (DESIGN.md §21). With an IoContext, the device holds the store's
/// shared decompressed buffer of every block a read returned in full, with
/// the block's digest and in-file length, while the page cache holds that
/// block; with the ARC on, that is the ARC's own buffer, not a copy
/// (DESIGN.md §24). Everything but the copy covers the whole request
/// (cow/device.h): a ReadWindow whose request's non-hole blocks all hit the
/// page cache in its own accounting pass, and are all held under the digest
/// their BlockPtr carries now and at their current in-file length, copies
/// the window from the held bytes (zeros for holes and short-block tails)
/// and never reaches the volume; any other read fetches every block of the
/// request through the volume, which copies the window straight into the
/// caller's buffer, and holds the buffers that came back. Every read ends
/// by releasing the blocks the page cache no longer holds, so a device
/// never holds more than the blocks it had resident after its last read.
/// The simulated clock, caches and counters are the same either way; the
/// store's ReadStats see only the page-cache misses.
class VolumeFileDevice final : public cow::WritableDevice,
                               public PrefetchTarget {
 public:
  VolumeFileDevice(zvol::Volume* volume, std::string file, IoContext* io,
                   std::uint64_t device_id,
                   std::uint32_t presence_window = 64 * 1024);

  std::uint64_t size() const override;
  bool Present(std::uint64_t offset) const override;
  void ReadWindow(std::uint64_t offset, std::uint64_t length,
                  std::uint64_t skip, util::MutableByteSpan out) override;
  void WriteAt(std::uint64_t offset, util::ByteSpan data) override;

  /// Records every charged (non-hole) block touch into `profile` under this
  /// device's volume file name. Pure bookkeeping; see LocalFileDevice.
  void SetProfileRecorder(vmi::BootProfile* profile);

  /// PrefetchTarget: background-read one volume block at its *physical*
  /// offset through the disk queue. Holes, EOF and resident blocks skip.
  PrefetchOutcome PrefetchBlock(std::uint64_t block) override;
  std::uint64_t device_id() const override { return device_id_; }

  /// Warms the volume's decompressed-block ARC for the given volume blocks
  /// of this file by pushing their digests through BlockStore::GetBatch in
  /// ingest-sized rounds. Returns the number of blocks whose payloads are
  /// now cache-resident. Costs no simulated time: warming happens before
  /// the guest starts (the modelled prefetch daemon runs during VM
  /// scheduling). Corrupt blocks are skipped, not healed — run the pre-heal
  /// pass first on degraded volumes.
  std::uint64_t WarmCacheFromBlocks(std::span<const std::uint64_t> blocks);

  /// Tags every subsequent demand read, warm and pre-heal from this device
  /// with `tenant` (see store::TenantId): the VM behind this device is charged
  /// for the ARC residency its boot creates, which is what lets the cache
  /// controller partition budget per VM. Default 0 = untagged
  /// (single-tenant mode, bit-identical to the pre-tenant path).
  void SetTenant(store::TenantId tenant) { tenant_ = tenant; }
  store::TenantId tenant() const { return tenant_; }

  /// Degraded-read accounting: reads that hit a corrupt local block, the
  /// bytes re-fetched from the repair peers to heal them, and the repair
  /// session's Byzantine counters, refreshed after every heal.
  struct DegradedReadStats {
    std::uint64_t repair_reads = 0;    // reads that needed healing
    std::uint64_t repaired_bytes = 0;  // logical bytes fetched from peers
    std::uint64_t peers_blacklisted = 0;   // peers struck out for lying
    std::uint64_t resourced_blocks = 0;    // blocks healed from another peer
    std::uint64_t byzantine_rejected = 0;  // wrong payloads caught by digest
  };

  /// Arms degraded-mode boots: when the verified read path reports a corrupt
  /// local block, heal it on demand through a RepairSession over `peers`
  /// (tried in order, per-peer strike counters, Byzantine blacklisting) and
  /// retry the read. A one-peer list holding the storage node's scVolume
  /// (peer id 0) is the plain degraded boot. The serving peer's node id is
  /// unknown at this layer, so fetched bytes are charged to `network` (when
  /// set) as a transfer from node 0, the worst-case storage hop, to
  /// `node_id`. `faults` drives the Byzantine fault model; may be null.
  /// Without repair sources, corruption propagates as BlockCorruptionError.
  void SetRepairSources(std::vector<zvol::RepairPeer> peers,
                        NetworkAccountant* network, std::uint32_t node_id,
                        util::FaultInjector* faults);

  /// Pre-heal outcome: contiguous runs whose read had to fetch clean
  /// copies, and the bytes those fetches moved.
  struct PreHealStats {
    std::uint64_t repair_fetches = 0;
    std::uint64_t repaired_bytes = 0;
  };

  /// Pre-heal pass: reads the given volume blocks of this file (sorted
  /// ascending) in contiguous runs through the repair session, as this
  /// device's tenant, before the guest starts. A degraded replica fetches
  /// its clean copies now — off the boot's critical path — and the reads
  /// warm the decompressed-block ARC either way. Fetched bytes are charged
  /// to the repair network but not to the I/O clock (the modelled prefetch
  /// daemon overlaps VM scheduling) and not to degraded_stats(). Requires
  /// SetRepairSources.
  PreHealStats PreHealBlocks(std::span<const std::uint64_t> blocks);

  const DegradedReadStats& degraded_stats() const { return degraded_; }

  /// Decompressed payload bytes held for page-cache hits (see the class
  /// comment), whether or not the ARC shares them.
  std::uint64_t held_bytes() const;

 private:
  /// One volume block's shared decompressed payload, with the digest and
  /// in-file length it was read under.
  struct HeldBlock {
    util::Digest digest;
    std::uint64_t length = 0;
    util::SharedBytes payload;
  };

  /// Charged bytes of volume block `b` of `meta`: block size, clamped at
  /// the final partial block; 0 at or past EOF.
  std::uint64_t BlockLength(const zvol::FileMeta& meta, std::uint64_t b) const;
  /// If every non-hole block of the request [offset, offset + length) is
  /// held under its current digest and length, copies the window [offset +
  /// skip, offset + skip + out.size()) from held bytes and returns true;
  /// otherwise leaves `out` alone and returns false.
  bool ServeHeld(const zvol::FileMeta& meta, std::uint64_t offset,
                 std::uint64_t length, std::uint64_t skip,
                 util::MutableByteSpan out) const;
  /// Holds each page-cache-resident, non-hole block that the volume read of
  /// [offset, offset + length) covered in full, taking its payload from
  /// `fetched_`, which it then clears.
  void Hold(const zvol::FileMeta& meta, std::uint64_t offset,
            std::uint64_t length);
  /// Drops held blocks the page cache no longer holds.
  void ReleaseEvicted();

  zvol::Volume* volume_;
  std::string file_;
  IoContext* io_;
  std::uint64_t device_id_;
  std::uint32_t presence_window_;
  vmi::BootProfile* profile_ = nullptr;  // borrowed; null = not recording
  NetworkAccountant* repair_network_ = nullptr;
  std::uint32_t repair_node_id_ = 0;
  std::unique_ptr<zvol::RepairSession> repair_session_;
  DegradedReadStats degraded_;
  store::TenantId tenant_ = store::kDefaultTenant;
  std::unordered_map<std::uint64_t, HeldBlock> held_;  // by volume block
  // The shared payloads of the last volume read, one slot per block of its
  // request (ReadRangeInto's `blocks`); reused across reads.
  std::vector<util::SharedBytes> fetched_;
};

/// The base VMI served by the storage nodes over the data-center network.
class RemoteImageDevice final : public cow::Device {
 public:
  /// Reports whether a byte range of the backing image holds real data; a
  /// QCOW2-backed image exposes its allocation map, so reading unallocated
  /// ranges costs no network I/O. Leave unset for raw (fully allocated)
  /// backing files.
  using AllocationMap = std::function<bool(std::uint64_t, std::uint64_t)>;

  RemoteImageDevice(const util::DataSource* content, IoContext* io,
                    NetworkAccountant* network, std::uint32_t node_id,
                    AllocationMap allocation = {});

  std::uint64_t size() const override { return content_->size(); }
  bool Present(std::uint64_t) const override { return true; }
  /// Transfers and counts the whole request; reads only the window.
  void ReadWindow(std::uint64_t offset, std::uint64_t length,
                  std::uint64_t skip, util::MutableByteSpan out) override;
  bool Allocated(std::uint64_t offset, std::uint64_t length) const override {
    return !allocation_ || allocation_(offset, length);
  }

  std::uint64_t bytes_fetched() const { return bytes_fetched_; }

 private:
  const util::DataSource* content_;
  IoContext* io_;
  NetworkAccountant* network_;
  std::uint32_t node_id_;
  AllocationMap allocation_;
  std::uint64_t bytes_fetched_ = 0;
};

}  // namespace squirrel::sim
