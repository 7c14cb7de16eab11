// Boot working set: the byte ranges of a VMI that a VM reads while booting.
//
// A VMI cache is exactly the image content restricted to these ranges
// (Section 2.1 — the cache is populated copy-on-read during the first boot
// and then serves every block the boot process needs). Composition follows
// Section 4.3.1's rationale: kernel/bootloader and init services dominate
// and are release-wide identical; popular service packages contribute a
// slice that is content-shared but (for user-installed packages) misaligned;
// per-image config edits contribute a small unique tail.
// All ranges are aligned to 64 KiB cluster boundaries: the cache is
// populated copy-on-read through QCOW2, whose lower reads are whole
// clusters, so the materialized working set is the cluster-aligned closure
// of the raw reads (this is also why the paper's caches are "O(100 MB)" —
// they include the amplification).
#pragma once

#include <cstdint>
#include <vector>

#include "util/source.h"
#include "vmi/image.h"

namespace squirrel::vmi {

/// Cluster granularity of copy-on-read population (QCOW2's default).
inline constexpr std::uint64_t kBootClusterAlign = 64 * util::kKiB;

struct Range {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint64_t end() const { return offset + length; }
};

/// One read operation of the boot trace, in issue order.
struct BootRead {
  std::uint64_t offset = 0;
  std::uint32_t length = 0;
};

class BootWorkingSet {
 public:
  /// Derives the boot working set of `image` from the catalog's boot
  /// composition knobs. Deterministic per image; images of one release share
  /// the release-wide portion exactly.
  BootWorkingSet(const Catalog& catalog, const VmImage& image);

  /// Disjoint, sorted ranges.
  const std::vector<Range>& ranges() const { return ranges_; }

  /// Total bytes in the working set (the cache's nonzero size).
  std::uint64_t byte_count() const { return byte_count_; }

  bool Contains(std::uint64_t offset) const;

  /// The ordered reads a booting VM issues: bootloader and kernel first
  /// (sequential), then init-time reads in a deterministic interleaved
  /// order, split into 4-64 KiB requests.
  std::vector<BootRead> Trace(std::uint64_t trace_seed) const;

  /// The writes a boot performs (logs, /run, machine-id, tmp): small
  /// append-heavy bursts into the image's free space, roughly a tenth of
  /// the working set's bytes. These land in the CoW overlay; the chain
  /// copy-on-write fill must not touch the network for unallocated backing
  /// ranges (QCOW2 allocation-map semantics).
  std::vector<BootRead> WriteTrace(std::uint64_t trace_seed) const;

 private:
  const VmImage* image_ = nullptr;
  std::vector<Range> ranges_;
  std::uint64_t byte_count_ = 0;
  std::uint64_t kernel_end_ = 0;  // prefix [0, kernel_end_) is sequential
};

/// Sparse view of a VMI restricted to its boot working set — the content of
/// the VMI cache file that Squirrel stores in its cVolumes.
class CacheImage final : public util::DataSource {
 public:
  CacheImage(const VmImage& image, const BootWorkingSet& boot_set)
      : image_(&image), boot_set_(&boot_set) {}

  std::uint64_t size() const override { return image_->size(); }
  void Read(std::uint64_t offset, util::MutableByteSpan out) const override;

  /// True if [offset, offset+length) intersects a boot range where the
  /// image itself has data: bytes outside the boot set are cache holes,
  /// and inside it the cache holds the image's own (possibly sparse) bytes.
  bool RangeHasData(std::uint64_t offset, std::uint64_t length) const override;

 private:
  const VmImage* image_;
  const BootWorkingSet* boot_set_;
};

}  // namespace squirrel::vmi
