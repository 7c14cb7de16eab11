// VmImage: a virtual, sparse VM disk image materialized on demand.
//
// The image never exists as a byte array; Read() resolves the queried range
// against an extent map (base / packages / user data over shared corpora),
// then applies the image's delta patches. Identical corpus ranges at
// identical block phases across images are what deduplication later finds.
//
// Layout of the logical address space:
//   [0, kernel_reserve)                  kernel/initrd/bootloader: the only
//                                        contiguous part of the base
//   [pkg_area ...)                       packages (release-standard fixed
//                                        offsets, or per-image misaligned)
//   [user_area, user_area + user_bytes)  per-image user data
//   wide zone (rest of the disk)         the remaining base content,
//                                        scattered as fragments across the
//                                        whole virtual disk — OS files are
//                                        spread over the guest file system,
//                                        which is why booting from the VMI
//                                        itself pays long seeks while the
//                                        compact cache file does not
//   everything else                      zeros (sparse)
//
// Fragment positions are derived from the release seed (identical for every
// image of a release, 64 KiB-quantized), so scattering changes seek
// geometry without disturbing the deduplication structure.
#pragma once

#include <cstdint>
#include <vector>

#include "util/source.h"
#include "vmi/catalog.h"

namespace squirrel::vmi {

struct Extent {
  std::uint64_t logical_offset = 0;
  std::uint64_t length = 0;
  std::uint64_t corpus_seed = 0;
  std::uint64_t corpus_offset = 0;
};

/// A small per-image modification inside the base area (config edits,
/// machine ids, log files) — content unique to the image.
struct Patch {
  std::uint64_t logical_offset = 0;
  std::uint32_t length = 0;
  std::uint64_t seed = 0;
};

class VmImage final : public util::DataSource {
 public:
  VmImage(const Catalog& catalog, const ImageSpec& spec);

  std::uint64_t size() const override { return logical_size_; }
  void Read(std::uint64_t offset, util::MutableByteSpan out) const override;

  const ImageSpec& spec() const { return *spec_; }
  const Release& release() const { return *release_; }
  const std::vector<Extent>& extents() const { return extents_; }
  const std::vector<Patch>& patches() const { return patches_; }

  /// Sum of extent lengths — bytes that are not sparse zeros.
  std::uint64_t nonzero_bytes() const { return nonzero_bytes_; }

  /// True if [offset, offset+length) intersects any content extent — the
  /// sparse-allocation map QCOW2 consults before reading a backing range,
  /// and the hole map ingest consults before reading a block. Patches lie
  /// inside extents, so a range with no extent reads as zeros.
  bool RangeHasData(std::uint64_t offset, std::uint64_t length) const override;

  /// Logical offset where each chosen package landed (same order as
  /// spec().packages); the boot set builder reads service prefixes there.
  const std::vector<std::uint64_t>& package_offsets() const {
    return package_offsets_;
  }

  /// Contiguous kernel/initrd prefix length ([0, reserve) is patch-free and
  /// release-identical).
  std::uint64_t kernel_reserve_bytes() const { return kernel_reserve_; }

  /// Translates an offset in base-content space ([0, base_bytes)) to the
  /// logical disk offset where that content lives (identity inside the
  /// kernel reserve, fragment-mapped beyond it).
  std::uint64_t BaseContentToLogical(std::uint64_t content_offset) const;

  std::uint64_t base_fragment_length() const { return fragment_length_; }

  /// A guaranteed-sparse region where boot-time writes (logs, tmp) land:
  /// no extent intersects it in either layout mode.
  std::uint64_t scratch_offset() const { return scratch_offset_; }
  std::uint64_t scratch_length() const { return scratch_length_; }

 private:
  const Catalog* catalog_;
  const ImageSpec* spec_;
  const Release* release_;
  std::vector<Extent> extents_;   // sorted by logical_offset, disjoint
  std::vector<Patch> patches_;    // sorted by logical_offset
  std::vector<std::uint64_t> package_offsets_;
  std::vector<std::uint64_t> fragment_offsets_;  // wide-zone base fragments
  std::uint64_t fragment_length_ = 1;
  std::uint64_t kernel_reserve_ = 0;
  std::uint64_t scratch_offset_ = 0;
  std::uint64_t scratch_length_ = 0;
  std::uint64_t nonzero_bytes_ = 0;
  std::uint64_t logical_size_ = 0;  // >= spec logical size if layout overflows
};

}  // namespace squirrel::vmi
