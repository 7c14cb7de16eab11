// QCOW2-like cluster-mapped overlay image.
//
// The guest-visible address space is divided into clusters (64 KiB by
// default, QCOW2's cluster size). A cluster is either unallocated (reads
// fall through to the backing chain) or allocated in this overlay. Writes
// allocate the target cluster, first filling it from below (copy-on-write).
//
// The same structure doubles as the copy-on-read cache layer: the chain
// populates whole clusters into it as they are read from the base.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "cow/device.h"

namespace squirrel::cow {

inline constexpr std::uint32_t kDefaultClusterSize = 64 * 1024;

class QcowOverlay final : public WritableDevice {
 public:
  QcowOverlay(std::uint64_t logical_size, std::uint32_t cluster_size);

  std::uint64_t size() const override { return logical_size_; }
  bool Present(std::uint64_t offset) const override;
  /// The overlay charges nothing, so only the window is read; every cluster
  /// it touches must be allocated.
  void ReadWindow(std::uint64_t offset, std::uint64_t length,
                  std::uint64_t skip, util::MutableByteSpan out) override;
  void WriteAt(std::uint64_t offset, util::ByteSpan data) override;

  std::uint32_t cluster_size() const { return cluster_size_; }
  std::uint64_t allocated_clusters() const { return clusters_.size(); }
  std::uint64_t allocated_bytes() const {
    return allocated_clusters() * cluster_size_;
  }

  bool ClusterPresent(std::uint64_t index) const {
    return clusters_.contains(index);
  }

  /// Allocates cluster `index` (copy-on-write population) and has `fill`
  /// write its first `length` bytes in place, which must be one cluster
  /// except for the final tail cluster of the image; the bytes past
  /// `length` read as zeros. Nothing is zero-filled that `fill` overwrites,
  /// and the cluster is installed only once `fill` returns, so a fetch that
  /// throws leaves the overlay as it was.
  void InstallCluster(std::uint64_t index, std::uint64_t length,
                      const std::function<void(util::MutableByteSpan)>& fill);

 private:
  /// A cluster buffer whose bytes outside [from, to) are zero; the caller
  /// writes [from, to).
  std::unique_ptr<util::Byte[]> NewCluster(std::uint64_t from,
                                           std::uint64_t to) const;

  std::uint64_t logical_size_;
  std::uint32_t cluster_size_;
  std::unordered_map<std::uint64_t, std::unique_ptr<util::Byte[]>> clusters_;
};

}  // namespace squirrel::cow
