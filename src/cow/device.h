// Block-device abstraction for image chains.
//
// A chain layer (CoW image, VMI cache, base VMI) exposes presence at byte
// offsets and cluster-wise reads. Devices are not const-read: reads may
// update internal accounting or simulated caches.
//
// Every read names a *request* and a *window*. The request is the byte
// range [offset, offset + length) the layer serves: it charges, caches,
// counts and records the whole request, exactly as if the caller had asked
// for all of it. The window is [offset + skip, offset + skip + out.size()),
// a sub-range of the request, and is the only part written into `out`.
// QCOW2 issues whole-cluster requests to the lower layers while the guest
// asked for a few KiB of the cluster; the window lets a layer charge the
// cluster and copy only the guest's bytes.
#pragma once

#include <cstdint>

#include "util/bytes.h"

namespace squirrel::cow {

class Device {
 public:
  virtual ~Device() = default;

  virtual std::uint64_t size() const = 0;

  /// True if this layer can serve the byte at `offset` itself.
  virtual bool Present(std::uint64_t offset) const = 0;

  /// Serves the request [offset, offset + length) and writes its window
  /// [offset + skip, offset + skip + out.size()) into `out`; requires
  /// skip + out.size() <= length. The caller guarantees the request is
  /// present (chains check Present first, the bottom layer is always
  /// present). Every byte of `out` is written; nothing outside it is.
  virtual void ReadWindow(std::uint64_t offset, std::uint64_t length,
                          std::uint64_t skip, util::MutableByteSpan out) = 0;

  /// Whole-request read of [offset, offset + out.size()).
  void ReadAt(std::uint64_t offset, util::MutableByteSpan out) {
    ReadWindow(offset, out.size(), 0, out);
  }

  /// True if any byte of [offset, offset+length) is backed by real data.
  /// QCOW2 reads unallocated backing ranges as zeros without any I/O; the
  /// chain consults this before fetching from the base. Default: allocated
  /// (raw, fully-allocated devices).
  virtual bool Allocated(std::uint64_t offset, std::uint64_t length) const {
    (void)offset;
    (void)length;
    return true;
  }
};

/// A device that also accepts writes (CoW top layers, CoR cache layers).
class WritableDevice : public Device {
 public:
  virtual void WriteAt(std::uint64_t offset, util::ByteSpan data) = 0;
};

}  // namespace squirrel::cow
