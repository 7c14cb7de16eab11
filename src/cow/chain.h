// Image chain: CoW overlay -> optional VMI cache (copy-on-read) -> base VMI.
//
// This reproduces Figure 1's three configurations:
//   * original copy-on-write:  Chain(cow, nullptr, base)
//   * cold cache (CoR):        Chain(cow, cache, base) with an empty cache
//   * warm cache:              Chain(cow, cache, base) with the cache
//                              populated from a previous boot / registration
//
// Lower-layer reads are issued in whole QCOW2 clusters, as real QCOW2 does —
// the request from the guest may be smaller, but the overlay's backing reads
// are (offset, cluster) shaped. This read amplification is what feeds the
// host page cache with soon-to-be-needed boot data (Section 4.2.3). Each
// lower-layer read is a cow::Device request for the whole cluster, which
// the layer charges, caches and counts in full, with the guest's part of
// the cluster as its window: only those bytes are copied (cow/device.h).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "cow/device.h"
#include "cow/qcow.h"

namespace squirrel::cow {

/// Which layer ultimately served a cluster.
enum class ReadSource { kCowOverlay, kCache, kBase };

struct ReadEvent {
  ReadSource source;
  std::uint64_t offset;       // cluster-aligned for cache/base reads
  std::uint32_t length;       // full cluster length for cache/base reads
  bool cor_fill = false;      // this cluster was also written into the cache
};

using ReadObserver = std::function<void(const ReadEvent&)>;

class Chain {
 public:
  /// `cache` may be null (plain CoW). `base` must not be null. Ownership
  /// stays with the caller. `copy_on_read` controls whether base reads
  /// populate the cache.
  Chain(QcowOverlay* cow, WritableDevice* cache, Device* base,
        bool copy_on_read);

  std::uint64_t size() const { return base_->size(); }

  /// Guest read of [offset, offset + out.size()) into `out`. Each touched
  /// cluster is served by the topmost layer that holds it; base reads
  /// optionally populate the cache (CoR). The lower layers get the whole
  /// cluster as the request and the guest's part of it as the window, which
  /// they write straight into `out`; only a copy-on-read fill of a partial
  /// cluster goes through the scratch cluster, since the cache needs all of
  /// it. Byte counters and observer events count whole clusters.
  void ReadInto(std::uint64_t offset, util::MutableByteSpan out);

  /// ReadInto a new buffer of `length` bytes.
  util::Bytes Read(std::uint64_t offset, std::uint64_t length);

  /// Guest write: copy-on-write into the overlay (fetches the cluster from
  /// the lower layers into the overlay's new cluster first).
  void Write(std::uint64_t offset, util::ByteSpan data);

  void set_observer(ReadObserver observer) { observer_ = std::move(observer); }

  std::uint64_t base_bytes_read() const { return base_bytes_read_; }
  std::uint64_t cache_bytes_read() const { return cache_bytes_read_; }

 private:
  /// Serves cluster `cluster_index` whole from cache/base (cluster_size
  /// bytes, or less for the image tail) and writes its bytes [skip, skip +
  /// out.size()) into `out`. Returns the serving source.
  ReadSource FetchClusterFromBelow(std::uint64_t cluster_index,
                                   std::uint64_t skip,
                                   util::MutableByteSpan out);

  QcowOverlay* cow_;
  WritableDevice* cache_;
  Device* base_;
  bool copy_on_read_;
  ReadObserver observer_;
  // One cluster of scratch for copy-on-read fills of partial clusters, made
  // only for a copy-on-read chain with a cache, reused by every such read
  // and never zero-filled: the base read overwrites every byte used.
  std::unique_ptr<util::Byte[]> cluster_buffer_;
  std::uint64_t base_bytes_read_ = 0;
  std::uint64_t cache_bytes_read_ = 0;
};

}  // namespace squirrel::cow
