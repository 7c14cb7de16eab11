// Rotational-disk cost model (DAS-4 nodes: two 7200 RPM SATA disks in
// software RAID-0).
//
// The model charges a distance-dependent positioning cost plus transfer
// time. Distance sensitivity is what makes deduplicated volumes slower at
// small block sizes (Fig 11): logically adjacent blocks of a deduplicated
// file live at scattered physical offsets, so each block read pays a
// positioning cost, while blocks that were allocated together (written in
// one registration) sit close and pay near-track costs.
#pragma once

#include <cstdint>

namespace squirrel::sim {

struct DiskModelConfig {
  // RAID-0 of two 7200rpm SATA disks: ~200 MB/s sequential.
  double sequential_bytes_per_ns = 200.0 * 1e6 / 1e9;  // 0.2 B/ns
  // Positioning cost tiers by seek distance.
  double track_seek_ns = 0.25e6;   // < 1 MiB away ("same neighbourhood")
  double short_seek_ns = 2.0e6;    // < 256 MiB away
  double long_seek_ns = 6.0e6;     // elsewhere (incl. rotational latency)
  std::uint64_t track_distance = 1ull << 20;
  std::uint64_t short_distance = 256ull << 20;
};

class DiskModel {
 public:
  explicit DiskModel(DiskModelConfig config = {}) : config_(config) {}

  /// Cost in ns of reading `length` bytes at `offset`, given the current
  /// head position; advances the head. Called by the AsyncDiskQueue, which
  /// charges every simulated disk read (writes are flushed in the
  /// background and cost nothing).
  double Read(std::uint64_t offset, std::uint64_t length);

  std::uint64_t bytes_read() const { return bytes_read_; }
  std::uint64_t seeks() const { return seeks_; }
  /// Current head position (after the last Read). The async disk queue's
  /// elevator orders queued requests by distance from here.
  std::uint64_t head() const { return head_; }

 private:
  DiskModelConfig config_;
  std::uint64_t head_ = 0;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t seeks_ = 0;
};

}  // namespace squirrel::sim
