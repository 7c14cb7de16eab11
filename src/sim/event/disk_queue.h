// io_uring-style asynchronous disk queue over the rotational DiskModel,
// driven by the discrete-event engine.
//
// Every simulated disk read is charged here: IoContext owns one queue per
// node and submits demand reads, batched reads and readahead to it. The
// queue gives the disk its own timeline, so the disk can work while the
// guest computes:
//
//   submission   the guest submits a read at its current clock; at most
//                `depth` requests are outstanding (submission stalls when the
//                queue is full — the flow control of a bounded SQ);
//   service      when the device is idle it picks the next request — FIFO,
//                or nearest-offset-first ("elevator") among the queued window
//                when enabled — and merges queued requests that are exactly
//                adjacent on disk into one physical op (ZFS/iosched request
//                coalescing), charging DiskModel once for the merged extent;
//   completion   every member of a merged op completes when the op does;
//                completions are observed out of submission order whenever
//                the elevator reorders.
//
// At depth 1 the single-slot queue admits one request at a time, FIFO, with
// nothing else queued to coalesce or reorder past: with no prefetch in
// flight, a request starts at the submitter's clock and completes
// `DiskModel::Read` ns later, so a submit-and-wait adds exactly that cost
// to the clock.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "sim/disk_model.h"
#include "sim/event/event_loop.h"

namespace squirrel::sim::event {

struct DiskQueueConfig {
  /// Maximum outstanding requests (submitted, not yet completed). Submit
  /// stalls the submitter when full; TrySubmit drops instead. Must be >= 1.
  std::uint32_t depth = 1;
  /// Merge queued requests exactly adjacent to the serviced extent into one
  /// physical op, up to this many bytes per op. 0 disables coalescing.
  std::uint64_t max_coalesce_bytes = 1ull << 20;
  /// Service nearest-offset-first among the queued window instead of FIFO.
  bool elevator = true;
};

struct DiskQueueStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t physical_ops = 0;       // DiskModel charges issued
  std::uint64_t coalesced = 0;          // requests folded into another op
  std::uint64_t reordered = 0;          // serviced ahead of an older request
  std::uint64_t submit_stalls = 0;      // Submits that found the queue full
  std::uint64_t prefetch_drops = 0;     // TrySubmits dropped (queue full)
  double busy_ns = 0.0;                 // device time spent servicing
};

using RequestId = std::uint64_t;
inline constexpr RequestId kInvalidRequest = 0;

class AsyncDiskQueue {
 public:
  /// `disk` and `loop` are borrowed; the queue mutates the disk's head/stat
  /// state in service order and schedules its events on the loop.
  AsyncDiskQueue(DiskModel* disk, EventLoop* loop, DiskQueueConfig config);

  /// Submits a read at the submitter's clock `submit_ns`. If the queue is
  /// full, stalls (runs the loop) until a slot frees — the admission then
  /// happens at the freeing completion's time.
  RequestId Submit(double submit_ns, std::uint64_t offset,
                   std::uint64_t length);

  /// Non-stalling submit for prefetch: returns kInvalidRequest when the
  /// queue is full (the readahead is simply dropped, as a saturated device
  /// drops readahead in practice).
  RequestId TrySubmit(double submit_ns, std::uint64_t offset,
                      std::uint64_t length);

  /// Runs the loop until `id` completes and returns its completion time.
  double CompletionNs(RequestId id);

  /// Completes all outstanding requests; returns the last completion time
  /// (or the loop's current time when idle).
  double Drain();

  std::uint32_t outstanding() const {
    return static_cast<std::uint32_t>(queued_.size() + in_service_.size());
  }
  const DiskQueueStats& stats() const { return stats_; }
  const DiskQueueConfig& config() const { return config_; }

 private:
  struct Request {
    RequestId id;
    std::uint64_t offset;
    std::uint64_t length;
  };

  void Admit(std::uint64_t offset, std::uint64_t length, RequestId id);
  void MaybeStartService();

  DiskModel* disk_;
  EventLoop* loop_;
  DiskQueueConfig config_;
  RequestId next_id_ = 1;
  std::deque<Request> queued_;          // admitted, awaiting service
  std::vector<Request> in_service_;     // members of the op on the platter
  bool busy_ = false;
  std::unordered_map<RequestId, double> completed_;  // id -> completion ns
  DiskQueueStats stats_;
};

}  // namespace squirrel::sim::event
