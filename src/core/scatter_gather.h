// Scatter-gather replication transfers: one send stream fanning out from the
// storage node to N receivers, with retries (§3.2/§3.5 must survive node
// churn — a dropped diff is retried, not lost).
//
// Delivery is event-driven. The caller's distribution strategy has already
// charged the first attempt, so only retry tails play out here: a faulted
// attempt backs off, then resumes at record granularity. Each resume is cut
// into 256 KiB chunks, each receiver keeps at most `window` chunks in
// flight, and all chunks serialize through the sender's egress link (FIFO).
// Backoffs and fault delays elapse as event-loop delays, so per-node retries
// overlap and the makespan reflects sender-link contention instead of
// assuming every resume gets the full link. Window 1 is one chunk in flight
// per receiver, not a separate model.
//
// TransferStats reports the overlap attained: makespan_seconds is the fan
// out's critical path, overlap_seconds = sum(per-node tails) - makespan.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/network.h"
#include "util/fault_injector.h"
#include "zvol/send_stream.h"

namespace squirrel::core {

/// Capped exponential backoff with deterministic jitter for replication
/// transfers. attempt 1 is the initial transfer; retries are attempts 2..n.
struct RetryPolicy {
  std::uint32_t max_attempts = 4;
  double base_seconds = 0.5;  // backoff before attempt 2
  double max_seconds = 8.0;   // cap on the exponential
  /// Fractional jitter in [0, jitter): each wait is scaled by (1 + u) with u
  /// drawn deterministically from (seed, node, transfer, attempt).
  double jitter = 0.1;
  std::uint64_t seed = 0x5171e77ull;  // jitter schedule seed
};

/// Deterministic backoff before `attempt` (>= 2) of a transfer to `node`.
/// Pure function of its arguments — the schedule tests replay it exactly.
double BackoffSeconds(const RetryPolicy& policy, std::uint32_t node,
                      std::uint64_t transfer_id, std::uint32_t attempt);

/// Per-report transfer reliability accounting, aggregated over receivers.
struct TransferStats {
  std::uint64_t attempts = 0;            // total delivery attempts
  std::uint64_t retries = 0;             // attempts beyond each node's first
  std::uint64_t abandoned = 0;           // nodes given up on (sync later)
  std::uint64_t retransmitted_bytes = 0; // wire bytes re-sent by retries
  double backoff_seconds = 0.0;          // summed deterministic waits
  /// Fan-out critical path (retry tails). Never negative: clamped at
  /// accumulation so float cancellation cannot leak a negative duration.
  double makespan_seconds = 0.0;
  /// Receiver-seconds absorbed by running retry tails concurrently:
  /// sum of per-node tails minus the makespan. 0 when nothing retried;
  /// clamped non-negative like makespan_seconds.
  double overlap_seconds = 0.0;
  /// Stream applies killed mid-Receive by an injected crash (the node's
  /// transactional apply rolled back or resumed idempotently on retry).
  std::uint64_t crashed_applies = 0;
};

struct ScatterGatherConfig {
  /// Per-receiver flow-control window: chunks a receiver may have in flight.
  /// Must be >= 1.
  std::uint32_t window = 1;
};

/// Outcome of one receiver's delivery.
struct ReceiverOutcome {
  std::uint32_t node_id = 0;
  bool delivered = false;
  /// This node's retry tail: seconds from the end of the shared
  /// distribution until it was delivered or abandoned. 0 without faults.
  double seconds = 0.0;
};

struct ScatterGatherResult {
  std::vector<ReceiverOutcome> outcomes;  // in `nodes` order
  double makespan_seconds = 0.0;          // longest tail / last event
  double sum_seconds = 0.0;               // Σ per-node tails
};

class ScatterGatherTransfer {
 public:
  /// `network` is borrowed and charged for every retransmission; `faults`
  /// may be null (every first attempt then succeeds and no events fire).
  /// Throws std::invalid_argument when `config.window` is 0.
  ScatterGatherTransfer(sim::NetworkAccountant* network,
                        util::FaultInjector* faults, const RetryPolicy& retry,
                        ScatterGatherConfig config);

  /// Delivers `stream` (pre-serialized as `wire_size` wire bytes, already
  /// charged by the caller's distribution strategy) to every node in
  /// `nodes`, retrying independently per node. Accumulates into `stats`.
  ScatterGatherResult Run(const zvol::SendStream& stream,
                          std::uint64_t wire_size,
                          const std::vector<std::uint32_t>& nodes,
                          std::uint64_t transfer_id, TransferStats& stats);

 private:
  sim::NetworkAccountant* network_;
  util::FaultInjector* faults_;
  RetryPolicy retry_;
  ScatterGatherConfig config_;
};

}  // namespace squirrel::core
