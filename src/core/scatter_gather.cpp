#include "core/scatter_gather.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <stdexcept>
#include <utility>

#include "sim/event/event_loop.h"
#include "util/rng.h"

namespace squirrel::core {
namespace {

// Retransmission chunk: the unit a receiver's window counts and the sender
// link serializes.
constexpr std::uint64_t kChunkBytes = 256 * 1024;

// Wire bytes needing retransmission after a faulted attempt. `progress` is
// the fraction of payload records that arrived intact — their per-record
// checksums let the receiver keep them, so the retry resumes at record
// granularity: headers and every record from the first unverified one on.
std::uint64_t ResumeBytes(const zvol::SendStream& stream,
                          std::uint64_t wire_size, double progress) {
  std::size_t payload_records = 0;
  for (const auto& f : stream.files) {
    for (const auto& b : f.blocks) {
      if (b.has_payload) ++payload_records;
    }
  }
  const auto kept = static_cast<std::size_t>(
      progress * static_cast<double>(payload_records));
  std::uint64_t kept_bytes = 0;
  std::size_t seen = 0;
  for (const auto& f : stream.files) {
    for (const auto& b : f.blocks) {
      if (!b.has_payload) continue;
      if (seen++ == kept) return wire_size - std::min(wire_size, kept_bytes);
      kept_bytes += b.payload.size();
    }
  }
  return wire_size - std::min(wire_size, kept_bytes);
}

}  // namespace

double BackoffSeconds(const RetryPolicy& policy, std::uint32_t node,
                      std::uint64_t transfer_id, std::uint32_t attempt) {
  if (attempt < 2) return 0.0;
  double wait = policy.base_seconds;
  for (std::uint32_t k = 2; k < attempt && wait < policy.max_seconds; ++k) {
    wait *= 2.0;
  }
  wait = std::min(wait, policy.max_seconds);
  // Deterministic jitter: each (node, transfer, attempt) draws its own
  // scale from an independent child generator, so schedules replay exactly
  // and synchronized retries from many nodes still decorrelate.
  const std::uint64_t key[3] = {node, transfer_id, attempt};
  const std::uint64_t mixed = util::Fnv1a64(
      util::ByteSpan(reinterpret_cast<const util::Byte*>(key), sizeof(key)));
  util::Rng rng(policy.seed ^ mixed);
  return wait * (1.0 + policy.jitter * rng.NextDouble());
}

ScatterGatherTransfer::ScatterGatherTransfer(sim::NetworkAccountant* network,
                                             util::FaultInjector* faults,
                                             const RetryPolicy& retry,
                                             ScatterGatherConfig config)
    : network_(network), faults_(faults), retry_(retry), config_(config) {
  if (config_.window == 0) {
    throw std::invalid_argument("scatter-gather window must be >= 1");
  }
}

ScatterGatherResult ScatterGatherTransfer::Run(
    const zvol::SendStream& stream, std::uint64_t wire_size,
    const std::vector<std::uint32_t>& nodes, std::uint64_t transfer_id,
    TransferStats& stats) {
  // Per receiver: a retry state machine whose backoffs and fault delays
  // elapse on the loop; retransmissions are cut into kChunkBytes chunks, at
  // most `window` in flight per receiver, all serialized through the
  // sender's egress link in FIFO order. Everything is scheduled in ns of
  // simulated time starting at 0 (the shared distribution already happened;
  // only retry tails play out here).
  struct NodeRun {
    std::uint32_t node_id = 0;
    std::uint32_t attempt = 0;
    std::uint64_t chunks_left = 0;   // not yet enqueued on the link
    std::uint64_t chunks_unacked = 0;  // enqueued or on the wire
    std::uint64_t tail_len = 0;  // final chunk remainder
    bool delivered = false;
    double finish_ns = 0.0;
  };

  sim::event::EventLoop loop;
  std::vector<NodeRun> runs(nodes.size());
  std::deque<std::pair<std::size_t, std::uint64_t>> link;  // (run, bytes)
  bool link_busy = false;
  const std::uint32_t max_attempts =
      std::max<std::uint32_t>(1, retry_.max_attempts);

  // Mutually recursive via std::function: attempt outcome -> retry with
  // chunked resume -> link service -> attempt outcome.
  std::function<void(std::size_t)> settle_attempt;
  std::function<void(std::size_t)> start_attempt;

  // Puts the next queued chunk on the idle link; its completion frees a
  // window slot for the same receiver.
  auto serve_chunk = [&] {
    link_busy = true;
    const auto [ri, bytes] = link.front();
    link.pop_front();
    const double cost = network_->Transfer(0, runs[ri].node_id, bytes);
    loop.ScheduleAfter(cost, "sg-chunk", [&, ri] {
      link_busy = false;
      NodeRun& run = runs[ri];
      --run.chunks_unacked;
      if (run.chunks_left > 0) {
        --run.chunks_left;
        ++run.chunks_unacked;
        link.emplace_back(ri, run.chunks_left == 0 && run.tail_len > 0
                                  ? run.tail_len
                                  : kChunkBytes);
      }
      if (run.chunks_left == 0 && run.chunks_unacked == 0) {
        settle_attempt(ri);
      }
    });
  };

  settle_attempt = [&](std::size_t ri) {
    NodeRun& run = runs[ri];
    if (faults_ != nullptr) {
      const bool failed =
          faults_->TransferFails(run.node_id, transfer_id, run.attempt);
      const bool corrupted =
          !failed &&
          faults_->TransferCorrupts(run.node_id, transfer_id, run.attempt);
      if (failed || corrupted) {
        // A failed attempt delivers nothing; a corrupted one delivers bytes
        // the receiver's checksums reject. Back off and retry.
        const double delay_ns = faults_->TransferDelaySeconds() * 1e9;
        if (run.attempt >= max_attempts) {
          ++stats.abandoned;
          run.finish_ns = loop.now_ns() + delay_ns;
          return;
        }
        loop.ScheduleAfter(delay_ns, "sg-retry",
                           [&, ri] { start_attempt(ri); });
        return;
      }
    }
    run.delivered = true;
    run.finish_ns = loop.now_ns();
  };

  start_attempt = [&](std::size_t ri) {
    NodeRun& run = runs[ri];
    ++run.attempt;
    ++stats.attempts;
    if (run.attempt == 1) {
      // The shared distribution stream was already charged by the caller's
      // strategy; the first attempt only needs its fault verdict.
      settle_attempt(ri);
      return;
    }
    // Only faulted attempts reach here, so faults_ is non-null.
    ++stats.retries;
    const double wait =
        BackoffSeconds(retry_, run.node_id, transfer_id, run.attempt);
    stats.backoff_seconds += wait;
    // Resume past the records the previous attempt delivered intact.
    const double progress =
        faults_->PartialProgress(run.node_id, transfer_id, run.attempt - 1);
    const std::uint64_t resume = ResumeBytes(stream, wire_size, progress);
    stats.retransmitted_bytes += resume;
    loop.ScheduleAfter(wait * 1e9, "sg-resume", [&, ri, resume] {
      NodeRun& r = runs[ri];
      if (resume == 0) {
        settle_attempt(ri);
        return;
      }
      r.tail_len = resume % kChunkBytes;
      const std::uint64_t total =
          resume / kChunkBytes + (r.tail_len > 0 ? 1 : 0);
      const std::uint64_t burst =
          std::min<std::uint64_t>(total, config_.window);
      r.chunks_left = total - burst;
      r.chunks_unacked = burst;
      for (std::uint64_t c = 0; c < burst; ++c) {
        const bool is_tail = c == total - 1 && r.tail_len > 0;
        link.emplace_back(ri, is_tail ? r.tail_len : kChunkBytes);
      }
    });
  };

  for (std::size_t i = 0; i < runs.size(); ++i) {
    runs[i].node_id = nodes[i];
    start_attempt(i);
  }
  // Serve the link whenever chunks are queued and it sits idle; loop events
  // carry everything else.
  do {
    if (!link_busy && !link.empty()) serve_chunk();
  } while (loop.Step());

  ScatterGatherResult result;
  for (const NodeRun& run : runs) {
    const double tail = run.finish_ns / 1e9;
    result.makespan_seconds = std::max(result.makespan_seconds, tail);
    result.sum_seconds += tail;
    result.outcomes.push_back({run.node_id, run.delivered, tail});
  }
  // Clamp: with an empty receiver set (or pure float cancellation in the
  // sums) the subtraction can dip a hair below zero; the report fields are
  // documented non-negative.
  stats.makespan_seconds += std::max(0.0, result.makespan_seconds);
  stats.overlap_seconds +=
      std::max(0.0, result.sum_seconds - result.makespan_seconds);
  return result;
}

}  // namespace squirrel::core
