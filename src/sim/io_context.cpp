#include "sim/io_context.h"

#include <bit>
#include <stdexcept>
#include <utility>
#include <vector>

namespace squirrel::sim {

IoContext::IoContext(IoContextConfig config)
    : config_(config),
      disk_(config.disk),
      page_cache_(config.page_cache_bytes),
      disk_queue_(&disk_, &loop_,
                  event::DiskQueueConfig{.depth = config.disk_queue_depth}) {}

void IoContext::ChargeDiskRead(std::uint64_t offset, std::uint64_t length) {
  const double completion =
      disk_queue_.CompletionNs(disk_queue_.Submit(clock_ns_, offset, length));
  if (completion > clock_ns_) clock_ns_ = completion;
}

void IoContext::ChargeDdtLookup(std::uint64_t table_entries) {
  const double log2_entries =
      table_entries == 0 ? 0.0
                         : static_cast<double>(std::bit_width(table_entries));
  clock_ns_ += config_.ddt_lookup_base_ns +
               config_.ddt_lookup_per_log2_entry_ns * log2_entries;
}

void IoContext::ChargeAsyncReadBatch(
    std::span<const AsyncRead> reads,
    const std::function<void(std::uint64_t cookie)>& on_complete) {
  const std::size_t depth = config_.disk_queue_depth;
  for (std::size_t base = 0; base < reads.size(); base += depth) {
    const std::size_t end = std::min(reads.size(), base + depth);
    // Submit the window, then reap in completion order: the guest clock
    // advances to each completion (barrier), pays that read's CPU, and only
    // then consumes the next completion. With depth 1 the window is a single
    // request: its disk cost, then its CPU, then the next request.
    std::vector<std::pair<event::RequestId, std::size_t>> window;
    window.reserve(end - base);
    for (std::size_t i = base; i < end; ++i) {
      window.emplace_back(
          disk_queue_.Submit(clock_ns_, reads[i].offset, reads[i].length), i);
    }
    std::vector<std::pair<double, std::size_t>> done;
    done.reserve(window.size());
    for (const auto& [id, i] : window) {
      done.emplace_back(disk_queue_.CompletionNs(id), i);
    }
    std::sort(done.begin(), done.end());
    for (const auto& [completion, i] : done) {
      if (completion > clock_ns_) clock_ns_ = completion;
      if (reads[i].cpu_ns != 0.0) clock_ns_ += reads[i].cpu_ns;
      if (on_complete) on_complete(reads[i].cookie);
    }
  }
}

bool IoContext::PrefetchDiskRead(std::uint64_t device, std::uint64_t block,
                                 std::uint64_t offset, std::uint64_t length) {
  const BlockKey key{device, block};
  if (in_flight_.contains(key)) return true;
  const event::RequestId id =
      disk_queue_.TrySubmit(clock_ns_, offset, length);
  if (id == event::kInvalidRequest) return false;
  in_flight_.emplace(key, id);
  return true;
}

bool IoContext::InFlight(std::uint64_t device, std::uint64_t block) const {
  return in_flight_.contains(BlockKey{device, block});
}

double IoContext::JoinInFlight(std::uint64_t device, std::uint64_t block) {
  const auto it = in_flight_.find(BlockKey{device, block});
  if (it == in_flight_.end()) {
    throw std::logic_error("JoinInFlight: no such prefetch");
  }
  const double completion = disk_queue_.CompletionNs(it->second);
  in_flight_.erase(it);
  if (completion > clock_ns_) clock_ns_ = completion;
  return completion;
}

}  // namespace squirrel::sim
