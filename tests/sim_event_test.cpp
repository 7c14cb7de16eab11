// Discrete-event engine: ordering, cancellation, determinism, and the
// io_uring-style async disk queue built on it.

#include "sim/event/event_loop.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "sim/disk_model.h"
#include "sim/event/disk_queue.h"

namespace squirrel::sim::event {
namespace {

TEST(EventLoop, FiresInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(30.0, "c", [&] { order.push_back(3); });
  loop.Schedule(10.0, "a", [&] { order.push_back(1); });
  loop.Schedule(20.0, "b", [&] { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(loop.now_ns(), 30.0);
  EXPECT_EQ(loop.fired(), 3u);
}

TEST(EventLoop, StableOrderAtSameInstant) {
  // Two events at the same time fire in scheduling order — the (time,
  // sequence) key makes simultaneity deterministic.
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(5.0, "first", [&] { order.push_back(1); });
  loop.Schedule(5.0, "second", [&] { order.push_back(2); });
  loop.Schedule(5.0, "third", [&] { order.push_back(3); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, CancelRemovesPendingOnce) {
  EventLoop loop;
  bool fired = false;
  const EventId id = loop.Schedule(1.0, "x", [&] { fired = true; });
  EXPECT_TRUE(loop.Cancel(id));
  EXPECT_FALSE(loop.Cancel(id));  // second cancel is a detectable no-op
  loop.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(loop.fired(), 0u);
}

TEST(EventLoop, CancelAfterFireReturnsFalse) {
  EventLoop loop;
  const EventId id = loop.Schedule(1.0, "x", [] {});
  loop.Run();
  EXPECT_FALSE(loop.Cancel(id));
}

TEST(EventLoop, PastSchedulingClampsToNow) {
  EventLoop loop;
  loop.Schedule(100.0, "advance", [] {});
  loop.Run();
  std::vector<double> at;
  loop.Schedule(5.0, "past", [&] { at.push_back(loop.now_ns()); });
  loop.Run();
  ASSERT_EQ(at.size(), 1u);
  EXPECT_DOUBLE_EQ(at[0], 100.0);  // the past is not addressable
}

TEST(EventLoop, NanTimeThrows) {
  EventLoop loop;
  EXPECT_THROW(loop.Schedule(std::nan(""), "bad", [] {}),
               std::invalid_argument);
}

TEST(EventLoop, HandlerMaySchedule) {
  EventLoop loop;
  std::vector<double> times;
  loop.Schedule(1.0, "outer", [&] {
    times.push_back(loop.now_ns());
    loop.ScheduleAfter(2.0, "inner", [&] { times.push_back(loop.now_ns()); });
  });
  loop.Run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 3.0}));
}

TEST(EventLoop, RunUntilFiresDueAndAdvances) {
  EventLoop loop;
  int fired = 0;
  loop.Schedule(10.0, "due", [&] { ++fired; });
  loop.Schedule(50.0, "later", [&] { ++fired; });
  loop.RunUntil(20.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(loop.now_ns(), 20.0);  // advances even without an event
  EXPECT_EQ(loop.pending(), 1u);
  loop.Run();
  EXPECT_EQ(fired, 2);
}

// The determinism contract: identical (seed, schedule) produces a
// byte-identical trace on every run — including runs on different host
// threads, since no host state enters scheduling.
std::string TraceOfCanonicalSchedule(std::uint64_t seed) {
  EventLoop loop(seed);
  loop.EnableTrace(true);
  // A schedule with same-instant ties, handler-scheduled events, RNG-derived
  // times, and a cancellation.
  for (int i = 0; i < 16; ++i) {
    const double t = static_cast<double>(loop.rng().Below(97));
    loop.Schedule(t, "seeded", [&loop] {
      loop.ScheduleAfter(3.0, "chained", [] {});
    });
  }
  loop.Schedule(11.0, "tie-a", [] {});
  loop.Schedule(11.0, "tie-b", [] {});
  const EventId dead = loop.Schedule(1e6, "cancelled", [] {});
  loop.Cancel(dead);
  loop.Run();
  return loop.FormatTrace();
}

TEST(EventLoop, TraceByteIdenticalAcrossRunsAndHostThreads) {
  const std::string reference = TraceOfCanonicalSchedule(0x5eed);
  ASSERT_FALSE(reference.empty());

  // Replay on the same thread.
  EXPECT_EQ(TraceOfCanonicalSchedule(0x5eed), reference);

  // Replay concurrently on several host threads (run under TSan via the
  // labelled suite): each loop is thread-confined, so every replica must
  // still produce the reference bytes.
  std::vector<std::string> traces(4);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    threads.emplace_back(
        [&traces, i] { traces[i] = TraceOfCanonicalSchedule(0x5eed); });
  }
  for (auto& t : threads) t.join();
  for (const std::string& trace : traces) EXPECT_EQ(trace, reference);

  // A different seed is a different schedule.
  EXPECT_NE(TraceOfCanonicalSchedule(0x07e4), reference);
}

// --- AsyncDiskQueue ----------------------------------------------------------

TEST(AsyncDisk, DepthOneBitIdenticalToSynchronousCharges) {
  // The same request sequence through (a) the scalar clock += cost model and
  // (b) a depth-1 queue must agree bit for bit: same DiskModel call order,
  // same float additions.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> reads = {
      {0, 4096},          {1ull << 30, 8192}, {4096, 4096},
      {300ull << 20, 512}, {8192, 16384},      {0, 512},
  };

  DiskModel sync_disk;
  double clock = 0.0;
  std::vector<double> sync_clocks;
  for (const auto& [offset, length] : reads) {
    clock += sync_disk.Read(offset, length);
    sync_clocks.push_back(clock);
  }

  DiskModel queued_disk;
  EventLoop loop;
  AsyncDiskQueue queue(&queued_disk, &loop, DiskQueueConfig{.depth = 1});
  double async_clock = 0.0;
  std::vector<double> async_clocks;
  for (const auto& [offset, length] : reads) {
    const RequestId id = queue.Submit(async_clock, offset, length);
    async_clock = queue.CompletionNs(id);
    async_clocks.push_back(async_clock);
  }

  ASSERT_EQ(async_clocks.size(), sync_clocks.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    // Bitwise equality, not EXPECT_DOUBLE_EQ: the reduction claim is exact.
    EXPECT_EQ(async_clocks[i], sync_clocks[i]) << "read " << i;
  }
  EXPECT_EQ(queued_disk.bytes_read(), sync_disk.bytes_read());
  EXPECT_EQ(queued_disk.seeks(), sync_disk.seeks());
  EXPECT_EQ(queue.stats().physical_ops, reads.size());
  EXPECT_EQ(queue.stats().coalesced, 0u);
  EXPECT_EQ(queue.stats().reordered, 0u);
}

TEST(AsyncDisk, CoalescesExactlyAdjacentRequests) {
  DiskModel disk;
  EventLoop loop;
  AsyncDiskQueue queue(&disk, &loop,
                       DiskQueueConfig{.depth = 8, .elevator = false});
  // The first submit goes straight to the platter; while it spins, three
  // adjacent 4K reads pile up and merge into one physical op.
  const RequestId head = queue.Submit(0.0, 2ull << 30, 512);
  const RequestId a = queue.Submit(0.0, 0, 4096);
  const RequestId b = queue.Submit(0.0, 4096, 4096);
  const RequestId c = queue.Submit(0.0, 8192, 4096);
  queue.Drain();
  EXPECT_EQ(queue.stats().coalesced, 2u);
  EXPECT_EQ(queue.stats().physical_ops, 2u);  // head, then the merged trio
  // All members of the merged op share its completion time.
  EXPECT_EQ(queue.CompletionNs(a), queue.CompletionNs(b));
  EXPECT_EQ(queue.CompletionNs(b), queue.CompletionNs(c));
  EXPECT_GT(queue.CompletionNs(a), queue.CompletionNs(head));
  EXPECT_EQ(disk.bytes_read(), 12288u + 512u);
}

TEST(AsyncDisk, CoalesceRespectsByteCap) {
  DiskModel disk;
  EventLoop loop;
  AsyncDiskQueue queue(
      &disk, &loop,
      DiskQueueConfig{.depth = 8, .max_coalesce_bytes = 8192,
                      .elevator = false});
  queue.Submit(0.0, 2ull << 30, 512);  // occupies the platter
  queue.Submit(0.0, 0, 4096);
  queue.Submit(0.0, 4096, 4096);
  queue.Submit(0.0, 8192, 4096);  // would push the merged op past 8 KiB
  queue.Drain();
  EXPECT_EQ(queue.stats().coalesced, 1u);
  EXPECT_EQ(queue.stats().physical_ops, 3u);
}

TEST(AsyncDisk, ElevatorServicesNearestFirst) {
  DiskModel disk;
  EventLoop loop;
  AsyncDiskQueue queue(&disk, &loop,
                       DiskQueueConfig{.depth = 4, .max_coalesce_bytes = 0,
                                       .elevator = true});
  // Head starts at 0. Far request submitted first, near one second: while
  // the first is in service the queue holds both far and near; after the
  // first completes, the elevator picks the nearer one out of order.
  const RequestId warm = queue.Submit(0.0, 0, 512);          // in service
  const RequestId far = queue.Submit(0.0, 2ull << 30, 512);  // queued
  const RequestId near = queue.Submit(0.0, 4096, 512);       // queued, closer
  queue.Drain();
  EXPECT_GT(queue.stats().reordered, 0u);
  EXPECT_LT(queue.CompletionNs(near), queue.CompletionNs(far));
  EXPECT_LT(queue.CompletionNs(warm), queue.CompletionNs(near));
}

TEST(AsyncDisk, SubmitStallsWhenFullTrySubmitDrops) {
  DiskModel disk;
  EventLoop loop;
  AsyncDiskQueue queue(&disk, &loop, DiskQueueConfig{.depth = 2});
  queue.Submit(0.0, 0, 4096);
  queue.Submit(0.0, 1ull << 28, 4096);
  EXPECT_EQ(queue.outstanding(), 2u);
  // Non-stalling prefetch admission fails cleanly.
  EXPECT_EQ(queue.TrySubmit(0.0, 1ull << 29, 4096), kInvalidRequest);
  EXPECT_EQ(queue.stats().prefetch_drops, 1u);
  // Stalling admission waits for a slot, then succeeds.
  const RequestId late = queue.Submit(0.0, 1ull << 30, 4096);
  EXPECT_NE(late, kInvalidRequest);
  EXPECT_EQ(queue.stats().submit_stalls, 1u);
  queue.Drain();
  EXPECT_EQ(queue.outstanding(), 0u);
  EXPECT_EQ(queue.stats().completed, 3u);
}

TEST(AsyncDisk, DepthZeroRejected) {
  DiskModel disk;
  EventLoop loop;
  EXPECT_THROW(AsyncDiskQueue(&disk, &loop, DiskQueueConfig{.depth = 0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace squirrel::sim::event
