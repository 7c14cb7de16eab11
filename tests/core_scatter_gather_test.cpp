// Scatter-gather fan-out transfers: the event-driven engine against the
// pre-engine serial retry loop (decisions and bytes), window 1 as an engine
// value (per-chunk charges, a shared sender link), windowed overlap, and
// determinism.

#include "core/scatter_gather.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "buffer_source.h"
#include "core/squirrel.h"
#include "util/fault_injector.h"
#include "util/rng.h"

namespace squirrel::core {
namespace {

using util::Bytes;

using test::BufferSource;

/// A small stream with payload records, so record-granular resume has
/// something to resume past.
zvol::SendStream TestStream(std::size_t blocks) {
  zvol::SendStream stream;
  stream.incremental = false;
  stream.to_id = 1;
  stream.to_name = "snap";
  stream.block_size = 4096;
  stream.codec = "gzip6";
  zvol::FileRecord file;
  file.name = "cache/img";
  file.logical_size = blocks * 4096;
  file.whole_file = true;
  util::Rng rng(7);
  for (std::size_t i = 0; i < blocks; ++i) {
    zvol::BlockRecord block;
    block.index = i;
    block.has_payload = true;
    block.payload = Bytes(4096);
    rng.Fill(block.payload);
    block.logical_size = 4096;
    file.blocks.push_back(std::move(block));
  }
  stream.files.push_back(std::move(file));
  return stream;
}

// Reference implementation: the pre-engine serial retry loop, verbatim. Its
// decisions, bytes and backoff are what the engine must reproduce; its
// timing gave every resume the whole link as one message.
bool LegacyDeliver(const zvol::SendStream& stream, std::uint64_t wire_size,
                   std::uint32_t node_id, std::uint64_t transfer_id,
                   const RetryPolicy& retry, util::FaultInjector* faults,
                   sim::NetworkAccountant& network, TransferStats& stats,
                   double* seconds) {
  auto resume_bytes = [&](double progress) {
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
  };
  const std::uint32_t max_attempts =
      std::max<std::uint32_t>(1, retry.max_attempts);
  for (std::uint32_t attempt = 1; attempt <= max_attempts; ++attempt) {
    ++stats.attempts;
    if (attempt > 1) {
      ++stats.retries;
      const double wait = BackoffSeconds(retry, node_id, transfer_id, attempt);
      stats.backoff_seconds += wait;
      *seconds += wait;
      const double progress =
          faults->PartialProgress(node_id, transfer_id, attempt - 1);
      const std::uint64_t resume = resume_bytes(progress);
      stats.retransmitted_bytes += resume;
      *seconds += network.Transfer(0, node_id, resume) / 1e9;
    }
    if (faults != nullptr) {
      const bool failed = faults->TransferFails(node_id, transfer_id, attempt);
      const bool corrupted =
          !failed && faults->TransferCorrupts(node_id, transfer_id, attempt);
      if (failed || corrupted) {
        *seconds += faults->TransferDelaySeconds();
        continue;
      }
    }
    return true;
  }
  ++stats.abandoned;
  return false;
}

util::FaultProfile FlakyProfile() {
  util::FaultProfile profile;
  profile.transfer_fail_rate = 0.4;
  profile.transfer_corrupt_rate = 0.2;
  profile.transfer_delay_seconds = 0.05;
  return profile;
}

TEST(ScatterGather, RejectsWindowZero) {
  // A zero window would admit no chunk, and a retrying receiver would never
  // settle.
  sim::NetworkAccountant net(2);
  EXPECT_THROW(
      {
        ScatterGatherTransfer transfer(&net, nullptr, RetryPolicy{},
                                       ScatterGatherConfig{.window = 0});
      },
      std::invalid_argument);
  SquirrelConfig config;
  config.transfer.window = 0;
  EXPECT_THROW(SquirrelCluster(config, 2), std::invalid_argument);
}

TEST(ScatterGather, WindowOneSingleChunkResumesMatchLegacyLoop) {
  // Every resume here fits in one 256 KiB chunk, so window 1 charges each
  // one message, as the legacy loop did.
  const zvol::SendStream stream = TestStream(16);
  const std::uint64_t wire_size = stream.WireSize();
  const std::vector<std::uint32_t> nodes = {1, 2, 3, 4, 5, 6};
  const RetryPolicy retry{};

  // Legacy pass: its own injector and accountant (decisions are keyed by
  // (seed, node, transfer, attempt), so separate instances replay equally).
  util::FaultInjector legacy_faults(0xfab, FlakyProfile());
  sim::NetworkAccountant legacy_net(8);
  TransferStats legacy_stats;
  double legacy_makespan = 0.0;
  std::vector<bool> legacy_delivered;
  for (const std::uint32_t node : nodes) {
    double seconds = 0.0;
    legacy_delivered.push_back(LegacyDeliver(stream, wire_size, node, 1, retry,
                                             &legacy_faults, legacy_net,
                                             legacy_stats, &seconds));
    legacy_makespan = std::max(legacy_makespan, seconds);
  }

  util::FaultInjector faults(0xfab, FlakyProfile());
  sim::NetworkAccountant net(8);
  TransferStats stats;
  ScatterGatherTransfer transfer(&net, &faults, retry,
                                 ScatterGatherConfig{.window = 1});
  const ScatterGatherResult result =
      transfer.Run(stream, wire_size, nodes, 1, stats);

  EXPECT_EQ(stats.attempts, legacy_stats.attempts);
  EXPECT_EQ(stats.retries, legacy_stats.retries);
  EXPECT_EQ(stats.abandoned, legacy_stats.abandoned);
  EXPECT_EQ(stats.retransmitted_bytes, legacy_stats.retransmitted_bytes);
  EXPECT_EQ(stats.backoff_seconds, legacy_stats.backoff_seconds);  // bitwise
  EXPECT_EQ(result.makespan_seconds, legacy_makespan);             // bitwise
  ASSERT_EQ(result.outcomes.size(), nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(result.outcomes[i].delivered, legacy_delivered[i]) << i;
  }
  for (std::uint32_t node : nodes) {
    EXPECT_EQ(net.bytes_in(node), legacy_net.bytes_in(node)) << node;
  }
}

TEST(ScatterGather, WindowOneChargesEveryChunk) {
  // One receiver whose retry resumes more than one chunk: at window 1 the
  // chunks cross the link one after another, each paying its own message
  // overhead.
  constexpr std::uint64_t kChunk = 256 * 1024;
  const zvol::SendStream stream = TestStream(256);  // 1 MiB of payload
  const std::uint64_t wire_size = stream.WireSize();
  util::FaultProfile profile;
  profile.transfer_fail_rate = 0.5;
  profile.transfer_delay_seconds = 0.05;
  // A seed whose attempt 1 fails before half the records arrived and whose
  // attempt 2 goes through: the tail is one fault delay, one backoff and
  // one resume of more than half the stream.
  std::uint64_t seed = 0;
  for (;; ++seed) {
    util::FaultInjector probe(seed, profile);
    if (probe.TransferFails(1, 1, 1) && !probe.TransferFails(1, 1, 2) &&
        probe.PartialProgress(1, 1, 1) < 0.5) {
      break;
    }
  }

  util::FaultInjector faults(seed, profile);
  sim::NetworkAccountant net(2);
  TransferStats stats;
  const RetryPolicy retry{};
  ScatterGatherTransfer transfer(&net, &faults, retry,
                                 ScatterGatherConfig{.window = 1});
  const ScatterGatherResult result =
      transfer.Run(stream, wire_size, {1}, 1, stats);
  ASSERT_TRUE(result.outcomes.front().delivered);
  ASSERT_EQ(stats.retries, 1u);
  const std::uint64_t resume = stats.retransmitted_bytes;
  ASSERT_GT(resume, kChunk);
  EXPECT_EQ(net.bytes_in(1), resume);

  const sim::NetworkConfig& link = net.config();
  double chunks_ns = 0.0;
  for (std::uint64_t left = resume; left > 0;) {
    const std::uint64_t bytes = std::min(left, kChunk);
    chunks_ns += link.message_overhead_ns +
                 static_cast<double>(bytes) / link.bandwidth_bytes_per_ns;
    left -= bytes;
  }
  const double expected = profile.transfer_delay_seconds +
                          BackoffSeconds(retry, 1, 1, 2) + chunks_ns / 1e9;
  EXPECT_NEAR(result.outcomes.front().seconds, expected, 1e-9);
  EXPECT_EQ(result.makespan_seconds, result.outcomes.front().seconds);
}

TEST(ScatterGather, WindowOneSharesSenderLink) {
  // Two receivers whose attempts all fail: without jitter both back off
  // equally, so their resumes reach the sender link at the same instant and
  // the later one queues behind the other.
  const zvol::SendStream stream = TestStream(16);
  const std::uint64_t wire_size = stream.WireSize();
  util::FaultProfile profile;
  profile.transfer_fail_rate = 1.0;
  profile.transfer_delay_seconds = 0.05;
  RetryPolicy retry;
  retry.max_attempts = 2;
  retry.jitter = 0.0;
  auto tails = [&](const std::vector<std::uint32_t>& nodes) {
    util::FaultInjector faults(0xfab, profile);
    sim::NetworkAccountant net(3);
    TransferStats stats;
    ScatterGatherTransfer transfer(&net, &faults, retry,
                                   ScatterGatherConfig{.window = 1});
    std::vector<double> seconds;
    for (const ReceiverOutcome& outcome :
         transfer.Run(stream, wire_size, nodes, 1, stats).outcomes) {
      EXPECT_FALSE(outcome.delivered);
      seconds.push_back(outcome.seconds);
    }
    return seconds;
  };
  const std::vector<double> shared = tails({1, 2});
  const std::uint32_t later = shared[0] < shared[1] ? 1 : 0;
  const double solo = tails({later + 1}).front();
  EXPECT_GT(shared[later], solo);
}

TEST(ScatterGather, WindowedMatchesSerialDecisionsAndOverlaps) {
  const zvol::SendStream stream = TestStream(16);
  const std::uint64_t wire_size = stream.WireSize();
  const std::vector<std::uint32_t> nodes = {1, 2, 3, 4, 5, 6, 7};
  const RetryPolicy retry{};

  util::FaultInjector serial_faults(0xfab, FlakyProfile());
  sim::NetworkAccountant serial_net(9);
  TransferStats serial_stats;
  ScatterGatherTransfer serial(&serial_net, &serial_faults, retry,
                               ScatterGatherConfig{.window = 1});
  const ScatterGatherResult serial_result =
      serial.Run(stream, wire_size, nodes, 1, serial_stats);

  util::FaultInjector faults(0xfab, FlakyProfile());
  sim::NetworkAccountant net(9);
  TransferStats stats;
  ScatterGatherTransfer windowed(&net, &faults, retry,
                                 ScatterGatherConfig{.window = 4});
  const ScatterGatherResult result =
      windowed.Run(stream, wire_size, nodes, 1, stats);

  // Fault decisions are order-independent, so both windows agree on what
  // happened — only on when.
  EXPECT_EQ(stats.attempts, serial_stats.attempts);
  EXPECT_EQ(stats.retries, serial_stats.retries);
  EXPECT_EQ(stats.abandoned, serial_stats.abandoned);
  EXPECT_EQ(stats.retransmitted_bytes, serial_stats.retransmitted_bytes);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(result.outcomes[i].delivered,
              serial_result.outcomes[i].delivered);
  }
  ASSERT_GT(serial_stats.retries, 0u) << "profile produced no retries";

  // Retry tails overlap: the fan out finishes before the sum of tails, and
  // the report says by how much.
  EXPECT_LT(result.makespan_seconds, result.sum_seconds);
  EXPECT_GT(stats.overlap_seconds, 0.0);
  // A wider window never ends later than window 1's sum of tails.
  EXPECT_LE(result.makespan_seconds, serial_result.sum_seconds);
}

TEST(ScatterGather, AggregateSecondsAreNeverNegative) {
  // Regression: overlap_seconds is derived as sum - makespan per batch; a
  // scheduling path that reports makespan within float slack of (or above)
  // the sum must clamp at zero rather than accumulate a negative overlap.
  // 768 KiB of payload: resumes span several 256 KiB chunks.
  const zvol::SendStream stream = TestStream(192);
  const std::uint64_t wire_size = stream.WireSize();
  for (const std::uint32_t window : {1u, 2u, 4u, 8u}) {
    for (const std::size_t fan_out : {std::size_t{1}, std::size_t{3}}) {
      std::vector<std::uint32_t> nodes;
      for (std::size_t i = 0; i < fan_out; ++i) {
        nodes.push_back(static_cast<std::uint32_t>(i + 1));
      }
      sim::NetworkAccountant net(10.0);
      util::FaultInjector faults(11, FlakyProfile());
      TransferStats stats;
      ScatterGatherTransfer transfer(&net, fan_out > 1 ? &faults : nullptr,
                                     RetryPolicy{},
                                     ScatterGatherConfig{.window = window});
      const ScatterGatherResult result =
          transfer.Run(stream, wire_size, nodes, 1, stats);
      EXPECT_GE(result.makespan_seconds, 0.0) << "window " << window;
      EXPECT_GE(result.sum_seconds, 0.0) << "window " << window;
      EXPECT_GE(stats.makespan_seconds, 0.0) << "window " << window;
      EXPECT_GE(stats.overlap_seconds, 0.0) << "window " << window;
      // The clamp never manufactures overlap a single-stream run cannot have.
      if (fan_out == 1) {
        EXPECT_EQ(stats.overlap_seconds, 0.0);
      }
    }
  }
}

TEST(ScatterGather, WindowedIsDeterministic) {
  // 1 MiB of payload: resumes span several 256 KiB chunks.
  const zvol::SendStream stream = TestStream(256);
  const std::uint64_t wire_size = stream.WireSize();
  const std::vector<std::uint32_t> nodes = {1, 2, 3, 4};
  auto run = [&] {
    util::FaultInjector faults(0xfab, FlakyProfile());
    sim::NetworkAccountant net(6);
    TransferStats stats;
    ScatterGatherTransfer transfer(&net, &faults, RetryPolicy{},
                                   ScatterGatherConfig{.window = 3});
    const ScatterGatherResult result =
        transfer.Run(stream, wire_size, nodes, 1, stats);
    return std::pair<double, double>(result.makespan_seconds,
                                     stats.backoff_seconds);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);    // bitwise
  EXPECT_EQ(a.second, b.second);  // bitwise
}

TEST(ScatterGather, NoFaultsDeliversEverythingInstantly) {
  const zvol::SendStream stream = TestStream(4);
  sim::NetworkAccountant net(4);
  TransferStats stats;
  ScatterGatherTransfer transfer(&net, /*faults=*/nullptr, RetryPolicy{},
                                 ScatterGatherConfig{.window = 4});
  const ScatterGatherResult result =
      transfer.Run(stream, stream.WireSize(), {1, 2, 3}, 1, stats);
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(result.makespan_seconds, 0.0);
  for (const auto& outcome : result.outcomes) {
    EXPECT_TRUE(outcome.delivered);
  }
}

TEST(ScatterGather, ClusterRegisterWithWindowedTransfer) {
  SquirrelConfig config;
  config.volume = zvol::VolumeConfig{.block_size = 4096,
                                     .codec = compress::CodecId::kGzip6,
                                     .dedup = true};
  config.transfer.window = 4;
  SquirrelCluster cluster(config, 4);

  Bytes content(32 * 4096);
  util::Rng(3).Fill(content);
  const RegistrationReport report =
      cluster.Register({"img", BufferSource(content), SimClock::FromSeconds(1000)});
  EXPECT_EQ(report.receivers, 4u);
  for (std::uint32_t n = 0; n < 4; ++n) {
    EXPECT_TRUE(cluster.compute_node(n).volume().HasFile(
        SquirrelCluster::CacheFileName("img")));
  }
}

TEST(ScatterGather, ClusterRetryStatsIdenticalAcrossWindows) {
  // The same faulted registration at windows 1 and 4: identical decisions
  // (attempts/retries/abandoned), different timing.
  auto run = [](std::uint32_t window) {
    SquirrelConfig config;
    config.volume = zvol::VolumeConfig{.block_size = 4096,
                                       .codec = compress::CodecId::kGzip6,
                                       .dedup = true};
    config.transfer.window = window;
    SquirrelCluster cluster(config, 3);
    util::FaultInjector faults(0xbeef, FlakyProfile());
    cluster.SetFaultInjector(&faults);
    Bytes content(32 * 4096);
    util::Rng(3).Fill(content);
    return cluster.Register({"img", BufferSource(content), SimClock::FromSeconds(1000)});
  };
  const RegistrationReport serial = run(1);
  const RegistrationReport windowed = run(4);
  EXPECT_EQ(windowed.transfers.attempts, serial.transfers.attempts);
  EXPECT_EQ(windowed.transfers.retries, serial.transfers.retries);
  EXPECT_EQ(windowed.transfers.abandoned, serial.transfers.abandoned);
  EXPECT_EQ(windowed.transfers.retransmitted_bytes,
            serial.transfers.retransmitted_bytes);
  EXPECT_EQ(windowed.receivers, serial.receivers);
}

}  // namespace
}  // namespace squirrel::core
