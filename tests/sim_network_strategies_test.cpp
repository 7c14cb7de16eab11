#include <gtest/gtest.h>

#include "buffer_source.h"
#include "core/squirrel.h"
#include "sim/network.h"
#include "util/rng.h"

namespace squirrel::sim {
namespace {

TEST(NetworkStrategies, UnicastEgressScalesWithReceivers) {
  NetworkAccountant network(9);
  network.UnicastAll(0, {1, 2, 3, 4, 5, 6, 7, 8}, 1000);
  EXPECT_EQ(network.bytes_out(0), 8000u);
  EXPECT_EQ(network.bytes_in(5), 1000u);
}

TEST(NetworkStrategies, PipelineSpreadsEgress) {
  NetworkAccountant network(5);
  network.Pipeline(0, {1, 2, 3, 4}, 1000);
  // Sender forwards once; each intermediate node forwards once.
  EXPECT_EQ(network.bytes_out(0), 1000u);
  EXPECT_EQ(network.bytes_out(1), 1000u);
  EXPECT_EQ(network.bytes_out(4), 0u);  // tail of the chain
  for (std::uint32_t n = 1; n <= 4; ++n) EXPECT_EQ(network.bytes_in(n), 1000u);
}

TEST(NetworkStrategies, PipelineEmptyIsFree) {
  NetworkAccountant network(2);
  EXPECT_EQ(network.Pipeline(0, {}, 1000), 0.0);
  EXPECT_EQ(network.bytes_out(0), 0u);
}

TEST(NetworkStrategies, DurationOrdering) {
  // For a large stream to many receivers: multicast ~ pipeline << unicast.
  NetworkAccountant network(33);
  std::vector<std::uint32_t> receivers;
  for (std::uint32_t n = 1; n <= 32; ++n) receivers.push_back(n);
  const std::uint64_t bytes = 100 << 20;
  const double mcast = network.Multicast(0, receivers, bytes);
  const double pipe = network.Pipeline(0, receivers, bytes);
  const double ucast = network.UnicastAll(0, receivers, bytes);
  EXPECT_LT(mcast, ucast / 10);
  EXPECT_LT(pipe, ucast / 10);
  EXPECT_GE(pipe, mcast);  // pipeline pays per-hop latency
}

}  // namespace
}  // namespace squirrel::sim

namespace squirrel::core {
namespace {

using util::Bytes;

using test::BufferSource;

Bytes SomeCache(std::uint64_t seed) {
  Bytes content(32 * 4096, 0);
  util::Rng(seed).Fill(util::MutableByteSpan(content.data(), 16 * 4096));
  return content;
}

TEST(SquirrelPropagation, AllStrategiesReplicateIdentically) {
  for (const PropagationStrategy strategy :
       {PropagationStrategy::kMulticast, PropagationStrategy::kUnicast,
        PropagationStrategy::kPipeline}) {
    SquirrelConfig config;
    config.volume = zvol::VolumeConfig{.block_size = 4096, .codec = compress::CodecId::kLz4};
    config.propagation = strategy;
    SquirrelCluster cluster(config, 3);
    cluster.Register({"img", BufferSource(SomeCache(1)), SimClock::FromSeconds(100)});
    for (std::uint32_t n = 0; n < 3; ++n) {
      EXPECT_TRUE(cluster.compute_node(n).volume().HasFile(
          SquirrelCluster::CacheFileName("img")))
          << "strategy " << static_cast<int>(strategy) << " node " << n;
    }
  }
}

TEST(SquirrelPropagation, UnicastRegistrationSlowerAtScale) {
  auto run = [](PropagationStrategy strategy) {
    SquirrelConfig config;
    config.volume = zvol::VolumeConfig{.block_size = 4096, .codec = compress::CodecId::kNull};
    config.propagation = strategy;
    sim::NetworkConfig net;
    net.bandwidth_bytes_per_ns = 0.125;
    SquirrelCluster cluster(config, 64, net);
    return cluster.Register({"img", BufferSource(SomeCache(2)), SimClock::FromSeconds(100)})
        .total_seconds;
  };
  const double mcast = run(PropagationStrategy::kMulticast);
  const double ucast = run(PropagationStrategy::kUnicast);
  EXPECT_GT(ucast, mcast);
}

}  // namespace
}  // namespace squirrel::core
