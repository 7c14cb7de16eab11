// Fault injection + self-healing: injector determinism, corruption-verified
// reads, scrub-repair round trips, and the replication retry schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "buffer_source.h"
#include "core/squirrel.h"
#include "store/block_store.h"
#include "util/fault_injector.h"
#include "util/rng.h"
#include "zvol/volume.h"

namespace squirrel {
namespace {

using util::Bytes;
using util::FaultInjector;
using util::FaultProfile;

using test::BufferSource;

util::Digest DigestOf(std::uint64_t tag) {
  util::Digest d{};
  for (std::size_t i = 0; i < 8; ++i) {
    d.bytes[i] = static_cast<util::Byte>(tag >> (8 * i));
  }
  return d;
}

// --- injector schedule --------------------------------------------------------

TEST(FaultInjector, DecisionsIndependentOfInterrogationOrder) {
  const FaultProfile profile{.block_corrupt_rate = 0.3};
  FaultInjector forward(7, profile);
  FaultInjector backward(7, profile);

  constexpr int kBlocks = 64;
  Bytes payloads[kBlocks];
  Bytes reversed[kBlocks];
  for (int i = 0; i < kBlocks; ++i) {
    payloads[i] = Bytes(256, static_cast<util::Byte>(i + 1));
    reversed[i] = payloads[i];
  }
  bool flipped_fwd[kBlocks];
  bool flipped_bwd[kBlocks];
  for (int i = 0; i < kBlocks; ++i) {
    flipped_fwd[i] = forward.CorruptBlock(DigestOf(i), payloads[i]);
  }
  for (int i = kBlocks - 1; i >= 0; --i) {
    flipped_bwd[i] = backward.CorruptBlock(DigestOf(i), reversed[i]);
  }
  for (int i = 0; i < kBlocks; ++i) {
    EXPECT_EQ(flipped_fwd[i], flipped_bwd[i]) << i;
    EXPECT_EQ(payloads[i], reversed[i]) << i;  // identical bit flipped
  }
  EXPECT_GT(forward.stats().blocks_corrupted, 0u);
  EXPECT_EQ(forward.stats().blocks_corrupted, backward.stats().blocks_corrupted);
}

TEST(FaultInjector, ZeroProfileIsNoOp) {
  FaultInjector faults(99, FaultProfile{});
  Bytes payload(128, 0xab);
  const Bytes original = payload;
  EXPECT_FALSE(faults.CorruptBlock(DigestOf(1), payload));
  EXPECT_FALSE(faults.CorruptImage(payload, 0));
  EXPECT_FALSE(faults.CorruptStream(payload, 0));
  EXPECT_FALSE(faults.TransferFails(1, 1, 1));
  EXPECT_FALSE(faults.TransferCorrupts(1, 1, 1));
  EXPECT_EQ(payload, original);
  EXPECT_EQ(faults.stats().blocks_corrupted, 0u);
}

TEST(FaultInjector, RateRoughlyObserved) {
  const FaultProfile profile{.block_corrupt_rate = 0.1};
  FaultInjector faults(3, profile);
  int flipped = 0;
  constexpr int kTrials = 2000;
  for (int i = 0; i < kTrials; ++i) {
    Bytes payload(64, 1);
    flipped += faults.CorruptBlock(DigestOf(i), payload);
  }
  EXPECT_GT(flipped, kTrials / 20);      // > 5%
  EXPECT_LT(flipped, kTrials * 3 / 20);  // < 15%
}

TEST(FaultInjector, DifferentSeedsDifferentSchedules) {
  const FaultProfile profile{.block_corrupt_rate = 0.5};
  FaultInjector a(1, profile);
  FaultInjector b(2, profile);
  int disagreements = 0;
  for (int i = 0; i < 200; ++i) {
    Bytes pa(32, 1), pb(32, 1);
    disagreements += a.CorruptBlock(DigestOf(i), pa) != b.CorruptBlock(DigestOf(i), pb);
  }
  EXPECT_GT(disagreements, 0);
}

TEST(FaultInjector, TransferFailAndCorruptMutuallyExclusive) {
  const FaultProfile profile{.transfer_fail_rate = 0.5,
                             .transfer_corrupt_rate = 0.5};
  FaultInjector faults(11, profile);
  int failed = 0, corrupted = 0;
  for (std::uint32_t node = 0; node < 8; ++node) {
    for (std::uint64_t id = 0; id < 8; ++id) {
      for (std::uint32_t attempt = 1; attempt <= 4; ++attempt) {
        const bool f = faults.TransferFails(node, id, attempt);
        const bool c = faults.TransferCorrupts(node, id, attempt);
        EXPECT_FALSE(f && c);
        failed += f;
        corrupted += c;
      }
    }
  }
  EXPECT_GT(failed, 0);
  EXPECT_GT(corrupted, 0);
}

TEST(FaultInjector, PartialProgressDeterministicAndInRange) {
  const FaultProfile profile{.transfer_fail_rate = 1.0};
  FaultInjector faults(5, profile);
  for (std::uint32_t attempt = 1; attempt <= 4; ++attempt) {
    const double p = faults.PartialProgress(3, 17, attempt);
    EXPECT_GE(p, 0.0);
    EXPECT_LT(p, 1.0);
    EXPECT_EQ(p, faults.PartialProgress(3, 17, attempt));
  }
}

TEST(FaultInjector, TruncateShrinksDeterministically) {
  FaultInjector faults(21, FaultProfile{});
  Bytes a(1000, 0x5a);
  Bytes b(1000, 0x5a);
  faults.Truncate(a, /*salt=*/4);
  faults.Truncate(b, /*salt=*/4);
  EXPECT_LT(a.size(), 1000u);
  EXPECT_EQ(a.size(), b.size());
}

// --- crash points -------------------------------------------------------------

TEST(FaultInjector, ArmedCrashFiresAtExactlyTheNthSite) {
  FaultInjector faults(31, FaultProfile{});
  faults.ArmCrashAt(2);
  faults.CrashPoint("a");
  faults.CrashPoint("b");
  try {
    faults.CrashPoint("c");
    FAIL() << "armed crash did not fire";
  } catch (const util::CrashError& e) {
    EXPECT_EQ(e.site(), "c");
  }
  EXPECT_FALSE(faults.crash_armed());  // one-shot
  EXPECT_EQ(faults.stats().crashes_injected, 1u);
  faults.CrashPoint("c");  // disarmed: a no-op at rate 0
  EXPECT_EQ(faults.crash_sites_passed(), 4u);
}

TEST(FaultInjector, CrashRateIsPositionKeyedAndDeterministic) {
  const FaultProfile profile{.crash_rate = 0.4};
  FaultInjector first(17, profile);
  FaultInjector second(17, profile);
  std::vector<bool> a, b;
  for (int i = 0; i < 64; ++i) {
    bool crashed = false;
    try {
      first.CrashPoint("receive/file", 3);
    } catch (const util::CrashError&) {
      crashed = true;
    }
    a.push_back(crashed);
    crashed = false;
    try {
      second.CrashPoint("receive/file", 3);
    } catch (const util::CrashError&) {
      crashed = true;
    }
    b.push_back(crashed);
  }
  // Identical schedules across runs; position-keying makes the *same* site
  // a fresh coin flip at each interrogation, so both outcomes appear and a
  // retry is never doomed to repeat its crash.
  EXPECT_EQ(a, b);
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), false), 0);
}

TEST(FaultInjector, ArmedOnlySitesIgnoreTheCrashRate) {
  FaultInjector faults(23, FaultProfile{.crash_rate = 1.0});
  for (int i = 0; i < 32; ++i) {
    faults.CrashPointArmedOnly("store/commit");  // must never throw unarmed
  }
  faults.ArmCrashAt(0);
  EXPECT_THROW(faults.CrashPointArmedOnly("store/commit"), util::CrashError);
}

// --- byzantine peers ----------------------------------------------------------

TEST(FaultInjector, ByzantinePeersDeterministicAndPeerZeroHonest) {
  const FaultProfile profile{.byzantine_peer_rate = 0.5};
  FaultInjector first(41, profile);
  FaultInjector second(41, profile);
  int byzantine = 0;
  for (std::uint32_t peer = 0; peer < 64; ++peer) {
    EXPECT_EQ(first.PeerIsByzantine(peer), second.PeerIsByzantine(peer));
    byzantine += first.PeerIsByzantine(peer);
  }
  EXPECT_GT(byzantine, 0);
  EXPECT_LT(byzantine, 64);
  // The storage node is authoritative even at rate 1.0.
  FaultInjector all(41, FaultProfile{.byzantine_peer_rate = 1.0});
  EXPECT_FALSE(all.PeerIsByzantine(0));
  EXPECT_TRUE(all.PeerIsByzantine(1));
}

TEST(FaultInjector, MutatePayloadIsAConsistentPerPeerLie) {
  FaultInjector faults(43, FaultProfile{.byzantine_peer_rate = 1.0});
  const Bytes original(512, 0x5a);
  Bytes first = original;
  Bytes second = original;
  faults.MutatePayload(7, DigestOf(9), first);
  faults.MutatePayload(7, DigestOf(9), second);
  EXPECT_NE(first, original);        // well-formed but wrong
  EXPECT_EQ(first.size(), original.size());
  EXPECT_EQ(first, second);          // retrying re-serves the same lie
  Bytes other_peer = original;
  faults.MutatePayload(8, DigestOf(9), other_peer);
  EXPECT_NE(other_peer, first);      // lies are per (peer, digest)
  EXPECT_EQ(faults.stats().byzantine_served, 3u);
  faults.RecordByzantineDetected();
  EXPECT_EQ(faults.stats().byzantine_detected, 1u);
}

// --- corruption-verified reads ------------------------------------------------

zvol::VolumeConfig SmallVolumeConfig(std::uint32_t threads = 0) {
  zvol::VolumeConfig config{.block_size = 1024,
                            .codec = compress::CodecId::kGzip1,
                            .dedup = true};
  if (threads > 0) config.ingest.threads = threads;
  return config;
}

Bytes RandomContent(std::uint64_t seed, std::size_t bytes) {
  Bytes content(bytes);
  util::Rng(seed).Fill(content);
  return content;
}

TEST(FaultRead, CorruptBlockRaisesTypedErrorWithDigest) {
  zvol::Volume volume(SmallVolumeConfig());
  volume.WriteFile("f", BufferSource(RandomContent(1, 64 * 1024)));
  FaultInjector faults(2, FaultProfile{.block_corrupt_rate = 0.2});
  ASSERT_GT(volume.InjectFaults(faults), 0u);
  try {
    volume.ReadRange("f", 0, volume.FileSize("f"));
    FAIL() << "expected BlockCorruptionError";
  } catch (const store::BlockCorruptionError& e) {
    // The error names the corrupt physical block.
    EXPECT_NE(e.digest(), util::Digest{});
  }
}

TEST(FaultRead, FailingDigestIdenticalAcrossThreadCounts) {
  std::set<std::string> seen;
  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    zvol::Volume volume(SmallVolumeConfig(threads));
    volume.WriteFile("f", BufferSource(RandomContent(3, 256 * 1024)));
    FaultInjector faults(4, FaultProfile{.block_corrupt_rate = 0.05});
    ASSERT_GT(volume.InjectFaults(faults), 0u);
    try {
      volume.ReadRange("f", 0, volume.FileSize("f"));
      FAIL() << "expected BlockCorruptionError at threads=" << threads;
    } catch (const store::BlockCorruptionError& e) {
      seen.insert(e.digest().ToHex());
    }
  }
  // One decision per physical block, in input order — not a race winner.
  EXPECT_EQ(seen.size(), 1u);
}

// --- scrub-repair -------------------------------------------------------------

TEST(FaultRepair, ScrubRepairRestoresByteIdenticalState) {
  const Bytes content = RandomContent(7, 512 * 1024);  // 512 blocks
  zvol::Volume volume(SmallVolumeConfig());
  volume.WriteFile("f", BufferSource(content));
  volume.CreateSnapshot("s1", 100);

  // Healthy peer replica: restored from the volume's own pre-fault image.
  const Bytes image = volume.Serialize();
  const std::unique_ptr<zvol::Volume> peer = zvol::Volume::Deserialize(image);

  // The acceptance rate: 1e-3 per block is too sparse for a 512-block
  // volume, so drive the same machinery at a rate that guarantees hits;
  // the schedule is deterministic either way.
  FaultInjector faults(8, FaultProfile{.block_corrupt_rate = 0.05});
  ASSERT_GT(volume.InjectFaults(faults), 0u);

  zvol::RepairSession session({{0, &peer->block_store()}});
  const zvol::Volume::RepairReport report = volume.ScrubRepair(session);
  EXPECT_GT(report.errors_found, 0u);
  EXPECT_EQ(report.repaired, report.errors_found);
  EXPECT_EQ(report.unrepairable, 0u);
  EXPECT_GT(report.repaired_bytes, 0u);

  // Digest-verified byte-identical restoration: a fresh scrub is clean and
  // the file reads back exactly.
  const zvol::Volume::ScrubReport rescrub = volume.Scrub();
  EXPECT_EQ(rescrub.errors, 0u);
  EXPECT_EQ(volume.ReadRange("f", 0, content.size()), content);
}

TEST(FaultRepair, CorruptPeerBlocksAreUnrepairable) {
  zvol::Volume volume(SmallVolumeConfig());
  volume.WriteFile("f", BufferSource(RandomContent(9, 128 * 1024)));
  const Bytes image = volume.Serialize();
  const std::unique_ptr<zvol::Volume> peer = zvol::Volume::Deserialize(image);

  // Corrupt both replicas with the same schedule: every block the scrub
  // flags is corrupt on the peer too, so nothing can heal.
  FaultInjector faults_local(10, FaultProfile{.block_corrupt_rate = 0.1});
  FaultInjector faults_peer(10, FaultProfile{.block_corrupt_rate = 0.1});
  ASSERT_GT(volume.InjectFaults(faults_local), 0u);
  ASSERT_GT(peer->InjectFaults(faults_peer), 0u);

  zvol::RepairSession session({{0, &peer->block_store()}});
  const zvol::Volume::RepairReport report = volume.ScrubRepair(session);
  EXPECT_GT(report.errors_found, 0u);
  EXPECT_EQ(report.repaired, 0u);
  EXPECT_EQ(report.unrepairable, report.errors_found);
}

TEST(FaultRepair, ReadRangeRepairHealsOnDemand) {
  const Bytes content = RandomContent(12, 256 * 1024);
  zvol::Volume volume(SmallVolumeConfig());
  volume.WriteFile("f", BufferSource(content));
  const Bytes image = volume.Serialize();
  const std::unique_ptr<zvol::Volume> peer = zvol::Volume::Deserialize(image);

  FaultInjector faults(13, FaultProfile{.block_corrupt_rate = 0.05});
  ASSERT_GT(volume.InjectFaults(faults), 0u);

  zvol::RepairSession session({{0, &peer->block_store()}});
  std::uint64_t fetched = 0;
  const Bytes got = volume.ReadRangeRepair(store::kDefaultTenant, "f", 0,
                                           content.size(), session, &fetched);
  EXPECT_EQ(got, content);
  EXPECT_GT(fetched, 0u);
  // The heal is persistent, not per-read: a scrub afterwards is clean.
  EXPECT_EQ(volume.Scrub().errors, 0u);
}

// --- retrying replication -----------------------------------------------------

TEST(Retry, BackoffDeterministicCappedAndJittered) {
  core::RetryPolicy policy;
  policy.base_seconds = 0.5;
  policy.max_seconds = 4.0;
  policy.jitter = 0.1;
  double prev_cap = 0.0;
  for (std::uint32_t attempt = 2; attempt <= 8; ++attempt) {
    const double wait = core::BackoffSeconds(policy, 3, 42, attempt);
    EXPECT_EQ(wait, core::BackoffSeconds(policy, 3, 42, attempt));  // replays
    const double expected =
        std::min(policy.base_seconds * static_cast<double>(1u << (attempt - 2)),
                 policy.max_seconds);
    EXPECT_GE(wait, expected);
    EXPECT_LE(wait, expected * (1.0 + policy.jitter));
    EXPECT_GE(wait, prev_cap);  // non-decreasing up to the cap
    prev_cap = expected;
  }
  // Jitter decorrelates nodes retrying the same transfer.
  EXPECT_NE(core::BackoffSeconds(policy, 1, 42, 2),
            core::BackoffSeconds(policy, 2, 42, 2));
}

core::SquirrelConfig ClusterConfig() {
  core::SquirrelConfig config;
  config.volume = zvol::VolumeConfig{.block_size = 4096,
                                     .codec = compress::CodecId::kGzip6,
                                     .dedup = true};
  return config;
}

Bytes CacheContent(std::uint64_t seed) {
  Bytes content(32 * 4096, 0);
  util::Rng(seed).Fill(util::MutableByteSpan(content.data(), 24 * 4096));
  return content;
}

TEST(Retry, DisarmedClusterMatchesNoInjectorBitForBit) {
  core::SquirrelCluster plain(ClusterConfig(), 3);
  core::SquirrelCluster armed(ClusterConfig(), 3);
  FaultInjector faults(1, FaultProfile{});  // all-zero rates
  armed.SetFaultInjector(&faults);

  const auto a = plain.Register({"img", BufferSource(CacheContent(5)), core::SimClock::FromSeconds(1000)});
  const auto b = armed.Register({"img", BufferSource(CacheContent(5)), core::SimClock::FromSeconds(1000)});
  EXPECT_EQ(a.receivers, b.receivers);
  EXPECT_EQ(a.diff_wire_bytes, b.diff_wire_bytes);
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(b.transfers.retries, 0u);
  EXPECT_EQ(b.transfers.abandoned, 0u);
  EXPECT_EQ(b.transfers.retransmitted_bytes, 0u);
  EXPECT_EQ(plain.network().TotalBytesIn(0, 4),
            armed.network().TotalBytesIn(0, 4));
}

TEST(Retry, FaultedTransfersRetryAndStillDeliver) {
  core::SquirrelCluster cluster(ClusterConfig(), 4);
  FaultInjector faults(6, FaultProfile{.transfer_fail_rate = 0.4,
                                       .transfer_corrupt_rate = 0.2,
                                       .transfer_delay_seconds = 0.05});
  cluster.SetFaultInjector(&faults);

  core::TransferStats totals;
  for (int i = 0; i < 6; ++i) {
    const auto report = cluster.Register({"img-" + std::to_string(i), BufferSource(CacheContent(i)), core::SimClock::FromSeconds(1000 + i)});
    totals.attempts += report.transfers.attempts;
    totals.retries += report.transfers.retries;
    totals.abandoned += report.transfers.abandoned;
    totals.retransmitted_bytes += report.transfers.retransmitted_bytes;
    totals.backoff_seconds += report.transfers.backoff_seconds;
  }
  EXPECT_GT(totals.retries, 0u);
  EXPECT_GT(totals.retransmitted_bytes, 0u);
  EXPECT_GT(totals.backoff_seconds, 0.0);
  // Retries did their job: every node that wasn't abandoned has every cache.
  std::uint64_t abandoned_nodes = totals.abandoned;
  for (std::uint32_t n = 0; n < 4; ++n) {
    bool complete = true;
    for (int i = 0; i < 6; ++i) {
      complete &= cluster.compute_node(n).volume().HasFile(
          core::SquirrelCluster::CacheFileName("img-" + std::to_string(i)));
    }
    if (!complete) {
      ASSERT_GT(abandoned_nodes, 0u);
      // An abandoned node reconciles through the boot-time sync path.
      const auto sync = cluster.SyncNode(n, core::SimClock::FromSeconds(2000));
      if (sync.transfers.abandoned == 0) {
        EXPECT_GT(sync.snapshots_advanced, 0u);
      }
    }
  }
}

TEST(Retry, AbandonsAfterMaxAttempts) {
  core::SquirrelConfig config = ClusterConfig();
  config.retry.max_attempts = 3;
  core::SquirrelCluster cluster(config, 2);
  FaultInjector faults(7, FaultProfile{.transfer_fail_rate = 1.0});
  cluster.SetFaultInjector(&faults);

  const auto report =
      cluster.Register({"img", BufferSource(CacheContent(1)), core::SimClock::FromSeconds(1000)});
  EXPECT_EQ(report.receivers, 0u);
  EXPECT_EQ(report.transfers.abandoned, 2u);
  EXPECT_EQ(report.transfers.attempts, 6u);  // 3 per node
  EXPECT_EQ(report.transfers.retries, 4u);   // 2 per node
}

TEST(FaultRepair, DegradedBootHealsFromStorageNodeAndChargesNetwork) {
  core::SquirrelCluster cluster(ClusterConfig(), 2);
  const Bytes cache = CacheContent(3);
  cluster.Register({"img", BufferSource(cache), core::SimClock::FromSeconds(1000)});

  // Corrupt the booting node's ccVolume; the scVolume stays healthy.
  FaultInjector faults(14, FaultProfile{.block_corrupt_rate = 0.2});
  ASSERT_GT(cluster.compute_node(0).volume().InjectFaults(faults), 0u);

  std::vector<vmi::BootRead> trace;
  for (std::uint64_t off = 0; off < 24 * 4096; off += 8192) {
    trace.push_back({off, 8192});
  }
  sim::IoContext io;
  const core::BootReport report =
      cluster.Boot(0,
      {.image_id = "img", .base_image = BufferSource(cache), .trace = trace},
      io);
  EXPECT_GT(report.degraded.repair_reads, 0u);
  EXPECT_GT(report.degraded.repaired_bytes, 0u);
  // Healing traffic comes from the storage node over the network — the
  // warm-replica headline property is given up exactly where corruption hit.
  EXPECT_GE(report.network_bytes, report.degraded.repaired_bytes);
  // The heal is persistent: the replica scrubs clean afterwards.
  EXPECT_EQ(cluster.compute_node(0).volume().Scrub().errors, 0u);
}

TEST(Retry, RetrySecondsExtendRegistrationByTheSlowestNode) {
  core::SquirrelConfig config = ClusterConfig();
  config.retry.base_seconds = 1.0;
  config.retry.jitter = 0.0;
  core::SquirrelCluster plain(config, 2);
  core::SquirrelCluster faulty(config, 2);
  FaultInjector faults(9, FaultProfile{.transfer_fail_rate = 0.6});
  faulty.SetFaultInjector(&faults);

  const auto clean = plain.Register({"img", BufferSource(CacheContent(2)), core::SimClock::FromSeconds(0)});
  const auto retried = faulty.Register({"img", BufferSource(CacheContent(2)), core::SimClock::FromSeconds(0)});
  if (retried.transfers.retries > 0) {
    EXPECT_GT(retried.total_seconds, clean.total_seconds);
  } else {
    EXPECT_EQ(retried.total_seconds, clean.total_seconds);
  }
}

}  // namespace
}  // namespace squirrel
