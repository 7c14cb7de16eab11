// Crash-consistency, disk-full, and Byzantine-peer fault model
// (DESIGN.md §15): crash-at-every-site sweeps over the staged Receive
// paths, disk-full unwind with space-map invariants, and
// RepairSession blacklisting of peers that serve wrong payloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "buffer_source.h"
#include "store/block_store.h"
#include "store/space_map.h"
#include "store_invariants.h"
#include "util/fault_injector.h"
#include "util/rng.h"
#include "zvol/volume.h"

namespace squirrel::zvol {
namespace {

using util::Bytes;

using test::BufferSource;

constexpr std::uint32_t kBlock = 4096;

/// Per-block mixed content: random, low-entropy (dedup/compress-prone), and
/// zero (hole) blocks, deterministic per seed.
Bytes MixedContent(std::size_t blocks, std::uint64_t seed) {
  util::Rng rng(seed);
  Bytes content(blocks * kBlock, 0);
  for (std::size_t b = 0; b < blocks; ++b) {
    util::MutableByteSpan chunk(content.data() + b * kBlock, kBlock);
    switch (rng.Below(4)) {
      case 0:
        break;  // hole
      case 1:
        std::fill(chunk.begin(), chunk.end(),
                  static_cast<util::Byte>(rng.Below(4) + 1));
        break;
      default:
        rng.Fill(chunk);
    }
  }
  return content;
}

Bytes RandomBytes(std::size_t size, std::uint64_t seed) {
  Bytes data(size);
  util::Rng(seed).Fill(data);
  return data;
}

/// Donor-derived streams the sweeps replay: a full stream to s1, the
/// incremental diff s1 -> s2 (with a deletion, a modification, and a new
/// file), and a full stream to s2 (ReceiveFull input).
struct DonorStreams {
  VolumeConfig config;
  SendStream full_s1;
  SendStream incr_s2;
  SendStream full_s2;
};

DonorStreams MakeDonorStreams() {
  DonorStreams d;
  d.config = VolumeConfig{.block_size = kBlock,
                          .codec = compress::CodecId::kGzip1,
                          .dedup = true};
  Volume donor(d.config);
  // "a" and "c" share their first block, so the s1 -> s2 diff carries that
  // block of "c" by reference (reachable from s1) — exercising the Ref path
  // of the apply alongside the carried-payload path.
  const Bytes shared = RandomBytes(kBlock, 55);
  Bytes a = shared;
  const Bytes a_tail = MixedContent(5, 11);
  a.insert(a.end(), a_tail.begin(), a_tail.end());
  const Bytes b = MixedContent(4, 22);
  donor.WriteFile("a", BufferSource(a));
  donor.WriteFile("b", BufferSource(b));
  donor.CreateSnapshot("s1", 10);
  const Bytes patch = RandomBytes(2 * kBlock, 33);
  donor.WriteRange("a", kBlock, patch);
  donor.DeleteFile("b");
  Bytes c = shared;
  const Bytes c_tail = MixedContent(4, 44);
  c.insert(c.end(), c_tail.begin(), c_tail.end());
  donor.WriteFile("c", BufferSource(c));
  donor.CreateSnapshot("s2", 20);
  d.full_s1 = donor.Send("", "s1");
  d.incr_s2 = donor.Send("s1", "s2");
  d.full_s2 = donor.Send("", "s2");
  return d;
}

/// Arms a crash at every site in turn and re-delivers after each simulated
/// death until an attempt completes cleanly, asserting the volume's
/// invariants after every crash. Returns the number of crashes observed
/// (== the number of crash sites one clean delivery passes).
template <typename Deliver>
int RunCrashSweep(util::FaultInjector& faults, const Volume& volume,
                  Deliver deliver) {
  int crashes = 0;
  for (std::uint64_t nth = 0; nth < 1000; ++nth) {
    faults.ArmCrashAt(nth);
    bool crashed = false;
    try {
      deliver();
    } catch (const util::CrashError& e) {
      crashed = true;
      ++crashes;
      test::ExpectVolumeInvariants(volume,
                                   std::string("after crash at ") + e.site());
    }
    if (!crashed) {
      faults.DisarmCrash();
      return crashes;
    }
  }
  ADD_FAILURE() << "crash sweep did not terminate";
  faults.DisarmCrash();
  return crashes;
}

// --- crash-at-every-site sweeps ---------------------------------------------

TEST(CrashSweep, FullStreamResumesOrRollsBack) {
  const DonorStreams d = MakeDonorStreams();
  Volume reference(d.config);
  reference.Receive(d.full_s1);
  const Bytes expected = reference.Serialize();

  util::FaultInjector faults(0x5eed, util::FaultProfile{});
  Volume replica(d.config);
  replica.SetFaultInjector(&faults);
  const int crashes =
      RunCrashSweep(faults, replica, [&] { replica.Receive(d.full_s1); });
  EXPECT_GT(crashes, 3) << "sweep passed suspiciously few crash sites";
  EXPECT_EQ(static_cast<std::uint64_t>(crashes),
            faults.stats().crashes_injected);
  // Bit-identity to the never-crashed apply.
  EXPECT_EQ(replica.Serialize(), expected);
  test::ExpectVolumeInvariants(replica, "full sweep done");
}

TEST(CrashSweep, IncrementalStreamResumesOrRollsBack) {
  const DonorStreams d = MakeDonorStreams();
  Volume reference(d.config);
  reference.Receive(d.full_s1);
  reference.Receive(d.incr_s2);
  const Bytes expected = reference.Serialize();

  util::FaultInjector faults(0x5eed, util::FaultProfile{});
  Volume replica(d.config);
  replica.SetFaultInjector(&faults);
  replica.Receive(d.full_s1);  // clean base; nothing armed yet
  const int crashes =
      RunCrashSweep(faults, replica, [&] { replica.Receive(d.incr_s2); });
  EXPECT_GT(crashes, 3);
  EXPECT_EQ(replica.Serialize(), expected);
  test::ExpectVolumeInvariants(replica, "incremental sweep done");
}

TEST(CrashSweep, ReceiveFullResumesOrRollsBack) {
  const DonorStreams d = MakeDonorStreams();
  Volume reference(d.config);
  reference.Receive(d.full_s1);
  reference.ReceiveFull(d.full_s2);
  const Bytes expected = reference.Serialize();

  util::FaultInjector faults(0x5eed, util::FaultProfile{});
  Volume replica(d.config);
  replica.SetFaultInjector(&faults);
  replica.Receive(d.full_s1);
  // A crash between the drop and the commit leaves the replica empty — the
  // re-delivery must still converge (it applies into the empty volume).
  const int crashes =
      RunCrashSweep(faults, replica, [&] { replica.ReceiveFull(d.full_s2); });
  EXPECT_GT(crashes, 3);
  EXPECT_EQ(replica.Serialize(), expected);
  test::ExpectVolumeInvariants(replica, "receive_full sweep done");
}

// --- targeted crash semantics ------------------------------------------------

TEST(Crash, RedeliveryAfterCommittedCrashIsIdempotent) {
  const DonorStreams d = MakeDonorStreams();
  // Count the crash sites one clean transactional apply passes.
  util::FaultInjector probe(0x5eed, util::FaultProfile{});
  Volume counter(d.config);
  counter.SetFaultInjector(&probe);
  probe.ArmCrashAt(std::uint64_t(-1));  // resets the position counter
  probe.DisarmCrash();
  counter.Receive(d.full_s1);
  const std::uint64_t sites = probe.crash_sites_passed();
  ASSERT_GT(sites, 0u);

  // The last site interrogated is "receive/committed" — past the commit
  // point. A crash there must leave the stream fully applied and the
  // re-delivery a no-op (not a StreamMismatchError).
  util::FaultInjector faults(0x5eed, util::FaultProfile{});
  Volume replica(d.config);
  replica.SetFaultInjector(&faults);
  faults.ArmCrashAt(sites - 1);
  try {
    replica.Receive(d.full_s1);
    FAIL() << "armed crash did not fire";
  } catch (const util::CrashError& e) {
    EXPECT_EQ(e.site(), "receive/committed");
  }
  ASSERT_NE(replica.LatestSnapshot(), nullptr);
  EXPECT_EQ(replica.LatestSnapshot()->name, d.full_s1.to_name);
  const Bytes committed = replica.Serialize();
  replica.Receive(d.full_s1);  // idempotent re-delivery
  EXPECT_EQ(replica.Serialize(), committed);
  test::ExpectVolumeInvariants(replica);
}

TEST(Crash, RollbackRestoresExactPreStreamState) {
  const DonorStreams d = MakeDonorStreams();
  util::FaultInjector faults(0x5eed, util::FaultProfile{});
  Volume replica(d.config);
  replica.SetFaultInjector(&faults);
  replica.Receive(d.full_s1);
  const Bytes before = replica.Serialize();
  // Crash early (site 1, inside the apply): everything must roll back.
  faults.ArmCrashAt(1);
  EXPECT_THROW(replica.Receive(d.incr_s2), util::CrashError);
  faults.DisarmCrash();
  EXPECT_EQ(replica.Serialize(), before);
  test::ExpectVolumeInvariants(replica);
}

TEST(Crash, ReceiveFullValidatesBeforeDropping) {
  // Regression: ReceiveFull used to wipe the volume (files + snapshots)
  // before validating the stream, so a mismatched or damaged stream
  // destroyed data it could never replace. Validation must come first.
  const DonorStreams d = MakeDonorStreams();
  Volume replica(d.config);
  replica.Receive(d.full_s1);
  const Bytes before = replica.Serialize();

  // Damaged carried payload — caught by the record checksum re-check.
  SendStream damaged = d.full_s2;
  bool flipped = false;
  for (auto& file : damaged.files) {
    for (auto& block : file.blocks) {
      if (block.has_payload && !block.payload.empty()) {
        block.payload[0] ^= 0xff;
        flipped = true;
        break;
      }
    }
    if (flipped) break;
  }
  ASSERT_TRUE(flipped);
  EXPECT_THROW(replica.ReceiveFull(damaged), Error);
  EXPECT_EQ(replica.Serialize(), before) << "damaged stream wiped the volume";

  // Wrong block size — rejected before anything is dropped.
  SendStream mismatched = d.full_s2;
  mismatched.block_size = d.config.block_size * 2;
  EXPECT_THROW(replica.ReceiveFull(mismatched), StreamMismatchError);
  EXPECT_EQ(replica.Serialize(), before) << "mismatched stream wiped the volume";
  test::ExpectVolumeInvariants(replica);
}

TEST(Crash, ReceiveFullDanglingReferenceLeavesVolume) {
  // Regression: a full stream whose by-reference record names a digest no
  // payload record carries passed validation, so ReceiveFull dropped the
  // replica's files and snapshots before the apply found the dangling
  // reference — and the rollback could only restore the emptied volume.
  const DonorStreams d = MakeDonorStreams();
  SendStream dangling = d.full_s2;
  bool rewired = false;
  for (auto& file : dangling.files) {
    for (auto& block : file.blocks) {
      if (!block.has_payload && !block.hole) {
        block.digest.bytes[0] ^= 0x01;  // no payload record carries it now
        rewired = true;
        break;
      }
    }
    if (rewired) break;
  }
  ASSERT_TRUE(rewired) << "full stream carried no by-reference blocks";

  Volume replica(d.config);
  replica.Receive(d.full_s1);
  const Bytes before = replica.Serialize();
  EXPECT_THROW(replica.ReceiveFull(dangling), StreamCorruptError);
  EXPECT_EQ(replica.Serialize(), before)
      << "dangling reference wiped the volume";
  test::ExpectVolumeInvariants(replica);
}

TEST(Crash, MidApplyStreamDamageRollsBackTransactionally) {
  // A damaged stream must leave the replica exactly as it was whether or
  // not an injector is armed — atomicity is not test instrumentation. Two
  // damaged streams, both rejected by validation before the apply starts:
  // a reference to a block the replica does not hold, and a carried
  // payload whose record claims a digest its bytes do not hash to,
  // referenced by a later record (the receiver hashes every carried
  // payload). DiskFull.ReceiveRollsBackAndReportsRefusals covers a failure
  // that does reach the apply with nothing armed.
  const DonorStreams d = MakeDonorStreams();
  SendStream unknown_ref = d.incr_s2;
  bool rewired = false;
  for (auto& file : unknown_ref.files) {
    for (auto& block : file.blocks) {
      if (!block.has_payload && !block.hole) {
        block.digest.bytes[0] ^= 0x01;  // now references an unknown block
        rewired = true;
        break;
      }
    }
    if (rewired) break;
  }
  ASSERT_TRUE(rewired) << "incremental stream carried no by-reference blocks";

  SendStream mislabeled = d.incr_s2;
  BlockRecord* payload = nullptr;
  BlockRecord* reference = nullptr;
  for (auto& file : mislabeled.files) {
    for (auto& block : file.blocks) {
      if (payload == nullptr && block.has_payload) {
        payload = &block;
      } else if (payload != nullptr && reference == nullptr &&
                 !block.has_payload && !block.hole) {
        reference = &block;
      }
    }
  }
  ASSERT_NE(payload, nullptr);
  ASSERT_NE(reference, nullptr) << "no by-reference record after a payload";
  payload->digest.bytes[0] ^= 0x01;  // the record's claim, not its bytes
  reference->digest = payload->digest;

  struct Case {
    const char* name;
    const SendStream* stream;
    bool reaches_apply;
  };
  for (const Case& c : {Case{"unknown reference", &unknown_ref, false},
                        Case{"mislabeled payload", &mislabeled, false}}) {
    for (const bool armed : {true, false}) {
      SCOPED_TRACE(std::string(c.name) +
                   (armed ? ", injector armed" : ", nothing armed"));
      util::FaultInjector faults(0x5eed, util::FaultProfile{});
      Volume replica(d.config);
      if (armed) replica.SetFaultInjector(&faults);
      replica.Receive(d.full_s1);
      const Bytes before = replica.Serialize();
      const std::uint64_t sites = faults.crash_sites_passed();
      EXPECT_THROW(replica.Receive(*c.stream), StreamCorruptError);
      EXPECT_EQ(replica.Serialize(), before);
      test::ExpectVolumeInvariants(replica);
      if (armed) {
        // The apply's crash sites show whether the stream got past
        // validation.
        EXPECT_EQ(faults.crash_sites_passed() > sites, c.reaches_apply);
      }
    }
  }
}

TEST(Receive, MislabeledPayloadRejectedBeforeApply) {
  // A payload record whose digest its bytes do not hash to, with nothing
  // referencing it, must not apply: the receiver installs carried bytes
  // under the record's digest, so it hashes every carried payload first.
  // Checked for the incremental stream through Receive and for a full
  // stream through ReceiveFull, with and without an injector armed.
  const DonorStreams d = MakeDonorStreams();
  const auto mislabel_last_payload = [](SendStream stream) {
    BlockRecord* last = nullptr;
    for (auto& file : stream.files) {
      for (auto& block : file.blocks) {
        if (block.has_payload) last = &block;
      }
    }
    EXPECT_NE(last, nullptr) << "stream carries no payload";
    if (last != nullptr) last->digest.bytes[0] ^= 0x01;
    return stream;
  };
  const SendStream incremental = mislabel_last_payload(d.incr_s2);
  const SendStream full = mislabel_last_payload(d.full_s2);

  for (const bool armed : {true, false}) {
    SCOPED_TRACE(armed ? "injector armed" : "nothing armed");
    util::FaultInjector faults(0x5eed, util::FaultProfile{});
    Volume replica(d.config);
    if (armed) replica.SetFaultInjector(&faults);
    replica.Receive(d.full_s1);
    const Bytes before = replica.Serialize();
    const std::uint64_t sites = faults.crash_sites_passed();
    EXPECT_THROW(replica.Receive(incremental), StreamCorruptError);
    EXPECT_EQ(replica.Serialize(), before);
    EXPECT_THROW(replica.ReceiveFull(full), StreamCorruptError);
    EXPECT_EQ(replica.Serialize(), before);
    test::ExpectVolumeInvariants(replica);
    // No crash site passed: both streams stopped in validation.
    EXPECT_EQ(faults.crash_sites_passed(), sites);
  }
}

// --- disk-full unwind --------------------------------------------------------

VolumeConfig TinyPoolConfig(std::uint64_t capacity_bytes) {
  VolumeConfig config{.block_size = kBlock,
                      .codec = compress::CodecId::kNull,
                      .dedup = true};
  config.capacity_bytes = capacity_bytes;
  return config;
}

TEST(DiskFull, WriteFileUnwindsPartialBatch) {
  // Pool fits 3 blocks. The second file's batch commits one block, then the
  // refused allocation must unwind it — no leaked refs or extents.
  Volume volume(TinyPoolConfig(3 * kBlock));
  const Bytes ok = RandomBytes(2 * kBlock, 1);
  volume.WriteFile("ok", BufferSource(ok));
  ASSERT_EQ(volume.block_store().space_map_stats().allocated_bytes,
            2 * kBlock);
  const Bytes big = RandomBytes(2 * kBlock, 2);
  EXPECT_THROW(volume.WriteFile("big", BufferSource(big)),
               store::NoSpaceError);
  EXPECT_FALSE(volume.HasFile("big"));
  EXPECT_EQ(volume.block_store().space_map_stats().allocated_bytes,
            2 * kBlock);
  EXPECT_EQ(volume.ReadRange("ok", 0, ok.size()), ok);
  test::ExpectVolumeInvariants(volume, "after refused WriteFile");
}

TEST(DiskFull, ReceiveRollsBackAndReportsRefusals) {
  VolumeConfig donor_config{.block_size = kBlock,
                            .codec = compress::CodecId::kNull,
                            .dedup = true};
  Volume donor(donor_config);
  donor.WriteFile("a", BufferSource(RandomBytes(2 * kBlock, 3)));
  donor.CreateSnapshot("s1", 10);
  donor.WriteFile("huge", BufferSource(RandomBytes(6 * kBlock, 4)));
  donor.CreateSnapshot("s2", 20);

  // Capacity fits exactly s1; with no injector armed the overflow must
  // still roll back.
  Volume replica(TinyPoolConfig(2 * kBlock));
  replica.Receive(donor.Send("", "s1"));
  const Bytes before = replica.Serialize();
  {
    test::VolumeInvariantGuard guard(replica, "incremental overflow");
    EXPECT_THROW(replica.Receive(donor.Send("s1", "s2")),
                 store::NoSpaceError);
  }
  EXPECT_EQ(replica.Serialize(), before);
  ASSERT_NE(replica.LatestSnapshot(), nullptr);
  EXPECT_EQ(replica.LatestSnapshot()->name, "s1");

  // Same overflow with an injector armed: the refusal is counted.
  util::FaultInjector faults(0x5eed, util::FaultProfile{});
  Volume counted(TinyPoolConfig(2 * kBlock));
  counted.SetFaultInjector(&faults);
  counted.Receive(donor.Send("", "s1"));
  EXPECT_THROW(counted.Receive(donor.Send("s1", "s2")), store::NoSpaceError);
  EXPECT_GE(faults.stats().allocations_refused, 1u);
  test::ExpectVolumeInvariants(counted);
}

TEST(DiskFull, ScrubRepairSkipsAndReports) {
  // A torn write truncated one stored block; the pool then filled up. The
  // repair wants the block's full extent back, which no longer fits — the
  // scrub must skip-and-report, not abort, and the unwind must restore the
  // space map exactly.
  Volume volume(TinyPoolConfig(4 * kBlock));
  const Bytes content = RandomBytes(4 * kBlock, 5);
  volume.WriteFile("f", BufferSource(content));
  ASSERT_EQ(volume.block_store().space_map_stats().allocated_bytes,
            4 * kBlock);
  ASSERT_TRUE(volume.TruncateBlockForTesting("f", 0));
  // Fill the hole the truncation opened: 4096 - 512 = 3584 bytes, which is
  // sector-aligned, so the pool is exactly full again.
  volume.WriteFile("filler", BufferSource(RandomBytes(3584, 6)));
  ASSERT_EQ(volume.block_store().space_map_stats().allocated_bytes,
            4 * kBlock);

  Volume donor(TinyPoolConfig(0));
  donor.WriteFile("f", BufferSource(content));

  util::FaultInjector faults(7, util::FaultProfile{});
  RepairSession session({{0, &donor.block_store()}}, &faults);
  const auto report = volume.ScrubRepair(session);
  EXPECT_EQ(report.errors_found, 1u);
  EXPECT_EQ(report.repaired, 0u);
  EXPECT_EQ(report.no_space_skips, 1u);
  EXPECT_EQ(report.unrepairable, 1u);
  EXPECT_EQ(volume.block_store().space_map_stats().allocated_bytes,
            4 * kBlock);
  test::ExpectVolumeInvariants(volume, "after skipped repair");
}

TEST(DiskFull, CrashSweepUnderCapacityHoldsInvariants) {
  // Crash sweep with a capacity armed as well: every unwind (crash or
  // otherwise) must keep the space map consistent with the refcounts.
  const DonorStreams d = MakeDonorStreams();
  Volume reference(d.config);
  reference.Receive(d.full_s1);
  const Bytes expected = reference.Serialize();

  VolumeConfig capped = d.config;
  capped.capacity_bytes = 64 * kBlock;  // ample: capacity arms, never refuses
  util::FaultInjector faults(0x5eed, util::FaultProfile{});
  Volume replica(capped);
  replica.SetFaultInjector(&faults);
  const int crashes =
      RunCrashSweep(faults, replica, [&] { replica.Receive(d.full_s1); });
  EXPECT_GT(crashes, 3);
  EXPECT_EQ(replica.Serialize(), expected);
}

// --- Byzantine peers ---------------------------------------------------------

TEST(Byzantine, LyingPeerIsBlacklistedAndBlocksResourced) {
  VolumeConfig config{.block_size = kBlock,
                      .codec = compress::CodecId::kNull,
                      .dedup = true};
  const Bytes content = RandomBytes(8 * kBlock, 7);
  Volume local(config);
  local.WriteFile("f", BufferSource(content));
  Volume honest(config);
  honest.WriteFile("f", BufferSource(content));
  Volume liar(config);
  liar.WriteFile("f", BufferSource(content));

  for (std::uint64_t b = 0; b < 5; ++b) {
    ASSERT_TRUE(local.CorruptBlockForTesting("f", b));
  }

  // Every peer but id 0 is Byzantine; the liar (id 1) is consulted first.
  util::FaultInjector faults(9, util::FaultProfile{.byzantine_peer_rate = 1.0});
  ASSERT_TRUE(faults.PeerIsByzantine(1));
  RepairSession session({{1, &liar.block_store()}, {0, &honest.block_store()}},
                        &faults);
  const auto report = local.ScrubRepair(session);
  EXPECT_EQ(report.errors_found, 5u);
  EXPECT_EQ(report.repaired, 5u);
  EXPECT_EQ(report.unrepairable, 0u);
  // The liar serves wrong bytes for the first kStrikeLimit blocks, earning
  // a strike each; after blacklisting it is never consulted again.
  EXPECT_EQ(report.byzantine_rejected, RepairSession::kStrikeLimit);
  EXPECT_EQ(report.peers_blacklisted, 1u);
  EXPECT_EQ(report.resourced_blocks, RepairSession::kStrikeLimit);
  // Every served lie was detected — none accepted.
  EXPECT_EQ(faults.stats().byzantine_served, RepairSession::kStrikeLimit);
  EXPECT_EQ(faults.stats().byzantine_detected,
            faults.stats().byzantine_served);

  EXPECT_EQ(local.Scrub().errors, 0u);
  EXPECT_EQ(local.ReadRange("f", 0, content.size()), content);
  test::ExpectVolumeInvariants(local);
}

TEST(Byzantine, DegradedReadHealsThroughSession) {
  VolumeConfig config{.block_size = kBlock,
                      .codec = compress::CodecId::kNull,
                      .dedup = true};
  const Bytes content = RandomBytes(4 * kBlock, 8);
  Volume local(config);
  local.WriteFile("f", BufferSource(content));
  Volume honest(config);
  honest.WriteFile("f", BufferSource(content));
  Volume liar(config);
  liar.WriteFile("f", BufferSource(content));
  ASSERT_TRUE(local.CorruptBlockForTesting("f", 0));

  util::FaultInjector faults(9, util::FaultProfile{.byzantine_peer_rate = 1.0});
  RepairSession session({{1, &liar.block_store()}, {0, &honest.block_store()}},
                        &faults);
  std::uint64_t fetched = 0;
  const Bytes read = local.ReadRangeRepair(store::kDefaultTenant, "f", 0,
                                           content.size(), session, &fetched);
  EXPECT_EQ(read, content);
  // The lie's bytes crossed the wire too, then the honest copy.
  EXPECT_GE(fetched, 2u * kBlock);
  EXPECT_EQ(session.resourced_blocks(), 1u);
  EXPECT_EQ(session.byzantine_rejected(), 1u);
  EXPECT_EQ(session.peers_blacklisted(), 0u);  // one strike < limit
  test::ExpectVolumeInvariants(local);
}

TEST(Byzantine, AllPeersLyingFailsClosed) {
  VolumeConfig config{.block_size = kBlock,
                      .codec = compress::CodecId::kNull,
                      .dedup = true};
  const Bytes content = RandomBytes(2 * kBlock, 9);
  Volume local(config);
  local.WriteFile("f", BufferSource(content));
  Volume liar_a(config);
  liar_a.WriteFile("f", BufferSource(content));
  Volume liar_b(config);
  liar_b.WriteFile("f", BufferSource(content));
  ASSERT_TRUE(local.CorruptBlockForTesting("f", 0));

  util::FaultInjector faults(9, util::FaultProfile{.byzantine_peer_rate = 1.0});
  RepairSession session(
      {{1, &liar_a.block_store()}, {2, &liar_b.block_store()}}, &faults);
  // No honest peer: the read must fail closed (typed corruption error, no
  // wrong bytes accepted), with both lies rejected by the digest check.
  EXPECT_THROW(local.ReadRangeRepair(store::kDefaultTenant, "f", 0,
                                     content.size(), session),
               store::BlockCorruptionError);
  EXPECT_EQ(session.byzantine_rejected(), 2u);
  EXPECT_EQ(faults.stats().byzantine_detected, 2u);
  test::ExpectVolumeInvariants(local);
}

TEST(Byzantine, UnavailablePeerIsNotStruck) {
  VolumeConfig config{.block_size = kBlock,
                      .codec = compress::CodecId::kNull,
                      .dedup = true};
  const Bytes content = RandomBytes(2 * kBlock, 10);
  Volume local(config);
  local.WriteFile("f", BufferSource(content));
  Volume empty(config);  // honest but holds nothing
  Volume honest(config);
  honest.WriteFile("f", BufferSource(content));
  for (std::uint64_t b = 0; b < 2; ++b) {
    ASSERT_TRUE(local.CorruptBlockForTesting("f", b));
  }

  // No Byzantine schedule at all: the empty peer simply lacks the blocks.
  RepairSession session({{1, &empty.block_store()}, {0, &honest.block_store()}},
                        nullptr);
  const auto report = local.ScrubRepair(session);
  EXPECT_EQ(report.repaired, 2u);
  EXPECT_EQ(report.byzantine_rejected, 0u);
  EXPECT_EQ(report.peers_blacklisted, 0u);  // unavailability is not a lie
  EXPECT_EQ(report.resourced_blocks, 0u);   // nothing was served wrong first
  test::ExpectVolumeInvariants(local);
}

}  // namespace
}  // namespace squirrel::zvol
