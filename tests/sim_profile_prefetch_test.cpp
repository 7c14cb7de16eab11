// Profile-guided boot prefetch: the BootProfile wire format, the
// recording-is-free and prefetch-off bit-identity contracts, the replay
// overlap win, and the degraded-boot pre-heal path.

#include <gtest/gtest.h>

#include <vector>

#include "buffer_source.h"
#include "core/squirrel.h"
#include "sim/devices.h"
#include "sim/io_context.h"
#include "sim/profile_prefetch.h"
#include "util/rng.h"
#include "vmi/boot_profile.h"

namespace squirrel::core {
namespace {

using util::Bytes;

using test::BufferSource;

SquirrelConfig SmallConfig() {
  SquirrelConfig config;
  config.volume = zvol::VolumeConfig{.block_size = 4096,
                                     .codec = compress::CodecId::kGzip6,
                                     .dedup = true};
  // Give the ccVolumes a decompressed-block ARC so profile replay has a
  // cache to warm (the warm is the decompression-CPU half of the win).
  config.volume.read.cache_bytes = 8ull << 20;
  return config;
}

Bytes CacheContent(std::size_t blocks) {
  Bytes content(blocks * 4096);
  util::Rng(99).Fill(content);  // incompressible-ish, all blocks unique
  return content;
}

struct BootRun {
  BootReport report;
  double elapsed_ns = 0.0;
};

/// Registers one image and boots it on node 1 under the given I/O config.
/// The whole cluster is rebuilt per run so store/cache state is identical.
/// `corrupt_stride` > 0 corrupts every Nth ccVolume block before the boot.
BootRun RunBoot(const sim::IoContextConfig& io_config,
                const BootProfileRun* profile, std::size_t blocks = 96,
                std::uint64_t corrupt_stride = 0) {
  SquirrelCluster cluster(SmallConfig(), 2);
  const Bytes content = CacheContent(blocks);
  cluster.Register({"img", BufferSource(content), SimClock::FromSeconds(1000)});

  if (corrupt_stride > 0) {
    zvol::Volume& cc = cluster.compute_node(1).volume();
    const std::string file = SquirrelCluster::CacheFileName("img");
    for (std::uint64_t b = 0; b < cc.FileBlockCount(file);
         b += corrupt_stride) {
      cc.CorruptBlockForTesting(file, b);
    }
  }

  Bytes base = content;
  BufferSource base_image(base);
  std::vector<vmi::BootRead> trace;
  for (std::uint64_t off = 0; off < blocks * 4096; off += 8192) {
    trace.push_back({off, 8192});
  }

  sim::IoContext io(io_config);
  BootRun run;
  run.report = cluster.Boot(1,
      {.image_id = "img", .base_image = base_image, .trace = trace, .profile = profile},
      io);
  run.elapsed_ns = io.elapsed_ns();
  return run;
}

sim::IoContextConfig AsyncConfig(std::uint32_t depth, std::uint32_t readahead) {
  sim::IoContextConfig config;
  config.disk_queue_depth = depth;
  config.readahead_blocks = readahead;
  return config;
}

void ExpectIdenticalRuns(const BootRun& a, const BootRun& b) {
  EXPECT_EQ(a.elapsed_ns, b.elapsed_ns);
  EXPECT_EQ(a.report.result.seconds, b.report.result.seconds);
  EXPECT_EQ(a.report.result.io_seconds, b.report.result.io_seconds);
  EXPECT_EQ(a.report.result.bytes_read, b.report.result.bytes_read);
  EXPECT_EQ(a.report.result.base_bytes_read, b.report.result.base_bytes_read);
  EXPECT_EQ(a.report.result.cache_bytes_read,
            b.report.result.cache_bytes_read);
  EXPECT_EQ(a.report.result.page_cache_hits, b.report.result.page_cache_hits);
  EXPECT_EQ(a.report.result.page_cache_misses,
            b.report.result.page_cache_misses);
  EXPECT_EQ(a.report.network_bytes, b.report.network_bytes);
}

TEST(ProfilePrefetch, SerializeRoundTrip) {
  vmi::BootProfile profile;
  profile.Record("cache/a", 0, false);
  profile.Record("cache/a", 1, false);
  profile.Record("base", 7, true);
  profile.Record("cache/a", 0, true);  // re-touch, hit this time
  const Bytes wire = profile.Serialize();
  const vmi::BootProfile restored = vmi::BootProfile::Deserialize(wire);
  EXPECT_EQ(profile, restored);
  EXPECT_EQ(restored.touches().size(), 4u);
  EXPECT_EQ(restored.files().size(), 2u);
  // First-miss extraction: block 0 appears once despite two touches.
  EXPECT_EQ(restored.BlocksForFile("cache/a", /*misses_only=*/true),
            (std::vector<std::uint64_t>{0, 1}));
  EXPECT_TRUE(restored.BlocksForFile("unknown", false).empty());
}

TEST(ProfilePrefetch, EmptyProfileRoundTrips) {
  const vmi::BootProfile empty;
  const vmi::BootProfile restored =
      vmi::BootProfile::Deserialize(empty.Serialize());
  EXPECT_TRUE(restored.empty());
  EXPECT_EQ(empty, restored);
}

TEST(ProfilePrefetch, DamageRaisesTypedError) {
  vmi::BootProfile profile;
  for (std::uint64_t b = 0; b < 32; ++b) profile.Record("cache/x", b, false);
  const Bytes wire = profile.Serialize();

  // Truncations at every prefix length: typed error, never UB or success.
  for (std::size_t len = 0; len < wire.size(); len += 7) {
    EXPECT_THROW(vmi::BootProfile::Deserialize(util::ByteSpan(wire.data(), len)),
                 vmi::ProfileCorruptError)
        << "truncated to " << len;
  }
  // Single-byte flips across the whole image (header, records, checksums,
  // trailer): the SHA trailer catches them all before parsing trusts bytes.
  for (std::size_t pos = 0; pos < wire.size(); pos += 11) {
    Bytes damaged = wire;
    damaged[pos] ^= 0x40;
    EXPECT_THROW(vmi::BootProfile::Deserialize(damaged),
                 vmi::ProfileCorruptError)
        << "flip at " << pos;
  }
}

TEST(ProfilePrefetch, RecordingIsFree) {
  // A recorded boot must be bit-identical to an unprofiled one — recording
  // only appends to the profile, it never touches the clock or caches.
  const sim::IoContextConfig config = AsyncConfig(8, 4);
  const BootRun plain = RunBoot(config, nullptr);

  vmi::BootProfile profile;
  BootProfileRun record_run;
  record_run.record = &profile;
  const BootRun recorded = RunBoot(config, &record_run);

  ExpectIdenticalRuns(plain, recorded);
  EXPECT_FALSE(profile.empty());
  EXPECT_FALSE(
      profile.BlocksForFile(SquirrelCluster::CacheFileName("img"), true)
          .empty());
}

TEST(ProfilePrefetch, PrefetchOffBitIdentical) {
  // The determinism contract: a BootProfileRun with no replay and no record
  // is indistinguishable from passing no profile at all.
  const sim::IoContextConfig config = AsyncConfig(8, 4);
  const BootRun plain = RunBoot(config, nullptr);
  const BootProfileRun off{};
  const BootRun with_off = RunBoot(config, &off);
  ExpectIdenticalRuns(plain, with_off);
  EXPECT_EQ(with_off.report.prefetch.issued, 0u);
  EXPECT_EQ(with_off.report.preheal.repair_fetches, 0u);
}

TEST(ProfilePrefetch, ReplayStrictlyFasterOnColdCache) {
  for (const std::uint32_t readahead : {0u, 4u}) {
    const sim::IoContextConfig config = AsyncConfig(8, readahead);

    vmi::BootProfile profile;
    BootProfileRun record_run;
    record_run.record = &profile;
    const BootRun first = RunBoot(config, &record_run);

    // Round-trip through the wire format: replay what a node would load.
    const vmi::BootProfile loaded =
        vmi::BootProfile::Deserialize(profile.Serialize());
    BootProfileRun replay_run;
    replay_run.replay = &loaded;
    const BootRun replayed = RunBoot(config, &replay_run);

    // Same guest-visible work, same bytes...
    EXPECT_EQ(replayed.report.result.bytes_read,
              first.report.result.bytes_read);
    EXPECT_EQ(replayed.report.network_bytes, first.report.network_bytes);
    // ...strictly less simulated time: the pre-heal pass warmed the ARC
    // (no decompression on the critical path) and the prefetcher overlaps
    // disk service ahead of the guest's cursor.
    EXPECT_LT(replayed.elapsed_ns, first.elapsed_ns)
        << "readahead=" << readahead;
    EXPECT_LT(replayed.report.result.seconds, first.report.result.seconds);
    EXPECT_GT(replayed.report.prefetch.issued, 0u);
  }
}

TEST(ProfilePrefetch, ReplayIsDeterministic) {
  const sim::IoContextConfig config = AsyncConfig(8, 4);
  vmi::BootProfile profile;
  BootProfileRun record_run;
  record_run.record = &profile;
  RunBoot(config, &record_run);

  BootProfileRun replay_run;
  replay_run.replay = &profile;
  const BootRun a = RunBoot(config, &replay_run);
  const BootRun b = RunBoot(config, &replay_run);
  ExpectIdenticalRuns(a, b);
  EXPECT_EQ(a.report.prefetch.issued, b.report.prefetch.issued);
}

TEST(ProfilePrefetch, PreHealMovesRepairsOffCriticalPath) {
  const sim::IoContextConfig config = AsyncConfig(8, 4);
  constexpr std::uint64_t kStride = 5;

  vmi::BootProfile profile;
  BootProfileRun record_run;
  record_run.record = &profile;
  RunBoot(config, &record_run);  // record on a healthy replica

  // Degraded boot without a profile: every corrupt cluster heals on demand,
  // inside the boot.
  const BootRun on_demand = RunBoot(config, nullptr, 96, kStride);
  EXPECT_GT(on_demand.report.degraded.repair_reads, 0u);
  EXPECT_GT(on_demand.report.degraded.repaired_bytes, 0u);

  // Same corruption with profile replay + pre-heal: the repairs happen
  // before the guest starts, so the boot itself sees a healthy replica.
  BootProfileRun preheal_run;
  preheal_run.replay = &profile;
  preheal_run.pre_heal = true;
  const BootRun prehealed = RunBoot(config, &preheal_run, 96, kStride);
  EXPECT_EQ(prehealed.report.degraded.repair_reads, 0u);
  EXPECT_GT(prehealed.report.preheal.repair_fetches, 0u);
  EXPECT_GT(prehealed.report.preheal.repaired_bytes, 0u);
  // The healed bytes still count as network traffic (they crossed the wire).
  EXPECT_GT(prehealed.report.network_bytes, 0u);
  // Same guest-visible bytes either way.
  EXPECT_EQ(prehealed.report.result.bytes_read,
            on_demand.report.result.bytes_read);
  // And the boot is faster: healing left the critical path.
  EXPECT_LT(prehealed.report.result.seconds, on_demand.report.result.seconds);
}

TEST(ProfilePrefetch, UnboundFilesAreSkipped) {
  const Bytes content = CacheContent(8);
  BufferSource source(content);
  sim::IoContext io(AsyncConfig(4, 0));
  sim::LocalFileDevice device(&source, &io, 7, 0);

  vmi::BootProfile profile;
  profile.Record("bound", 0, false);
  profile.Record("unbound", 1, false);
  sim::ProfilePrefetcher prefetcher(&profile, &io);
  prefetcher.Bind("bound", &device);
  prefetcher.Pump();
  EXPECT_EQ(prefetcher.stats().issued, 1u);
  EXPECT_EQ(prefetcher.stats().skipped_unbound, 1u);
  EXPECT_TRUE(io.InFlight(7, 0));
  io.JoinInFlight(7, 0);
}

}  // namespace
}  // namespace squirrel::core
