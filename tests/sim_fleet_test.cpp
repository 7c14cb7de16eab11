// Fleet simulator determinism and model sanity (DESIGN.md §13): same
// (config, seed) must replay to a byte-identical FleetReport and event
// trace on every run and at any host thread count, the registration storm
// must queue on the storage node's slots, and churned nodes must pay the
// §3.5 catch-up at rejoin. Runs under `ctest -L tsan` via
// SQUIRREL_EVENT_FILTER.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "sim/fleet/fleet.h"
#include "util/rng.h"

namespace squirrel::sim::fleet {
namespace {

FleetConfig SmallConfig() {
  FleetConfig config;
  config.nodes = 400;
  config.images = 16;
  config.seed = 7;
  config.trace = true;
  return config;
}

struct RunOutput {
  std::string json;
  std::string trace;
};

RunOutput RunOnce(const FleetConfig& config) {
  FleetScenario scenario(config);
  const FleetReport report = scenario.Run();
  return {report.ToJson(), scenario.loop().FormatTrace()};
}

TEST(Fleet, SameSeedByteIdenticalReportAndTrace) {
  const RunOutput a = RunOnce(SmallConfig());
  const RunOutput b = RunOnce(SmallConfig());
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_FALSE(a.trace.empty());
}

TEST(Fleet, ByteIdenticalAcrossHostThreads) {
  // Each scenario is confined to one thread; four concurrent runs of the
  // same config must all produce the reference bytes (the determinism
  // contract the tsan label guards).
  const RunOutput reference = RunOnce(SmallConfig());
  std::vector<RunOutput> results(4);
  {
    std::vector<std::thread> threads;
    threads.reserve(results.size());
    for (RunOutput& slot : results) {
      threads.emplace_back([&slot] { slot = RunOnce(SmallConfig()); });
    }
    for (std::thread& t : threads) t.join();
  }
  for (const RunOutput& result : results) {
    EXPECT_EQ(result.json, reference.json);
    EXPECT_EQ(result.trace, reference.trace);
  }
}

TEST(Fleet, ReportCoversEveryRequestedPhase) {
  FleetConfig config = SmallConfig();
  const FleetReport report = FleetScenario(config).Run();
  ASSERT_EQ(report.phases.size(), 5u);
  EXPECT_EQ(report.phases[0].name, "register");
  EXPECT_EQ(report.phases[1].name, "deploy");
  EXPECT_EQ(report.phases[2].name, "autoscale");
  EXPECT_EQ(report.phases[3].name, "patch");
  EXPECT_EQ(report.phases[4].name, "churn");
  // Every node boots once in the deploy wave; latency percentiles are
  // ordered and positive.
  EXPECT_EQ(report.phases[1].boots, config.nodes);
  EXPECT_GT(report.phases[1].p50_seconds, 0.0);
  EXPECT_LE(report.phases[1].p50_seconds, report.phases[1].p99_seconds);
  EXPECT_LE(report.phases[1].p99_seconds, report.phases[1].p999_seconds);
  EXPECT_GT(report.phases[1].throughput_boots_per_second, 0.0);
  EXPECT_EQ(report.registration.registrations,
            static_cast<std::uint64_t>(config.images) +
                config.patch_registrations + 2);
}

TEST(Fleet, RegistrationStormQueuesOnSlots) {
  // One slot, every image submitted at t=0: completion latency must stack
  // queue wait on top of the ~20 s service time, and the tail must exceed
  // §3.2's single-registration minute — that is the storm axis.
  FleetConfig config = SmallConfig();
  config.run_deploy = config.run_autoscale = false;
  config.run_patch = config.run_churn = false;
  const FleetReport report = FleetScenario(config).Run();
  EXPECT_EQ(report.registration.registrations, config.images);
  EXPECT_GT(report.registration.completion_max_seconds,
            2.0 * report.registration.service_p50_seconds);
  EXPECT_FALSE(report.registration.all_under_minute);

  // Four slots drain the same storm faster.
  FleetConfig wide = config;
  wide.registration_slots = 4;
  const FleetReport wide_report = FleetScenario(wide).Run();
  EXPECT_LT(wide_report.registration.completion_max_seconds,
            report.registration.completion_max_seconds);
}

TEST(Fleet, ChurnedNodesPaySyncCatchUpAtRejoin) {
  FleetConfig config = SmallConfig();
  config.run_deploy = config.run_autoscale = config.run_patch = false;
  config.churn_fraction = 0.1;
  const FleetReport report = FleetScenario(config).Run();
  // Re-registrations land while churned nodes are offline, so every rejoin
  // catches up (§3.5) and its boot is not warm-local.
  EXPECT_GT(report.sync_catchups, 0u);
  EXPECT_GT(report.sync_bytes, 0.0);
  const PhaseStats& churn = report.phases.back();
  EXPECT_EQ(churn.name, "churn");
  EXPECT_GT(churn.remote_boots, 0u);
}

TEST(Fleet, ZipfSamplerMatchesTheoryAtMillionSamples) {
  // n=1e6 draws over 1000 ranks, s=0.9: empirical rank frequencies must
  // follow the Zipf pmf (top rank within 5% of theory, and monotone across
  // decades).
  constexpr std::size_t kRanks = 1000;
  constexpr std::size_t kDraws = 1'000'000;
  constexpr double kS = 0.9;
  util::ZipfSampler sampler(kRanks, kS);
  util::Rng rng(123);
  std::vector<std::uint64_t> counts(kRanks, 0);
  for (std::size_t i = 0; i < kDraws; ++i) ++counts[sampler.Sample(rng)];

  double norm = 0.0;
  for (std::size_t r = 1; r <= kRanks; ++r) {
    norm += 1.0 / std::pow(static_cast<double>(r), kS);
  }
  const double expected_top = static_cast<double>(kDraws) / norm;
  EXPECT_NEAR(static_cast<double>(counts[0]), expected_top,
              0.05 * expected_top);
  EXPECT_GT(counts[0], counts[9]);
  EXPECT_GT(counts[9], counts[99]);
  EXPECT_GT(counts[99], counts[999]);
  // The skew concentrates: the hottest 10% of ranks get most of the draws.
  std::uint64_t top_decile = 0;
  for (std::size_t r = 0; r < kRanks / 10; ++r) top_decile += counts[r];
  EXPECT_GT(top_decile, kDraws / 2);
}

}  // namespace
}  // namespace squirrel::sim::fleet
