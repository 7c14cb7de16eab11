#include "sim/fleet/fleet.h"

#include <algorithm>

#include "util/json.h"

namespace squirrel::sim::fleet {

FleetScenario::FleetScenario(const FleetConfig& config)
    : config_(config),
      loop_(config.seed),
      zipf_(std::max<std::uint32_t>(config.images, 1), config.zipf_s),
      nodes_(config.nodes),
      node_available_ns_(config.nodes, 0.0),
      image_version_(std::max<std::uint32_t>(config.images, 1), 0),
      reg_slot_free_ns_(std::max<std::uint32_t>(config.registration_slots, 1),
                        0.0) {
  loop_.EnableTrace(config.trace);
  if (config_.placement_enabled) {
    const std::uint32_t stripe =
        config_.data_shards + config_.parity_shards;
    const std::uint32_t set_size =
        std::max(config_.storage_set_size, stripe);
    config_.storage_set_size = set_size;
    set_count_ = config_.nodes / set_size;  // trailing nodes replicate
    set_link_free_ns_.assign(set_count_, 0.0);
  }
}

bool FleetScenario::NodeStriped(std::uint32_t node) const {
  return config_.placement_enabled &&
         node < set_count_ * config_.storage_set_size;
}

double FleetScenario::ShardFraction() const {
  return static_cast<double>(config_.data_shards + config_.parity_shards) /
         (static_cast<double>(config_.data_shards) *
          static_cast<double>(config_.storage_set_size));
}

double FleetScenario::ReserveSetLink(std::uint32_t set, double bytes,
                                     double earliest_ns) {
  double& free_ns = set_link_free_ns_[set];
  const double start = std::max(earliest_ns, free_ns);
  free_ns = start + bytes / config_.set_link_bytes_per_second * 1e9;
  return free_ns;
}

double FleetScenario::Jitter() {
  const double j = config_.model.jitter_fraction;
  return 1.0 + j * (2.0 * loop_.rng().NextDouble() - 1.0);
}

std::uint32_t FleetScenario::SampleImage() {
  return static_cast<std::uint32_t>(zipf_.Sample(loop_.rng()));
}

double FleetScenario::ReserveLink(double bytes, double earliest_ns) {
  const double start = std::max(earliest_ns, link_free_ns_);
  link_free_ns_ =
      start + bytes / config_.model.storage_link_bytes_per_second * 1e9;
  return link_free_ns_;
}

void FleetScenario::TaskDone() {
  if (--outstanding_ == 0) StartNextPhase();
}

void FleetScenario::SubmitRegistration(std::uint32_t image, double at_ns) {
  ++outstanding_;
  loop_.Schedule(at_ns, "reg-submit", [this, image, at_ns] {
    // Earliest-free registration slot, lowest index on ties.
    std::size_t slot = 0;
    for (std::size_t s = 1; s < reg_slot_free_ns_.size(); ++s) {
      if (reg_slot_free_ns_[s] < reg_slot_free_ns_[slot]) slot = s;
    }
    const FleetModel& m = config_.model;
    const double start = std::max(at_ns, reg_slot_free_ns_[slot]);
    // Registration boot + snapshot + send-stream generation on the storage
    // node hold the slot; the multicast diff then contends for the uplink.
    const double service_seconds =
        (m.registration_boot_seconds + m.snapshot_seconds) * Jitter() +
        m.diff_bytes / m.stream_bytes_per_second;
    const double local_done = start + service_seconds * 1e9;
    reg_slot_free_ns_[slot] = local_done;
    const double done = ReserveLink(m.diff_bytes, local_done);
    reg_service_.Add(service_seconds +
                     m.diff_bytes / m.storage_link_bytes_per_second);
    loop_.Schedule(done, "reg-done", [this, image, at_ns] {
      ++cluster_version_;
      image_version_[image] = cluster_version_;
      // The multicast reaches every *online* node (§3.2); offline nodes
      // catch up at rejoin (§3.5).
      for (NodeState& node : nodes_) {
        if (node.online) node.synced_version = cluster_version_;
      }
      reg_completion_.Add((loop_.now_ns() - at_ns) / 1e9);
      ++registrations_done_;
      phases_.back().last_done_ns = loop_.now_ns();
      TaskDone();
    });
  });
}

void FleetScenario::ScheduleBoot(std::uint32_t node, std::uint32_t image,
                                 double at_ns) {
  ++outstanding_;
  loop_.Schedule(at_ns, "boot", [this, node, image, at_ns] {
    const FleetModel& m = config_.model;
    NodeState& state = nodes_[node];
    // Wait out any in-flight sync catch-up on this node (§3.5: the node-boot
    // path syncs before serving).
    double start = std::max(at_ns, node_available_ns_[node]);
    bool remote = start > at_ns;
    const bool striped = NodeStriped(node);
    if (state.synced_version < image_version_[image]) {
      // Stale replica: pull the image's cache (only this node's shard under
      // striping) from the storage node over the shared uplink (§3.5
      // fallback), then boot warm.
      start = ReserveLink(
          striped ? m.cache_bytes * ShardFraction() : m.cache_bytes, start);
      state.synced_version = cluster_version_;
      node_available_ns_[node] = start;
      remote = true;
    }
    if (striped) {
      // The node holds 1/k of each block; the remaining data shards come
      // from set peers over the per-set LAN link (FIFO within the set).
      const double gather =
          m.cache_bytes * (static_cast<double>(config_.data_shards - 1) /
                           static_cast<double>(config_.data_shards));
      start = ReserveSetLink(node / config_.storage_set_size, gather, start);
      shard_gather_bytes_ += gather;
    }
    double exec_seconds = m.prefetch_boot_seconds * Jitter();
    if (loop_.rng().Chance(m.degraded_fraction)) {
      // Pre-healing (prefetch path) moves most repair work off the boot's
      // critical path.
      exec_seconds += 0.25 * m.degraded_extra_seconds;
      if (striped) {
        // A degraded striped boot rebuilds its blocks from parity instead of
        // re-fetching replicas: Reed–Solomon decode CPU on the critical path.
        const double decode = m.cache_bytes / config_.decode_bytes_per_second;
        exec_seconds += decode;
        decode_seconds_ += decode;
        ++reconstructions_;
      }
    }
    ++state.active_boots;
    loop_.Schedule(start + exec_seconds * 1e9, "boot-done",
                   [this, node, at_ns, remote] {
                     --nodes_[node].active_boots;
                     PhaseAccum& phase = phases_.back();
                     phase.latency.Add((loop_.now_ns() - at_ns) / 1e9);
                     ++phase.boots;
                     if (remote) ++phase.remote;
                     phase.last_done_ns = loop_.now_ns();
                     ++total_boots_;
                     TaskDone();
                   });
  });
}

void FleetScenario::ScheduleChurn() {
  const double t0 = loop_.now_ns();
  const std::uint32_t n = config_.nodes;
  const auto churners = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(config_.churn_fraction *
                                    static_cast<double>(n)));
  // Distinct churn nodes via partial Fisher-Yates over the id space.
  std::vector<std::uint32_t> ids(n);
  for (std::uint32_t i = 0; i < n; ++i) ids[i] = i;
  std::vector<std::uint8_t> churning(n, 0);
  for (std::uint32_t k = 0; k < churners && k < n; ++k) {
    const auto pick =
        k + static_cast<std::uint32_t>(loop_.rng().Below(n - k));
    std::swap(ids[k], ids[pick]);
    churning[ids[k]] = 1;
  }

  for (std::uint32_t k = 0; k < churners && k < n; ++k) {
    const std::uint32_t node = ids[k];
    const double leave_ns = t0 + static_cast<double>(k) * 0.1e9;
    const double rejoin_ns = leave_ns + config_.churn_offline_seconds * 1e9;
    loop_.Schedule(leave_ns, "leave",
                   [this, node] { nodes_[node].online = 0; });
    loop_.Schedule(rejoin_ns, "join", [this, node] {
      NodeState& state = nodes_[node];
      state.online = 1;
      const std::uint32_t behind = cluster_version_ - state.synced_version;
      if (behind > 0) {
        // SyncNode catch-up (§3.5): incremental diffs, capped at a full
        // resync of every cache when the node is too far behind.
        double bytes = std::min(
            static_cast<double>(behind) * config_.model.diff_bytes,
            config_.model.cache_bytes * static_cast<double>(config_.images));
        // A striped node only catches up on its own shards.
        if (NodeStriped(node)) bytes *= ShardFraction();
        node_available_ns_[node] = ReserveLink(bytes, loop_.now_ns());
        ++sync_catchups_;
        sync_bytes_ += bytes;
        state.synced_version = cluster_version_;
      }
    });
    // The rejoined node immediately hosts a VM; its boot latency includes
    // the sync catch-up it queues behind ("join" fires first: same time,
    // earlier sequence).
    ScheduleBoot(node, SampleImage(), rejoin_ns);
  }

  // Re-register the two hottest images while the churners are offline, so
  // rejoins have something to catch up on.
  const std::uint32_t regs = std::min<std::uint32_t>(2, config_.images);
  for (std::uint32_t i = 0; i < regs; ++i) {
    SubmitRegistration(i, t0 + 1e9);
  }

  // Background boots on non-churning nodes keep the link contended.
  const auto background = static_cast<std::uint32_t>(
      config_.churn_background_fraction * static_cast<double>(n));
  const double window_ns = config_.churn_offline_seconds * 1e9;
  for (std::uint32_t b = 0; b < background; ++b) {
    auto node = static_cast<std::uint32_t>(loop_.rng().Below(n));
    while (churning[node]) node = (node + 1) % n;
    ScheduleBoot(node, SampleImage(),
                 t0 + loop_.rng().NextDouble() * window_ns);
  }
}

void FleetScenario::StartNextPhase() {
  while (phase_cursor_ < phase_plan_.size()) {
    const char* name = phase_plan_[phase_cursor_++];
    phases_.push_back(PhaseAccum{name, loop_.now_ns(), loop_.now_ns()});
    const double t0 = loop_.now_ns();
    if (name == std::string("register")) {
      // Registration storm: every image submitted at once (§3.2 axis).
      for (std::uint32_t i = 0; i < config_.images; ++i) {
        SubmitRegistration(i, t0);
      }
    } else if (name == std::string("deploy")) {
      const double window_ns = config_.deploy_window_seconds * 1e9;
      for (std::uint32_t node = 0; node < config_.nodes; ++node) {
        ScheduleBoot(node, SampleImage(),
                     t0 + loop_.rng().NextDouble() * window_ns);
      }
    } else if (name == std::string("autoscale")) {
      const auto burst = static_cast<std::uint32_t>(
          config_.autoscale_fraction * static_cast<double>(config_.nodes));
      const double window_ns = config_.autoscale_window_seconds * 1e9;
      for (std::uint32_t b = 0; b < burst; ++b) {
        ScheduleBoot(static_cast<std::uint32_t>(
                         loop_.rng().Below(config_.nodes)),
                     SampleImage(), t0 + loop_.rng().NextDouble() * window_ns);
      }
    } else if (name == std::string("patch")) {
      const auto regs =
          std::min<std::uint32_t>(config_.patch_registrations, config_.images);
      for (std::uint32_t i = 0; i < regs; ++i) {
        SubmitRegistration(i, t0);  // hottest Zipf ranks get patched
      }
      const auto boots = static_cast<std::uint32_t>(
          config_.patch_boot_fraction * static_cast<double>(config_.nodes));
      const double window_ns = config_.patch_window_seconds * 1e9;
      for (std::uint32_t b = 0; b < boots; ++b) {
        const auto image = regs == 0
                               ? SampleImage()
                               : static_cast<std::uint32_t>(
                                     loop_.rng().Below(regs));
        ScheduleBoot(static_cast<std::uint32_t>(
                         loop_.rng().Below(config_.nodes)),
                     image, t0 + loop_.rng().NextDouble() * window_ns);
      }
    } else if (name == std::string("churn")) {
      ScheduleChurn();
    }
    if (outstanding_ > 0) return;
    // Phase scheduled nothing (degenerate config) — fall through to next.
  }
}

FleetReport FleetScenario::Run() {
  phase_plan_.clear();
  phase_plan_.push_back("register");
  if (config_.run_deploy) phase_plan_.push_back("deploy");
  if (config_.run_autoscale) phase_plan_.push_back("autoscale");
  if (config_.run_patch) phase_plan_.push_back("patch");
  if (config_.run_churn) phase_plan_.push_back("churn");

  StartNextPhase();
  const double end_ns = loop_.Run();

  FleetReport report;
  report.nodes = config_.nodes;
  report.images = config_.images;
  report.zipf_s = config_.zipf_s;
  report.seed = config_.seed;
  report.total_boots = total_boots_;
  report.sync_catchups = sync_catchups_;
  report.sync_bytes = sync_bytes_;
  report.sim_seconds = end_ns / 1e9;
  report.events_fired = loop_.fired();
  for (const PhaseAccum& phase : phases_) {
    PhaseStats stats;
    stats.name = phase.name;
    stats.boots = phase.boots;
    stats.remote_boots = phase.remote;
    stats.window_seconds = (phase.last_done_ns - phase.start_ns) / 1e9;
    stats.throughput_boots_per_second =
        stats.window_seconds > 0.0
            ? static_cast<double>(phase.boots) / stats.window_seconds
            : 0.0;
    stats.p50_seconds = phase.latency.Quantile(50);
    stats.p99_seconds = phase.latency.Quantile(99);
    stats.p999_seconds = phase.latency.Quantile(99.9);
    stats.mean_seconds = phase.latency.mean();
    stats.max_seconds = phase.latency.max();
    report.phases.push_back(std::move(stats));
  }
  report.registration.registrations = registrations_done_;
  report.registration.slots =
      static_cast<std::uint32_t>(reg_slot_free_ns_.size());
  report.registration.service_p50_seconds = reg_service_.Quantile(50);
  report.registration.completion_p50_seconds = reg_completion_.Quantile(50);
  report.registration.completion_p99_seconds = reg_completion_.Quantile(99);
  report.registration.completion_max_seconds = reg_completion_.max();
  report.registration.all_under_minute = reg_completion_.max() < 60.0;
  if (config_.placement_enabled) {
    report.placement.enabled = true;
    report.placement.storage_set_size = config_.storage_set_size;
    report.placement.data_shards = config_.data_shards;
    report.placement.parity_shards = config_.parity_shards;
    report.placement.set_count = set_count_;
    report.placement.per_node_capacity_fraction = ShardFraction();
    report.placement.shard_gather_bytes = shard_gather_bytes_;
    report.placement.reconstructions = reconstructions_;
    report.placement.decode_seconds = decode_seconds_;
  }
  return report;
}

std::string FleetReport::ToJson() const {
  util::JsonWriter json;
  json.Group()
      .Uint("nodes", nodes)
      .Uint("images", images)
      .Double("zipf_s", "%.9g", zipf_s)
      .Uint("seed", seed);
  json.Group().Rows("phases");
  for (const PhaseStats& p : phases) {
    json.Object()
        .Str("name", p.name)
        .Uint("boots", p.boots)
        .Uint("remote_boots", p.remote_boots)
        .Double("window_seconds", "%.9g", p.window_seconds)
        .Double("throughput_boots_per_second", "%.9g",
                p.throughput_boots_per_second)
        .Double("p50_seconds", "%.9g", p.p50_seconds)
        .Double("p99_seconds", "%.9g", p.p99_seconds)
        .Double("p999_seconds", "%.9g", p.p999_seconds)
        .Double("mean_seconds", "%.9g", p.mean_seconds)
        .Double("max_seconds", "%.9g", p.max_seconds)
        .End();
  }
  json.End();
  json.Group()
      .Object("registration_storm")
      .Uint("registrations", registration.registrations)
      .Uint("slots", registration.slots)
      .Double("service_p50_seconds", "%.9g", registration.service_p50_seconds)
      .Double("completion_p50_seconds", "%.9g",
              registration.completion_p50_seconds)
      .Double("completion_p99_seconds", "%.9g",
              registration.completion_p99_seconds)
      .Double("completion_max_seconds", "%.9g",
              registration.completion_max_seconds)
      .Bool("all_under_minute", registration.all_under_minute)
      .End();
  if (placement.enabled) {
    // Only striped runs carry this section, so default-policy output stays
    // byte-identical to the pre-placement format.
    json.Group()
        .Object("placement")
        .Uint("storage_set_size", placement.storage_set_size)
        .Uint("data_shards", placement.data_shards)
        .Uint("parity_shards", placement.parity_shards)
        .Uint("set_count", placement.set_count)
        .Double("per_node_capacity_fraction", "%.9g",
                placement.per_node_capacity_fraction)
        .Double("shard_gather_bytes", "%.9g", placement.shard_gather_bytes)
        .Uint("reconstructions", placement.reconstructions)
        .Double("decode_seconds", "%.9g", placement.decode_seconds)
        .End();
  }
  json.Group()
      .Object("totals")
      .Uint("boots", total_boots)
      .Uint("sync_catchups", sync_catchups)
      .Double("sync_bytes", "%.9g", sync_bytes)
      .Double("sim_seconds", "%.9g", sim_seconds)
      .Uint("events_fired", events_fired)
      .End();
  return json.Finish();
}

}  // namespace squirrel::sim::fleet
