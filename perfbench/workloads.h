// The benchmark's workloads over core::SquirrelCluster.
//
// Every workload is closed-loop with one client thread: the next workflow
// call starts when the previous one returns. Inputs (catalog, op order, node
// rotation, boot draws) derive from the seed alone; the library receives only
// the generated inputs. See perfbench/README.md for what each workload
// stresses and bypasses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace squirrel::perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured phase. A run also keeps going until the
  /// workload's minimum sample count is reached (see README.md).
  double seconds = 20.0;
  /// Traced run: an untraced phase, then a traced phase of the same length
  /// that yields the per-layer metrics and the tracing overhead.
  bool trace = false;
  /// Where the traced run writes its spans (JSON Lines); empty = nowhere.
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  double setup_s = 0.0;  // median set-up seconds, scaled to host speed
  std::uint64_t attempted = 0;   // measured ops issued
  std::uint64_t threw = 0;       // measured ops that threw
  std::uint64_t violations = 0;  // outside-in correctness check failures
  std::vector<std::string> problems;  // first few failure messages
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Figures printed in the report but not among the metrics:
  /// whole-phase per-op-type percentiles, sample counts, sizes, and the
  /// unscaled host times with the host slowness they were scaled by.
  std::vector<Metric> detail;
};

/// Runs one workload (register_churn, boot_cold or boot_warm); throws
/// std::invalid_argument for an unknown name.
RunResult RunWorkload(const RunOptions& options);

}  // namespace squirrel::perfbench
