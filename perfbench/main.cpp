// squirrel_perfbench: runs one benchmark workload against the Squirrel
// library and prints its metrics. perfbench/run.py builds and drives it;
// see perfbench/README.md.
//
//   squirrel_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      [--spans PATH]
//
// Prints a human-readable report, then one JSON object on the last line:
//   {"attempted":..., "threw":..., "violations":..., "metrics":{...},
//    "detail":{...}}
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "workloads.h"

namespace {

using squirrel::perfbench::Metric;
using squirrel::perfbench::RunOptions;
using squirrel::perfbench::RunResult;

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "squirrel_perfbench: %s\n"
               "usage: squirrel_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\n",
               problem.c_str());
  std::exit(2);
}

RunOptions Parse(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") Usage("--trace must be 0 or 1");
        options.trace = v == "1";
      } else if (arg == "--spans") {
        options.spans_path = value();
      } else {
        Usage("unknown flag " + arg);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + arg);
    }
  }
  if (options.workload.empty()) Usage("--workload is required");
  if (!(options.seconds > 0)) Usage("--seconds must be positive");
  return options;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char value[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i ? ", " : "") + JsonString(metrics[i].name) + ": {\"value\": " +
           value + ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  if (metrics.empty()) return;
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-40s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions options = Parse(argc, argv);
  RunResult result;
  try {
    result = squirrel::perfbench::RunWorkload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "squirrel_perfbench: %s\n", e.what());
    return 1;
  }

  std::printf("workload %s, seed %llu, %s run\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? "traced" : "untraced");
  std::printf("set-up %.3f s; %llu ops attempted, %llu threw, %llu check "
              "violations\n",
              result.setup_s, static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.threw),
              static_cast<unsigned long long>(result.violations));
  for (const std::string& problem : result.problems) {
    std::printf("  problem: %s\n", problem.c_str());
  }
  PrintTable(options.trace ? "per-layer metrics:" : "end-to-end metrics:",
             result.metrics);
  PrintTable("per-op detail:", result.detail);

  std::printf(
      "{\"attempted\": %llu, \"threw\": %llu, "
      "\"violations\": %llu, \"metrics\": %s, \"detail\": %s}\n",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.threw),
      static_cast<unsigned long long>(result.violations),
      JsonMetrics(result.metrics).c_str(), JsonMetrics(result.detail).c_str());
  return 0;
}
