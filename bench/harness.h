// Shared harness for the figure/table reproduction binaries.
//
// Every bench accepts the same flags:
//   --images=N   catalog size (default 607, the full Azure community set)
//   --scale=X    linear size scale vs paper bytes (default 1/1024)
//   --cachex=M   multiplier on the boot-working-set size (default 8; at deep
//                downscales the cache would otherwise shrink below a handful
//                of blocks and the per-cache statistics would degenerate)
//   --seed=S     dataset seed
//   --fast       quarter-size run for smoke testing
//
// Async-engine flags (consumed by the benches that model I/O or transfers):
//   --depth=N      disk queue depth (default 1: one read at a time; 0 is
//                  rejected)
//   --readahead=N  device readahead in blocks
//   --window=N     scatter-gather per-receiver window: retransmission chunks
//                  a receiver keeps in flight (default 1; 0 is rejected)
//
// Each binary prints (a) the series of the paper figure/table it reproduces,
// at simulation scale, and (b) paper-scale projections where byte counts are
// involved (projection = measured ratio applied to the paper's raw sizes).
// Benches that also write a BENCH_*.json report build it with
// util::JsonWriter and write it through WriteBenchJson.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "vmi/catalog.h"

namespace squirrel::bench {

struct Options {
  std::uint32_t images = 607;
  double scale = 1.0 / 1024.0;
  double cache_multiplier = 8.0;
  std::uint64_t seed = 2014;
  bool fast = false;
  std::uint32_t disk_queue_depth = 1;
  std::uint32_t readahead_blocks = 0;
  std::uint32_t transfer_window = 1;  // scatter-gather chunks in flight
  /// fig11: record a boot profile on the first boot of each image and
  /// replay it (warm + prefetch) on the measured boots.
  bool profile = false;
};

[[noreturn]] inline void FlagError(const std::string& arg, const char* why) {
  std::fprintf(stderr, "error: bad flag %s: %s\n", arg.c_str(), why);
  std::exit(2);
}

/// Strict double parse: the whole value must be a number (std::atof would
/// happily read garbage as 0.0) and it must be strictly positive.
inline double ParsePositiveDouble(const std::string& arg, const char* v) {
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (*v == '\0' || end == nullptr || *end != '\0') {
    FlagError(arg, "not a number");
  }
  if (!(parsed > 0.0)) FlagError(arg, "must be > 0");  // rejects NaN too
  return parsed;
}

/// Strict unsigned parse: rejects signs, garbage, trailing junk, overflow,
/// and (unless `allow_zero`) zero.
inline std::uint64_t ParseUnsigned(const std::string& arg, const char* v,
                                   bool allow_zero,
                                   std::uint64_t max =
                                       std::numeric_limits<std::uint64_t>::max()) {
  if (*v == '-' || *v == '+') FlagError(arg, "must be an unsigned integer");
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (*v == '\0' || end == nullptr || *end != '\0') {
    FlagError(arg, "not an integer");
  }
  if (errno == ERANGE || parsed > max) FlagError(arg, "out of range");
  if (!allow_zero && parsed == 0) FlagError(arg, "must be >= 1");
  return parsed;
}

inline Options ParseOptions(int argc, char** argv) {
  Options options;
  constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--images=")) {
      options.images = static_cast<std::uint32_t>(
          ParseUnsigned(arg, v, /*allow_zero=*/false, kU32Max));
    } else if (const char* v = value("--scale=")) {
      options.scale = ParsePositiveDouble(arg, v);
    } else if (const char* v = value("--cachex=")) {
      options.cache_multiplier = ParsePositiveDouble(arg, v);
    } else if (const char* v = value("--seed=")) {
      options.seed = ParseUnsigned(arg, v, /*allow_zero=*/true);
    } else if (const char* v = value("--depth=")) {
      options.disk_queue_depth = static_cast<std::uint32_t>(ParseUnsigned(
          arg, v, /*allow_zero=*/false, kU32Max));
    } else if (const char* v = value("--readahead=")) {
      options.readahead_blocks = static_cast<std::uint32_t>(
          ParseUnsigned(arg, v, /*allow_zero=*/true, kU32Max));
    } else if (const char* v = value("--window=")) {
      options.transfer_window = static_cast<std::uint32_t>(
          ParseUnsigned(arg, v, /*allow_zero=*/false, kU32Max));
    } else if (arg == "--fast") {
      options.fast = true;
    } else if (arg == "--profile") {
      options.profile = true;
    } else if (arg == "--help") {
      std::printf(
          "flags: --images=N --scale=X --cachex=M --seed=S --fast "
          "--depth=N --readahead=N --window=N --profile\n");
      std::exit(0);
    } else {
      FlagError(arg, "unknown flag (see --help)");
    }
  }
  if (options.fast) {
    options.images = std::min<std::uint32_t>(options.images, 96);
    options.scale = std::min(options.scale, 1.0 / 2048.0);
  }
  return options;
}

/// Options for the fleet_boot_storm bench: the shared Options plus the
/// fleet axes. The fleet flags accept both `--flag=value` and
/// `--flag value` forms and reject garbage with exit 2, same as the rest
/// of the harness.
struct FleetOptions {
  Options base;
  std::uint32_t nodes = 2000;
  double zipf_s = 0.9;
  /// Storm selection: "all" or one of deploy|autoscale|patch|churn.
  std::string storm = "all";
  /// Striped-placement model (ISSUE 9): `--stripe k+m` (e.g. `--stripe 4+2`)
  /// enables it; `--storage-set-size S` sets the failure-domain size
  /// (defaults to k+m, must be >= k+m, and requires --stripe). Both off by
  /// default so BENCH_fleet.json stays byte-identical.
  bool placement = false;
  std::uint32_t storage_set_size = 0;  // 0 = data+parity
  std::uint32_t data_shards = 4;
  std::uint32_t parity_shards = 2;
};

/// Parses `--stripe`'s "k+m" value (e.g. "4+2"): strictly two unsigned
/// integers joined by '+', k >= 1, m >= 1, k+m <= 256.
inline void ParseStripe(const std::string& arg, const char* v,
                        std::uint32_t* data_shards,
                        std::uint32_t* parity_shards) {
  const char* plus = std::strchr(v, '+');
  if (plus == nullptr || plus == v || plus[1] == '\0') {
    FlagError(arg, "must be k+m (e.g. 4+2)");
  }
  const std::string k_str(v, plus - v);
  const std::uint64_t k =
      ParseUnsigned(arg, k_str.c_str(), /*allow_zero=*/false, 255);
  const std::uint64_t m =
      ParseUnsigned(arg, plus + 1, /*allow_zero=*/false, 255);
  if (k + m > 256) FlagError(arg, "k+m must be <= 256 (GF(256) stripes)");
  *data_shards = static_cast<std::uint32_t>(k);
  *parity_shards = static_cast<std::uint32_t>(m);
}

inline FleetOptions ParseFleetOptions(int argc, char** argv) {
  FleetOptions options;
  constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Accept --flag=value and --flag value; a missing value is an error.
    auto value = [&](const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      if (arg.compare(0, n, flag) == 0 && arg.size() > n && arg[n] == '=') {
        return arg.c_str() + n + 1;
      }
      if (arg == flag) {
        if (i + 1 >= argc) FlagError(arg, "missing value");
        return argv[++i];
      }
      return nullptr;
    };
    if (const char* v = value("--nodes")) {
      options.nodes = static_cast<std::uint32_t>(
          ParseUnsigned(arg, v, /*allow_zero=*/false, kU32Max));
    } else if (const char* v = value("--zipf")) {
      options.zipf_s = ParsePositiveDouble(arg, v);
    } else if (const char* v = value("--storm")) {
      const std::string storm = v;
      if (storm != "all" && storm != "deploy" && storm != "autoscale" &&
          storm != "patch" && storm != "churn") {
        FlagError(arg, "must be all|deploy|autoscale|patch|churn");
      }
      options.storm = storm;
    } else if (const char* v = value("--stripe")) {
      ParseStripe(arg, v, &options.data_shards, &options.parity_shards);
      options.placement = true;
    } else if (const char* v = value("--storage-set-size")) {
      options.storage_set_size = static_cast<std::uint32_t>(
          ParseUnsigned(arg, v, /*allow_zero=*/false, kU32Max));
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (options.storage_set_size != 0 && !options.placement) {
    FlagError("--storage-set-size", "requires --stripe");
  }
  if (options.placement && options.storage_set_size != 0 &&
      options.storage_set_size <
          options.data_shards + options.parity_shards) {
    FlagError("--storage-set-size", "must be >= data+parity shards");
  }
  options.base = ParseOptions(static_cast<int>(rest.size()), rest.data());
  return options;
}

/// Writes a report built by util::JsonWriter to `name` in the working
/// directory, then prints "wrote <name>". When the file cannot be opened,
/// written or closed, it prints why to stderr and exits 1 instead, so no run
/// claims a report it did not write.
inline void WriteBenchJson(const char* name, const std::string& json) {
  FILE* out = std::fopen(name, "w");
  bool written = out != nullptr &&
                 std::fwrite(json.data(), 1, json.size(), out) == json.size();
  if (out != nullptr) written = std::fclose(out) == 0 && written;
  if (!written) {
    std::fprintf(stderr, "error: cannot write %s: %s\n", name,
                 std::strerror(errno));
    std::exit(1);
  }
  std::printf("\nwrote %s\n", name);
}

inline vmi::CatalogConfig MakeCatalogConfig(const Options& options) {
  vmi::CatalogConfig config;
  config.image_count = options.images;
  config.size_scale = options.scale;
  config.seed = options.seed;
  config.cache_bytes = static_cast<std::uint64_t>(
      static_cast<double>(config.cache_bytes) * options.cache_multiplier);
  return config;
}

inline void PrintHeader(const char* experiment, const char* paper_ref,
                        const Options& options) {
  std::printf("== %s ==\n", experiment);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("dataset: %u images, size scale %.6f, cache x%.1f, seed %llu\n\n",
              options.images, options.scale, options.cache_multiplier,
              static_cast<unsigned long long>(options.seed));
}

/// Paper raw repository size (Table 1) used for paper-scale projections.
inline constexpr double kPaperRawBytes = 16.4 * 1024.0 * 1024 * 1024 * 1024;
inline constexpr double kPaperNonzeroBytes = 1.4 * 1024.0 * 1024 * 1024 * 1024;
inline constexpr double kPaperCacheBytes = 78.5 * 1024.0 * 1024 * 1024;

}  // namespace squirrel::bench
