// Microbenchmarks (google-benchmark): block store and volume write paths —
// dedup hits vs misses, hash choice, snapshot and send costs — plus two
// comparisons that run before the google-benchmark suite and emit JSON so
// throughput trajectories are tracked across PRs: serial-vs-batched ingest
// (BENCH_ingest.json) and serial-Get vs parallel-GetBatch vs warm-ARC reads
// (BENCH_read.json).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string_view>
#include <vector>

#include "bench/harness.h"
#include "store/block_store.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/rng.h"
#include "vmi/corpus.h"
#include "zvol/volume.h"

using namespace squirrel;

namespace {

/// DataSource over regenerated corpus content of a given size.
class CorpusSource final : public util::DataSource {
 public:
  CorpusSource(std::uint64_t seed, std::uint64_t size)
      : seed_(seed), size_(size) {}
  std::uint64_t size() const override { return size_; }
  void Read(std::uint64_t offset, util::MutableByteSpan out) const override {
    vmi::GenerateCorpus(seed_, offset, out);
  }

 private:
  std::uint64_t seed_;
  std::uint64_t size_;
};

void BM_StorePutUnique(benchmark::State& state) {
  store::BlockStore bs({.codec = compress::CodecId::kNull,
                        .dedup = true,
                        .fast_hash = true});
  util::Bytes block(64 << 10);
  std::uint64_t offset = 0;
  for (auto _ : state) {
    vmi::GenerateCorpus(1, offset, block);
    offset += block.size();
    benchmark::DoNotOptimize(bs.Put(block));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block.size()));
}

void BM_StorePutDuplicate(benchmark::State& state) {
  store::BlockStore bs({.codec = compress::CodecId::kNull,
                        .dedup = true,
                        .fast_hash = true});
  util::Bytes block(64 << 10);
  vmi::GenerateCorpus(2, 0, block);
  bs.Put(block);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bs.Put(block));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block.size()));
}

void BM_StorePutSha256(benchmark::State& state) {
  store::BlockStore bs({.codec = compress::CodecId::kNull,
                        .dedup = true,
                        .fast_hash = false});
  util::Bytes block(64 << 10);
  std::uint64_t offset = 0;
  for (auto _ : state) {
    vmi::GenerateCorpus(3, offset, block);
    offset += block.size();
    benchmark::DoNotOptimize(bs.Put(block));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block.size()));
}

/// PutBatch over unique corpus blocks: the batch pipeline at a given thread
/// count, blocks pre-generated so only the store path is measured.
void BM_StorePutBatch(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const std::size_t batch = 64;
  const std::size_t block_size = 64 << 10;
  store::BlockStore bs({.codec = compress::CodecId::kGzip6,
                        .dedup = true,
                        .fast_hash = false,
                        .ingest = {.threads = threads, .batch_blocks = batch}});
  util::Bytes buffer(batch * block_size);
  std::vector<util::ByteSpan> spans;
  std::uint64_t offset = 0;
  for (auto _ : state) {
    state.PauseTiming();
    vmi::GenerateCorpus(4, offset, buffer);
    offset += buffer.size();
    spans.clear();
    for (std::size_t i = 0; i < batch; ++i) {
      spans.emplace_back(buffer.data() + i * block_size, block_size);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(bs.PutBatch(spans));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buffer.size()));
}

void BM_VolumeIngest(benchmark::State& state) {
  const std::uint64_t file_size = 4 << 20;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    zvol::Volume volume(zvol::VolumeConfig{.block_size = 64 * 1024,
                                           .codec = compress::CodecId::kLz4,
                                           .dedup = true,
                                           .fast_hash = true});
    volume.WriteFile("f", CorpusSource(seed++, file_size));
    benchmark::DoNotOptimize(volume.Stats());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(file_size));
}

void BM_SnapshotCreate(benchmark::State& state) {
  zvol::Volume volume(zvol::VolumeConfig{.block_size = 64 * 1024,
                                         .codec = compress::CodecId::kNull,
                                         .dedup = true,
                                         .fast_hash = true});
  volume.WriteFile("f", CorpusSource(1, 8 << 20));
  std::uint64_t n = 0;
  for (auto _ : state) {
    volume.CreateSnapshot("snap-" + std::to_string(n), n);
    ++n;
  }
}

void BM_IncrementalSend(benchmark::State& state) {
  zvol::Volume volume(zvol::VolumeConfig{.block_size = 64 * 1024,
                                         .codec = compress::CodecId::kLz4,
                                         .dedup = true,
                                         .fast_hash = true});
  volume.WriteFile("base", CorpusSource(1, 8 << 20));
  volume.CreateSnapshot("from", 1);
  volume.WriteFile("extra", CorpusSource(2, 1 << 20));
  volume.CreateSnapshot("to", 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(volume.Send("from", "to").Serialize());
  }
}

// --- serial vs batched ingest comparison (BENCH_ingest.json) ---------------

struct IngestRun {
  std::size_t threads = 0;
  double seconds = 0.0;
  double mb_per_s = 0.0;
  double speedup = 1.0;
  bool stats_match_serial = true;
};

/// XOR-fold of every block digest of a file: order-sensitive content
/// fingerprint used to assert parallel ingest equals the serial path.
std::uint64_t DigestChecksum(const zvol::Volume& volume, const char* name) {
  std::uint64_t sum = 0;
  for (std::uint64_t b = 0; b < volume.FileBlockCount(name); ++b) {
    const zvol::BlockPtr& ptr = volume.FileBlock(name, b);
    if (!ptr.hole) sum ^= ptr.digest.Prefix64() * (b + 1);
  }
  return sum;
}

void RunIngestComparison() {
  // CPU-heavy configuration (SHA-256 + gzip6) — the case the parallel
  // pipeline targets.
  const std::uint64_t file_size = 16ull << 20;
  const CorpusSource source(/*seed=*/2014, file_size);
  const std::size_t thread_counts[] = {1, 2, 4, 8};

  std::vector<IngestRun> runs;
  zvol::VolumeStats serial_stats{};
  std::uint64_t serial_checksum = 0;
  double serial_seconds = 0.0;

  for (const std::size_t threads : thread_counts) {
    zvol::Volume volume(zvol::VolumeConfig{
        .block_size = 64 * 1024,
        .codec = compress::CodecId::kGzip6,
        .dedup = true,
        .fast_hash = false,
        .ingest = {.threads = threads, .batch_blocks = 128}});
    const auto start = std::chrono::steady_clock::now();
    volume.WriteFile("f", source);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;

    IngestRun run;
    run.threads = threads;
    run.seconds = elapsed.count();
    run.mb_per_s =
        static_cast<double>(file_size) / (1024.0 * 1024.0) / run.seconds;
    const zvol::VolumeStats stats = volume.Stats();
    const std::uint64_t checksum = DigestChecksum(volume, "f");
    if (threads == 1) {
      serial_stats = stats;
      serial_checksum = checksum;
      serial_seconds = run.seconds;
    } else {
      run.speedup = serial_seconds / run.seconds;
      run.stats_match_serial =
          stats.unique_blocks == serial_stats.unique_blocks &&
          stats.physical_data_bytes == serial_stats.physical_data_bytes &&
          stats.ddt_core_bytes == serial_stats.ddt_core_bytes &&
          checksum == serial_checksum;
    }
    runs.push_back(run);
  }

  std::printf("== ingest throughput: serial vs batched pipeline ==\n");
  std::printf("file %.0f MiB, bs 64 KiB, gzip6, sha256\n",
              static_cast<double>(file_size) / (1024.0 * 1024.0));
  std::printf("%-8s %10s %10s %8s %6s\n", "threads", "seconds", "MB/s",
              "speedup", "match");
  for (const IngestRun& run : runs) {
    std::printf("%-8zu %10.3f %10.1f %7.2fx %6s\n", run.threads, run.seconds,
                run.mb_per_s, run.speedup,
                run.stats_match_serial ? "yes" : "NO");
  }
  std::printf("\n");

  util::JsonWriter json;
  json.Group().Str("bench", "ingest");
  json.Group().Uint("block_size", 65536);
  json.Group().Str("codec", "gzip6");
  json.Group().Bool("fast_hash", false);
  json.Group().Uint("file_bytes", file_size);
  json.Group().Rows("results");
  for (const IngestRun& run : runs) {
    json.Object()
        .Uint("threads", run.threads)
        .Double("seconds", "%.6f", run.seconds)
        .Double("mb_per_s", "%.2f", run.mb_per_s)
        .Double("speedup_vs_serial", "%.3f", run.speedup)
        .Bool("stats_match_serial", run.stats_match_serial)
        .End();
  }
  json.End();
  bench::WriteBenchJson("BENCH_ingest.json", json.Finish());
}

// --- serial Get vs batched / cached reads (BENCH_read.json) ----------------

/// Two ~8 MiB images of compressible 64 KiB blocks with heavy duplication:
/// each image repeats its unique blocks (intra-image dedup, ~50%), and the
/// second image shares about half of its unique blocks with the first — the
/// cross-image sharing the paper measures on co-hosted VM images. Blocks are
/// tiled 256-byte random phrases, so gzip6 compresses them well and the read
/// path pays real decompression CPU.
constexpr std::size_t kReadBlockSize = 64 << 10;
constexpr std::size_t kReadBlocksPerImage = 128;   // 8 MiB per image
constexpr std::size_t kReadUniquePerImage = 64;    // 50% intra-image dups
constexpr std::size_t kReadSharedSeedBase = 32;    // B's seeds start here

util::Bytes ReadBenchImage(std::size_t seed_base) {
  util::Bytes image(kReadBlocksPerImage * kReadBlockSize);
  util::Bytes phrase(256);
  for (std::size_t b = 0; b < kReadBlocksPerImage; ++b) {
    const std::size_t seed = seed_base + (b % kReadUniquePerImage);
    util::Rng(0x5eed0000 + seed).Fill(phrase);
    for (std::size_t off = 0; off < kReadBlockSize; off += phrase.size()) {
      std::copy(phrase.begin(), phrase.end(),
                image.begin() + static_cast<std::ptrdiff_t>(
                                    b * kReadBlockSize + off));
    }
  }
  return image;
}

class ImageSource final : public util::DataSource {
 public:
  explicit ImageSource(util::Bytes data) : data_(std::move(data)) {}
  std::uint64_t size() const override { return data_.size(); }
  void Read(std::uint64_t offset, util::MutableByteSpan out) const override {
    std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(offset),
                out.size(), out.begin());
  }

 private:
  util::Bytes data_;
};

std::uint64_t ByteChecksum(const util::Bytes& data) {
  std::uint64_t sum = 14695981039346656037ull;
  for (const auto byte : data) sum = (sum ^ byte) * 1099511628211ull;
  return sum;
}

struct ReadRun {
  std::string mode;
  std::size_t threads = 0;
  std::uint64_t cache_bytes = 0;
  double seconds = 0.0;
  double mb_per_s = 0.0;
  double speedup = 1.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t decompressed_blocks = 0;
  bool payloads_match_serial = true;
};

void RunReadComparison() {
  const util::Bytes image_a = ReadBenchImage(/*seed_base=*/0);
  const util::Bytes image_b = ReadBenchImage(kReadSharedSeedBase);
  const std::uint64_t total_bytes = image_a.size() + image_b.size();

  struct Mode {
    const char* name;
    std::size_t threads;
    std::uint64_t cache_bytes;
    bool warm;  // time a second pass after a warming pass
  };
  const Mode modes[] = {
      {"serial_get", 1, 0, false},
      {"getbatch", 1, 0, false},
      {"getbatch", 2, 0, false},
      {"getbatch", 4, 0, false},
      {"getbatch", 8, 0, false},
      {"getbatch_warm_arc", 4, 64ull << 20, true},
  };

  std::vector<ReadRun> runs;
  std::uint64_t serial_checksum = 0;
  double serial_seconds = 0.0;

  for (const Mode& mode : modes) {
    zvol::Volume volume(zvol::VolumeConfig{
        .block_size = kReadBlockSize,
        .codec = compress::CodecId::kGzip6,
        .dedup = true,
        .fast_hash = false,
        .ingest = {.threads = 1, .batch_blocks = 128},
        .read = {.threads = mode.threads,
                 .cache_bytes = mode.cache_bytes,
                 .readahead_blocks = mode.cache_bytes > 0 ? 16u : 0u}});
    volume.WriteFile("a", ImageSource(image_a));
    volume.WriteFile("b", ImageSource(image_b));
    if (mode.warm) {
      (void)volume.ReadFile("a");  // warming pass populates the ARC
      (void)volume.ReadFile("b");
    }

    // "serial_get" is the pre-batch reference: one store Get per block
    // pointer, no aliasing, no cache. Everything else reads through the
    // batched ReadFile path.
    const auto read_file = [&](const char* name) {
      if (std::string_view(mode.name) != "serial_get") {
        return volume.ReadFile(name);
      }
      util::Bytes out(volume.FileSize(name));
      for (std::uint64_t b = 0; b < volume.FileBlockCount(name); ++b) {
        const zvol::BlockPtr& ptr = volume.FileBlock(name, b);
        if (ptr.hole) continue;
        const util::Bytes block = volume.block_store().Get(ptr.digest);
        std::copy(block.begin(), block.end(),
                  out.begin() + static_cast<std::ptrdiff_t>(b * kReadBlockSize));
      }
      return out;
    };

    const auto start = std::chrono::steady_clock::now();
    const util::Bytes read_a = read_file("a");
    const util::Bytes read_b = read_file("b");
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;

    ReadRun run;
    run.mode = mode.name;
    run.threads = mode.threads;
    run.cache_bytes = mode.cache_bytes;
    run.seconds = elapsed.count();
    run.mb_per_s =
        static_cast<double>(total_bytes) / (1024.0 * 1024.0) / run.seconds;
    const store::ReadStats stats = volume.block_store().read_stats();
    run.cache_hits = stats.cache_hits;
    run.decompressed_blocks = stats.decompressed_blocks;
    const std::uint64_t checksum =
        ByteChecksum(read_a) ^ (ByteChecksum(read_b) << 1);
    if (runs.empty()) {
      serial_checksum = checksum;
      serial_seconds = run.seconds;
    } else {
      run.speedup = serial_seconds / run.seconds;
      run.payloads_match_serial = checksum == serial_checksum;
    }
    runs.push_back(run);
  }

  std::printf("== read throughput: serial Get vs GetBatch vs warm ARC ==\n");
  std::printf("2 images x %.0f MiB, 50%% intra-image dups, ~50%% cross-image "
              "shared, bs 64 KiB, gzip6\n",
              static_cast<double>(image_a.size()) / (1024.0 * 1024.0));
  std::printf("%-18s %8s %10s %10s %10s %8s %6s\n", "mode", "threads",
              "cacheMiB", "seconds", "MB/s", "speedup", "match");
  for (const ReadRun& run : runs) {
    std::printf("%-18s %8zu %10llu %10.3f %10.1f %7.2fx %6s\n",
                run.mode.c_str(), run.threads,
                static_cast<unsigned long long>(run.cache_bytes >> 20),
                run.seconds, run.mb_per_s, run.speedup,
                run.payloads_match_serial ? "yes" : "NO");
  }
  std::printf("\n");

  util::JsonWriter json;
  json.Group().Str("bench", "read");
  json.Group().Uint("block_size", 65536);
  json.Group().Str("codec", "gzip6");
  json.Group().Uint("image_bytes", image_a.size());
  json.Group().Uint("images", 2);
  json.Group().Double("intra_image_dup", "%g", 0.5);
  json.Group().Double("cross_image_shared", "%g", 0.5);
  json.Group().Rows("results");
  for (const ReadRun& run : runs) {
    json.Object()
        .Str("mode", run.mode)
        .Uint("threads", run.threads)
        .Uint("cache_bytes", run.cache_bytes)
        .Double("seconds", "%.6f", run.seconds)
        .Double("mb_per_s", "%.2f", run.mb_per_s)
        .Double("speedup_vs_serial", "%.3f", run.speedup)
        .Uint("cache_hits", run.cache_hits)
        .Uint("decompressed_blocks", run.decompressed_blocks)
        .Bool("payloads_match_serial", run.payloads_match_serial)
        .End();
  }
  json.End();
  bench::WriteBenchJson("BENCH_read.json", json.Finish());
}

}  // namespace

BENCHMARK(BM_StorePutUnique);
BENCHMARK(BM_StorePutDuplicate);
BENCHMARK(BM_StorePutSha256);
BENCHMARK(BM_StorePutBatch)->Arg(1)->Arg(2)->Arg(8);
BENCHMARK(BM_VolumeIngest);
BENCHMARK(BM_SnapshotCreate);
BENCHMARK(BM_IncrementalSend);

int main(int argc, char** argv) {
  RunIngestComparison();
  RunReadComparison();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
