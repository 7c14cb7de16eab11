// Offline dataset analysis: deduplication ratio, compression ratio, combined
// compression ratio (CCR) and cross-similarity over a set of files at a given
// block size.
//
// This is the reproduction of the paper's Hadoop MapReduce analysis jobs
// (Section 4: "To generate the data for Figures 2, 3, 4, and 12 ..."). The
// metric definitions follow Section 2.2 and 4.3.1:
//
//   dedup ratio       = |N| / |U|      (nonzero blocks over unique blocks)
//   compression ratio = 1 / mean_{i in U}(size(compress(i)) / size(i))
//   CCR               = dedup ratio * compression ratio
//   cross-similarity  = sum_{i in U} repetition_i / sum_{f in I} |U_f|
//     where repetition_i counts the distinct files containing block i when
//     that count is >= 2, and 0 otherwise.
//
// Analysis hashing uses a fast 128-bit non-cryptographic hash (two seeded
// FNV-1a lanes): at analysis scale a collision is vanishingly unlikely and
// irrelevant for ratio estimation. Compression probing optionally samples
// unique blocks (deterministically) to bound CPU cost.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "compress/codec.h"
#include "util/source.h"

namespace squirrel::store {

struct AnalysisConfig {
  std::uint32_t block_size = 64 * 1024;
  /// Codec for the compression probe; nullptr skips it (dedup-only analysis).
  const compress::Codec* codec = nullptr;
  /// Compress at most roughly this many bytes' worth of unique blocks
  /// (deterministic content-hash sampling); 0 means "all". The ratio
  /// estimate converges with a few MiB of probed data.
  std::uint64_t probe_sample_bytes = 8 * 1024 * 1024;
};

struct AnalysisResult {
  std::uint64_t nonzero_blocks = 0;   // |N|
  std::uint64_t unique_blocks = 0;    // |U|
  std::uint64_t zero_blocks = 0;
  std::uint64_t logical_bytes = 0;    // total logical size of all files
  std::uint64_t nonzero_bytes = 0;

  // Compression probe aggregates (over sampled unique blocks).
  std::uint64_t probed_blocks = 0;
  double mean_compressed_fraction = 1.0;  // mean(size(compress)/size)

  // Cross-similarity components.
  std::uint64_t repetition_sum = 0;       // numerator
  std::uint64_t per_file_unique_sum = 0;  // denominator

  double dedup_ratio() const {
    return unique_blocks == 0
               ? 0.0
               : static_cast<double>(nonzero_blocks) / static_cast<double>(unique_blocks);
  }
  double compression_ratio() const {
    return mean_compressed_fraction <= 0.0 ? 0.0 : 1.0 / mean_compressed_fraction;
  }
  double ccr() const { return dedup_ratio() * compression_ratio(); }
  double cross_similarity() const {
    return per_file_unique_sum == 0
               ? 0.0
               : static_cast<double>(repetition_sum) /
                     static_cast<double>(per_file_unique_sum);
  }
};

class DedupAnalyzer {
 public:
  explicit DedupAnalyzer(AnalysisConfig config);

  /// Scans one file; call once per file in the dataset. A block the file
  /// reports as a hole (DataSource::RangeHasData) counts as a zero block
  /// without being read.
  void AddFile(const util::DataSource& file);

  /// Finalizes cross-similarity and compression aggregates.
  AnalysisResult Finish();

 private:
  struct Key {
    std::uint64_t lo, hi;
    bool operator==(const Key&) const = default;
  };
  struct KeyHasher {
    std::size_t operator()(const Key& k) const noexcept {
      return static_cast<std::size_t>(k.lo ^ (k.hi * 0x9e3779b97f4a7c15ULL));
    }
  };
  struct BlockInfo {
    std::uint32_t file_count = 0;    // distinct files containing this block
    std::uint32_t last_file = 0;     // 1-based id of last file that counted it
  };

  AnalysisConfig config_;
  AnalysisResult result_;
  std::unordered_map<Key, BlockInfo, KeyHasher> blocks_;
  std::uint32_t file_counter_ = 0;
  // Compression-probe sample: (key.lo, compressed/raw fraction) per sampled
  // unique block, thinned by doubling sample_mask_ when over budget.
  std::vector<std::pair<std::uint64_t, double>> samples_;
  std::uint64_t sample_mask_ = 0;
  std::uint64_t sampled_bytes_ = 0;
};

}  // namespace squirrel::store
