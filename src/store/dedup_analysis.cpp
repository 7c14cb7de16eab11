#include "store/dedup_analysis.h"

#include <vector>

#include "util/hash.h"

namespace squirrel::store {

DedupAnalyzer::DedupAnalyzer(AnalysisConfig config) : config_(config) {}

void DedupAnalyzer::AddFile(const util::DataSource& file) {
  ++file_counter_;
  const std::uint64_t size = file.size();
  result_.logical_bytes += size;

  util::Bytes buffer(config_.block_size);
  std::uint64_t file_unique = 0;

  // Compression sampling is content-hash based: a block is probed when its
  // key satisfies the current mask. The mask doubles when the sample budget
  // is exceeded and already-collected samples failing the new mask are
  // dropped, which keeps the surviving sample a uniform subset.
  for (std::uint64_t offset = 0; offset < size; offset += config_.block_size) {
    const std::uint64_t len = std::min<std::uint64_t>(config_.block_size, size - offset);
    // A block the file reports as a hole reads as zeros: count it unread.
    if (!file.RangeHasData(offset, len)) {
      ++result_.zero_blocks;
      continue;
    }
    util::MutableByteSpan block(buffer.data(), len);
    file.Read(offset, block);
    if (util::IsAllZero(block)) {
      ++result_.zero_blocks;
      continue;
    }
    ++result_.nonzero_blocks;
    result_.nonzero_bytes += len;

    const util::Fast128 h = util::FastHash128(block);
    const Key key{h.lo, h.hi};
    auto [it, inserted] = blocks_.emplace(key, BlockInfo{});
    BlockInfo& info = it->second;
    if (inserted) {
      ++result_.unique_blocks;
      if (config_.codec != nullptr && (key.lo & sample_mask_) == 0) {
        const util::Bytes compressed = config_.codec->Compress(block);
        samples_.emplace_back(key.lo,
                              static_cast<double>(compressed.size()) /
                                  static_cast<double>(len));
        sampled_bytes_ += len;
        if (config_.probe_sample_bytes > 0 &&
            sampled_bytes_ > config_.probe_sample_bytes) {
          // Escalate the mask and thin the existing sample accordingly.
          sample_mask_ = sample_mask_ * 2 + 1;
          std::erase_if(samples_, [this](const auto& s) {
            return (s.first & sample_mask_) != 0;
          });
          sampled_bytes_ /= 2;  // approximate; only the cap uses it
        }
      }
    }
    if (info.last_file != file_counter_) {
      if (info.last_file != 0) {
        // Second or later file containing this block: both endpoints count
        // toward repetition (the first file retroactively when count goes
        // 1 -> 2).
        result_.repetition_sum += (info.file_count == 1) ? 2 : 1;
      }
      ++info.file_count;
      info.last_file = file_counter_;
      ++file_unique;
    }
  }
  result_.per_file_unique_sum += file_unique;
}

AnalysisResult DedupAnalyzer::Finish() {
  if (!samples_.empty()) {
    double sum = 0.0;
    for (const auto& [key, fraction] : samples_) sum += fraction;
    result_.mean_compressed_fraction = sum / static_cast<double>(samples_.size());
    result_.probed_blocks = samples_.size();
  } else if (config_.codec != nullptr) {
    result_.mean_compressed_fraction = 1.0;
  }
  return result_;
}

}  // namespace squirrel::store
