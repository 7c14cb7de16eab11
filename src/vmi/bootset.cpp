#include "vmi/bootset.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "util/rng.h"

namespace squirrel::vmi {
namespace {

std::vector<Range> MergeRanges(std::vector<Range> ranges) {
  std::sort(ranges.begin(), ranges.end(),
            [](const Range& a, const Range& b) { return a.offset < b.offset; });
  std::vector<Range> merged;
  for (const Range& r : ranges) {
    if (r.length == 0) continue;
    if (!merged.empty() && r.offset <= merged.back().end()) {
      merged.back().length =
          std::max(merged.back().end(), r.end()) - merged.back().offset;
    } else {
      merged.push_back(r);
    }
  }
  return merged;
}

// First of the sorted, disjoint `ranges` that may overlap [offset, ...).
std::vector<Range>::const_iterator FirstOverlap(
    const std::vector<Range>& ranges, std::uint64_t offset) {
  auto it = std::upper_bound(ranges.begin(), ranges.end(), offset,
                             [](std::uint64_t off, const Range& r) {
                               return off < r.offset;
                             });
  if (it != ranges.begin()) --it;
  return it;
}

}  // namespace

BootWorkingSet::BootWorkingSet(const Catalog& catalog, const VmImage& image)
    : image_(&image) {
  const CatalogConfig& config = catalog.config();
  const ImageSpec& spec = image.spec();
  const Release& release = image.release();
  const std::uint64_t cache_target = config.ScaledCache();

  std::vector<Range> ranges;
  constexpr std::uint64_t kAlign = kBootClusterAlign;

  // 1. Bootloader + kernel + initrd: the contiguous prefix of the base
  //    (never larger than the kernel reserve, which is the only contiguous
  //    base region).
  const std::uint64_t kernel_bytes = std::min(
      image.kernel_reserve_bytes(),
      util::AlignUp(
          static_cast<std::uint64_t>(static_cast<double>(cache_target) *
                                     config.boot_kernel_fraction),
          kAlign));
  ranges.push_back(Range{0, kernel_bytes});
  kernel_end_ = kernel_bytes;

  // 2. Init scripts, shared libraries, service binaries: reads scattered
  //    over the base content, identical for every image of the release
  //    (same OS boots the same files), seeded by the release. Positions are
  //    chosen in base-content space and translated to their (scattered)
  //    on-disk locations; chunks of 64 or 128 KiB (whole files + readahead).
  const std::uint64_t scatter_budget = static_cast<std::uint64_t>(
      static_cast<double>(cache_target) * config.boot_scatter_fraction);
  util::Rng release_rng(release.boot_seed);
  std::uint64_t scattered = 0;
  const std::uint64_t reserve = image.kernel_reserve_bytes();
  const std::uint64_t frag_len = image.base_fragment_length();
  while (scattered < scatter_budget && spec.base_bytes > reserve + 4 * kAlign) {
    // A chunk never exceeds one base fragment: content contiguity implies
    // logical contiguity only within a fragment.
    std::uint64_t len =
        std::min<std::uint64_t>(release_rng.Between(1, 2) * kAlign, frag_len);
    std::uint64_t content =
        reserve + util::AlignDown(
                      release_rng.Below(spec.base_bytes - reserve - len), kAlign);
    // Keep the chunk inside one fragment so the logical range is contiguous.
    const std::uint64_t frag_end =
        reserve + ((content - reserve) / frag_len + 1) * frag_len;
    if (content + len > frag_end) {
      if (frag_end < reserve + len) continue;
      content = frag_end - len;
    }
    ranges.push_back(Range{image.BaseContentToLogical(content), len});
    scattered += len;
  }

  // 3. Services: prefixes of the image's most popular packages, expanded
  //    outward to cluster boundaries (user-installed packages may sit at
  //    misaligned offsets).
  const std::uint64_t service_budget = static_cast<std::uint64_t>(
      static_cast<double>(cache_target) * config.boot_service_fraction);
  const auto& pool = catalog.family_packages(release.family);
  std::uint64_t service_bytes = 0;
  // spec.packages is ordered by draw; popular ranks repeat most across
  // images, so prefer the lowest-rank (most popular) picks.
  std::vector<std::size_t> order(spec.packages.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return spec.packages[a] < spec.packages[b];
  });
  for (std::size_t i = 0; i < order.size() && service_bytes < service_budget; ++i) {
    const std::size_t slot = order[i];
    const std::uint64_t pkg_offset = image.package_offsets()[slot];
    const std::uint64_t pkg_size = pool[spec.packages[slot]].size;
    const std::uint64_t take =
        std::min<std::uint64_t>(pkg_size, service_budget - service_bytes);
    const std::uint64_t lo = util::AlignDown(pkg_offset, kAlign);
    const std::uint64_t hi = util::AlignUp(pkg_offset + take, kAlign);
    ranges.push_back(Range{lo, hi - lo});
    service_bytes += take;
  }

  // 4. Per-image configuration: reads covering a share of the delta patches
  //    (unique content — the reason cache cross-similarity is high but not
  //    1). Each selected patch pulls its surrounding cluster.
  util::Rng image_rng(spec.seed ^ 0xb007b007ULL);
  const std::uint64_t config_budget =
      cache_target -
      std::min(cache_target, kernel_bytes + scattered + service_bytes);
  std::uint64_t config_bytes = 0;
  for (const Patch& patch : image.patches()) {
    if (config_bytes + kAlign > config_budget) break;
    if (!image_rng.Chance(0.5)) continue;
    const std::uint64_t lo = util::AlignDown(patch.logical_offset, kAlign);
    const std::uint64_t hi =
        util::AlignUp(patch.logical_offset + patch.length, kAlign);
    ranges.push_back(Range{lo, hi - lo});
    config_bytes += hi - lo;
  }

  // Clip to the image and merge overlaps.
  for (Range& r : ranges) {
    if (r.offset >= image.size()) {
      r.length = 0;
    } else {
      r.length = std::min(r.length, image.size() - r.offset);
    }
  }
  ranges_ = MergeRanges(std::move(ranges));
  for (const Range& r : ranges_) byte_count_ += r.length;
}

bool BootWorkingSet::Contains(std::uint64_t offset) const {
  auto it = std::upper_bound(ranges_.begin(), ranges_.end(), offset,
                             [](std::uint64_t off, const Range& r) {
                               return off < r.offset;
                             });
  if (it == ranges_.begin()) return false;
  --it;
  return offset < it->end();
}

std::vector<BootRead> BootWorkingSet::Trace(std::uint64_t trace_seed) const {
  std::vector<BootRead> reads;
  std::vector<BootRead> scattered;
  util::Rng rng(trace_seed);

  for (const Range& range : ranges_) {
    std::uint64_t cursor = range.offset;
    while (cursor < range.end()) {
      const std::uint64_t len = std::min<std::uint64_t>(
          range.end() - cursor, rng.Between(4, 64) * util::kKiB);
      const BootRead read{cursor, static_cast<std::uint32_t>(len)};
      if (range.end() <= kernel_end_) {
        reads.push_back(read);  // sequential prefix, issued in order
      } else {
        scattered.push_back(read);
      }
      cursor += len;
    }
  }

  // Init-time reads interleave across services: deterministic shuffle.
  for (std::size_t i = scattered.size(); i > 1; --i) {
    std::swap(scattered[i - 1], scattered[rng.Below(i)]);
  }
  reads.insert(reads.end(), scattered.begin(), scattered.end());
  return reads;
}

std::vector<BootRead> BootWorkingSet::WriteTrace(std::uint64_t trace_seed) const {
  std::vector<BootRead> writes;
  const std::uint64_t scratch = image_->scratch_length();
  if (scratch == 0) return writes;
  util::Rng rng(trace_seed ^ 0x5742555354ULL);  // "WBUST"

  // A handful of append-heavy streams (log files, /run state), together
  // about an eighth of the working set's bytes.
  const std::uint64_t budget = byte_count_ / 8;
  const std::uint32_t streams = static_cast<std::uint32_t>(rng.Between(3, 6));
  for (std::uint32_t s = 0; s < streams; ++s) {
    std::uint64_t cursor =
        image_->scratch_offset() +
        util::AlignDown(rng.Below(std::max<std::uint64_t>(1, scratch / 2)),
                        4096);
    std::uint64_t stream_budget = budget / streams;
    while (stream_budget > 0) {
      const std::uint32_t len = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(stream_budget, rng.Between(1, 4) * 4096));
      if (cursor + len > image_->size()) break;
      writes.push_back({cursor, len});
      cursor += len;  // append
      stream_budget -= len;
    }
  }
  // Interleave streams deterministically, preserving per-stream order:
  // sort by a stable shuffle of indices grouped in bursts is overkill —
  // appends from different services interleave naturally in arrival order,
  // which the per-stream construction above already approximates.
  return writes;
}

void CacheImage::Read(std::uint64_t offset, util::MutableByteSpan out) const {
  std::memset(out.data(), 0, out.size());
  const std::uint64_t end = offset + out.size();
  const auto& ranges = boot_set_->ranges();
  for (auto it = FirstOverlap(ranges, offset);
       it != ranges.end() && it->offset < end; ++it) {
    const std::uint64_t lo = std::max(offset, it->offset);
    const std::uint64_t hi = std::min(end, it->end());
    if (lo >= hi) continue;
    image_->Read(lo, util::MutableByteSpan(out.data() + (lo - offset), hi - lo));
  }
}

bool CacheImage::RangeHasData(std::uint64_t offset,
                              std::uint64_t length) const {
  const std::uint64_t end = offset + length;
  const auto& ranges = boot_set_->ranges();
  for (auto it = FirstOverlap(ranges, offset);
       it != ranges.end() && it->offset < end; ++it) {
    const std::uint64_t lo = std::max(offset, it->offset);
    const std::uint64_t hi = std::min(end, it->end());
    if (lo < hi && image_->RangeHasData(lo, hi - lo)) return true;
  }
  return false;
}

}  // namespace squirrel::vmi
