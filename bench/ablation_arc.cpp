// Ablation: ARC vs plain LRU as the compute node's block cache.
//
// ZFS fronts Squirrel's cVolume with the ARC; a plain LRU is what the page
// cache gives a file-backed cache. The interesting workload is a boot storm
// with skew: popular images boot repeatedly (their cVolume blocks deserve
// frequency protection), while each boot also performs a one-pass scan of
// per-image unique blocks that would flush an LRU.
#include "bench/ingest_common.h"
#include "sim/page_cache.h"
#include "util/arc_cache.h"
#include "util/rng.h"
#include "util/table.h"
#include "vmi/bootset.h"

using namespace squirrel;
using namespace squirrel::bench;

int main(int argc, char** argv) {
  Options options = ParseOptions(argc, argv);
  if (options.images == 607) options.images = 96;
  PrintHeader("ablation_arc",
              "Ablation: ARC vs LRU block caching under a skewed boot storm",
              options);
  const vmi::Catalog catalog =
      vmi::Catalog::AzureCommunity(MakeCatalogConfig(options));

  // Shared 64 KB cVolume with every cache; per-boot block access streams.
  zvol::Volume volume(zvol::VolumeConfig{.block_size = 64 * 1024,
                                         .codec = compress::CodecId::kGzip6,
                                         .dedup = true,
                                         .fast_hash = true});
  std::vector<std::vector<std::uint64_t>> block_streams;  // digests as ids
  for (const vmi::ImageSpec& spec : catalog.images()) {
    const vmi::VmImage image(catalog, spec);
    const vmi::BootWorkingSet boot(catalog, image);
    const std::string file = "cache-" + std::to_string(spec.id);
    volume.WriteFile(file, vmi::CacheImage(image, boot));
    // The block-id stream a boot touches: physical block identities, so two
    // images' shared blocks hit the same cache entries (as in the ARC).
    std::vector<std::uint64_t> stream;
    for (const vmi::BootRead& read : boot.Trace(spec.seed)) {
      const std::uint64_t first = read.offset / 65536;
      const std::uint64_t last = (read.offset + read.length - 1) / 65536;
      for (std::uint64_t b = first; b <= last; ++b) {
        if (b >= volume.FileBlockCount(file)) break;
        const zvol::BlockPtr& ptr = volume.FileBlock(file, b);
        if (!ptr.hole) stream.push_back(ptr.digest.Prefix64());
      }
    }
    block_streams.push_back(std::move(stream));
  }

  constexpr int kBoots = 4000;
  const util::ZipfSampler popularity(block_streams.size(), 1.0);

  util::Table table({"cache size (blocks)", "LRU hit rate", "ARC hit rate",
                     "ARC advantage"});
  for (std::size_t capacity : {64ul, 256ul, 1024ul}) {
    sim::PageCache lru(capacity * 65536);
    util::ArcCache<std::uint64_t> arc(capacity);
    util::Rng rng(options.seed);
    for (int boot = 0; boot < kBoots; ++boot) {
      const std::size_t image = popularity.Sample(rng);
      for (const std::uint64_t block : block_streams[image]) {
        if (!lru.Lookup(0, block)) lru.Insert(0, block, 65536);
        if (!arc.Lookup(block)) arc.Insert(block, 1);
      }
    }
    const double lru_rate = static_cast<double>(lru.hits()) /
                            static_cast<double>(lru.hits() + lru.misses());
    const double arc_rate = static_cast<double>(arc.hits()) /
                            static_cast<double>(arc.hits() + arc.misses());
    table.AddRow({std::to_string(capacity), util::Table::Num(lru_rate, 3),
                  util::Table::Num(arc_rate, 3),
                  util::Table::Num((arc_rate - lru_rate) * 100, 1) + " pp"});
  }
  std::printf("%s", table.Render().c_str());
  std::printf(
      "\nreading: boot streams are short and heavily shared, so recency alone\n"
      "already captures most locality — ARC's scan resistance buys little\n"
      "here (a real finding: the page cache suffices for Squirrel's read\n"
      "path; ARC matters for workloads with long destructive scans, see\n"
      "ArcCache.FrequentBlocksSurviveScan in the tests).\n");
  return 0;
}
