#include "store/block_cache.h"

#include <vector>

namespace squirrel::store {

BlockCache::BlockCache(std::uint64_t capacity_bytes)
    : arc_(capacity_bytes,
           [this](const util::Digest& evicted) { payloads_.erase(evicted); }) {}

BlockCache::Outcome BlockCache::Lookup(const util::Digest& digest,
                                       util::SharedBytes* out,
                                       TenantId tenant) {
  if (!arc_.Lookup(digest, tenant)) return Outcome::kMiss;
  const auto it = payloads_.find(digest);
  if (it == payloads_.end()) return Outcome::kPending;
  if (out != nullptr) *out = it->second;
  return Outcome::kHit;
}

void BlockCache::Admit(const util::Digest& digest, std::uint64_t bytes,
                       TenantId tenant) {
  arc_.Insert(digest, bytes, tenant);
}

void BlockCache::Fill(const util::Digest& digest, util::SharedBytes payload) {
  if (!arc_.Resident(digest)) return;  // evicted before the fill, or bypassed
  payloads_.emplace(digest, std::move(payload));
}

bool BlockCache::ResidentPayload(const util::Digest& digest) const {
  return arc_.Resident(digest) && payloads_.contains(digest);
}

std::vector<BlockCache::TenantSample> BlockCache::SampleTenants() const {
  std::vector<TenantSample> samples;
  samples.reserve(arc_.owner_stats().size());
  for (const auto& [tenant, stats] : arc_.owner_stats()) {
    samples.push_back(TenantSample{tenant, stats.hits, stats.hit_bytes,
                                   stats.misses, stats.ghost_hits,
                                   stats.ghost_hit_bytes,
                                   stats.resident_weight});
  }
  return samples;
}

}  // namespace squirrel::store
