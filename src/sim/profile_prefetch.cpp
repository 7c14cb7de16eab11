#include "sim/profile_prefetch.h"

#include <algorithm>
#include <unordered_set>

namespace squirrel::sim {

ProfilePrefetcher::ProfilePrefetcher(const vmi::BootProfile* profile,
                                     IoContext* io)
    : profile_(profile), io_(io) {}

void ProfilePrefetcher::Bind(const std::string& file, PrefetchTarget* target) {
  bindings_[file] = target;
  built_ = false;  // a new binding may unlock previously-unbound touches
}

void ProfilePrefetcher::BuildPlan() {
  built_ = true;
  plan_.clear();
  cursor_ = 0;
  stats_.skipped_unbound = 0;
  if (profile_ == nullptr) return;
  const std::vector<std::string>& files = profile_->files();
  std::vector<PrefetchTarget*> targets(files.size(), nullptr);
  for (std::size_t i = 0; i < files.size(); ++i) {
    const auto it = bindings_.find(files[i]);
    if (it != bindings_.end()) targets[i] = it->second;
  }
  // Plan each (file, block) once, at its first miss-annotated touch —
  // re-reads of the same block hit the page cache warmed by the first.
  struct Key {
    std::uint32_t file;
    std::uint64_t block;
    bool operator==(const Key&) const = default;
  };
  struct KeyHasher {
    std::size_t operator()(const Key& k) const noexcept {
      return static_cast<std::size_t>((k.file * 0x9e3779b97f4a7c15ULL) ^
                                      (k.block * 0xff51afd7ed558ccdULL));
    }
  };
  std::unordered_set<Key, KeyHasher> planned;
  for (const vmi::ProfileTouch& touch : profile_->touches()) {
    if (touch.page_cache_hit) continue;
    if (touch.file >= targets.size() || targets[touch.file] == nullptr) {
      ++stats_.skipped_unbound;
      continue;
    }
    if (!planned.insert(Key{touch.file, touch.block}).second) continue;
    plan_.push_back(PlannedBlock{targets[touch.file], touch.block});
  }
}

void ProfilePrefetcher::Pump() {
  if (io_ == nullptr) return;
  if (!built_) BuildPlan();
  // Retire prefetches the guest has consumed (JoinInFlight removed the
  // in-flight entry), freeing lead-window slots.
  std::erase_if(outstanding_, [&](const auto& key) {
    return !io_->InFlight(key.first, key.second);
  });
  while (outstanding_.size() < kLeadBlocks && cursor_ < plan_.size()) {
    const PlannedBlock& next = plan_[cursor_];
    const PrefetchOutcome outcome = next.target->PrefetchBlock(next.block);
    if (outcome == PrefetchOutcome::kDropped) {
      // Queue saturated: keep the cursor so the next Pump retries this
      // block instead of punching a hole in the plan.
      ++stats_.dropped;
      break;
    }
    ++cursor_;
    if (outcome == PrefetchOutcome::kIssued) {
      ++stats_.issued;
      outstanding_.emplace_back(next.target->device_id(), next.block);
    } else {
      ++stats_.skipped_resident;
    }
  }
}

}  // namespace squirrel::sim
