// Byte-budgeted cache of decompressed block payloads, keyed by content
// digest — the block store's slice of the ZFS ARC.
//
// The paper's headline boot result (Fig 11) leans on the ARC caching cVolume
// blocks: a block shared by many images (the dedup case) is decompressed
// once and every later reference — from any image — is served from memory.
// This class provides exactly that on the BlockStore read path: the ARC
// policy itself lives in util/arc_cache.h (shared with the boot
// simulator's ARC ablation), instantiated here with digest keys weighted by
// the decompressed payload size.
//
// Because digests are content addresses, a cached payload can never go
// stale: the same digest always names the same bytes, so entries need no
// invalidation on Unref/re-Put. Only *compressed* blocks enter the cache —
// blocks stored raw cost a memcpy either way, so caching them would spend
// budget without saving any decompression work.
//
// Admission is two-phase to serve the batch read pipeline: `Admit` inserts
// the key (adapting the ARC state exactly where a serial Get loop would)
// before the payload exists, and `Fill` installs the decompressed bytes once
// the parallel decompress stage produces them. A pending entry that gets
// evicted before its Fill simply drops out; a Lookup that hits a pending
// entry reports kPending and the caller aliases the in-flight decompression.
//
// Payloads are immutable shared buffers (util::SharedBytes), as the ZFS ARC
// lends its buffers to readers: Fill keeps the buffer the read produced and
// a hit hands out another reference to it, so no payload is copied in or
// out. Evicting an entry drops only the cache's reference; a reader that
// still holds the buffer keeps it alive (DESIGN.md §24).
//
// Not thread-safe; BlockStore runs one instance, budgeted with
// ReadConfig::cache_bytes, and serializes access to it under its own cache
// mutex. Cached bytes are accounted nowhere in StoreStats — the cache is a
// read-side memory budget, not part of the disk/DDT model.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/arc_cache.h"
#include "util/bytes.h"
#include "util/hash.h"

namespace squirrel::store {

/// Tenant identifier for multi-tenant cache accounting: one id per VM (or
/// per image family — the deployer picks the granularity). Tenant 0 is the
/// default single-tenant mode; with no other ids, budgets or pins in play
/// the cache behaves bit-identically to the pre-tenant code.
using TenantId = std::uint32_t;
inline constexpr TenantId kDefaultTenant = 0;

class BlockCache {
 public:
  explicit BlockCache(std::uint64_t capacity_bytes);

  enum class Outcome {
    kHit,      // resident and filled; `out` shares the payload
    kPending,  // resident, decompression in flight (same batch)
    kMiss,     // not resident
  };

  /// Snapshot of one tenant's slice of this cache; counters are
  /// cumulative since construction.
  struct TenantSample {
    TenantId tenant = kDefaultTenant;
    std::uint64_t hits = 0;
    std::uint64_t hit_bytes = 0;  // frequency reuse (T2/pinned hit payload)
    std::uint64_t misses = 0;
    std::uint64_t ghost_hits = 0;
    std::uint64_t ghost_hit_bytes = 0;
    std::uint64_t resident_bytes = 0;
    std::uint64_t pinned_bytes = 0;
  };

  /// ARC lookup; on kHit points `*out` at the resident payload. A null
  /// `out` performs the full ARC touch (promotion, hit counter) alone — the
  /// warm path uses this. The hit charges the entry to `tenant`.
  Outcome Lookup(const util::Digest& digest, util::SharedBytes* out,
                 TenantId tenant = kDefaultTenant);

  /// Admits `digest` (weight = decompressed size) after a miss, charged to
  /// `tenant`. The ARC state change happens here, in request order; the
  /// payload follows later. With tenant budgets set, an over-budget tenant
  /// evicts its own entries first and the admission is refused (ghost
  /// signal kept) when its slice cannot fit the block.
  void Admit(const util::Digest& digest, std::uint64_t bytes,
             TenantId tenant = kDefaultTenant);

  /// Keeps a reference to the decompressed payload; a no-op if the entry
  /// was evicted (or never admitted, e.g. wider than the whole budget).
  void Fill(const util::Digest& digest, util::SharedBytes payload);

  /// Pins a resident entry for `tenant` (boot-critical tier): charged to
  /// the tenant, never evicted by replacement or budget pressure, dropped
  /// only by Resize(0). False when `digest` is not resident.
  bool Pin(const util::Digest& digest, TenantId tenant = kDefaultTenant) {
    return arc_.Pin(digest, tenant);
  }

  /// Demotes every pinned entry back into normal replacement order.
  std::size_t UnpinAll() { return arc_.UnpinAll(); }

  /// Sets `tenant`'s resident-byte budget.
  void SetTenantBudget(TenantId tenant, std::uint64_t bytes) {
    arc_.SetOwnerBudget(tenant, bytes);
  }

  /// Drops all tenant budgets (back to one shared ARC).
  void ClearTenantBudgets() { arc_.ClearOwnerBudgets(); }

  /// Non-mutating probe: resident *and* filled. The boot simulator uses
  /// this to decide whether a read would pay decompression CPU.
  bool ResidentPayload(const util::Digest& digest) const;

  /// Rebudgets the cache: shrinking evicts down to the new byte budget in
  /// ARC replacement order (payloads drop with their entries); growing keeps
  /// everything and raises the ceiling. Resize(0) is a full disable — every
  /// payload (pinned included) and all ghost history drop.
  void Resize(std::uint64_t capacity_bytes) { arc_.Resize(capacity_bytes); }

  bool enabled() const { return arc_.capacity() > 0; }
  std::uint64_t capacity_bytes() const { return arc_.capacity(); }
  /// Admitted decompressed bytes currently resident (the byte budget the
  /// ARC enforces; pending entries count from admission).
  std::uint64_t resident_bytes() const { return arc_.resident_weight(); }
  std::uint64_t pinned_bytes() const { return arc_.pinned_weight(); }
  std::uint64_t hits() const { return arc_.hits(); }
  std::uint64_t misses() const { return arc_.misses(); }
  /// Ghost-hit export for the controller: would-have-hit accesses (count
  /// and byte volume) — the marginal-utility signal of this cache.
  std::uint64_t ghost_hits_recency() const { return arc_.ghost_hits_recency(); }
  std::uint64_t ghost_hits_frequency() const {
    return arc_.ghost_hits_frequency();
  }
  std::uint64_t ghost_hit_bytes() const { return arc_.ghost_hit_bytes(); }
  std::uint64_t hit_bytes() const { return arc_.hit_weight(); }

  /// Per-tenant snapshot in ascending tenant order (deterministic). Empty
  /// until the first multi-tenant call.
  std::vector<TenantSample> SampleTenants() const;

 private:
  util::ArcCache<util::Digest, util::DigestHasher> arc_;
  std::unordered_map<util::Digest, util::SharedBytes, util::DigestHasher>
      payloads_;
};

}  // namespace squirrel::store
