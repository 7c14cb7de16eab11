// Adaptive Replacement Cache (Megiddo & Modha, FAST'03) — the policy behind
// the ZFS ARC that caches Squirrel's cVolume blocks in practice.
//
// ARC partitions the cache between a recency list (T1) and a frequency list
// (T2) and adapts the split (`p`) using two ghost lists (B1, B2) that
// remember recently evicted keys: a hit in B1 says "recency deserved more
// room", a hit in B2 the opposite. Compared with plain LRU it resists scans
// — a single pass over a large file (exactly what a VM boot's one-time reads
// are) cannot flush the frequently reused blocks.
//
// This is the generic, *weighted* core shared by two consumers:
//
//   * the boot-simulator policy model (bench/ablation_arc), block-id keys
//     with uniform weight 1; reduces exactly to the classic entry-counted
//     formulation (the paper's integer arithmetic falls out of the weighted
//     arithmetic at weight 1, and the reachable-state invariant
//     "ghosts nonempty => resident weight == capacity" makes the budget
//     loops run exactly once where the paper evicts once);
//   * store::BlockCache — the byte-budgeted decompressed-block cache on the
//     block-store read path, keyed by content digest and weighted by the
//     decompressed payload size (like the real ARC, which is sized in bytes).
//     The store runs one instance, adapting one `p` over its whole working
//     set.
//
// Two extensions serve the workload-adaptive multi-tenant controller
// (store::CacheController, DESIGN.md §17), both strictly inert at their
// defaults (owner 0 everywhere, no budgets — in that state every decision
// is bit-identical to the classic weighted core):
//
//   * ghost-hit export — the cumulative byte volume of B1/B2 ghost hits,
//     in total and per owner. A ghost hit is an access that *would* have
//     been a hit with more budget, i.e. the discrete derivative of the hit
//     curve at the current capacity; the controller reads it as marginal
//     utility per byte.
//   * per-owner accounting and budgets — every resident entry is charged to
//     the owner (tenant) that last touched it ("charge follows use"). With
//     budgets set, an owner admitting past its budget evicts *its own*
//     LRU entries first and is refused admission when it has none left —
//     one noisy tenant cannot displace the other tenants' working sets.
//     Refused admissions still adapt `p` and still record the ghost hit, so
//     a constrained tenant keeps signalling demand to the controller.
//
// Each instance is single-threaded by contract (no internal locking); owners
// provide exclusive access, e.g. the store's cache mutex.
//
// Capacity, the adaptive target `p` and all list sizes are tracked in weight
// units. An entry wider than the whole capacity is not admitted. Evictions
// from the resident lists (T1/T2 — including the no-ghost drop of the classic
// "L1 full of resident pages" case) invoke `on_evict` so the owner can drop
// the associated payload; ghost-list drops do not, ghosts hold keys only.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <string>
#include <unordered_map>

namespace squirrel::util {

template <typename Key, typename Hasher = std::hash<Key>>
class ArcCache {
 public:
  /// Owner (tenant) identifier for multi-tenant accounting. 0 is the
  /// default owner; single-tenant callers never pass anything else.
  using Owner = std::uint32_t;

  /// Cumulative per-owner accounting. resident_weight is a snapshot; the
  /// rest are monotonic counters.
  struct OwnerStats {
    std::uint64_t hits = 0;
    /// Weight served from T2 entries — frequency reuse the budget realized.
    /// T1 hits are excluded: short-distance recency reuse says nothing
    /// about what extra capacity would buy.
    std::uint64_t hit_bytes = 0;
    std::uint64_t misses = 0;
    std::uint64_t ghost_hits = 0;       // B1 + B2 revivals by this owner
    std::uint64_t ghost_hit_bytes = 0;  // same, weighted (marginal utility)
    std::uint64_t resident_weight = 0;
  };

  /// `capacity` in weight units (entries, bytes, ...). `on_evict` is called
  /// with each key leaving the resident lists (may be empty).
  explicit ArcCache(std::uint64_t capacity,
                    std::function<void(const Key&)> on_evict = {})
      : capacity_(capacity), on_evict_(std::move(on_evict)) {}

  ArcCache(const ArcCache&) = delete;
  ArcCache& operator=(const ArcCache&) = delete;

  /// True (cache hit) if `key` is resident; promotes it to the MRU end of
  /// the frequency list and updates the hit/miss counters. The hit
  /// transfers the entry's charge to `owner`.
  bool Lookup(const Key& key, Owner owner = 0) {
    if (owner != 0) EnableTracking();
    if (capacity_ == 0) {
      ++misses_;
      if (tracking_owners_) ++Stats(owner).misses;
      return false;
    }
    auto it = index_.find(key);
    if (it == index_.end() || IsGhost(it->second.list)) {
      ++misses_;
      if (tracking_owners_) ++Stats(owner).misses;
      return false;
    }
    Entry& entry = it->second;
    ChargeTo(entry, owner);
    // Frequency reuse only (T2): a T1 hit is short-distance recency
    // reuse a one-block buffer would also have served, so it says nothing
    // about what the *budget* earns — back-to-back double reads (scan +
    // verify patterns) would otherwise register as cache demand.
    const bool frequent = entry.list == ListId::kT2;
    // Case I: hit in T1 or T2 — promote to MRU of T2.
    Lru& from = entry.list == ListId::kT1 ? t1_ : t2_;
    weight_[Idx(entry.list)] -= entry.weight;
    weight_[Idx(ListId::kT2)] += entry.weight;
    t2_.splice(t2_.begin(), from, entry.position);
    entry.list = ListId::kT2;
    entry.position = t2_.begin();
    ++hits_;
    if (frequent) hit_weight_ += entry.weight;
    if (tracking_owners_) {
      OwnerStats& stats = Stats(owner);
      ++stats.hits;
      if (frequent) stats.hit_bytes += entry.weight;
    }
    return true;
  }

  /// Inserts after a miss (also adapts `p` using the ghost lists). Re-insert
  /// of a resident key is a no-op; a key wider than the capacity is not
  /// cached at all. With owner budgets set, an over-budget owner evicts its
  /// own entries first and the insert is dropped (ghost hit still recorded)
  /// when it cannot make room within its own slice.
  void Insert(const Key& key, std::uint64_t weight, Owner owner = 0) {
    if (owner != 0) EnableTracking();
    if (capacity_ == 0 || weight == 0 || weight > capacity_) return;
    auto it = index_.find(key);

    if (it != index_.end() && it->second.list == ListId::kB1) {
      // Case II: ghost hit in B1 — grow the recency target.
      const std::uint64_t delta = std::max<std::uint64_t>(
          weight, weight * (W(ListId::kB2) /
                            std::max<std::uint64_t>(W(ListId::kB1), 1)));
      p_ = std::min(capacity_, p_ + delta);
      ghost_hit_bytes_ += weight;
      RecordOwnerGhostHit(owner, weight);
      if (!FitsOwnerBudget(owner, weight)) {
        DropGhost(it, b1_, ListId::kB1);
        return;
      }
      // No standalone REPLACE here: ReviveGhost's EnforceBudget evicts
      // exactly when the revived entry does not fit. The paper's REPLACE
      // assumes a full cache; with weighted entries, Resize shrinks, and
      // budget-refused admissions, "not full" is a reachable state, and an
      // unconditional eviction per ghost hit pins residency at its current
      // level — under a cyclic working set the T2-LRU victim is the next
      // block needed, turning one eviction into a permanent miss cascade.
      ReviveGhost(it->second, b1_, ListId::kB1, key, weight, false, owner);
      return;
    }
    if (it != index_.end() && it->second.list == ListId::kB2) {
      // Case III: ghost hit in B2 — grow the frequency target.
      const std::uint64_t delta = std::max<std::uint64_t>(
          weight, weight * (W(ListId::kB1) /
                            std::max<std::uint64_t>(W(ListId::kB2), 1)));
      p_ = p_ > delta ? p_ - delta : 0;
      ghost_hit_bytes_ += weight;
      RecordOwnerGhostHit(owner, weight);
      if (!FitsOwnerBudget(owner, weight)) {
        DropGhost(it, b2_, ListId::kB2);
        return;
      }
      // See Case II — eviction is EnforceBudget's job, gated on fullness.
      ReviveGhost(it->second, b2_, ListId::kB2, key, weight, true, owner);
      return;
    }
    if (it != index_.end()) {
      return;  // already resident (Insert after a racing Lookup hit)
    }

    if (!FitsOwnerBudget(owner, weight)) {
      // Budget-refused admission: leave a B1 directory entry so the next
      // touch registers as a ghost hit. A tenant floored below one block's
      // weight would otherwise leave no trace at all — no ghosts means no
      // demand signal, and the controller could never lift it off its floor.
      b1_.push_front(key);
      index_[key] = Entry{ListId::kB1, b1_.begin(), weight, owner};
      weight_[Idx(ListId::kB1)] += weight;
      TrimGhosts();
      return;
    }

    // Case IV: brand-new key. Only the *directory* maintenance from the
    // paper happens here (trimming ghost history); resident eviction is
    // EnforceBudget's job below, gated on actual resident fullness. The
    // paper's unconditional REPLACE in this case assumes residency always
    // equals capacity — with owner budgets an admission may have already
    // freed its own room (self-eviction), and evicting again would charge
    // an innocent owner for the scan traffic that stayed inside its slice.
    const std::uint64_t l1 = W(ListId::kT1) + W(ListId::kB1);
    if (l1 >= capacity_) {
      if (W(ListId::kT1) < capacity_) {
        while (!b1_.empty() && W(ListId::kT1) + W(ListId::kB1) >= capacity_) {
          DropLru(b1_, ListId::kB1);
        }
      } else {
        while (!t1_.empty() && W(ListId::kT1) >= capacity_) {
          DropLru(t1_, ListId::kT1);
        }
      }
    } else if (TotalWeight() >= capacity_) {
      while (!b2_.empty() && TotalWeight() >= 2 * capacity_) {
        DropLru(b2_, ListId::kB2);
      }
    }
    EnforceBudget(weight, false);
    t1_.push_front(key);
    index_[key] = Entry{ListId::kT1, t1_.begin(), weight, owner};
    weight_[Idx(ListId::kT1)] += weight;
    if (tracking_owners_) Stats(owner).resident_weight += weight;
    // The pre-insert trims above reason in whole entries (the paper's
    // unit-weight arithmetic); with mixed weights the new entry can
    // overshoot the directory bounds by up to one entry, so re-trim.
    TrimGhosts();
  }

  /// Sets the resident-weight budget of `owner` (its slice of the tenant
  /// partition). Entries an owner already holds above a newly lowered
  /// budget are not evicted eagerly — the owner just cannot grow until its
  /// charge drains below the budget. Budget 0 refuses all admissions for
  /// the owner (lookups still hit whatever it holds).
  void SetOwnerBudget(Owner owner, std::uint64_t weight) {
    EnableTracking();
    budgets_[owner] = weight;
  }

  /// Removes every owner budget (back to one shared ARC). Accounting keeps
  /// tracking owners once any multi-tenant feature has been used.
  void ClearOwnerBudgets() { budgets_.clear(); }

  /// Rebudgets the cache in place (the ZFS ARC shrinks under host memory
  /// pressure and grows back; arc_c is a tunable, not a constant). Shrinking
  /// evicts residents through the normal REPLACE path — LRU-first, T1
  /// preferred while it exceeds the clamped target — so the eviction order
  /// matches what capacity pressure would have produced, then trims the
  /// ghost lists to the classic bounds (W(T1)+W(B1) <= c, total <= 2c).
  /// Growing just raises the budget; resident entries and ghost history are
  /// retained. Resize(0) is a full disable: every resident entry is
  /// evicted through on_evict and all history is dropped.
  void Resize(std::uint64_t new_capacity) {
    capacity_ = new_capacity;
    if (capacity_ == 0) {
      while (!t1_.empty()) DropLru(t1_, ListId::kT1);
      while (!t2_.empty()) DropLru(t2_, ListId::kT2);
      while (!b1_.empty()) DropLru(b1_, ListId::kB1);
      while (!b2_.empty()) DropLru(b2_, ListId::kB2);
      p_ = 0;
      return;
    }
    p_ = std::min(p_, capacity_);
    while (W(ListId::kT1) + W(ListId::kT2) > capacity_ &&
           (!t1_.empty() || !t2_.empty())) {
      Replace(false);
    }
    TrimGhosts();
  }

  /// Non-mutating residency probe (no counter or recency update).
  bool Resident(const Key& key) const {
    const auto it = index_.find(key);
    return it != index_.end() && !IsGhost(it->second.list);
  }

  std::uint64_t hits() const { return hits_; }
  /// Total weight served from T2 entries (realized *frequency* reuse — the
  /// counterpart of ghost_hit_bytes' would-have-been reuse; T1 recency hits
  /// excluded, see OwnerStats::hit_bytes).
  std::uint64_t hit_weight() const { return hit_weight_; }
  std::uint64_t misses() const { return misses_; }
  /// Weight of the ghost-list hits (Cases II/III): accesses that would have
  /// been resident hits with roughly double the budget — the derivative of
  /// the hit curve the controller integrates into marginal utility per
  /// byte.
  std::uint64_t ghost_hit_bytes() const { return ghost_hit_bytes_; }
  std::uint64_t capacity() const { return capacity_; }
  std::size_t resident_entries() const { return t1_.size() + t2_.size(); }
  std::uint64_t resident_weight() const {
    return W(ListId::kT1) + W(ListId::kT2);
  }
  /// Current adaptive target for T1 (recency side), in weight units.
  std::uint64_t target_recency_weight() const { return p_; }

  /// Per-owner accounting, keyed by owner id (ordered, so iteration — and
  /// everything derived from it, e.g. the controller's rebudget trace — is
  /// deterministic). Empty until a non-zero owner or a budget is first
  /// seen.
  const std::map<Owner, OwnerStats>& owner_stats() const {
    return owner_stats_;
  }

  /// Internal-consistency audit for the property tests: recounts every list
  /// against the weight array and checks the documented invariants
  ///   resident weight <= capacity,
  ///   W(T1) + W(B1) <= capacity,
  ///   W(T1)+W(T2)+W(B1)+W(B2) <= 2 * capacity,
  ///   p <= capacity.
  /// Returns an empty string when everything holds, else a description of
  /// the first violation.
  std::string CheckInvariants() const {
    const Lru* lists[4] = {&t1_, &t2_, &b1_, &b2_};
    const ListId ids[4] = {ListId::kT1, ListId::kT2, ListId::kB1, ListId::kB2};
    std::size_t entries = 0;
    for (int l = 0; l < 4; ++l) {
      std::uint64_t recount = 0;
      for (auto it = lists[l]->begin(); it != lists[l]->end(); ++it) {
        const auto found = index_.find(*it);
        if (found == index_.end()) return "list key missing from index";
        if (found->second.list != ids[l]) return "index/list id mismatch";
        if (found->second.position != it) return "stale index position";
        recount += found->second.weight;
        ++entries;
      }
      if (recount != weight_[Idx(ids[l])]) {
        return "weight recount mismatch in list " +
               std::to_string(Idx(ids[l])) + ": recounted " +
               std::to_string(recount) + " recorded " +
               std::to_string(weight_[Idx(ids[l])]);
      }
    }
    if (entries != index_.size()) return "index size != sum of list sizes";
    if (capacity_ == 0) {
      return index_.empty() ? "" : "capacity 0 but entries present";
    }
    if (resident_weight() > capacity_) {
      return "resident weight exceeds capacity";
    }
    if (W(ListId::kT1) + W(ListId::kB1) > capacity_) {
      return "W(T1)+W(B1) exceeds capacity";
    }
    if (TotalWeight() > 2 * capacity_) {
      return "T1+T2+B1+B2 weight exceeds 2*capacity";
    }
    if (p_ > capacity_) return "adaptation target p exceeds capacity";
    if (tracking_owners_) {
      std::map<Owner, std::uint64_t> recount;
      for (const auto& [key, entry] : index_) {
        if (!IsGhost(entry.list)) recount[entry.owner] += entry.weight;
      }
      for (const auto& [owner, stats] : owner_stats_) {
        const auto it = recount.find(owner);
        const std::uint64_t resident = it == recount.end() ? 0 : it->second;
        if (stats.resident_weight != resident) {
          return "owner charge mismatch for owner " + std::to_string(owner);
        }
      }
      for (const auto& [owner, resident] : recount) {
        if (resident != 0 && !owner_stats_.contains(owner)) {
          return "untracked owner holds weight";
        }
      }
    }
    return "";
  }

 private:
  enum class ListId { kT1, kT2, kB1, kB2 };
  using Lru = std::list<Key>;  // front = MRU
  struct Entry {
    ListId list;
    typename Lru::iterator position;
    std::uint64_t weight;
    Owner owner = 0;
  };

  static constexpr std::size_t Idx(ListId id) {
    return static_cast<std::size_t>(id);
  }
  static constexpr bool IsGhost(ListId id) {
    return id == ListId::kB1 || id == ListId::kB2;
  }
  std::uint64_t W(ListId id) const { return weight_[Idx(id)]; }
  /// T1+T2+B1+B2 — the classic cache-directory weight.
  std::uint64_t TotalWeight() const {
    return weight_[0] + weight_[1] + weight_[2] + weight_[3];
  }

  /// Flips owner accounting on, backfilling the charge of every entry
  /// admitted before the first multi-tenant call (all owner 0 unless
  /// ownership was transferred earlier).
  void EnableTracking() {
    if (tracking_owners_) return;
    tracking_owners_ = true;
    for (const auto& [key, entry] : index_) {
      if (IsGhost(entry.list)) continue;
      owner_stats_[entry.owner].resident_weight += entry.weight;
    }
  }

  OwnerStats& Stats(Owner owner) {
    EnableTracking();
    return owner_stats_[owner];
  }

  void RecordOwnerGhostHit(Owner owner, std::uint64_t weight) {
    if (!tracking_owners_ && owner == 0) return;
    OwnerStats& stats = Stats(owner);
    ++stats.ghost_hits;
    stats.ghost_hit_bytes += weight;
  }

  /// Transfers a resident entry's charge to `owner` (charge follows use).
  void ChargeTo(Entry& entry, Owner owner) {
    if (entry.owner == owner) return;
    if (tracking_owners_ || owner != 0) {
      Stats(entry.owner).resident_weight -= entry.weight;
      Stats(owner).resident_weight += entry.weight;
    }
    entry.owner = owner;
  }

  /// Owner-budget admission gate: with a budget set for `owner`, evicts the
  /// owner's own residents (LRU order, T1 before T2) until the new
  /// entry fits the budget; false when it cannot fit (the insert must be
  /// dropped instead of displacing other owners).
  bool FitsOwnerBudget(Owner owner, std::uint64_t weight) {
    if (budgets_.empty()) return true;
    const auto budget = budgets_.find(owner);
    if (budget == budgets_.end()) return true;
    if (weight > budget->second) return false;
    while (Stats(owner).resident_weight + weight > budget->second) {
      if (!EvictOwnedLru(owner)) return false;
    }
    return true;
  }

  /// Evicts the LRU entry owned by `owner` (T1 scanned before T2)
  /// into its ghost list. False when the owner holds none.
  bool EvictOwnedLru(Owner owner) {
    for (auto it = t1_.rbegin(); it != t1_.rend(); ++it) {
      if (index_.at(*it).owner == owner) {
        EvictEntry(t1_, ListId::kT1, std::prev(it.base()), b1_, ListId::kB1);
        return true;
      }
    }
    for (auto it = t2_.rbegin(); it != t2_.rend(); ++it) {
      if (index_.at(*it).owner == owner) {
        EvictEntry(t2_, ListId::kT2, std::prev(it.base()), b2_, ListId::kB2);
        return true;
      }
    }
    return false;
  }

  void DropLru(Lru& list, ListId id) {
    const Key victim = list.back();
    const auto it = index_.find(victim);
    weight_[Idx(id)] -= it->second.weight;
    if (tracking_owners_ && !IsGhost(id)) {
      Stats(it->second.owner).resident_weight -= it->second.weight;
    }
    if (!IsGhost(id) && on_evict_) on_evict_(victim);
    index_.erase(it);
    list.pop_back();
  }

  /// Drops a ghost entry in place (budget-refused revival consumed it).
  void DropGhost(typename std::unordered_map<Key, Entry, Hasher>::iterator it,
                 Lru& ghost, ListId ghost_id) {
    weight_[Idx(ghost_id)] -= it->second.weight;
    ghost.erase(it->second.position);
    index_.erase(it);
  }

  void EvictEntry(Lru& list, ListId id, typename Lru::iterator pos, Lru& ghost,
                  ListId ghost_id) {
    const Key victim = *pos;
    Entry& entry = index_.at(victim);
    weight_[Idx(id)] -= entry.weight;
    weight_[Idx(ghost_id)] += entry.weight;
    if (tracking_owners_) Stats(entry.owner).resident_weight -= entry.weight;
    ghost.splice(ghost.begin(), list, pos);
    entry.list = ghost_id;
    entry.position = ghost.begin();
    if (on_evict_) on_evict_(victim);
  }

  void Replace(bool hit_in_b2) {
    // REPLACE from the ARC paper: evict from T1 if it exceeds the target p
    // (or ties while the request came from B2), else from T2.
    const std::uint64_t w1 = W(ListId::kT1);
    if (!t1_.empty() && (w1 > p_ || (hit_in_b2 && w1 >= p_))) {
      EvictEntry(t1_, ListId::kT1, --t1_.end(), b1_, ListId::kB1);
    } else if (!t2_.empty()) {
      EvictEntry(t2_, ListId::kT2, --t2_.end(), b2_, ListId::kB2);
    } else if (!t1_.empty()) {
      EvictEntry(t1_, ListId::kT1, --t1_.end(), b1_, ListId::kB1);
    }
  }

  /// Trims ghost history to the classic directory bounds:
  /// W(T1)+W(B1) <= capacity, T1+T2+B1+B2 <= 2*capacity.
  void TrimGhosts() {
    while (!b1_.empty() && W(ListId::kT1) + W(ListId::kB1) > capacity_) {
      DropLru(b1_, ListId::kB1);
    }
    while (!b2_.empty() && TotalWeight() > 2 * capacity_) {
      DropLru(b2_, ListId::kB2);
    }
  }

  /// Weighted-mode safety net: evict until an entry of `weight` fits the
  /// resident budget. A provable no-op at uniform weight 1, where the
  /// classic branch structure already leaves exactly enough room. Always
  /// makes room: draining T1/T2 frees the whole capacity, and Insert's
  /// width precheck guarantees the entry fits it.
  void EnforceBudget(std::uint64_t weight, bool hit_in_b2) {
    while (W(ListId::kT1) + W(ListId::kT2) + weight > capacity_ &&
           (!t1_.empty() || !t2_.empty())) {
      Replace(hit_in_b2);
    }
  }

  /// Cases II/III tail: move a ghost-hit key to the MRU of T2 as a resident
  /// entry of (possibly re-stated) `weight`. The revived entry is charged
  /// to the reviving owner.
  void ReviveGhost(Entry& entry, Lru& ghost, ListId ghost_id, const Key& key,
                   std::uint64_t weight, bool hit_in_b2, Owner owner) {
    weight_[Idx(ghost_id)] -= entry.weight;
    ghost.erase(entry.position);
    EnforceBudget(weight, hit_in_b2);
    t2_.push_front(key);
    entry = Entry{ListId::kT2, t2_.begin(), weight, owner};
    weight_[Idx(ListId::kT2)] += weight;
    if (tracking_owners_) Stats(owner).resident_weight += weight;
    // A revival may re-state a larger weight than the ghost carried; keep
    // the directory bounds tight (no-op in the unit-weight reduction).
    TrimGhosts();
  }

  std::uint64_t capacity_;
  std::function<void(const Key&)> on_evict_;
  std::uint64_t p_ = 0;  // target weight of T1
  Lru t1_, t2_, b1_, b2_;
  std::unordered_map<Key, Entry, Hasher> index_;
  std::uint64_t weight_[4] = {0, 0, 0, 0};
  std::uint64_t hits_ = 0;
  std::uint64_t hit_weight_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t ghost_hit_bytes_ = 0;
  /// Owner accounting engages on the first non-default owner or budget;
  /// before that the maps stay empty and every op skips them.
  bool tracking_owners_ = false;
  std::map<Owner, OwnerStats> owner_stats_;
  std::map<Owner, std::uint64_t> budgets_;
};

}  // namespace squirrel::util
