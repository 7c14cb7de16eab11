// Workload-adaptive, multi-tenant controller for the decompressed-block
// ARC: it splits the one cache's budget across tenants by what each
// tenant's reuse shows the bytes are worth.
//
// The control signal is reuse-byte marginal utility (DESIGN.md §17), built
// from two ARC counters:
//
//   hit bytes        payload served from T2 residents — *frequency*
//                    reuse the current budget realized. T1 recency hits are
//                    deliberately excluded: a back-to-back double read
//                    (scan-then-verify patterns) hits in T1 and would be
//                    served by a one-block buffer, so it carries no
//                    information about what capacity is worth;
//   ghost-hit bytes  misses on blocks evicted recently enough that their
//                    keys are still in B1/B2 history — reuse the current
//                    budget *missed*, i.e. the discrete derivative of the
//                    hit curve at the current capacity (exactly the
//                    marginal utility per extra byte ECI-Cache estimates
//                    per VM and ScaleStore uses to place pages across
//                    DRAM/NVMe tiers).
//
// Their sum per sampling interval — "reuse bytes" — measures how much
// traffic the budget serves or could serve. Ghost bytes alone are a trap: a
// tenant's budget would chase last interval's thrashing instead of staying
// with the tenant whose resident set is hot right now. Hit bytes supply the
// hysteresis.
//
// The controller needs no synthetic probe traffic and no shadow simulation —
// the ARC already maintains both counters as part of its own operation, so
// sampling them is free.
//
// Each Tick():
//   1. samples the ARC (BlockStore::SampleCache),
//   2. differences each tenant's cumulative hit-byte and ghost-hit-byte
//      counters against the previous tick and folds the fresh reuse into a
//      per-tenant EMA with gain 0.5 (ema += 0.5 * (fresh - ema)),
//   3. recomputes per-tenant budgets — min_tenant_bytes as the floor,
//      remaining budget proportional to smoothed tenant demand —
//      and installs them (BlockStore::SetTenantBudgets), so a noisy
//      tenant's budget share shrinks toward its floor as soon as its ghost
//      pressure stops translating into retained hits while the quiet
//      tenants' boot sets stay resident,
//   4. appends one deterministic trace line (integer arithmetic only in the
//      formatted output) — the determinism sweep asserts byte-identical
//      traces across host thread counts.
//
// The controller is strictly opt-in: a caller that wants adaptive budgets
// constructs one over a store and ticks it (bench/ablation_cache_adaptive
// does). Until it ticks, it changes nothing.
//
// Thread contract: Tick() may be called from any one thread at a time
// (callers serialize; the bench ticks from its main thread). Each store
// call it makes takes the cache lock once.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "store/block_store.h"

namespace squirrel::store {

struct CacheControllerConfig {
  /// Per-tenant budget floor, so an idle tenant can always warm at least
  /// this much before its first rebudget.
  std::uint64_t min_tenant_bytes = 64 * 1024;
};

/// One tenant's decision from a controller tick.
struct TenantShare {
  TenantId tenant = kDefaultTenant;
  std::uint64_t budget_bytes = 0;   // installed via SetTenantBudgets
  std::uint64_t demand_bytes = 0;   // smoothed reuse bytes (EMA, rounded)
};

/// Everything one Tick() decided, for callers that want to log or assert.
struct ControllerTick {
  std::uint64_t tick = 0;
  std::uint64_t total_bytes = 0;
  std::vector<TenantShare> tenants;  // ascending tenant id
  /// Deterministic one-line rendering (the rebudget trace unit).
  std::string ToLine() const;
};

class CacheController {
 public:
  /// `store` must outlive the controller.
  CacheController(BlockStore* store, CacheControllerConfig config)
      : store_(store), config_(config) {}

  /// Pre-registers a tenant so it receives its budget floor from the next
  /// tick even before its first read. Tenants are otherwise discovered from
  /// cache samples.
  void ObserveTenant(TenantId tenant);

  /// Samples, rebudgets, installs, and appends one trace line. See the
  /// file comment for the four steps.
  ControllerTick Tick();

  std::uint64_t ticks() const { return tick_count_; }
  /// One line per tick since construction — byte-identical across host
  /// thread counts for the same workload (the determinism contract).
  const std::vector<std::string>& trace() const { return trace_; }

 private:
  BlockStore* store_;
  CacheControllerConfig config_;
  std::uint64_t tick_count_ = 0;
  /// Previous cumulative reuse-byte counter (hit + ghost-hit, for
  /// differencing) and smoothed demand, per tenant (ordered map:
  /// deterministic iteration).
  struct TenantState {
    std::uint64_t prev_reuse_bytes = 0;
    double demand_ema = 0.0;
  };
  std::map<TenantId, TenantState> tenants_;
  std::vector<std::string> trace_;
};

}  // namespace squirrel::store
