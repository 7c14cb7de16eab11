#include "store/cache_controller.h"

#include <algorithm>
#include <cmath>

namespace squirrel::store {
namespace {

/// EMA gain folding each interval's fresh reuse bytes (hit + ghost-hit)
/// into the smoothed demand estimate: ema += kDemandGain * (fresh - ema).
constexpr double kDemandGain = 0.5;

/// Splits `extra` across `weights` proportionally, in integers that sum to
/// exactly `extra`: floor shares first, then the remainder one byte at a
/// time from the lowest index (deterministic tie-break). All-zero weights
/// fall back to an even split.
std::vector<std::uint64_t> Apportion(std::uint64_t extra,
                                     const std::vector<std::uint64_t>& weights) {
  std::vector<std::uint64_t> shares(weights.size(), 0);
  if (weights.empty() || extra == 0) return shares;
  unsigned __int128 sum = 0;
  for (const std::uint64_t w : weights) sum += w;
  if (sum == 0) {
    for (std::size_t i = 0; i < shares.size(); ++i) {
      shares[i] = extra / weights.size() +
                  (i < extra % weights.size() ? std::uint64_t{1} : 0);
    }
    return shares;
  }
  std::uint64_t handed = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    shares[i] = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(extra) * weights[i]) / sum);
    handed += shares[i];
  }
  for (std::size_t i = 0; handed < extra; i = (i + 1) % shares.size()) {
    ++shares[i];
    ++handed;
  }
  return shares;
}

/// EMA demand folded to an integer byte count for budgets and traces —
/// rounding once here keeps every downstream number (and the trace) in
/// exact integer arithmetic.
std::uint64_t DemandBytes(double ema) {
  if (ema <= 0.0) return 0;
  return static_cast<std::uint64_t>(std::llround(ema));
}

}  // namespace

std::string ControllerTick::ToLine() const {
  std::string line = "tick=" + std::to_string(tick) +
                     " total=" + std::to_string(total_bytes) + " tenants=[";
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    if (t != 0) line += ",";
    line += std::to_string(tenants[t].tenant) + ":" +
            std::to_string(tenants[t].budget_bytes) + "/d" +
            std::to_string(tenants[t].demand_bytes);
  }
  line += "]";
  return line;
}

void CacheController::ObserveTenant(TenantId tenant) {
  tenants_.try_emplace(tenant);
}

ControllerTick CacheController::Tick() {
  const CacheSample sample = store_->SampleCache();

  ControllerTick result;
  result.tick = ++tick_count_;
  // Each tick distributes the ARC's whole capacity across the tenants.
  const std::uint64_t total = sample.capacity_bytes;
  result.total_bytes = total;

  // Per tenant the signal is raw reuse bytes: hit bytes keep the budget
  // with the tenant whose resident set is hot right now (hysteresis), ghost
  // bytes pull it toward whoever is thrashing. Ordered map keeps the
  // decision (and trace) order deterministic.
  std::map<TenantId, std::uint64_t> reuse_now;
  for (const BlockCache::TenantSample& t : sample.tenants) {
    reuse_now[t.tenant] = t.hit_bytes + t.ghost_hit_bytes;
    tenants_.try_emplace(t.tenant);
  }
  for (auto& [tenant, state] : tenants_) {
    const std::uint64_t now = reuse_now[tenant];  // 0 when quiet
    const std::uint64_t fresh = now - state.prev_reuse_bytes;
    state.prev_reuse_bytes = now;
    state.demand_ema +=
        kDemandGain * (static_cast<double>(fresh) - state.demand_ema);
  }

  // Tenant rebudget: floor = min_tenant_bytes, remainder
  // proportional to smoothed tenant demand. No tenants observed yet means
  // single-tenant mode — leave the shared ARC unpartitioned.
  if (!tenants_.empty()) {
    std::vector<TenantShare> shares;
    std::vector<std::uint64_t> demands;
    shares.reserve(tenants_.size());
    std::uint64_t tenant_floor_sum = 0;
    for (const auto& [tenant, state] : tenants_) {
      TenantShare share;
      share.tenant = tenant;
      share.demand_bytes = DemandBytes(state.demand_ema);
      share.budget_bytes = config_.min_tenant_bytes;
      tenant_floor_sum += share.budget_bytes;
      demands.push_back(share.demand_bytes);
      shares.push_back(share);
    }
    if (total > tenant_floor_sum) {
      const std::vector<std::uint64_t> extra =
          Apportion(total - tenant_floor_sum, demands);
      for (std::size_t t = 0; t < shares.size(); ++t) {
        shares[t].budget_bytes += extra[t];
      }
    }
    std::vector<TenantBudget> budgets;
    budgets.reserve(shares.size());
    for (const TenantShare& share : shares) {
      budgets.push_back(TenantBudget{share.tenant, share.budget_bytes});
    }
    store_->SetTenantBudgets(budgets);
    result.tenants = std::move(shares);
  }

  trace_.push_back(result.ToLine());
  return result;
}

}  // namespace squirrel::store
