// Ablation: workload-adaptive multi-tenant ARC budgeting (BENCH_cache.json).
//
// The tentpole question of ISSUE 10: when several VMs (tenants) share one
// compute node's decompressed-block ARC, does the ghost-hit marginal-utility
// controller (store::CacheController) beat every *static* budget split?
//
// Workload: `--tenants` boot tenants, each with a private cyclic working set
// sized so the WHOLE node budget fits one set but an even split fits none —
// and demand shifts: each round a different tenant is the hot booter (its
// set loops repeatedly) while the others idle. A background scanner tenant
// sweeps a huge set, reading every block twice back-to-back (read + verify,
// the way a backup/integrity job does). The immediate second touch promotes
// each scan block T1->T2, defeating plain ARC scan resistance — pollution a
// shared cache cannot refuse — yet earns no *frequency* reuse: T1 hits are
// excluded from hit_bytes and the sweep outruns the ghost window, so under
// the controller the scanner's measured utility is ~zero. A static split
// cannot follow the demand shift; the controller re-budgets from reuse
// bytes (T2 hits + ghost hits) every tick and hands the hot tenant the
// budget its signal proves it can use.
//
// Modes (all replay the byte-identical access sequence against a fresh
// store):
//   shared        one ARC, no tenant budgets (tags only — accounting)
//   static-even   budget split evenly across all tenants incl. the scanner
//   static-boot   budget split evenly across boot tenants; scanner floored
//   adaptive      CacheController re-budgets per tick (ghost-hit utility)
//
// Headline metric: aggregate boot-tenant hit rate (the scanner is
// background noise — its hits are worthless), printed as adaptive / best
// static. The design goal is >= 1.2x; at --fast size one shared ARC beats
// adaptive instead (DESIGN.md §17).
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "store/block_store.h"
#include "store/cache_controller.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/table.h"

using namespace squirrel;
using namespace squirrel::bench;

namespace {

struct CacheOptions {
  Options base;
  std::uint32_t tenants = 3;        // boot tenants (scanner rides along)
  std::string controller = "all";   // on | off | all
};

CacheOptions ParseCacheOptions(int argc, char** argv) {
  CacheOptions options;
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      if (arg.compare(0, n, flag) == 0 && arg.size() > n && arg[n] == '=') {
        return arg.c_str() + n + 1;
      }
      if (arg == flag) {
        if (i + 1 >= argc) FlagError(arg, "missing value");
        return argv[++i];
      }
      return nullptr;
    };
    if (const char* v = value("--tenants")) {
      options.tenants = static_cast<std::uint32_t>(
          ParseUnsigned(arg, v, /*allow_zero=*/false, 64));
    } else if (const char* v = value("--controller")) {
      const std::string mode = v;
      if (mode != "on" && mode != "off" && mode != "all") {
        FlagError(arg, "must be on|off|all");
      }
      options.controller = mode;
    } else {
      rest.push_back(argv[i]);
    }
  }
  options.base = ParseOptions(static_cast<int>(rest.size()), rest.data());
  return options;
}

struct TenantTally {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t ghost_hits = 0;
};

struct ModeResult {
  std::string name;
  double hit_rate = 0.0;       // all tenants
  double boot_hit_rate = 0.0;  // boot tenants only (headline)
  std::uint64_t controller_ticks = 0;
  std::vector<TenantTally> per_tenant;  // index 0.. = boot, last = scanner
  std::vector<std::string> trace_tail;  // adaptive mode: rebudget decisions
};

/// One tenant's private block set, written into `store`.
std::vector<util::Digest> MakeBlocks(store::BlockStore& store, util::Rng& rng,
                                     std::size_t count,
                                     std::size_t block_bytes) {
  std::vector<util::Digest> digests;
  digests.reserve(count);
  // Mostly-zero payloads with sparse random words: unique digests, but
  // compressible — incompressible blocks would be stored raw and bypass
  // the ARC, leaving nothing to budget.
  util::Bytes payload(block_bytes, 0);
  for (std::size_t b = 0; b < count; ++b) {
    for (std::size_t i = 0; i + 8 <= block_bytes; i += 128) {
      const std::uint64_t word = rng.Next();
      std::memcpy(payload.data() + i, &word, 8);
    }
    digests.push_back(store.Put(payload).digest);
  }
  return digests;
}

}  // namespace

int main(int argc, char** argv) {
  const CacheOptions options = ParseCacheOptions(argc, argv);
  PrintHeader("ablation_cache_adaptive",
              "ISSUE 10: adaptive multi-tenant ARC budgeting vs static splits",
              options.base);

  // Shapes. One boot working set fits the node budget; an even split fits
  // none of them. --fast shrinks everything for the smoke test.
  const bool fast = options.base.fast;
  const std::size_t kBlockBytes = fast ? 4 * 1024 : 8 * 1024;
  const std::size_t kBootSet = fast ? 96 : 256;     // blocks per boot tenant
  // The scan set dwarfs the ARC's ghost window (~2x budget): by the time
  // the sweep cycles back to a block, its ghost is long trimmed, so the
  // scanner generates almost no ghost demand — as a real backup scan
  // wouldn't. (Its back-to-back verify re-reads hit in T1, which hit_bytes
  // deliberately ignores.)
  const std::size_t kScanSet = fast ? 512 : 2048;   // scanner sweep
  const std::size_t kRounds = fast ? 8 : 16;        // hot-tenant rotations
  // Enough hot iterations per round that the scan churn interleaved between
  // two touches of a hot block stays under the ghost window — the hot
  // tenant's thrash signal must survive long enough to be measured.
  const std::size_t kLoops = 12;  // hot set iterations per round
  const std::size_t kTicks = 4;   // controller ticks per round
  const std::uint32_t boot_tenants = options.tenants;
  const store::TenantId scanner = boot_tenants + 1;  // ids are 1-based
  // 1.5x one boot set: adaptive can make the hot tenant fully resident
  // (with room for floors), while an even split fits nobody.
  const std::uint64_t budget =
      static_cast<std::uint64_t>(kBootSet * kBlockBytes * 3 / 2);

  std::vector<ModeResult> results;
  std::vector<std::string> modes;
  if (options.controller != "on") {
    modes.insert(modes.end(), {"shared", "static-even", "static-boot"});
  }
  if (options.controller != "off") modes.push_back("adaptive");

  for (const std::string& mode : modes) {
    store::BlockStore store(store::BlockStoreConfig{
        .codec = compress::CodecId::kGzip6,
        .dedup = true,
        .fast_hash = true,
        .read = {.threads = 1, .cache_bytes = budget}});

    // Private per-tenant sets; the same seed yields the same digests and
    // the same access sequence in every mode.
    util::Rng rng(options.base.seed);
    std::vector<std::vector<util::Digest>> boot_sets;
    for (std::uint32_t t = 0; t < boot_tenants; ++t) {
      boot_sets.push_back(MakeBlocks(store, rng, kBootSet, kBlockBytes));
    }
    const std::vector<util::Digest> scan_set =
        MakeBlocks(store, rng, kScanSet, kBlockBytes);

    std::vector<store::TenantBudget> budgets;
    if (mode == "static-even") {
      const std::uint64_t share = budget / (boot_tenants + 1);
      for (std::uint32_t t = 1; t <= boot_tenants + 1; ++t) {
        budgets.push_back({t, share});
      }
    } else if (mode == "static-boot") {
      for (std::uint32_t t = 1; t <= boot_tenants; ++t) {
        budgets.push_back({t, budget / boot_tenants});
      }
      budgets.push_back({scanner, 64 * 1024});  // floor, not starvation
    }
    if (!budgets.empty()) store.SetTenantBudgets(budgets);

    store::CacheController controller(
        &store, store::CacheControllerConfig{.min_tenant_bytes = 16 * 1024});
    const bool adaptive = mode == "adaptive";
    if (adaptive) {
      for (std::uint32_t t = 1; t <= boot_tenants + 1; ++t) {
        controller.ObserveTenant(t);
      }
    }

    std::size_t scan_cursor = 0;  // continuous sweep across rounds
    for (std::size_t round = 0; round < kRounds; ++round) {
      // Demand shifts every few rounds — long enough for the controller to
      // follow, too long for any static split to win every phase.
      const std::uint32_t hot =
          static_cast<std::uint32_t>((round / 4) % boot_tenants);
      const std::size_t reads_per_tick =
          (kLoops * kBootSet + 2 * kScanSet) / kTicks + 1;
      std::size_t since_tick = 0;
      auto maybe_tick = [&](std::size_t n) {
        since_tick += n;
        if (adaptive && since_tick >= reads_per_tick) {
          controller.Tick();
          since_tick = 0;
        }
      };
      // The hot tenant boots over and over; scanner sweeps interleaved.
      for (std::size_t loop = 0; loop < kLoops; ++loop) {
        store.GetBatchAs(hot + 1, boot_sets[hot]);
        maybe_tick(kBootSet);
        // One continuous sweep, chunked so the scan pollutes mid-boot the
        // way a backup job would; each block read twice back-to-back
        // (read + verify) so it lands in T2 and poisons a shared cache.
        const std::size_t chunk = kScanSet / kLoops;
        for (std::size_t c = 0; c < chunk; ++c) {
          const util::Digest d = scan_set[scan_cursor];
          scan_cursor = (scan_cursor + 1) % kScanSet;
          store.GetBatchAs(scanner, std::span<const util::Digest>(&d, 1));
          store.GetBatchAs(scanner, std::span<const util::Digest>(&d, 1));
        }
        maybe_tick(2 * chunk);
      }
    }

    ModeResult result;
    result.name = mode;
    result.controller_ticks = controller.ticks();
    result.trace_tail = controller.trace();
    result.per_tenant.assign(boot_tenants + 1, TenantTally{});
    std::uint64_t all_hits = 0, all_misses = 0, boot_hits = 0,
                  boot_misses = 0;
    for (const store::BlockCache::TenantSample& t :
         store.SampleCache().tenants) {
      if (t.tenant < 1 || t.tenant > boot_tenants + 1) continue;
      TenantTally& tally = result.per_tenant[t.tenant - 1];
      tally.hits = t.hits;
      tally.misses = t.misses;
      tally.ghost_hits = t.ghost_hits;
      all_hits += t.hits;
      all_misses += t.misses;
      if (t.tenant <= boot_tenants) {
        boot_hits += t.hits;
        boot_misses += t.misses;
      }
    }
    result.hit_rate = all_hits + all_misses > 0
                          ? static_cast<double>(all_hits) /
                                static_cast<double>(all_hits + all_misses)
                          : 0.0;
    result.boot_hit_rate =
        boot_hits + boot_misses > 0
            ? static_cast<double>(boot_hits) /
                  static_cast<double>(boot_hits + boot_misses)
            : 0.0;
    results.push_back(std::move(result));
  }

  util::Table table(
      {"mode", "boot hit rate", "overall hit rate", "controller ticks"});
  double best_static = 0.0, adaptive_rate = 0.0;
  for (const ModeResult& r : results) {
    table.AddRow({r.name, util::Table::Num(r.boot_hit_rate, 3),
                  util::Table::Num(r.hit_rate, 3),
                  std::to_string(r.controller_ticks)});
    if (r.name == "adaptive") {
      adaptive_rate = r.boot_hit_rate;
    } else {
      best_static = std::max(best_static, r.boot_hit_rate);
    }
  }
  std::printf("%s", table.Render().c_str());
  for (const ModeResult& r : results) {
    if (r.name != "adaptive") continue;
    std::printf("\nlast rebudget decisions:\n");
    const std::size_t n = r.trace_tail.size();
    for (std::size_t i = n > 3 ? n - 3 : 0; i < n; ++i) {
      std::printf("  %s\n", r.trace_tail[i].c_str());
    }
  }
  if (adaptive_rate > 0.0 && best_static > 0.0) {
    std::printf("\nadaptive / best static (boot hit rate): %.2fx\n",
                adaptive_rate / best_static);
  }

  util::JsonWriter json;
  json.Group().Uint("tenants", boot_tenants).Uint("budget_bytes", budget);
  json.Group().Rows("modes");
  for (const ModeResult& r : results) {
    json.Object()
        .Str("name", r.name)
        .Double("boot_hit_rate", "%.9g", r.boot_hit_rate)
        .Double("hit_rate", "%.9g", r.hit_rate)
        .Uint("controller_ticks", r.controller_ticks)
        .Array("tenants");
    for (const TenantTally& tally : r.per_tenant) {
      json.Object()
          .Uint("hits", tally.hits)
          .Uint("misses", tally.misses)
          .Uint("ghost_hits", tally.ghost_hits)
          .End();
    }
    json.End().End();
  }
  json.End();
  json.Group().Double("adaptive_over_best_static", "%.9g",
                      best_static > 0.0 ? adaptive_rate / best_static : 0.0);
  WriteBenchJson("BENCH_cache.json", json.Finish());
  return 0;
}
