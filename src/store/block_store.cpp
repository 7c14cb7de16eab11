#include "store/block_store.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <exception>
#include <limits>
#include <optional>
#include <stdexcept>
#include <unordered_set>

#include "util/fault_injector.h"

namespace squirrel::store {
namespace {

// ZFS keeps a compressed copy only when it saves at least 12.5%.
bool WorthKeeping(std::size_t compressed, std::size_t raw) {
  return compressed + raw / 8 <= raw;
}

/// Per-stripe slice of a byte budget: an even split with the remainder
/// spread over the lowest stripes, so the slices always sum to the
/// configured total and shards == 1 gets the whole budget.
std::uint64_t StripeBudget(std::uint64_t total, std::size_t stripes,
                           std::size_t index) {
  return total / stripes + (index < total % stripes ? 1 : 0);
}

/// StripeBudget for the ARC stripes, with the enable/disable decision made
/// coherent across stripes: a nonzero total must enable *every* stripe —
/// the raw split hands stripes above the remainder a 0-byte slice whenever
/// 0 < total < stripes, silently disabling caching for a digest-dependent
/// subset of blocks while aggregate ReadStats still reports the cache on —
/// so slices that round to zero are floored at one byte. A 1-byte stripe
/// admits nothing (every block is wider than its budget) but probes, counts
/// and adapts like its siblings, and the floor only engages in the
/// degenerate total < stripes case, where "admit nothing" is already the
/// only coherent answer. Total == 0 disables every stripe atomically.
std::uint64_t CacheStripeBudget(std::uint64_t total, std::size_t stripes,
                                std::size_t index) {
  if (total == 0) return 0;
  return std::max<std::uint64_t>(std::uint64_t{1},
                                 StripeBudget(total, stripes, index));
}

/// Input indices grouped by shard, input order preserved within each group.
/// order[begin[s] .. begin[s+1]) are the indices owned by shard s; `active`
/// lists the shards with at least one index (the unit of per-shard
/// parallelism).
struct ShardPartition {
  std::vector<std::size_t> order;
  std::vector<std::size_t> begin;   // shards + 1 prefix offsets
  std::vector<std::size_t> active;
};

ShardPartition PartitionByShard(std::span<const util::Digest> digests,
                                std::size_t shard_count,
                                unsigned shard_shift) {
  ShardPartition part;
  part.begin.assign(shard_count + 1, 0);
  std::vector<std::uint8_t> shard_of(digests.size());
  for (std::size_t i = 0; i < digests.size(); ++i) {
    shard_of[i] =
        static_cast<std::uint8_t>(digests[i].bytes[0] >> shard_shift);
    ++part.begin[shard_of[i] + 1];
  }
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (part.begin[s + 1] > 0) part.active.push_back(s);
    part.begin[s + 1] += part.begin[s];
  }
  part.order.resize(digests.size());
  std::vector<std::size_t> cursor(part.begin.begin(), part.begin.end() - 1);
  for (std::size_t i = 0; i < digests.size(); ++i) {
    part.order[cursor[shard_of[i]]++] = i;
  }
  return part;
}

}  // namespace

BlockStore::BlockStore(BlockStoreConfig config)
    : config_(config), codec_(&compress::GetCodec(config_.codec)) {
  const std::size_t n = config_.shards;
  if (n == 0 || n > 256 || (n & (n - 1)) != 0) {
    throw std::invalid_argument(
        "BlockStoreConfig::shards must be a power of two in [1, 256]");
  }
  shard_shift_ = 8;
  for (std::size_t v = n; v > 1; v >>= 1) --shard_shift_;
  shards_.reserve(n);
  stripes_.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    // Capacity splits like the cache budget; 0 total leaves every shard
    // unlimited. A nonzero total must cap *every* shard, so a slice that
    // rounds to zero is clamped to one (unallocatable) byte.
    if (config_.capacity_bytes != 0) {
      shards_.back()->space_map.SetCapacity(std::max<std::uint64_t>(
          std::uint64_t{1}, StripeBudget(config_.capacity_bytes, n, s)));
    }
    stripes_.push_back(std::make_unique<CacheStripe>(
        CacheStripeBudget(config_.read.cache_bytes, n, s)));
  }
  const std::size_t ingest = config_.ingest.threads;
  const std::size_t read = config_.read.threads;
  if (ingest != 1 || read != 1) {
    // One pool serves both pipelines; 0 on either side means "one thread
    // per hardware thread" (ThreadPool resolves it).
    const std::size_t threads =
        (ingest == 0 || read == 0) ? 0 : std::max(ingest, read);
    pool_ = std::make_unique<util::ThreadPool>(threads);
  }
}

util::Digest BlockStore::ComputeDigest(util::ByteSpan raw) const {
  if (config_.fast_hash) {
    util::Digest digest;
    const util::Fast128 h = util::FastHash128(raw);
    std::memcpy(digest.bytes.data(), &h.lo, 8);
    std::memcpy(digest.bytes.data() + 8, &h.hi, 8);
    return digest;
  }
  return util::HashBlock(raw);
}

void BlockStore::ForEachIngest(std::size_t count,
                               const std::function<void(std::size_t)>& fn) {
  if (pool_ == nullptr || config_.ingest.threads == 1 || count < 2) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  pool_->ParallelFor(count, fn);
}

void BlockStore::ForEachRead(
    std::size_t count, const std::function<void(std::size_t)>& fn) const {
  if (pool_ == nullptr || config_.read.threads == 1 || count < 2) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  pool_->ParallelFor(count, fn);
}

PutResult BlockStore::Put(util::ByteSpan raw) {
  const util::ByteSpan one[1] = {raw};
  return PutBatch(one)[0];
}

std::vector<PutResult> BlockStore::PutBatch(
    std::span<const util::ByteSpan> blocks) {
  return PutBatchImpl(blocks, {});
}

std::vector<PutResult> BlockStore::PutBatch(
    std::span<const SuppliedBlock> blocks) {
  return PutBatchImpl({}, blocks);
}

std::vector<PutResult> BlockStore::PutBatchImpl(
    std::span<const util::ByteSpan> raw,
    std::span<const SuppliedBlock> supplied) {
  assert(raw.empty() || supplied.empty());
  const std::size_t count = raw.size() + supplied.size();
  std::vector<PutResult> results(count);
  if (count == 0) return results;
  const auto logical_size = [&](std::size_t i) {
    return supplied.empty() ? static_cast<std::uint32_t>(raw[i].size())
                            : supplied[i].logical_size;
  };

  // Stage 1: digest every block in parallel. Content hashing is one of the
  // two CPU-bound pieces of the write path; it reads only the input spans,
  // so every block hashes independently. Supplied blocks bring their digest.
  std::vector<util::Digest> digests(count);
  if (config_.dedup && !supplied.empty()) {
    for (std::size_t i = 0; i < count; ++i) digests[i] = supplied[i].digest;
  } else if (config_.dedup) {
    ForEachIngest(count, [&](std::size_t i) {
      assert(!raw[i].empty());
      assert(!util::IsAllZero(raw[i]) &&
             "holes must be elided by the volume layer");
      digests[i] = ComputeDigest(raw[i]);
    });
  } else {
    // Dedup disabled: synthesize unique keys in input order so every write
    // allocates, exactly as the serial loop numbered them. One atomic
    // reservation per batch keeps concurrent batches collision-free while
    // a serial caller still sees consecutive ids.
    const std::uint64_t base =
        fake_digest_counter_.fetch_add(count, std::memory_order_relaxed);
    for (std::size_t i = 0; i < count; ++i) {
      assert(!supplied.empty() ||
             (!raw[i].empty() && !util::IsAllZero(raw[i]) &&
              "holes must be elided by the volume layer"));
      const std::uint64_t id = base + i;
      std::memcpy(digests[i].bytes.data(), &id, sizeof(id));
    }
  }

  const ShardPartition part =
      PartitionByShard(digests, shards_.size(), shard_shift_);

  // Stage 2: per-shard ordered dedup resolution. Each shard classifies its
  // slice of the batch against its DDT partition and against earlier
  // occurrences within the batch, in input order under the shard lock —
  // the same decisions a serial loop would make for those digests, so
  // refcounts and per-shard allocation order stay bit-identical. Shards
  // share no state, so the passes run concurrently on the pool.
  std::vector<std::uint8_t> is_miss(count, 0);
  if (config_.dedup) {
    ForEachIngest(part.active.size(), [&](std::size_t k) {
      const std::size_t s = part.active[k];
      Shard& shard = *shards_[s];
      std::lock_guard<std::mutex> lock(shard.mutex);
      std::unordered_set<util::Digest, util::DigestHasher> batch_first;
      for (std::size_t p = part.begin[s]; p < part.begin[s + 1]; ++p) {
        const std::size_t i = part.order[p];
        if (shard.entries.contains(digests[i]) ||
            batch_first.contains(digests[i])) {
          continue;  // refcount bump, resolved in stage 4
        }
        batch_first.insert(digests[i]);
        is_miss[i] = 1;
      }
    });
  } else {
    for (std::size_t i = 0; i < count; ++i) is_miss[i] = 1;
  }

  // Misses grouped by shard (input order within each shard), so stage 4 can
  // consume each shard's staged payloads contiguously.
  std::vector<std::size_t> miss_indices;
  std::vector<std::size_t> miss_begin(part.active.size() + 1, 0);
  for (std::size_t k = 0; k < part.active.size(); ++k) {
    const std::size_t s = part.active[k];
    for (std::size_t p = part.begin[s]; p < part.begin[s + 1]; ++p) {
      if (is_miss[part.order[p]]) miss_indices.push_back(part.order[p]);
    }
    miss_begin[k + 1] = miss_indices.size();
  }

  // Stage 3: stage the stored form of every miss, in parallel across the
  // whole batch (work steals across shards): compress a raw block, or copy
  // a supplied one as is. Codecs are stateless; each miss writes only its
  // own slot.
  struct StagedPayload {
    util::Bytes payload;
    bool compressed = false;
  };
  std::vector<StagedPayload> staged(miss_indices.size());
  ForEachIngest(miss_indices.size(), [&](std::size_t j) {
    if (!supplied.empty()) {
      const SuppliedBlock& block = supplied[miss_indices[j]];
      staged[j].payload.assign(block.payload.begin(), block.payload.end());
      staged[j].compressed = block.compressed;
      return;
    }
    const util::ByteSpan block = raw[miss_indices[j]];
    if (config_.codec != compress::CodecId::kNull) {
      util::Bytes compressed = codec_->Compress(block);
      if (WorthKeeping(compressed.size(), block.size())) {
        staged[j].payload = std::move(compressed);
        staged[j].compressed = true;
        return;
      }
    }
    staged[j].payload.assign(block.begin(), block.end());
  });

  // Stage 4: per-shard ordered commit. Each shard allocates extents from
  // its own arena and updates refcounts/stats in input order under the
  // shard lock; a batch-internal duplicate finds its first occurrence's
  // entry already inserted by the time it commits. A miss whose digest was
  // inserted by a concurrent batch between classify and commit degrades to
  // a dedup hit (the staged payload is discarded) — content addressing
  // makes either copy equally valid.
  //
  // The stage is all-or-nothing: a shard that hits NoSpaceError (capacity)
  // or an armed store/commit crash site records the failure instead of
  // letting the exception cross ParallelFor; if any shard failed, every
  // committed position across all shards is undone in reverse (within-shard
  // reverse restores each SpaceMap bump pointer exactly — freeing the
  // last-allocated extent triggers the high-water shrink) and the first
  // failure in shard order is rethrown. With a fault injector set the shard
  // passes run serialized in shard order so the injector's crash-site
  // counter advances deterministically; benches never arm a store injector.
  std::vector<std::size_t> committed(part.active.size(), 0);
  std::vector<std::exception_ptr> failed(part.active.size(), nullptr);
  const auto commit_shard = [&](std::size_t k) {
    const std::size_t s = part.active[k];
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    std::size_t next_miss = miss_begin[k];
    for (std::size_t p = part.begin[s]; p < part.begin[s + 1]; ++p) {
      const std::size_t i = part.order[p];
      const util::Digest& digest = digests[i];
      try {
        if (faults_ != nullptr) faults_->CrashPointArmedOnly("store/commit");
        auto it = shard.entries.find(digest);
        if (!is_miss[i] || it != shard.entries.end()) {
          if (is_miss[i]) ++next_miss;  // staged for a lost race; discard
          assert(it != shard.entries.end());
          ++it->second.refcount;
          ++shard.stats.total_refs;
          shard.stats.logical_referenced_bytes += it->second.logical_size;
          results[i] = {digest, true, it->second.logical_size, 0};
        } else {
          StagedPayload& payload = staged[next_miss];
          Entry entry;
          entry.logical_size = logical_size(i);
          entry.refcount = 1;
          entry.payload = std::move(payload.payload);
          entry.compressed = payload.compressed;
          // Allocations occupy whole sectors (ZFS asize vs psize).
          entry.physical_size = static_cast<std::uint32_t>(
              util::AlignUp(entry.payload.size(), kSectorBytes));
          entry.disk_offset = shard.space_map.Allocate(entry.physical_size);
          ++next_miss;

          shard.stats.unique_blocks += 1;
          ++unique_blocks_;
          shard.stats.total_refs += 1;
          shard.stats.logical_unique_bytes += entry.logical_size;
          shard.stats.logical_referenced_bytes += entry.logical_size;
          shard.stats.physical_data_bytes += entry.physical_size;
          if (config_.dedup) {
            shard.stats.ddt_disk_bytes += kDdtDiskBytesPerEntry;
            shard.stats.ddt_core_bytes += kDdtCoreBytesPerEntry;
          }

          results[i] = {digest, false, entry.logical_size,
                        entry.physical_size};
          shard.entries.emplace(digest, std::move(entry));
        }
      } catch (const NoSpaceError&) {
        if (faults_ != nullptr) faults_->RecordAllocationRefused();
        failed[k] = std::current_exception();
        break;
      } catch (const util::CrashError&) {
        failed[k] = std::current_exception();
        break;
      }
      ++committed[k];
    }
  };
  if (faults_ != nullptr) {
    for (std::size_t k = 0; k < part.active.size(); ++k) commit_shard(k);
  } else {
    ForEachIngest(part.active.size(), commit_shard);
  }

  bool any_failed = false;
  for (const std::exception_ptr& e : failed) {
    if (e != nullptr) any_failed = true;
  }
  if (any_failed) {
    // Unwind every committed position. A hit undoes its refcount bump; a
    // miss (refcount back at zero) frees its extent and erases the entry —
    // the exact inverse of Unref-to-zero.
    for (std::size_t k = part.active.size(); k-- > 0;) {
      const std::size_t s = part.active[k];
      Shard& shard = *shards_[s];
      std::lock_guard<std::mutex> lock(shard.mutex);
      for (std::size_t c = committed[k]; c-- > 0;) {
        const std::size_t i = part.order[part.begin[s] + c];
        auto it = shard.entries.find(digests[i]);
        assert(it != shard.entries.end());
        Entry& entry = it->second;
        --entry.refcount;
        --shard.stats.total_refs;
        shard.stats.logical_referenced_bytes -= entry.logical_size;
        if (entry.refcount == 0) {
          shard.space_map.Free(entry.disk_offset, entry.physical_size);
          shard.stats.unique_blocks -= 1;
          --unique_blocks_;
          shard.stats.logical_unique_bytes -= entry.logical_size;
          shard.stats.physical_data_bytes -= entry.physical_size;
          if (config_.dedup) {
            shard.stats.ddt_disk_bytes -= kDdtDiskBytesPerEntry;
            shard.stats.ddt_core_bytes -= kDdtCoreBytesPerEntry;
          }
          shard.entries.erase(it);
        }
      }
    }
    for (std::size_t k = 0; k < part.active.size(); ++k) {
      if (failed[k] != nullptr) std::rethrow_exception(failed[k]);
    }
  }
  return results;
}

void BlockStore::Ref(const util::Digest& digest) {
  Shard& shard = *shards_[ShardOf(digest)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.entries.find(digest);
  if (it == shard.entries.end()) throw NoSuchBlockError(digest);
  Entry& entry = it->second;
  ++entry.refcount;
  ++shard.stats.total_refs;
  shard.stats.logical_referenced_bytes += entry.logical_size;
}

void BlockStore::Unref(const util::Digest& digest) {
  Shard& shard = *shards_[ShardOf(digest)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.entries.find(digest);
  if (it == shard.entries.end()) throw NoSuchBlockError(digest);
  Entry& entry = it->second;
  assert(entry.refcount > 0);
  --entry.refcount;
  --shard.stats.total_refs;
  shard.stats.logical_referenced_bytes -= entry.logical_size;
  if (entry.refcount == 0) {
    shard.space_map.Free(entry.disk_offset, entry.physical_size);
    shard.stats.unique_blocks -= 1;
    --unique_blocks_;
    shard.stats.logical_unique_bytes -= entry.logical_size;
    shard.stats.physical_data_bytes -= entry.physical_size;
    if (config_.dedup) {
      shard.stats.ddt_disk_bytes -= kDdtDiskBytesPerEntry;
      shard.stats.ddt_core_bytes -= kDdtCoreBytesPerEntry;
    }
    shard.entries.erase(it);
  }
}

util::Bytes BlockStore::Get(const util::Digest& digest) const {
  const util::Digest one[1] = {digest};
  return *GetBatchShared(kDefaultTenant, one)[0];
}

util::Bytes BlockStore::GetUncached(const util::Digest& digest) const {
  // No ARC interaction at all: the rollback path this serves must not
  // disturb cache state or read counters.
  const StoredBlock stored = GetStored(digest);
  std::optional<util::Bytes> raw = DecodeStored(
      digest, stored.payload, stored.logical_size, stored.compressed);
  if (!raw.has_value()) throw BlockCorruptionError(digest);
  return std::move(*raw);
}

StoredBlock BlockStore::GetStored(const util::Digest& digest) const {
  const Shard& shard = *shards_[ShardOf(digest)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.entries.find(digest);
  if (it == shard.entries.end()) throw NoSuchBlockError(digest);
  return {it->second.payload, it->second.logical_size, it->second.compressed};
}

std::optional<util::Bytes> BlockStore::DecodeStored(const util::Digest& digest,
                                                    util::ByteSpan payload,
                                                    std::uint32_t logical_size,
                                                    bool compressed) const {
  util::Bytes raw;
  if (compressed) {
    try {
      raw = codec_->Decompress(payload, logical_size);
    } catch (const std::runtime_error&) {
      return std::nullopt;  // corruption broke the compressed framing
    }
  } else {
    raw.assign(payload.begin(), payload.end());
  }
  if (config_.dedup && ComputeDigest(raw) != digest) return std::nullopt;
  return raw;
}

util::SharedBytes BlockStore::DecodeEntry(const util::Digest& digest,
                                          const Entry& entry) const {
  std::optional<util::Bytes> raw = DecodeStored(
      digest, entry.payload, entry.logical_size, entry.compressed);
  if (!raw.has_value()) return nullptr;
  return std::make_shared<const util::Bytes>(std::move(*raw));
}

std::vector<util::Bytes> BlockStore::GetBatch(
    std::span<const util::Digest> digests) const {
  return GetBatchAs(kDefaultTenant, digests);
}

std::vector<util::Bytes> BlockStore::GetBatchAs(
    TenantId tenant, std::span<const util::Digest> digests) const {
  const std::vector<util::SharedBytes> shared = GetBatchShared(tenant, digests);
  // Copied on the read pool: a serial copy-out would hold a parallel batch
  // to one thread's copy rate.
  std::vector<util::Bytes> results(shared.size());
  ForEachRead(shared.size(), [&](std::size_t i) { results[i] = *shared[i]; });
  return results;
}

std::vector<util::SharedBytes> BlockStore::GetBatchShared(
    TenantId tenant, std::span<const util::Digest> digests) const {
  std::vector<util::SharedBytes> results(digests.size());
  if (digests.empty()) return results;
  GetBatchImpl(digests, &results, tenant, /*pin=*/false);
  return results;
}

void BlockStore::GetBatchImpl(std::span<const util::Digest> digests,
                              std::vector<util::SharedBytes>* results,
                              TenantId tenant, bool pin) const {
  const ShardPartition part =
      PartitionByShard(digests, shards_.size(), shard_shift_);

  // Resolve every digest against its shard's DDT partition first, then
  // validate in input order before any cache mutation — a serial Get loop
  // would throw at the first unknown digest. Entry pointers stay valid
  // across the stages: the DDT maps are node-based and callers must hold a
  // reference to every block they read (no concurrent erase).
  std::vector<const Entry*> lookup(digests.size(), nullptr);
  ForEachRead(part.active.size(), [&](std::size_t k) {
    const std::size_t s = part.active[k];
    const Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (std::size_t p = part.begin[s]; p < part.begin[s + 1]; ++p) {
      const std::size_t i = part.order[p];
      const auto it = shard.entries.find(digests[i]);
      if (it != shard.entries.end()) lookup[i] = &it->second;
    }
  });
  for (std::size_t i = 0; i < digests.size(); ++i) {
    if (lookup[i] == nullptr) throw NoSuchBlockError(digests[i]);
  }

  // Checksum-on-read: DecodeEntry re-hashes each decompressed miss against
  // its digest. Synthetic digests (dedup off) carry no content hash.
  if (results == nullptr) {
    // Warm mode: each stripe classifies, decompresses and installs under
    // ONE continuous lock hold, so the residency judgement
    // (warm_skipped_resident) and the fill commit in the same lock epoch —
    // a concurrent ResizeCache serializes entirely before or after the
    // stripe's warm pass and can no longer evict a block between "judged
    // resident" and "batch committed". The per-stripe op sequence
    // (Lookup/Admit all digests in input order, then install in input
    // order) is exactly the demand path's, so ARC state and counters stay
    // bit-identical to a demand read of the same digests; only the
    // parallelism shape differs (across stripes, serial within one).
    std::vector<std::size_t> first_corrupt(
        part.active.size(), std::numeric_limits<std::size_t>::max());
    ForEachRead(part.active.size(), [&](std::size_t k) {
      const std::size_t s = part.active[k];
      CacheStripe& stripe = *stripes_[s];
      std::lock_guard<std::mutex> lock(stripe.mutex);
      stripe.blocks_requested += part.begin[s + 1] - part.begin[s];
      struct WarmMiss {
        std::size_t index;
        const Entry* entry;
        util::SharedBytes payload;  // null until decoded, or when corrupt
      };
      std::vector<WarmMiss> misses;
      for (std::size_t p = part.begin[s]; p < part.begin[s + 1]; ++p) {
        const std::size_t i = part.order[p];
        const Entry* entry = lookup[i];
        if (!entry->compressed) {
          // Stored raw: never cached, nothing to materialize on a warm.
          ++stripe.raw_blocks;
          continue;
        }
        if (stripe.cache.enabled()) {
          switch (stripe.cache.Lookup(digests[i], nullptr, tenant)) {
            case BlockCache::Outcome::kHit:
              ++stripe.warm_skipped_resident;
              if (pin) stripe.cache.Pin(digests[i], tenant);
              continue;
            case BlockCache::Outcome::kPending:
              // Admitted by a concurrent batch, fill in flight elsewhere;
              // decompress locally so this warm pass leaves it filled.
              misses.push_back({i, entry, nullptr});
              continue;
            case BlockCache::Outcome::kMiss:
              stripe.cache.Admit(digests[i], entry->logical_size, tenant);
              misses.push_back({i, entry, nullptr});
              continue;
          }
        }
        // Cache disabled for this stripe: decompress anyway (counted, not
        // filled) — same work and counters as the demand path, which is
        // what keeps warm-vs-demand accounting comparable.
        misses.push_back({i, entry, nullptr});
      }
      for (WarmMiss& miss : misses) {
        miss.payload = DecodeEntry(digests[miss.index], *miss.entry);
      }
      for (WarmMiss& miss : misses) {
        if (miss.payload == nullptr) {
          first_corrupt[k] = miss.index;
          break;
        }
        ++stripe.decompressed_blocks;
        stripe.decompressed_bytes += miss.entry->logical_size;
        stripe.cache.Fill(digests[miss.index], std::move(miss.payload));
        if (pin) stripe.cache.Pin(digests[miss.index], tenant);
      }
    });
    const std::size_t bad =
        *std::min_element(first_corrupt.begin(), first_corrupt.end());
    if (bad != std::numeric_limits<std::size_t>::max()) {
      throw BlockCorruptionError(digests[bad]);
    }
    return;
  }

  struct Miss {
    std::size_t index;  // result slot to decompress into
    const Entry* entry;
  };
  // Per-stripe classification output, merged (in stripe order) afterwards.
  std::vector<std::vector<Miss>> stripe_misses(part.active.size());
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> stripe_aliases(
      part.active.size());

  // Stage 1: per-stripe ordered classification. Each stripe replays the
  // exact Lookup/Admit sequence a serial Get loop would issue for its
  // digests, in input order under the stripe lock — so ARC state and
  // hit/miss counters are bit-identical to serial at any thread count.
  // Stripes share no cache state, so the passes run concurrently.
  ForEachRead(part.active.size(), [&](std::size_t k) {
    const std::size_t s = part.active[k];
    CacheStripe& stripe = *stripes_[s];
    std::vector<Miss>& misses = stripe_misses[k];
    std::vector<std::pair<std::size_t, std::size_t>>& aliases =
        stripe_aliases[k];
    std::lock_guard<std::mutex> lock(stripe.mutex);
    stripe.blocks_requested += part.begin[s + 1] - part.begin[s];
    std::unordered_map<util::Digest, std::size_t, util::DigestHasher>
        batch_first;
    for (std::size_t p = part.begin[s]; p < part.begin[s + 1]; ++p) {
      const std::size_t i = part.order[p];
      const Entry* entry = lookup[i];
      if (!entry->compressed) {
        // Stored raw: a copy either way, so the ARC is bypassed entirely.
        ++stripe.raw_blocks;
        misses.push_back({i, entry});
        continue;
      }
      if (stripe.cache.enabled()) {
        switch (stripe.cache.Lookup(digests[i], &(*results)[i], tenant)) {
          case BlockCache::Outcome::kHit:
            continue;
          case BlockCache::Outcome::kPending: {
            // Resident but still decompressing earlier in this batch; a
            // serial loop would hit here, and counters already say so. (If
            // the pending fill belongs to a concurrent batch instead, just
            // decompress locally too — content-addressing keeps it exact.)
            const auto first = batch_first.find(digests[i]);
            if (first != batch_first.end()) {
              aliases.emplace_back(i, first->second);
            } else {
              misses.push_back({i, entry});
            }
            continue;
          }
          case BlockCache::Outcome::kMiss:
            stripe.cache.Admit(digests[i], entry->logical_size, tenant);
            batch_first[digests[i]] = i;
            misses.push_back({i, entry});
            continue;
        }
      }
      // Cache disabled: still decompress each distinct digest only once per
      // batch (payloads are content-addressed, so aliasing is exact).
      const auto first = batch_first.find(digests[i]);
      if (first != batch_first.end()) {
        aliases.emplace_back(i, first->second);
      } else {
        batch_first[digests[i]] = i;
        misses.push_back({i, entry});
      }
    }
  });

  // Merge the per-stripe miss lists in stripe order (deterministic for a
  // fixed shard count) so the decompress stage can work-steal across the
  // whole batch.
  std::vector<Miss> misses;
  std::vector<std::size_t> merged_begin(part.active.size() + 1, 0);
  for (std::size_t k = 0; k < part.active.size(); ++k) {
    misses.insert(misses.end(), stripe_misses[k].begin(),
                  stripe_misses[k].end());
    merged_begin[k + 1] = misses.size();
  }

  // Stage 2: decompress the misses in parallel, each into a new shared
  // buffer. Codecs are stateless and each miss writes only its own result
  // slot. With verification enabled each miss also re-hashes its
  // decompressed payload (once per physical block — intra-batch duplicates
  // alias, cache hits were verified when filled); a mismatch or broken
  // compressed framing leaves the slot null instead of throwing here, so
  // the error surfaces deterministically below.
  ForEachRead(misses.size(), [&](std::size_t j) {
    const Miss& miss = misses[j];
    (*results)[miss.index] = DecodeEntry(digests[miss.index], *miss.entry);
  });

  // Stage 3: per-stripe ordered install — fill each stripe's cache (the
  // ARC keeps a reference to the result's buffer) and commit its read
  // accounting. On corruption each stripe stops at its
  // first corrupt block in input order (good payloads before it install,
  // admitted-but-unfilled entries after it drop out of the ARC), and the
  // batch throws for the corrupt block with the smallest *input* index —
  // identical to the serial loop at any thread count. Corrupt payloads
  // never enter the cache.
  std::vector<std::size_t> first_corrupt(part.active.size(),
                                         std::numeric_limits<std::size_t>::max());
  ForEachRead(part.active.size(), [&](std::size_t k) {
    const std::size_t s = part.active[k];
    CacheStripe& stripe = *stripes_[s];
    std::lock_guard<std::mutex> lock(stripe.mutex);
    for (std::size_t j = merged_begin[k]; j < merged_begin[k + 1]; ++j) {
      const Miss& miss = misses[j];
      if ((*results)[miss.index] == nullptr) {
        first_corrupt[k] = miss.index;
        break;
      }
      if (!miss.entry->compressed) continue;
      ++stripe.decompressed_blocks;
      stripe.decompressed_bytes += miss.entry->logical_size;
      if (stripe.cache.enabled()) {
        stripe.cache.Fill(digests[miss.index], (*results)[miss.index]);
      }
    }
  });
  const std::size_t bad =
      *std::min_element(first_corrupt.begin(), first_corrupt.end());
  if (bad != std::numeric_limits<std::size_t>::max()) {
    throw BlockCorruptionError(digests[bad]);
  }

  for (std::size_t k = 0; k < part.active.size(); ++k) {
    for (const auto& [dst, src] : stripe_aliases[k]) {
      (*results)[dst] = (*results)[src];
    }
  }
}

std::uint64_t BlockStore::WarmCache(
    std::span<const util::Digest> digests) const {
  return WarmCacheAs(kDefaultTenant, digests, /*pin=*/false);
}

std::uint64_t BlockStore::WarmCacheAs(TenantId tenant,
                                      std::span<const util::Digest> digests,
                                      bool pin) const {
  // Dedup first: re-reading a digest inside one warm pass buys nothing and
  // would distort the ARC's recency order.
  std::vector<util::Digest> unique;
  unique.reserve(digests.size());
  {
    std::unordered_set<util::Digest, util::DigestHasher> seen;
    for (const util::Digest& digest : digests) {
      if (!Contains(digest)) continue;  // advisory: skip unknowns
      if (seen.insert(digest).second) unique.push_back(digest);
    }
  }
  const std::size_t round =
      std::max<std::size_t>(std::size_t{1}, config_.ingest.batch_blocks);
  std::uint64_t warmed = 0;
  for (std::size_t start = 0; start < unique.size(); start += round) {
    const std::span<const util::Digest> chunk(
        unique.data() + start, std::min(round, unique.size() - start));
    warmed += WarmRounds(tenant, chunk, pin);
  }
  return warmed;
}

std::uint64_t BlockStore::WarmRounds(TenantId tenant,
                                     std::span<const util::Digest> digests,
                                     bool pin) const {
  try {
    GetBatchImpl(digests, /*results=*/nullptr, tenant, pin);
    return digests.size();
  } catch (const BlockCorruptionError&) {
    // A corrupt block poisons its round; retry one-by-one so the healthy
    // blocks still warm. Corrupt ones stay cold for the demand path
    // (which verifies, and heals when a repair source is armed).
    std::uint64_t warmed = 0;
    for (const util::Digest& digest : digests) {
      const util::Digest one[1] = {digest};
      try {
        GetBatchImpl(one, /*results=*/nullptr, tenant, pin);
        ++warmed;
      } catch (const BlockCorruptionError&) {
      }
    }
    return warmed;
  }
}

bool BlockStore::Contains(const util::Digest& digest) const {
  const Shard& shard = *shards_[ShardOf(digest)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.entries.contains(digest);
}

std::uint32_t BlockStore::RefCount(const util::Digest& digest) const {
  const Shard& shard = *shards_[ShardOf(digest)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.entries.find(digest);
  return it == shard.entries.end() ? 0 : it->second.refcount;
}

bool BlockStore::Verify(const util::Digest& digest) const {
  if (!config_.dedup) return Contains(digest);  // synthetic: no hash to check
  // GetStored copies the stored bytes under the shard lock, so scrubs can
  // run concurrently with ingest (a scrub must observe a coherent copy of
  // the stored bytes, never a cached one).
  try {
    const StoredBlock stored = GetStored(digest);
    return DecodeStored(digest, stored.payload, stored.logical_size,
                        stored.compressed)
        .has_value();
  } catch (const NoSuchBlockError&) {
    return false;
  }
}

std::vector<std::uint8_t> BlockStore::VerifyBatch(
    std::span<const util::Digest> digests) const {
  std::vector<std::uint8_t> ok(digests.size(), 0);
  // Verify is read-only (and bypasses the ARC), so every digest checks
  // independently; outcomes are position-wise identical to a serial loop.
  ForEachRead(digests.size(),
              [&](std::size_t i) { ok[i] = Verify(digests[i]) ? 1 : 0; });
  return ok;
}

void BlockStore::ResizeCache(std::uint64_t bytes) {
  // Stripe-by-stripe: each stripe rebudgets under its own lock, so batch
  // reads in flight on other stripes never stall behind the resize (the
  // global-pause behaviour this replaces).
  for (std::size_t s = 0; s < stripes_.size(); ++s) {
    CacheStripe& stripe = *stripes_[s];
    std::lock_guard<std::mutex> lock(stripe.mutex);
    stripe.cache.Resize(CacheStripeBudget(bytes, stripes_.size(), s));
  }
}

void BlockStore::ResizeCacheStripes(std::span<const std::uint64_t> bytes) {
  if (bytes.size() != stripes_.size()) {
    throw std::invalid_argument(
        "ResizeCacheStripes: expected one budget per stripe (" +
        std::to_string(stripes_.size()) + "), got " +
        std::to_string(bytes.size()));
  }
  for (std::size_t s = 0; s < stripes_.size(); ++s) {
    CacheStripe& stripe = *stripes_[s];
    std::lock_guard<std::mutex> lock(stripe.mutex);
    stripe.cache.Resize(bytes[s]);
  }
}

void BlockStore::SetTenantBudgets(std::span<const TenantBudget> budgets) {
  for (std::size_t s = 0; s < stripes_.size(); ++s) {
    CacheStripe& stripe = *stripes_[s];
    std::lock_guard<std::mutex> lock(stripe.mutex);
    if (budgets.empty()) {
      stripe.cache.ClearTenantBudgets();
      continue;
    }
    for (const TenantBudget& budget : budgets) {
      stripe.cache.SetTenantBudget(
          budget.tenant, StripeBudget(budget.bytes, stripes_.size(), s));
    }
  }
}

std::size_t BlockStore::UnpinCache() {
  std::size_t demoted = 0;
  for (const auto& stripe_ptr : stripes_) {
    CacheStripe& stripe = *stripe_ptr;
    std::lock_guard<std::mutex> lock(stripe.mutex);
    demoted += stripe.cache.UnpinAll();
  }
  return demoted;
}

std::vector<StripeCacheSample> BlockStore::SampleCacheStripes() const {
  std::vector<StripeCacheSample> samples;
  samples.reserve(stripes_.size());
  for (const auto& stripe_ptr : stripes_) {
    const CacheStripe& stripe = *stripe_ptr;
    std::lock_guard<std::mutex> lock(stripe.mutex);
    StripeCacheSample sample;
    sample.capacity_bytes = stripe.cache.capacity_bytes();
    sample.resident_bytes = stripe.cache.resident_bytes();
    sample.pinned_bytes = stripe.cache.pinned_bytes();
    sample.hits = stripe.cache.hits();
    sample.hit_bytes = stripe.cache.hit_bytes();
    sample.misses = stripe.cache.misses();
    sample.ghost_hits_recency = stripe.cache.ghost_hits_recency();
    sample.ghost_hits_frequency = stripe.cache.ghost_hits_frequency();
    sample.ghost_hit_bytes = stripe.cache.ghost_hit_bytes();
    sample.tenants = stripe.cache.SampleTenants();
    samples.push_back(std::move(sample));
  }
  return samples;
}

bool BlockStore::CachedDecompressed(const util::Digest& digest) const {
  const CacheStripe& stripe = *stripes_[ShardOf(digest)];
  std::lock_guard<std::mutex> lock(stripe.mutex);
  return stripe.cache.ResidentPayload(digest);
}

std::vector<std::uint8_t> BlockStore::CachedDecompressedBatch(
    std::span<const util::Digest> digests) const {
  std::vector<std::uint8_t> resident(digests.size(), 0);
  const ShardPartition part =
      PartitionByShard(digests, shards_.size(), shard_shift_);
  for (const std::size_t s : part.active) {
    const CacheStripe& stripe = *stripes_[s];
    std::lock_guard<std::mutex> lock(stripe.mutex);
    for (std::size_t p = part.begin[s]; p < part.begin[s + 1]; ++p) {
      const std::size_t i = part.order[p];
      resident[i] = stripe.cache.ResidentPayload(digests[i]) ? 1 : 0;
    }
  }
  return resident;
}

bool BlockStore::Repair(const util::Digest& digest, util::ByteSpan raw) {
  if (config_.dedup && ComputeDigest(raw) != digest) return false;
  Shard& shard = *shards_[ShardOf(digest)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.entries.find(digest);
  if (it == shard.entries.end()) return false;
  Entry& entry = it->second;
  if (raw.size() != entry.logical_size) return false;

  util::Bytes payload;
  bool compressed = false;
  if (config_.codec != compress::CodecId::kNull) {
    util::Bytes candidate = codec_->Compress(raw);
    if (WorthKeeping(candidate.size(), raw.size())) {
      payload = std::move(candidate);
      compressed = true;
    }
  }
  if (!compressed) payload.assign(raw.begin(), raw.end());

  // Bit flips leave sizes intact — re-compressing identical content with the
  // (deterministic) codec reproduces the original extent, so the common case
  // touches no allocation state. Guard the general case anyway so SpaceMap
  // and physical accounting stay coherent if the damaged entry recorded a
  // different size.
  const auto physical = static_cast<std::uint32_t>(
      util::AlignUp(payload.size(), kSectorBytes));
  if (physical != entry.physical_size) {
    shard.space_map.Free(entry.disk_offset, entry.physical_size);
    try {
      entry.disk_offset = shard.space_map.Allocate(physical);
    } catch (const NoSpaceError&) {
      // Disk-full unwind: re-allocating the just-freed size is guaranteed to
      // fit, so the block keeps its (damaged) payload and the accounting
      // stays coherent; the caller skips-and-reports (ScrubRepair) or
      // propagates. The extent may land at a different offset — first fit —
      // which is fine: only accounting invariants matter on this path.
      entry.disk_offset = shard.space_map.Allocate(entry.physical_size);
      if (faults_ != nullptr) faults_->RecordAllocationRefused();
      throw;
    }
    shard.stats.physical_data_bytes += physical;
    shard.stats.physical_data_bytes -= entry.physical_size;
    entry.physical_size = physical;
  }
  entry.payload = std::move(payload);
  entry.compressed = compressed;
  return true;
}

std::size_t BlockStore::InjectFaults(util::FaultInjector& faults) {
  std::size_t corrupted = 0;
  // Iteration order is irrelevant: each block's outcome depends only on the
  // injector seed and its digest.
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto& [digest, entry] : shard.entries) {
      if (entry.payload.empty()) continue;
      if (faults.CorruptBlock(
              digest, util::MutableByteSpan(entry.payload.data(),
                                            entry.payload.size()))) {
        ++corrupted;
      }
    }
  }
  return corrupted;
}

StoreStats BlockStore::stats() const {
  StoreStats total;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    total.unique_blocks += shard.stats.unique_blocks;
    total.total_refs += shard.stats.total_refs;
    total.logical_unique_bytes += shard.stats.logical_unique_bytes;
    total.logical_referenced_bytes += shard.stats.logical_referenced_bytes;
    total.physical_data_bytes += shard.stats.physical_data_bytes;
    total.ddt_disk_bytes += shard.stats.ddt_disk_bytes;
    total.ddt_core_bytes += shard.stats.ddt_core_bytes;
  }
  return total;
}

ReadStats BlockStore::read_stats() const {
  ReadStats stats;
  for (const auto& stripe_ptr : stripes_) {
    const CacheStripe& stripe = *stripe_ptr;
    std::lock_guard<std::mutex> lock(stripe.mutex);
    stats.blocks_requested += stripe.blocks_requested;
    stats.cache_hits += stripe.cache.hits();
    stats.cache_misses += stripe.cache.misses();
    stats.raw_blocks += stripe.raw_blocks;
    stats.decompressed_blocks += stripe.decompressed_blocks;
    stats.decompressed_bytes += stripe.decompressed_bytes;
    stats.cached_bytes += stripe.cache.resident_bytes();
    stats.cache_capacity_bytes += stripe.cache.capacity_bytes();
    stats.warm_skipped_resident += stripe.warm_skipped_resident;
    stats.ghost_hits_recency += stripe.cache.ghost_hits_recency();
    stats.ghost_hits_frequency += stripe.cache.ghost_hits_frequency();
    stats.ghost_hit_bytes += stripe.cache.ghost_hit_bytes();
    stats.pinned_bytes += stripe.cache.pinned_bytes();
  }
  return stats;
}

InvariantReport BlockStore::CheckInvariants() const {
  InvariantReport report;
  const auto fail = [&report](const std::string& what) {
    report.ok = false;
    if (!report.detail.empty()) report.detail += "; ";
    report.detail += what;
  };
  std::uint64_t shard_unique_blocks = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    const std::string tag = "shard " + std::to_string(s);
    shard_unique_blocks += shard.stats.unique_blocks;

    StoreStats recount;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> extents;
    extents.reserve(shard.entries.size());
    for (const auto& [digest, entry] : shard.entries) {
      if (entry.refcount == 0) {
        fail(tag + ": zero refcount for " + digest.ToHex());
      }
      recount.unique_blocks += 1;
      recount.total_refs += entry.refcount;
      recount.logical_unique_bytes += entry.logical_size;
      recount.logical_referenced_bytes +=
          std::uint64_t{entry.logical_size} * entry.refcount;
      recount.physical_data_bytes += entry.physical_size;
      if (config_.dedup) {
        recount.ddt_disk_bytes += kDdtDiskBytesPerEntry;
        recount.ddt_core_bytes += kDdtCoreBytesPerEntry;
      }
      if (entry.physical_size == 0 ||
          entry.physical_size % kSectorBytes != 0) {
        fail(tag + ": unaligned extent for " + digest.ToHex());
      }
      extents.emplace_back(entry.disk_offset, entry.physical_size);
    }

    const auto check = [&](const char* name, std::uint64_t counted,
                           std::uint64_t recorded) {
      if (counted != recorded) {
        fail(tag + ": " + name + " recorded " + std::to_string(recorded) +
             " but recounted " + std::to_string(counted));
      }
    };
    check("unique_blocks", recount.unique_blocks, shard.stats.unique_blocks);
    check("total_refs", recount.total_refs, shard.stats.total_refs);
    check("logical_unique_bytes", recount.logical_unique_bytes,
          shard.stats.logical_unique_bytes);
    check("logical_referenced_bytes", recount.logical_referenced_bytes,
          shard.stats.logical_referenced_bytes);
    check("physical_data_bytes", recount.physical_data_bytes,
          shard.stats.physical_data_bytes);
    check("ddt_disk_bytes", recount.ddt_disk_bytes,
          shard.stats.ddt_disk_bytes);
    check("ddt_core_bytes", recount.ddt_core_bytes,
          shard.stats.ddt_core_bytes);

    const SpaceMap& sm = shard.space_map;
    check("space-map allocated_bytes", recount.physical_data_bytes,
          sm.allocated_bytes());
    if (sm.pool_size() != sm.allocated_bytes() + sm.free_hole_bytes()) {
      fail(tag + ": pool accounting: pool " + std::to_string(sm.pool_size()) +
           " != allocated " + std::to_string(sm.allocated_bytes()) +
           " + holes " + std::to_string(sm.free_hole_bytes()));
    }

    std::sort(extents.begin(), extents.end());
    for (std::size_t i = 0; i < extents.size(); ++i) {
      if (i > 0 &&
          extents[i - 1].first + extents[i - 1].second > extents[i].first) {
        fail(tag + ": overlapping extents at offset " +
             std::to_string(extents[i].first));
      }
      if (extents[i].first + extents[i].second > sm.pool_size()) {
        fail(tag + ": extent past the pool high-water mark at offset " +
             std::to_string(extents[i].first));
      }
    }
  }
  if (unique_blocks() != shard_unique_blocks) {
    fail("store unique_blocks " + std::to_string(unique_blocks()) +
         " but the shards sum to " + std::to_string(shard_unique_blocks));
  }
  return report;
}

SpaceMapStats BlockStore::space_map_stats() const {
  SpaceMapStats stats;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    stats.allocated_bytes += shard.space_map.allocated_bytes();
    stats.pool_bytes += shard.space_map.pool_size();
    stats.free_hole_bytes += shard.space_map.free_hole_bytes();
    stats.free_extents += shard.space_map.free_extent_count();
  }
  return stats;
}

bool BlockStore::CorruptPayloadForTesting(const util::Digest& digest) {
  Shard& shard = *shards_[ShardOf(digest)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.entries.find(digest);
  if (it == shard.entries.end() || it->second.payload.empty()) return false;
  it->second.payload[it->second.payload.size() / 2] ^= 0x40;
  return true;
}

bool BlockStore::CorruptTruncatePayloadForTesting(const util::Digest& digest) {
  Shard& shard = *shards_[ShardOf(digest)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.entries.find(digest);
  if (it == shard.entries.end()) return false;
  Entry& entry = it->second;
  if (entry.payload.size() <= kSectorBytes) return false;
  entry.payload.resize(kSectorBytes / 2);
  // Accounting follows the torn payload (the premise is that the store
  // already noticed and shrank the extent), so invariants keep holding and
  // the eventual Repair with clean content must *grow* the extent.
  const auto physical =
      static_cast<std::uint32_t>(util::AlignUp(entry.payload.size(),
                                               kSectorBytes));
  shard.space_map.Free(entry.disk_offset, entry.physical_size);
  entry.disk_offset = shard.space_map.Allocate(physical);
  shard.stats.physical_data_bytes += physical;
  shard.stats.physical_data_bytes -= entry.physical_size;
  entry.physical_size = physical;
  return true;
}

std::uint64_t BlockStore::DiskOffset(const util::Digest& digest) const {
  const std::size_t s = ShardOf(digest);
  const Shard& shard = *shards_[s];
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.entries.find(digest);
  if (it == shard.entries.end()) throw NoSuchBlockError(digest);
  return GlobalOffset(s, it->second.disk_offset);
}

std::uint32_t BlockStore::PhysicalSize(const util::Digest& digest) const {
  const Shard& shard = *shards_[ShardOf(digest)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.entries.find(digest);
  if (it == shard.entries.end()) throw NoSuchBlockError(digest);
  return it->second.physical_size;
}

}  // namespace squirrel::store
