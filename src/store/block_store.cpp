#include "store/block_store.h"

#include <algorithm>
#include <cassert>
#include <cstring>
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

}  // namespace

BlockStore::BlockStore(BlockStoreConfig config)
    : config_(config),
      codec_(&compress::GetCodec(config_.codec)),
      cache_(config_.read.cache_bytes) {
  if (config_.capacity_bytes != 0) {
    space_map_.SetCapacity(config_.capacity_bytes);
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

  // Stage 2: ordered dedup resolution. One pass over the batch in input
  // order under the DDT lock classifies each digest against the DDT and
  // against earlier occurrences within the batch — the same decisions a
  // serial loop would make, so refcounts and allocation order stay
  // bit-identical.
  std::vector<std::uint8_t> is_miss(count, 1);
  if (config_.dedup) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::unordered_set<util::Digest, util::DigestHasher> batch_first;
    for (std::size_t i = 0; i < count; ++i) {
      if (entries_.contains(digests[i]) ||
          !batch_first.insert(digests[i]).second) {
        is_miss[i] = 0;  // refcount bump, resolved in stage 4
      }
    }
  }
  std::vector<std::size_t> miss_indices;
  for (std::size_t i = 0; i < count; ++i) {
    if (is_miss[i]) miss_indices.push_back(i);
  }

  // Stage 3: stage the stored form of every miss, in parallel across the
  // whole batch: compress a raw block, or copy a supplied one as is. Codecs
  // are stateless; each miss writes only its own slot.
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

  // Stage 4: ordered commit. One pass in input order under the DDT lock
  // allocates extents and updates refcounts and stats, so extents land in
  // input order; a batch-internal duplicate finds its first occurrence's
  // entry already inserted by the time it commits. A miss whose digest was
  // inserted by a concurrent batch between classify and commit degrades to
  // a dedup hit (the staged payload is discarded) — content addressing
  // makes either copy equally valid.
  //
  // The stage is all-or-nothing: on NoSpaceError (capacity) or an armed
  // store/commit crash site, every committed position is undone in reverse
  // (which restores the SpaceMap bump pointer exactly — freeing the
  // last-allocated extent triggers the high-water shrink) and the failure
  // is rethrown.
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t committed = 0;
  // A hit undoes its refcount bump; a miss (refcount back at zero) frees
  // its extent and erases the entry — the exact inverse of Unref-to-zero.
  const auto unwind = [&] {
    while (committed-- > 0) DropRefLocked(entries_.find(digests[committed]));
  };
  try {
    std::size_t next_miss = 0;
    for (; committed < count; ++committed) {
      const std::size_t i = committed;
      const util::Digest& digest = digests[i];
      if (faults_ != nullptr) faults_->CrashPointArmedOnly("store/commit");
      auto it = entries_.find(digest);
      if (!is_miss[i] || it != entries_.end()) {
        if (is_miss[i]) ++next_miss;  // staged for a lost race; discard
        assert(it != entries_.end());
        ++it->second.refcount;
        ++stats_.total_refs;
        stats_.logical_referenced_bytes += it->second.logical_size;
        results[i] = {digest, true, it->second.logical_size, 0};
        continue;
      }
      StagedPayload& payload = staged[next_miss];
      Entry entry;
      entry.logical_size = logical_size(i);
      entry.refcount = 1;
      entry.payload = std::move(payload.payload);
      entry.compressed = payload.compressed;
      // Allocations occupy whole sectors (ZFS asize vs psize).
      entry.physical_size = static_cast<std::uint32_t>(
          util::AlignUp(entry.payload.size(), kSectorBytes));
      entry.disk_offset = space_map_.Allocate(entry.physical_size);
      ++next_miss;

      stats_.unique_blocks += 1;
      stats_.total_refs += 1;
      stats_.logical_unique_bytes += entry.logical_size;
      stats_.logical_referenced_bytes += entry.logical_size;
      stats_.physical_data_bytes += entry.physical_size;
      if (config_.dedup) {
        stats_.ddt_disk_bytes += kDdtDiskBytesPerEntry;
        stats_.ddt_core_bytes += kDdtCoreBytesPerEntry;
      }

      results[i] = {digest, false, entry.logical_size, entry.physical_size};
      entries_.emplace(digest, std::move(entry));
    }
  } catch (const NoSpaceError&) {
    if (faults_ != nullptr) faults_->RecordAllocationRefused();
    unwind();
    throw;
  } catch (const util::CrashError&) {
    unwind();
    throw;
  }
  return results;
}

void BlockStore::Ref(const util::Digest& digest) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(digest);
  if (it == entries_.end()) throw NoSuchBlockError(digest);
  Entry& entry = it->second;
  ++entry.refcount;
  ++stats_.total_refs;
  stats_.logical_referenced_bytes += entry.logical_size;
}

void BlockStore::Unref(const util::Digest& digest) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(digest);
  if (it == entries_.end()) throw NoSuchBlockError(digest);
  DropRefLocked(it);
}

void BlockStore::DropRefLocked(EntryMap::iterator it) {
  assert(it != entries_.end());
  Entry& entry = it->second;
  assert(entry.refcount > 0);
  --entry.refcount;
  --stats_.total_refs;
  stats_.logical_referenced_bytes -= entry.logical_size;
  if (entry.refcount > 0) return;
  space_map_.Free(entry.disk_offset, entry.physical_size);
  stats_.unique_blocks -= 1;
  stats_.logical_unique_bytes -= entry.logical_size;
  stats_.physical_data_bytes -= entry.physical_size;
  if (config_.dedup) {
    stats_.ddt_disk_bytes -= kDdtDiskBytesPerEntry;
    stats_.ddt_core_bytes -= kDdtCoreBytesPerEntry;
  }
  entries_.erase(it);
}

util::Bytes BlockStore::Get(const util::Digest& digest) const {
  const util::Digest one[1] = {digest};
  return *GetBatchShared(one)[0];
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
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(digest);
  if (it == entries_.end()) throw NoSuchBlockError(digest);
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
  std::vector<util::SharedBytes> shared(digests.size());
  if (!digests.empty()) GetBatchImpl(digests, &shared, tenant);
  // Copied on the read pool: a serial copy-out would hold a parallel batch
  // to one thread's copy rate.
  std::vector<util::Bytes> results(shared.size());
  ForEachRead(shared.size(), [&](std::size_t i) { results[i] = *shared[i]; });
  return results;
}

std::vector<util::SharedBytes> BlockStore::GetBatchShared(
    std::span<const util::Digest> digests) const {
  std::vector<util::SharedBytes> results(digests.size());
  if (digests.empty()) return results;
  GetBatchImpl(digests, &results, kDefaultTenant);
  return results;
}

void BlockStore::GetBatchImpl(std::span<const util::Digest> digests,
                              std::vector<util::SharedBytes>* results,
                              TenantId tenant) const {
  // Resolve every digest against the DDT first, then validate in input
  // order before any cache mutation — a serial Get loop would throw at the
  // first unknown digest. Entry pointers stay valid across the stages: the
  // DDT map is node-based and callers must hold a reference to every block
  // they read (no concurrent erase).
  std::vector<const Entry*> lookup(digests.size(), nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < digests.size(); ++i) {
      const auto it = entries_.find(digests[i]);
      if (it != entries_.end()) lookup[i] = &it->second;
    }
  }
  for (std::size_t i = 0; i < digests.size(); ++i) {
    if (lookup[i] == nullptr) throw NoSuchBlockError(digests[i]);
  }

  struct Miss {
    std::size_t index;  // input position (and result slot in demand mode)
    const Entry* entry;
  };

  // Checksum-on-read: DecodeEntry re-hashes each decompressed miss against
  // its digest. Synthetic digests (dedup off) carry no content hash.
  if (results == nullptr) {
    // Warm mode: classify, decompress and install under ONE continuous
    // cache-lock hold, so the residency judgement (warm_skipped_resident)
    // and the fill commit in the same lock epoch — a concurrent ResizeCache
    // serializes entirely before or after the warm pass and cannot evict a
    // block between "judged resident" and "batch committed". The op
    // sequence (Lookup/Admit all digests in input order, then install in
    // input order) is exactly the demand path's, so ARC state and counters
    // stay bit-identical to a demand read of the same digests. The misses
    // still decompress in parallel on the pool; the workers touch no cache
    // state.
    std::lock_guard<std::mutex> lock(cache_mutex_);
    reads_.blocks_requested += digests.size();
    std::vector<Miss> misses;
    for (std::size_t i = 0; i < digests.size(); ++i) {
      const Entry* entry = lookup[i];
      if (!entry->compressed) {
        // Stored raw: never cached, nothing to materialize on a warm.
        ++reads_.raw_blocks;
        continue;
      }
      if (cache_.enabled()) {
        switch (cache_.Lookup(digests[i], nullptr, tenant)) {
          case BlockCache::Outcome::kHit:
            ++reads_.warm_skipped_resident;
            continue;
          case BlockCache::Outcome::kPending:
            // Admitted by a concurrent batch, fill in flight elsewhere;
            // decompress locally so this warm pass leaves it filled.
            break;
          case BlockCache::Outcome::kMiss:
            cache_.Admit(digests[i], entry->logical_size, tenant);
            break;
        }
      }
      // Misses and pending fills decompress, and so does every compressed
      // block when the cache is disabled (counted, not filled) — the same
      // work and counters as the demand path, which is what keeps
      // warm-vs-demand accounting comparable.
      misses.push_back({i, entry});
    }
    std::vector<util::SharedBytes> payloads(misses.size());
    ForEachRead(misses.size(), [&](std::size_t j) {
      payloads[j] = DecodeEntry(digests[misses[j].index], *misses[j].entry);
    });
    for (std::size_t j = 0; j < misses.size(); ++j) {
      const Miss& miss = misses[j];
      if (payloads[j] == nullptr) throw BlockCorruptionError(digests[miss.index]);
      ++reads_.decompressed_blocks;
      reads_.decompressed_bytes += miss.entry->logical_size;
      cache_.Fill(digests[miss.index], std::move(payloads[j]));
    }
    return;
  }

  std::vector<Miss> misses;
  std::vector<std::pair<std::size_t, std::size_t>> aliases;  // (dst, src)

  // Stage 1: ordered classification. One pass replays the exact
  // Lookup/Admit sequence a serial Get loop would issue, in input order
  // under the cache lock — so ARC state and hit/miss counters are
  // bit-identical to serial at any thread count.
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    reads_.blocks_requested += digests.size();
    std::unordered_map<util::Digest, std::size_t, util::DigestHasher>
        batch_first;
    for (std::size_t i = 0; i < digests.size(); ++i) {
      const Entry* entry = lookup[i];
      if (!entry->compressed) {
        // Stored raw: a copy either way, so the ARC is bypassed entirely.
        ++reads_.raw_blocks;
        misses.push_back({i, entry});
        continue;
      }
      if (cache_.enabled()) {
        switch (cache_.Lookup(digests[i], &(*results)[i], tenant)) {
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
            cache_.Admit(digests[i], entry->logical_size, tenant);
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

  // Stage 3: ordered install — fill the cache (the ARC keeps a reference to
  // the result's buffer) and commit the read accounting. On corruption the
  // pass stops at the first corrupt block in input order (good payloads
  // before it install, admitted-but-unfilled entries after it drop out of
  // the ARC) and the batch throws for it — identical to the serial loop at
  // any thread count. Corrupt payloads never enter the cache.
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    for (const Miss& miss : misses) {
      if ((*results)[miss.index] == nullptr) {
        throw BlockCorruptionError(digests[miss.index]);
      }
      if (!miss.entry->compressed) continue;
      ++reads_.decompressed_blocks;
      reads_.decompressed_bytes += miss.entry->logical_size;
      if (cache_.enabled()) {
        cache_.Fill(digests[miss.index], (*results)[miss.index]);
      }
    }
  }

  for (const auto& [dst, src] : aliases) (*results)[dst] = (*results)[src];
}

std::uint64_t BlockStore::WarmCache(
    std::span<const util::Digest> digests) const {
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
    warmed += WarmRounds(chunk);
  }
  return warmed;
}

std::uint64_t BlockStore::WarmRounds(
    std::span<const util::Digest> digests) const {
  try {
    GetBatchImpl(digests, /*results=*/nullptr, kDefaultTenant);
    return digests.size();
  } catch (const BlockCorruptionError&) {
    // A corrupt block poisons its round; retry one-by-one so the healthy
    // blocks still warm. Corrupt ones stay cold for the demand path
    // (which verifies, and heals when a repair source is armed).
    std::uint64_t warmed = 0;
    for (const util::Digest& digest : digests) {
      const util::Digest one[1] = {digest};
      try {
        GetBatchImpl(one, /*results=*/nullptr, kDefaultTenant);
        ++warmed;
      } catch (const BlockCorruptionError&) {
      }
    }
    return warmed;
  }
}

bool BlockStore::Contains(const util::Digest& digest) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.contains(digest);
}

std::uint32_t BlockStore::RefCount(const util::Digest& digest) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(digest);
  return it == entries_.end() ? 0 : it->second.refcount;
}

bool BlockStore::Verify(const util::Digest& digest) const {
  if (!config_.dedup) return Contains(digest);  // synthetic: no hash to check
  // GetStored copies the stored bytes under the DDT lock, so scrubs can
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
  std::lock_guard<std::mutex> lock(cache_mutex_);
  cache_.Resize(bytes);
}

void BlockStore::SetTenantBudgets(std::span<const TenantBudget> budgets) {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (budgets.empty()) {
    cache_.ClearTenantBudgets();
    return;
  }
  for (const TenantBudget& budget : budgets) {
    cache_.SetTenantBudget(budget.tenant, budget.bytes);
  }
}

CacheSample BlockStore::SampleCache() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  CacheSample sample;
  sample.capacity_bytes = cache_.capacity_bytes();
  sample.resident_bytes = cache_.resident_bytes();
  sample.hits = cache_.hits();
  sample.hit_bytes = cache_.hit_bytes();
  sample.misses = cache_.misses();
  sample.ghost_hit_bytes = cache_.ghost_hit_bytes();
  sample.tenants = cache_.SampleTenants();
  return sample;
}

std::vector<std::uint8_t> BlockStore::CachedDecompressedBatch(
    std::span<const util::Digest> digests) const {
  std::vector<std::uint8_t> resident(digests.size(), 0);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  for (std::size_t i = 0; i < digests.size(); ++i) {
    resident[i] = cache_.ResidentPayload(digests[i]) ? 1 : 0;
  }
  return resident;
}

bool BlockStore::Repair(const util::Digest& digest, util::ByteSpan raw) {
  if (config_.dedup && ComputeDigest(raw) != digest) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(digest);
  if (it == entries_.end()) return false;
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
    space_map_.Free(entry.disk_offset, entry.physical_size);
    try {
      entry.disk_offset = space_map_.Allocate(physical);
    } catch (const NoSpaceError&) {
      // Disk-full unwind: re-allocating the just-freed size is guaranteed to
      // fit, so the block keeps its (damaged) payload and the accounting
      // stays coherent; the caller skips-and-reports (ScrubRepair) or
      // propagates. The extent may land at a different offset — first fit —
      // which is fine: only accounting invariants matter on this path.
      entry.disk_offset = space_map_.Allocate(entry.physical_size);
      if (faults_ != nullptr) faults_->RecordAllocationRefused();
      throw;
    }
    stats_.physical_data_bytes += physical;
    stats_.physical_data_bytes -= entry.physical_size;
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
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [digest, entry] : entries_) {
    if (entry.payload.empty()) continue;
    if (faults.CorruptBlock(
            digest, util::MutableByteSpan(entry.payload.data(),
                                          entry.payload.size()))) {
      ++corrupted;
    }
  }
  return corrupted;
}

StoreStats BlockStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

ReadStats BlockStore::read_stats() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  ReadStats stats;
  stats.blocks_requested = reads_.blocks_requested;
  stats.cache_hits = cache_.hits();
  stats.cache_misses = cache_.misses();
  stats.raw_blocks = reads_.raw_blocks;
  stats.decompressed_blocks = reads_.decompressed_blocks;
  stats.decompressed_bytes = reads_.decompressed_bytes;
  stats.cached_bytes = cache_.resident_bytes();
  stats.cache_capacity_bytes = cache_.capacity_bytes();
  stats.warm_skipped_resident = reads_.warm_skipped_resident;
  return stats;
}

InvariantReport BlockStore::CheckInvariants() const {
  InvariantReport report;
  const auto fail = [&report](const std::string& what) {
    report.ok = false;
    if (!report.detail.empty()) report.detail += "; ";
    report.detail += what;
  };
  std::lock_guard<std::mutex> lock(mutex_);

  StoreStats recount;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> extents;
  extents.reserve(entries_.size());
  for (const auto& [digest, entry] : entries_) {
    if (entry.refcount == 0) fail("zero refcount for " + digest.ToHex());
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
    if (entry.physical_size == 0 || entry.physical_size % kSectorBytes != 0) {
      fail("unaligned extent for " + digest.ToHex());
    }
    extents.emplace_back(entry.disk_offset, entry.physical_size);
  }

  const auto check = [&](const char* name, std::uint64_t counted,
                         std::uint64_t recorded) {
    if (counted != recorded) {
      fail(std::string(name) + " recorded " + std::to_string(recorded) +
           " but recounted " + std::to_string(counted));
    }
  };
  check("unique_blocks", recount.unique_blocks, stats_.unique_blocks);
  check("total_refs", recount.total_refs, stats_.total_refs);
  check("logical_unique_bytes", recount.logical_unique_bytes,
        stats_.logical_unique_bytes);
  check("logical_referenced_bytes", recount.logical_referenced_bytes,
        stats_.logical_referenced_bytes);
  check("physical_data_bytes", recount.physical_data_bytes,
        stats_.physical_data_bytes);
  check("ddt_disk_bytes", recount.ddt_disk_bytes, stats_.ddt_disk_bytes);
  check("ddt_core_bytes", recount.ddt_core_bytes, stats_.ddt_core_bytes);

  check("space-map allocated_bytes", recount.physical_data_bytes,
        space_map_.allocated_bytes());
  if (space_map_.pool_size() !=
      space_map_.allocated_bytes() + space_map_.free_hole_bytes()) {
    fail("pool accounting: pool " + std::to_string(space_map_.pool_size()) +
         " != allocated " + std::to_string(space_map_.allocated_bytes()) +
         " + holes " + std::to_string(space_map_.free_hole_bytes()));
  }

  std::sort(extents.begin(), extents.end());
  for (std::size_t i = 0; i < extents.size(); ++i) {
    if (i > 0 &&
        extents[i - 1].first + extents[i - 1].second > extents[i].first) {
      fail("overlapping extents at offset " +
           std::to_string(extents[i].first));
    }
    if (extents[i].first + extents[i].second > space_map_.pool_size()) {
      fail("extent past the pool high-water mark at offset " +
           std::to_string(extents[i].first));
    }
  }
  return report;
}

SpaceMapStats BlockStore::space_map_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {space_map_.allocated_bytes(), space_map_.pool_size(),
          space_map_.free_hole_bytes(), space_map_.free_extent_count()};
}

bool BlockStore::CorruptPayloadForTesting(const util::Digest& digest) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(digest);
  if (it == entries_.end() || it->second.payload.empty()) return false;
  it->second.payload[it->second.payload.size() / 2] ^= 0x40;
  return true;
}

bool BlockStore::CorruptTruncatePayloadForTesting(const util::Digest& digest) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(digest);
  if (it == entries_.end()) return false;
  Entry& entry = it->second;
  if (entry.payload.size() <= kSectorBytes) return false;
  entry.payload.resize(kSectorBytes / 2);
  // Accounting follows the torn payload (the premise is that the store
  // already noticed and shrank the extent), so invariants keep holding and
  // the eventual Repair with clean content must *grow* the extent.
  const auto physical =
      static_cast<std::uint32_t>(util::AlignUp(entry.payload.size(),
                                               kSectorBytes));
  space_map_.Free(entry.disk_offset, entry.physical_size);
  entry.disk_offset = space_map_.Allocate(physical);
  stats_.physical_data_bytes += physical;
  stats_.physical_data_bytes -= entry.physical_size;
  entry.physical_size = physical;
  return true;
}

std::uint64_t BlockStore::DiskOffset(const util::Digest& digest) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(digest);
  if (it == entries_.end()) throw NoSuchBlockError(digest);
  return it->second.disk_offset;
}

std::uint32_t BlockStore::PhysicalSize(const util::Digest& digest) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(digest);
  if (it == entries_.end()) throw NoSuchBlockError(digest);
  return it->second.physical_size;
}

}  // namespace squirrel::store
