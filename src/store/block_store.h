// Content-addressed, refcounted block store with inline compression — the
// mechanism behind ZFS `dedup=on` + `compression=gzip-6` that Squirrel's
// cVolumes rely on.
//
// One of each: one dedup table (DDT), one extent arena (SpaceMap) and their
// accounting under one mutex, and one decompressed-block ARC with the read
// counters under a second mutex, so cache probes never wait on a DDT
// commit. Extents are allocated in input order, so consecutive blocks of a
// file land back to back on the simulated disk and a sequential read stays
// sequential (DESIGN.md §14).
//
// Write path (batch-first): the caller has already elided all-zero blocks
// (sparse holes). PutBatch hashes the raw payloads (truncated SHA-256, as ZFS
// hashes before dedup) in parallel on the ingest pool, resolves digests
// against the DDT in one ordered pass — a hit bumps the refcount and costs
// no new space — compresses the misses in parallel (kept only if it saves at
// least 1/8th, ZFS's rule), then allocates extents and inserts DDT entries
// in one ordered commit pass. Because both passes replay the serial
// Lookup/Insert sequence in input order, results are bit-identical to a
// serial loop of single-block Puts at any thread count. The supplied-form
// PutBatch (volume Receive) enters the same pipeline with each block's
// digest and stored form already known and skips the hash and compress
// stages.
//
// Read path (batch-first, mirroring ingest): GetBatchShared classifies every
// requested digest against the byte-budgeted ARC in one ordered pass,
// decompresses the misses in parallel on the shared worker pool, then
// installs payloads and read accounting in one ordered pass. Each
// decompressed block is one immutable shared buffer that the ARC and every
// reader hold without copying; Get and GetBatch copy it out for callers
// that want their own. Payloads, their order, and — because the passes
// replay the exact Lookup/Insert sequence a serial Get loop would issue —
// the cache counters are all bit-identical to serial Get at any thread
// count and any cache size, including cache_bytes = 0. Duplicate digests
// within one batch decompress once
// (aliased), so with the cache disabled GetBatch may do strictly less
// decompression work than the serial loop; with it enabled the serial loop
// gets the same saving as cache hits.
//
// Concurrency contract: PutBatch/GetBatch/Ref/WarmCache/Verify/stats may be
// called from multiple threads concurrently. Callers must hold a reference
// to every block they read (the volume layer does) — concurrently Unref-ing
// a block to zero while it is being read, or racing Repair/fault injection
// against in-flight reads, is undefined. Batches from concurrent callers
// interleave whole passes, so their relative order (and thus which of two
// racing batches allocates first) is the scheduler's; one caller's results
// are deterministic at any thread count.
//
// Accounting mirrors what the paper measures: physical data bytes (Fig 8),
// DDT size on disk (Fig 9) and DDT memory footprint (Fig 10). Cached
// decompressed bytes are deliberately *not* part of StoreStats — the ARC is
// a read-side memory budget, not disk state.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "compress/codec.h"
#include "store/block_cache.h"
#include "store/space_map.h"
#include "util/bytes.h"
#include "util/error.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace squirrel::util {
class FaultInjector;
}  // namespace squirrel::util

namespace squirrel::store {

/// Per-unique-block DDT entry overheads, modelled on ZFS (zio_ddt): an
/// in-core ddt_entry_t is ~320 bytes but the steady-state resident cost per
/// entry lands near 192 bytes once the table pages through the ARC; the
/// on-disk ZAP entry costs ~240 bytes including indirection.
inline constexpr std::uint64_t kDdtCoreBytesPerEntry = 192;
inline constexpr std::uint64_t kDdtDiskBytesPerEntry = 240;

/// Allocation granularity (ZFS ashift=9): compressed payloads occupy whole
/// 512-byte sectors on disk. This waste grows relatively as blocks shrink —
/// one of the reasons the disk-consumption optimum (Fig 8) sits at a larger
/// block size than the CCR optimum (Fig 4).
inline constexpr std::uint64_t kSectorBytes = 512;

/// On-disk size of one block pointer in the file's indirect-block tree
/// (ZFS blkptr_t). Charged per *reference*, i.e. per non-hole file block.
inline constexpr std::uint64_t kBlockPointerBytes = 128;

/// Thrown by read-path operations (Get/GetBatch/Unref/Ref/DiskOffset/...)
/// naming a digest the store does not hold.
class NoSuchBlockError : public Error {
 public:
  explicit NoSuchBlockError(const util::Digest& digest)
      : Error("no such block: " + digest.ToHex()) {}
};

/// Thrown by the verified read path when a stored payload no longer hashes
/// to its digest (or its compressed framing is broken) — the ZFS
/// checksum-on-read failure. Carries the digest so self-healing layers can
/// re-fetch the block from a peer.
class BlockCorruptionError : public Error {
 public:
  explicit BlockCorruptionError(const util::Digest& digest)
      : Error("block corrupt: " + digest.ToHex()), digest_(digest) {}

  const util::Digest& digest() const { return digest_; }

 private:
  util::Digest digest_;
};

/// Parallelism knobs for the batch ingest pipeline (PutBatch and the volume
/// write paths built on it). All mutation of store state happens in ordered
/// passes regardless of thread count, so results — digests, refcounts,
/// StoreStats, disk offsets — are bit-identical across thread
/// configurations.
struct IngestConfig {
  /// Worker threads for the hash/compress stages. 1 runs everything inline
  /// on the calling thread (the serial reference path); 0 picks one thread
  /// per hardware thread.
  std::size_t threads = 1;
  /// Volume-layer pipeline granularity: blocks read, zero-detected and
  /// handed to PutBatch per round. Bounds ingest buffering to
  /// batch_blocks * block_size bytes.
  std::size_t batch_blocks = 128;

  bool operator==(const IngestConfig&) const = default;
};

/// Knobs for the batch read pipeline (GetBatch and the volume read paths
/// built on it). Runtime tuning only — never serialized into volume images,
/// and bit-identical payloads/ordering at any setting.
struct ReadConfig {
  /// Worker threads for the parallel decompress stage. 1 = inline serial
  /// reference path; 0 = one thread per hardware thread.
  std::size_t threads = 1;
  /// Byte budget of the decompressed-block ARC (0 disables caching). Shared
  /// blocks across images decompress once and are then served from memory —
  /// the dedup-aware read amplification win the paper attributes to the ZFS
  /// ARC. Cached bytes are *not* part of StoreStats disk/DDT accounting.
  std::uint64_t cache_bytes = 0;
  /// Volume-layer cluster readahead: ReadFile/ReadRange extend each request
  /// round by this many following block pointers in the same GetBatch,
  /// modelling the QCOW2 64 KB-cluster prefetch effect (Fig 11). Pointless
  /// without a cache, so ignored when cache_bytes == 0.
  std::size_t readahead_blocks = 0;

  bool operator==(const ReadConfig&) const = default;
};

struct BlockStoreConfig {
  /// Inline compressor; CodecId::kNull disables compression. Parse CLI or
  /// wire-format names with compress::ParseCodec at the boundary.
  compress::CodecId codec = compress::CodecId::kGzip6;
  /// When false, every Put allocates fresh space (dedup table disabled).
  bool dedup = true;
  /// Use a seeded double-FNV 128-bit hash instead of truncated SHA-256.
  /// Large ingest benchmarks enable this; dedup behaviour is identical at
  /// simulation scale, only the digest function differs.
  bool fast_hash = false;
  /// Batch-ingest parallelism (threads, batch size).
  IngestConfig ingest{};
  /// Batch-read parallelism, ARC budget and readahead.
  ReadConfig read{};
  /// Pool capacity in bytes; 0 (the default) means unlimited. When an
  /// allocation would exceed it, SpaceMap throws store::NoSpaceError and the
  /// mutating operation (PutBatch / Repair / volume Receive) unwinds to the
  /// state it started from — see DESIGN.md §15.
  std::uint64_t capacity_bytes = 0;
};

/// A block as its DDT entry stores it (GetStored): the codec's output when
/// compression saved at least 1/8th of the block, the raw bytes otherwise.
struct StoredBlock {
  util::Bytes payload;
  std::uint32_t logical_size = 0;  // raw payload size
  bool compressed = false;         // payload is codec output
};

/// One block for the supplied-form PutBatch: its digest and its stored form
/// as another store of the same codec holds them. The bytes are borrowed
/// for the duration of the call.
struct SuppliedBlock {
  util::Digest digest;  // unused with dedup off (synthetic digests)
  util::ByteSpan payload;
  std::uint32_t logical_size = 0;
  bool compressed = false;
};

struct PutResult {
  util::Digest digest;
  bool deduplicated = false;       // true: refcount bump, no new space
  std::uint32_t logical_size = 0;  // raw payload size
  std::uint32_t physical_size = 0; // stored size (0 when deduplicated)
};

struct StoreStats {
  std::uint64_t unique_blocks = 0;
  std::uint64_t total_refs = 0;
  std::uint64_t logical_unique_bytes = 0;    // raw bytes of unique blocks
  std::uint64_t logical_referenced_bytes = 0;// raw bytes times refcount
  std::uint64_t physical_data_bytes = 0;     // compressed, allocated
  std::uint64_t ddt_disk_bytes = 0;          // on-disk dedup table
  std::uint64_t ddt_core_bytes = 0;          // in-memory dedup table
  /// Data + on-disk DDT: the "disk consumption" series of Figure 8/9.
  std::uint64_t disk_bytes() const { return physical_data_bytes + ddt_disk_bytes; }
};

/// Read-side accounting. Counters are cumulative; cached_bytes is a
/// snapshot of the ARC's resident budget. Deterministic across thread
/// counts (all cache interaction happens in ordered passes).
struct ReadStats {
  std::uint64_t blocks_requested = 0;   // payloads served (Get + GetBatch)
  std::uint64_t cache_hits = 0;         // served from the decompressed ARC
  std::uint64_t cache_misses = 0;       // compressed lookups that missed
  std::uint64_t raw_blocks = 0;         // stored uncompressed (cache bypass)
  std::uint64_t decompressed_blocks = 0;
  std::uint64_t decompressed_bytes = 0; // decompression work actually done
  std::uint64_t cached_bytes = 0;       // ARC resident payload bytes (now)
  std::uint64_t cache_capacity_bytes = 0;
  /// WarmCache requests that found the payload already resident: the warm
  /// path touched the ARC (preserving recency, hit counters and the
  /// determinism contract) but skipped materializing the payload, so
  /// re-warming a resident working set is near-free.
  std::uint64_t warm_skipped_resident = 0;
};

/// Snapshot of the ARC for the cache controller: capacities and residency
/// now, counters cumulative. `tenants` is ascending by tenant id and empty
/// until the cache sees its first multi-tenant call.
struct CacheSample {
  std::uint64_t capacity_bytes = 0;
  std::uint64_t resident_bytes = 0;
  std::uint64_t hits = 0;
  std::uint64_t hit_bytes = 0;  // frequency reuse (T2 hit payload)
  std::uint64_t misses = 0;
  /// Ghost-list hit bytes: misses on blocks evicted recently enough that
  /// more budget would have kept them.
  std::uint64_t ghost_hit_bytes = 0;
  std::vector<BlockCache::TenantSample> tenants;
};

/// One tenant's slice of the total cache budget (see SetTenantBudgets).
struct TenantBudget {
  TenantId tenant = kDefaultTenant;
  std::uint64_t bytes = 0;
};

/// Result of BlockStore::CheckInvariants — `ok` is true when every internal
/// consistency check passed; otherwise `detail` names each violated
/// invariant. Used by tests to assert that failure paths (crash, disk-full)
/// unwound without leaking refs, extents or accounting.
struct InvariantReport {
  bool ok = true;
  std::string detail;
};

/// Extent-allocator counters.
struct SpaceMapStats {
  std::uint64_t allocated_bytes = 0;
  /// High-water mark of the pool (the bump pointer).
  std::uint64_t pool_bytes = 0;
  /// Bytes sitting in free-list holes below the high-water marks.
  std::uint64_t free_hole_bytes = 0;
  /// Number of discontiguous free extents — a fragmentation proxy.
  std::uint64_t free_extents = 0;
};

class BlockStore {
 public:
  explicit BlockStore(BlockStoreConfig config);

  /// Stores one raw block. Never call with an all-zero payload — holes are
  /// the volume layer's job (asserted in debug builds). Thin wrapper over
  /// PutBatch with a one-element batch.
  PutResult Put(util::ByteSpan raw);

  /// Batch-first write path: stores `blocks` exactly as a serial loop of
  /// Put calls would — same digests, refcounts, stats and disk offsets —
  /// while running the CPU-bound stages on the worker thread pool:
  ///   1. hash every block in parallel,
  ///   2. resolve dedup hits against the DDT in one ordered pass,
  ///   3. compress only the misses in parallel,
  ///   4. allocate extents and commit accounting in one ordered pass.
  /// Spans must stay valid for the duration of the call; results are
  /// returned in input order. Safe to call concurrently with other batches;
  /// concurrent batches racing the same digest resolve to one allocation
  /// plus refcount bumps (content addressing makes the winner irrelevant).
  std::vector<PutResult> PutBatch(std::span<const util::ByteSpan> blocks);

  /// PutBatch of blocks whose digest and stored form are already known —
  /// volume Receive passes a stream's carried payloads as the sender stored
  /// them. Skips the hash and compress stages: a miss stores `payload` and
  /// `compressed` exactly as supplied. Dedup, allocation, accounting and
  /// the all-or-nothing unwind are the raw PutBatch's, so results, stats
  /// and disk offsets equal a raw PutBatch of the decoded blocks whenever
  /// each supplied form is what this store's codec makes of its block. The
  /// caller vouches that each payload decodes to `logical_size` bytes
  /// hashing to `digest`; nothing here checks it.
  std::vector<PutResult> PutBatch(std::span<const SuppliedBlock> blocks);

  /// Adds one reference to an existing block (snapshot / clone paths).
  /// Throws NoSuchBlockError for unknown digests.
  void Ref(const util::Digest& digest);

  /// Drops one reference; frees the extent and DDT entry at zero. Throws
  /// NoSuchBlockError for unknown digests.
  void Unref(const util::Digest& digest);

  /// Caller-owned copy of the decompressed payload (a caller that mutates
  /// what it read, such as the Byzantine fault model, needs its own). Throws
  /// NoSuchBlockError for unknown digests. Copy-out wrapper over
  /// GetBatchShared with a one-element batch.
  util::Bytes Get(const util::Digest& digest) const;

  /// Decompressed payload, bypassing the ARC entirely — no cache probe, no
  /// fill, no read-counter movement. The transactional Receive path snapshots
  /// to-be-freed payloads through this so a rollback can restore them without
  /// perturbing cache state. Always verifies (dedup mode): throws
  /// NoSuchBlockError for unknown digests and BlockCorruptionError when the
  /// stored payload no longer matches its digest.
  util::Bytes GetUncached(const util::Digest& digest) const;

  /// Copy of the stored form of a block: payload, logical size and flag as
  /// the DDT entry holds them. Does not decompress or verify, and neither
  /// probes the ARC nor moves read counters. Volume Send ships carried
  /// payloads this way (ZFS compressed send); receivers verify them. Throws
  /// NoSuchBlockError for unknown digests.
  StoredBlock GetStored(const util::Digest& digest) const;

  /// Batch-first read path: returns the decompressed payloads of `digests`
  /// in input order as shared immutable buffers. Payloads, ARC state and
  /// counters are bit-identical to a serial loop of Get calls at any thread
  /// count and cache size:
  ///   1. classify every digest against the ARC in one ordered pass
  ///      (replaying the exact serial Lookup/Insert sequence, so ARC state
  ///      and hit/miss counters match serial too),
  ///   2. decompress the misses in parallel on the worker pool,
  ///   3. install payloads and accounting in one ordered pass.
  /// A cache hit returns the ARC's own buffer, a miss the buffer the ARC
  /// then keeps, and duplicate digests in one batch share one buffer; none
  /// of them is copied (DESIGN.md §24). Throws NoSuchBlockError (before any
  /// cache mutation) if any digest is unknown.
  std::vector<util::SharedBytes> GetBatchShared(
      std::span<const util::Digest> digests) const;

  /// Caller-owned copies of the payloads GetBatchShared returns.
  std::vector<util::Bytes> GetBatch(
      std::span<const util::Digest> digests) const;

  /// GetBatch with the cache interaction charged to `tenant` — the store's
  /// one tenant-tagged read. Hits, misses, ghost hits and residency are
  /// counted per tenant and admissions obey the tenant's budget
  /// (SetTenantBudgets); store::CacheController partitions the cache from
  /// those counters.
  std::vector<util::Bytes> GetBatchAs(
      TenantId tenant, std::span<const util::Digest> digests) const;

  /// Cache warm-up: pushes `digests` through the batch read path in
  /// ingest-sized rounds purely for the side effect of filling the
  /// decompressed-block ARC, without keeping the payloads. Digests whose
  /// payload is already resident are filtered out of the materialization
  /// path during the classification pass — their ARC touch still
  /// happens, so cache state and counters stay bit-identical to the demand
  /// path, but a warm re-warm costs no copies and no decompression
  /// (ReadStats::warm_skipped_resident counts them). Unknown digests are
  /// skipped and corrupt blocks are left cold (no throw) — warming is
  /// advisory, the demand path still verifies and heals. Returns the number
  /// of payloads successfully read. Bounded memory: one round of payloads
  /// at a time.
  std::uint64_t WarmCache(std::span<const util::Digest> digests) const;

  bool Contains(const util::Digest& digest) const;
  std::uint32_t RefCount(const util::Digest& digest) const;

  /// The digest this store's configured hash (fast_hash aware) assigns to
  /// `raw` — the placement layer verifies reassembled stripes against the
  /// file table's digests with this.
  util::Digest ComputeDigest(util::ByteSpan raw) const;

  /// Physical pool offset of a block — the boot simulator uses this to model
  /// on-disk scattering of deduplicated data.
  std::uint64_t DiskOffset(const util::Digest& digest) const;
  std::uint32_t PhysicalSize(const util::Digest& digest) const;

  /// Re-reads a block (decompressing if needed) and re-hashes it; true when
  /// the payload still matches its digest. Always true with dedup disabled
  /// (digests are synthetic there). Decompression failures count as
  /// corruption (false), not exceptions. Deliberately bypasses the ARC —
  /// a scrub must observe the stored bytes, not a cached copy.
  bool Verify(const util::Digest& digest) const;

  /// Parallel Verify over a batch: ok[i] == 1 iff Verify(digests[i]).
  /// Unknown digests verify false (no throw), so scrubs can keep walking.
  std::vector<std::uint8_t> VerifyBatch(
      std::span<const util::Digest> digests) const;

  /// resident[i] == 1 iff the decompressed payload of digests[i] is resident
  /// and filled in the ARC; one lock acquisition for the whole span.
  /// Non-mutating (no counter update); the boot simulator probes this to
  /// decide whether a read pays decompression CPU.
  std::vector<std::uint8_t> CachedDecompressedBatch(
      std::span<const util::Digest> digests) const;

  /// Self-healing: replaces the stored payload of an existing block with a
  /// freshly compressed copy of `raw` — the resilver step after a scrub (or
  /// verified read) caught corruption. Returns false without touching the
  /// store when the digest is unknown or `raw` does not hash to it (a
  /// corrupt peer cannot "repair" a block into a worse state). Refcounts
  /// and logical accounting are untouched; physical accounting is adjusted
  /// if the re-compressed size differs from the damaged payload's extent.
  bool Repair(const util::Digest& digest, util::ByteSpan raw);

  /// Applies the injector's stored-payload fault schedule to every resident
  /// block (order-independent: each block's outcome depends only on the
  /// injector seed and the digest). Returns the number of blocks corrupted.
  std::size_t InjectFaults(util::FaultInjector& faults);

  /// Test hook: flips one byte of the stored payload. Returns false if the
  /// digest is unknown.
  bool CorruptPayloadForTesting(const util::Digest& digest);

  /// Test hook simulating a torn write the store already noticed: truncates
  /// the stored payload to one sector and *fixes the accounting to match*
  /// (extent reallocated, physical bytes adjusted), so the store stays
  /// internally consistent but the block fails Verify and a subsequent
  /// Repair with clean content needs a larger extent — the path that can
  /// hit NoSpaceError under a capacity. Returns false if the digest is
  /// unknown or the payload already fits one sector.
  bool CorruptTruncatePayloadForTesting(const util::Digest& digest);

  /// Arms deterministic fault bookkeeping on the commit path: per-position
  /// CrashPointArmedOnly sites inside the PutBatch commit stage (fired only
  /// under FaultInjector::ArmCrashAt — the crash-at-every-site sweep) and
  /// allocations_refused counting for NoSpaceError unwinds. The commit pass
  /// visits positions in input order, so the injector's crash-site counter
  /// advances deterministically. Pass nullptr to disarm.
  void SetFaultInjector(util::FaultInjector* faults) { faults_ = faults; }

  /// Full internal-consistency audit under the DDT lock: recorded
  /// StoreStats match a recount of the DDT, every refcount is positive,
  /// extents are disjoint and sector-aligned, the SpaceMap's allocated
  /// bytes equal the sum of entry extents, and pool accounting satisfies
  /// pool_size == allocated + free holes. Tests call this after every
  /// failure-path unwind (see tests/store_invariants.h).
  InvariantReport CheckInvariants() const;

  /// Rebudgets the decompressed-block ARC at runtime (the real ARC shrinks
  /// under memory pressure and recovers). Shrinking evicts in replacement
  /// order down to the new budget; growing keeps contents. Applied under
  /// the cache lock, between whole passes of in-flight batch reads.
  /// Zero is a well-defined full disable: every entry (ghost history
  /// included) drops, and ReadStats reports
  /// cache_capacity_bytes == 0.
  void ResizeCache(std::uint64_t bytes);

  /// Installs per-tenant resident-byte budgets. Tenants not listed stay
  /// unbudgeted (they share whatever the budgeted tenants leave). An empty
  /// span clears all budgets. Budgets bound growth, not holdings: a tenant
  /// already above a new budget keeps its residents but cannot admit more
  /// until its charge drains.
  void SetTenantBudgets(std::span<const TenantBudget> budgets);

  /// ARC snapshot for the cache controller, taken under the cache lock.
  CacheSample SampleCache() const;

  /// Accounting snapshot, taken under the DDT lock.
  StoreStats stats() const;
  ReadStats read_stats() const;
  SpaceMapStats space_map_stats() const;
  const compress::Codec& codec() const { return *codec_; }

  /// Pool shared by the ingest (hash/compress) and read (decompress)
  /// pipeline stages; nullptr when both sides are serial
  /// (ingest.threads == 1 && read.threads == 1). The volume layer shares it
  /// for its own parallel-friendly stages (zero-detect, RMW materialize).
  util::ThreadPool* worker_pool() const { return pool_.get(); }

  /// Runs fn(i) for i in [0, count) on the worker pool when the read side
  /// is parallel (read.threads != 1), inline otherwise. Exposed for the
  /// volume layer's per-payload stages: Send's stored-form copies and
  /// record checksums, and Receive's decode-and-digest validation.
  void ForEachRead(std::size_t count,
                   const std::function<void(std::size_t)>& fn) const;

 private:
  struct Entry {
    util::Bytes payload;          // as stored (possibly compressed)
    std::uint32_t logical_size;
    std::uint32_t physical_size;
    std::uint32_t refcount;
    std::uint64_t disk_offset;
    bool compressed;
  };
  using EntryMap = std::unordered_map<util::Digest, Entry, util::DigestHasher>;

  /// Read counters beside the ARC, under the cache lock.
  struct ReadCounters {
    std::uint64_t blocks_requested = 0;
    std::uint64_t raw_blocks = 0;
    std::uint64_t decompressed_blocks = 0;
    std::uint64_t decompressed_bytes = 0;
    std::uint64_t warm_skipped_resident = 0;
  };

  /// Drops one reference to `it` (DDT lock held); at zero frees the extent
  /// and erases the entry. Unref and the PutBatch unwind share it.
  void DropRefLocked(EntryMap::iterator it);

  /// Runs fn(i) for i in [0, count) on the worker pool, or inline when the
  /// ingest side is serial or the batch is trivial.
  void ForEachIngest(std::size_t count,
                     const std::function<void(std::size_t)>& fn);
  /// Shared implementation of both PutBatch forms; exactly one of `raw` and
  /// `supplied` is non-empty.
  std::vector<PutResult> PutBatchImpl(std::span<const util::ByteSpan> raw,
                                      std::span<const SuppliedBlock> supplied);
  /// Decompresses a stored form and, with dedup on, re-hashes it against
  /// `digest`; nullopt when the framing is broken or the hash differs.
  std::optional<util::Bytes> DecodeStored(const util::Digest& digest,
                                          util::ByteSpan payload,
                                          std::uint32_t logical_size,
                                          bool compressed) const;
  /// DecodeStored of a DDT entry as a new shared buffer; null when corrupt.
  util::SharedBytes DecodeEntry(const util::Digest& digest,
                                const Entry& entry) const;
  /// Shared implementation of GetBatchShared/GetBatchAs/WarmCache, and the
  /// one place decompressed buffers are made; the cache interaction is
  /// charged to `tenant`. In warm mode (`results` null), cache hits are
  /// counted as warm_skipped_resident and aliases are not materialized;
  /// misses still decompress and fill the cache — and the
  /// classify/decompress/install runs under ONE continuous cache-lock hold,
  /// so the residency judgement and the fill commit in the same lock epoch
  /// (a concurrent ResizeCache cannot evict between them).
  void GetBatchImpl(std::span<const util::Digest> digests,
                    std::vector<util::SharedBytes>* results,
                    TenantId tenant) const;
  /// One warm-mode round over `digests` (already deduped/filtered), used by
  /// WarmCache via GetBatchImpl.
  std::uint64_t WarmRounds(std::span<const util::Digest> digests) const;

  BlockStoreConfig config_;
  const compress::Codec* codec_;

  /// The DDT, the extent arena and their accounting. The mutex guards all
  /// three.
  mutable std::mutex mutex_;
  EntryMap entries_;
  SpaceMap space_map_;
  StoreStats stats_;

  /// The decompressed-block ARC and its read counters, under their own
  /// mutex so cache probes never contend with DDT commits. Mutable: reads
  /// are const but move ARC state and counters.
  mutable std::mutex cache_mutex_;
  mutable BlockCache cache_;
  mutable ReadCounters reads_;

  std::atomic<std::uint64_t> fake_digest_counter_{0};  // for dedup=off mode
  std::unique_ptr<util::ThreadPool> pool_;  // null when both sides serial
  util::FaultInjector* faults_ = nullptr;   // crash/disk-full sites; not owned
};

}  // namespace squirrel::store
