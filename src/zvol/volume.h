// ZFS-like volume: files of fixed-size blocks over a deduplicated,
// compressed block store, with read-only snapshots, incremental
// send/receive, and retention-window garbage collection.
//
// This is the substrate behind Squirrel's cVolumes (Section 3): the storage
// nodes run one instance (the scVolume), every compute node runs another
// (its ccVolume), and registration propagates snapshot diffs between them.
// Semantics mirror the ZFS features the paper uses:
//
//   * fixed `recordsize` (block_size), inline compression, `dedup=on`
//   * sparse files: all-zero blocks occupy no space (holes)
//   * snapshots are cheap, immutable, and named; they pin blocks by refcount.
//     A snapshot shares each file's block list with the live table (a
//     copy-on-write BlockList), so taking one costs a handle per file, and
//     a write copies only the list of the file it changes (DESIGN.md §25)
//   * `zfs send -i from to` produces a self-contained diff stream; applying
//     it on a volume whose latest snapshot is `from` reproduces `to` exactly
//   * destroying snapshots releases blocks no longer referenced anywhere
//
// Timestamps are supplied by the caller (simulated time), never read from a
// wall clock.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "store/block_store.h"
#include "util/error.h"
#include "util/source.h"
#include "zvol/send_stream.h"

namespace squirrel::zvol {

struct VolumeConfig {
  std::uint32_t block_size = 64 * util::kKiB;
  /// Inline compressor (compress::ParseCodec converts CLI/wire names).
  compress::CodecId codec = compress::CodecId::kGzip6;
  bool dedup = true;
  bool fast_hash = false;
  /// Batch-ingest parallelism for WriteFile/WriteRange (threads, batch
  /// size). Runtime tuning only — not part of the serialized volume state.
  store::IngestConfig ingest{};
  /// Batch-read parallelism, decompressed-block ARC budget and cluster
  /// readahead for ReadFile/ReadRange/Scrub. Runtime tuning only — not
  /// part of the serialized volume state.
  store::ReadConfig read{};
  /// Backing-pool capacity in bytes; 0 (the default) means unlimited. A
  /// full pool surfaces as store::NoSpaceError from the mutating paths;
  /// Receive rolls a mid-apply disk-full back so the volume is exactly as
  /// it was. Runtime tuning only — not part of the serialized volume state.
  std::uint64_t capacity_bytes = 0;
};

/// Thrown by file operations naming a file the live table does not hold.
class NoSuchFileError : public Error {
 public:
  explicit NoSuchFileError(const std::string& name)
      : Error("no such file: " + name) {}
};

/// Thrown by snapshot operations naming an unknown snapshot.
class NoSuchSnapshotError : public Error {
 public:
  explicit NoSuchSnapshotError(const std::string& name)
      : Error("no such snapshot: " + name) {}
};

/// Thrown by Deserialize on a truncated, bit-flipped, or malformed volume
/// image (wire-format damage, as opposed to BlockCorruptionError for damage
/// to blocks already stored).
class VolumeImageError : public Error {
 public:
  using Error::Error;
};

/// One block pointer: either a hole (sparse) or a digest into the store.
struct BlockPtr {
  bool hole = true;
  util::Digest digest{};
  std::uint32_t logical_size = 0;

  bool operator==(const BlockPtr&) const = default;
};

/// A file's block pointers as a copy-on-write list (DESIGN.md §25): one
/// immutable std::vector<BlockPtr> shared by every table that holds this
/// version of the file. Copying a BlockList copies a handle. Readers get
/// the const vector API; Mutable() is the one way to write, and it copies
/// the list first when another handle shares it. Equality compares
/// contents, with a fast path for two handles to one list.
class BlockList {
 public:
  using const_iterator = std::vector<BlockPtr>::const_iterator;

  std::size_t size() const { return list().size(); }
  const BlockPtr& operator[](std::size_t i) const { return list()[i]; }
  const BlockPtr& at(std::size_t i) const { return list().at(i); }
  const_iterator begin() const { return list().begin(); }
  const_iterator end() const { return list().end(); }

  /// The list, writable: first made this handle's own (a copy, when
  /// another handle shares it). References into it stay valid until this
  /// handle is next copied, assigned or destroyed.
  std::vector<BlockPtr>& Mutable();

  bool operator==(const BlockList& other) const {
    return list_ == other.list_ || list() == other.list();
  }

 private:
  static const std::vector<BlockPtr> kNoBlocks;

  const std::vector<BlockPtr>& list() const {
    return list_ != nullptr ? *list_ : kNoBlocks;
  }

  std::shared_ptr<std::vector<BlockPtr>> list_;  // null: no blocks
};

struct FileMeta {
  std::uint64_t logical_size = 0;
  BlockList blocks;

  bool operator==(const FileMeta&) const = default;
};

/// Copies the in-file bytes [within, within + out.size()) of a non-hole
/// block whose decompressed payload is `payload` into `out`. A stored block
/// can be shorter than its in-file length (a former tail block after a
/// write grew the file); its bytes past the payload read as zeros.
void ReadBlockBytes(util::ByteSpan payload, std::uint64_t within,
                    util::MutableByteSpan out);

using FileTable = std::map<std::string, FileMeta>;

/// One replica a repair layer can fetch clean blocks from. Peer 0 is, by
/// convention, the authoritative storage node (never Byzantine under the
/// fault model); higher ids are other compute nodes' ccVolume stores.
struct RepairPeer {
  std::uint32_t id = 0;
  const store::BlockStore* store = nullptr;
};

/// Multi-peer repair with Byzantine-peer blacklisting, and the one repair
/// path: scrubs, degraded reads and degraded boots all heal through a
/// session (the plain case is one peer, the storage node). A session holds
/// an ordered list of replicas and per-peer strike counters; RepairBlock
/// tries peers in order, skipping blacklisted ones, and relies on
/// BlockStore::Repair's re-hash as the one defence against wrong-but-
/// well-formed payloads. A peer that *served bytes* failing that digest
/// check earns a strike (unavailability — missing block, its own copy
/// corrupt — does not: honest peers fail that way too); kStrikeLimit
/// strikes blacklist the peer for the rest of the session and the block is
/// re-sourced from the next replica. Sessions are long-lived (one per
/// degraded boot / scrub) so strikes accumulate across blocks — a
/// consistent liar is identified after a handful of blocks and never
/// consulted again. Not thread-safe; confine a session to one caller.
class RepairSession {
 public:
  static constexpr std::uint32_t kStrikeLimit = 3;

  explicit RepairSession(std::vector<RepairPeer> peers,
                         util::FaultInjector* faults = nullptr);

  /// Fetches a clean copy of `digest` from the first non-blacklisted peer
  /// that can supply one and applies it through `store.Repair` (which
  /// re-hashes before accepting). Bytes served by lying peers still count
  /// into `*fetched_bytes` — they crossed the wire. Returns false when no
  /// peer could supply a verifying copy. Propagates store::NoSpaceError
  /// when the repair itself cannot fit (callers skip-and-report).
  bool RepairBlock(store::BlockStore& store, const util::Digest& digest,
                   std::uint64_t* fetched_bytes = nullptr);

  /// Peers currently blacklisted / blocks healed from a later replica after
  /// an earlier one served wrong bytes / wrong payloads rejected by the
  /// digest check. Cumulative over the session.
  std::uint64_t peers_blacklisted() const;
  std::uint64_t resourced_blocks() const { return resourced_blocks_; }
  std::uint64_t byzantine_rejected() const { return byzantine_rejected_; }

 private:
  struct PeerState {
    RepairPeer peer;
    std::uint32_t strikes = 0;
    bool blacklisted = false;
  };
  std::vector<PeerState> peers_;
  util::FaultInjector* faults_;  // Byzantine mutation source; not owned
  std::uint64_t resourced_blocks_ = 0;
  std::uint64_t byzantine_rejected_ = 0;
};

struct Snapshot {
  std::uint64_t id = 0;          // monotonically increasing, cluster-coherent
  std::string name;
  std::uint64_t created_at = 0;  // simulated seconds
  FileTable files;
};

struct VolumeStats {
  std::uint64_t file_count = 0;
  std::uint64_t snapshot_count = 0;
  std::uint64_t logical_file_bytes = 0;   // sum of live file logical sizes
  std::uint64_t unique_blocks = 0;
  std::uint64_t physical_data_bytes = 0;  // sector-rounded allocations
  std::uint64_t ddt_disk_bytes = 0;
  std::uint64_t ddt_core_bytes = 0;       // the Fig 10 "memory" series
  /// Indirect-block metadata: one blkptr_t per non-hole block reference.
  std::uint64_t blkptr_disk_bytes = 0;
  /// Data + on-disk DDT + block pointers (the Fig 8 series).
  std::uint64_t disk_used_bytes = 0;
};

class Volume {
 public:
  explicit Volume(VolumeConfig config);
  ~Volume();

  Volume(const Volume&) = delete;
  Volume& operator=(const Volume&) = delete;

  const VolumeConfig& config() const { return config_; }

  // --- file operations -----------------------------------------------------

  /// Creates or replaces a file by streaming `data` in block-size chunks.
  /// All-zero blocks become holes; blocks `data` reports as holes are not
  /// read.
  void WriteFile(const std::string& name, const util::DataSource& data);

  /// Creates an empty sparse file of `logical_size` bytes.
  void CreateFile(const std::string& name, std::uint64_t logical_size);

  /// Read-modify-write of an arbitrary byte range (used by copy-on-read
  /// cache population). Grows the file if the range extends past the end.
  void WriteRange(const std::string& name, std::uint64_t offset,
                  util::ByteSpan data);

  /// Reads [offset, offset+length); holes read as zeros. Wraps
  /// ReadRangeInto for store::kDefaultTenant.
  util::Bytes ReadRange(const std::string& name, std::uint64_t offset,
                        std::uint64_t length) const;

  /// ReadRange with the cache interaction charged to `tenant` (see
  /// store::TenantId) instead of store::kDefaultTenant — the
  /// multi-tenant boot path tags each VM's reads with its own id.
  util::Bytes ReadRangeAs(store::TenantId tenant, const std::string& name,
                          std::uint64_t offset, std::uint64_t length) const;

  /// The one range read. Serves the request [offset, offset + length) and
  /// copies its window [offset + skip, offset + skip + out.size()) into
  /// `out` (std::out_of_range unless the request lies inside the file and
  /// the window inside the request), charging the cache interaction to
  /// `tenant`. Fetches the payloads of every block of the request through
  /// BlockStore::GetBatchShared in rounds of ingest.batch_blocks blocks,
  /// each extended by read.readahead_blocks following pointers (the QCOW2
  /// cluster-prefetch effect) when the decompressed-block ARC is on, and
  /// copies each round's part of the window straight from the shared
  /// buffers before fetching the next round. Only holes and the zero tail
  /// of a stored block shorter than its in-file length are zero-filled, so
  /// `out` need not be cleared; after a throw its contents are unspecified.
  /// With `blocks` set, it is resized to one slot per block the request
  /// touches, from offset / block_size on, and each non-hole slot gets that
  /// block's shared payload (null for holes), so a caller can keep a block
  /// without copying it.
  void ReadRangeInto(store::TenantId tenant, const std::string& name,
                     std::uint64_t offset, std::uint64_t length,
                     std::uint64_t skip, util::MutableByteSpan out,
                     std::vector<util::SharedBytes>* blocks = nullptr) const;

  /// Whole-file convenience read over the same batched, cache-aware path.
  util::Bytes ReadFile(const std::string& name) const;

  bool HasFile(const std::string& name) const;
  /// The live file's size and block pointers, found once (NoSuchFileError
  /// otherwise). The reference, and references into its blocks, stay valid
  /// until the next call that changes the live file table: WriteFile,
  /// CreateFile, WriteRange, DeleteFile, Receive or ReceiveFull (a write to
  /// a file whose list a snapshot shares gives the file a new list). A
  /// caller that needs the pointers longer copies the FileMeta: the copy
  /// shares the list, costs O(1), and no later write changes it.
  const FileMeta& File(const std::string& name) const;
  std::uint64_t FileSize(const std::string& name) const;
  std::vector<std::string> FileNames() const;
  void DeleteFile(const std::string& name);

  /// Block pointer of block `index` of a live file (boot simulator input).
  const BlockPtr& FileBlock(const std::string& name, std::uint64_t index) const;
  std::uint64_t FileBlockCount(const std::string& name) const;

  /// Per-file space accounting with ZFS semantics:
  ///   referenced — physical bytes of every block the file points at
  ///                (shared blocks counted in full, like `zfs get referenced`)
  ///   unique     — physical bytes of blocks only this file table entry
  ///                references (what deleting the file would free right now)
  struct FileStats {
    std::uint64_t logical_size = 0;
    std::uint64_t nonzero_blocks = 0;
    std::uint64_t hole_blocks = 0;
    std::uint64_t referenced_physical_bytes = 0;
    std::uint64_t unique_physical_bytes = 0;
    double compression_ratio = 1.0;  // logical nonzero / referenced physical
  };
  FileStats StatFile(const std::string& name) const;

  // --- snapshots -----------------------------------------------------------

  /// Snapshots the current live file table. The snapshot shares every
  /// file's block list with the live table (one handle per file, no
  /// pointer copied) and takes one store reference per non-hole pointer.
  /// Names must be unique and creation times non-decreasing. The returned
  /// reference stays valid until that snapshot is destroyed or pruned.
  const Snapshot& CreateSnapshot(const std::string& name, std::uint64_t now);

  const Snapshot* FindSnapshot(const std::string& name) const;
  const Snapshot* LatestSnapshot() const;
  const std::vector<std::unique_ptr<Snapshot>>& snapshots() const {
    return snapshots_;
  }

  void DestroySnapshot(const std::string& name);

  /// Section 3.4 garbage collection: destroys snapshots older than
  /// `retention_seconds`, always keeping the most recent one. Returns the
  /// number destroyed.
  std::size_t PruneSnapshots(std::uint64_t retention_seconds, std::uint64_t now);

  // --- send / receive ------------------------------------------------------

  /// Incremental stream between two held snapshots (`from_name` empty =>
  /// full stream from scratch). Payloads are carried only for blocks not
  /// reachable from `from` — the receiver, holding `from`, already stores
  /// every other block (Squirrel's replication invariant). Each payload
  /// travels in its stored form (`zfs send -c`): the bytes and compressed
  /// flag are copied out of the block store without decompressing,
  /// verifying or touching the ARC, so a block corrupted here is caught by
  /// the receiver's digest check, not by Send.
  SendStream Send(const std::string& from_name, const std::string& to_name) const;

  /// Applies a stream. For an incremental stream the volume's latest
  /// snapshot must match the stream's `from` (id and name); otherwise throws
  /// StreamMismatchError and the caller falls back to full replication
  /// (Section 3.5). A stream of another block size or codec throws
  /// StreamMismatchError too. Every carried payload is decoded and, with
  /// dedup on, hashed against its record's digest before anything changes
  /// (StreamCorruptError on a mismatch); new blocks then keep the carried
  /// bytes as their stored form, with no second compression. On success
  /// the live table becomes `to` and a snapshot of it is recorded under the
  /// stream's `to` name/id/time.
  ///
  /// Crash consistency (DESIGN.md §15): the apply runs against a staged copy
  /// of the file table with an undo log of store operations, so a stream
  /// that fails mid-apply — damage found late, a simulated crash
  /// (util::CrashError), a disk-full (store::NoSpaceError) — rolls the
  /// volume back to exactly its pre-call state. With a fault injector
  /// armed, the crash sites fire. Re-delivering a stream whose `to`
  /// snapshot is already latest is an idempotent no-op.
  void Receive(const SendStream& stream);

  /// Drops all state and applies a full stream (the "node offline for more
  /// than n days" recovery path). The stream is fully validated — shape,
  /// codec, checksums, payload decode and digests — *before* anything is
  /// dropped, so a mismatched or damaged stream leaves the volume
  /// untouched. Re-delivery of the latest snapshot's stream is a no-op, as
  /// in Receive.
  void ReceiveFull(const SendStream& stream);

  // --- persistence -----------------------------------------------------------

  /// Serializes the complete volume state — configuration, unique block
  /// payloads, live file table, snapshots — into a self-contained image
  /// with a SHA-256 integrity trailer.
  util::Bytes Serialize() const;

  /// Restores a volume from Serialize() output. Block contents, file
  /// tables, snapshot identities and reference counts are reproduced
  /// exactly (physical pool layout may differ). Throws VolumeImageError
  /// on truncation, checksum mismatch, or malformed structure.
  static std::unique_ptr<Volume> Deserialize(util::ByteSpan image);

  // --- integrity -------------------------------------------------------------

  struct ScrubReport {
    std::uint64_t blocks_checked = 0;
    std::uint64_t errors = 0;          // payloads whose digest no longer matches
    std::uint64_t dangling_refs = 0;   // pointers to blocks the store lost
  };

  /// ZFS-style scrub: walks every block pointer of the live table and all
  /// snapshots, re-reads the payload and verifies it hashes to its digest.
  /// Requires content-addressed digests (dedup on, any hash mode).
  ScrubReport Scrub() const;

  struct RepairReport {
    std::uint64_t blocks_checked = 0;
    std::uint64_t errors_found = 0;    // payloads that failed verification
    std::uint64_t repaired = 0;        // restored byte-identically from a peer
    std::uint64_t unrepairable = 0;    // no peer could supply a clean copy
    std::uint64_t repaired_bytes = 0;  // logical bytes re-fetched
    std::uint64_t dangling_refs = 0;
    /// Session counters: peers blacklisted for serving wrong bytes, blocks
    /// healed from a later replica after an earlier one lied, and wrong
    /// payloads rejected by the digest check.
    std::uint64_t peers_blacklisted = 0;
    std::uint64_t resourced_blocks = 0;
    std::uint64_t byzantine_rejected = 0;
    /// Blocks left unrepaired because the replacement extent did not fit
    /// the pool capacity (skip-and-report; also counted in unrepairable).
    std::uint64_t no_space_skips = 0;
  };

  /// Scrub + resilver: like Scrub, but every block that fails verification
  /// is healed through `session` — re-sourced across its replicas (in
  /// Squirrel, other ccVolumes and last the storage node's scVolume) with
  /// Byzantine-peer blacklisting, and rewritten through BlockStore::Repair,
  /// which re-verifies the fetched bytes against the digest before
  /// accepting them. A block whose replacement extent no longer fits the
  /// pool capacity is skipped-and-reported (no_space_skips) instead of
  /// aborting the scrub. The session's counters are snapshotted into the
  /// report. After a run with unrepairable == 0 a subsequent Scrub reports
  /// zero errors and reads return byte-identical content.
  RepairReport ScrubRepair(RepairSession& session);

  /// Degraded-mode read: ReadRangeAs that, when the verified read path
  /// throws BlockCorruptionError, heals the corrupt block through `session`
  /// on demand and retries. Bytes the session fetched — lies included —
  /// are added to `*fetched_bytes` (network charge for the caller).
  /// Rethrows when no session peer can supply a clean copy. Wraps
  /// ReadRangeRepairInto.
  util::Bytes ReadRangeRepair(store::TenantId tenant, const std::string& name,
                              std::uint64_t offset, std::uint64_t length,
                              RepairSession& session,
                              std::uint64_t* fetched_bytes = nullptr);

  /// ReadRangeInto with ReadRangeRepair's on-demand healing: the span read
  /// every cluster boot's volume device takes.
  void ReadRangeRepairInto(store::TenantId tenant, const std::string& name,
                           std::uint64_t offset, std::uint64_t length,
                           std::uint64_t skip, util::MutableByteSpan out,
                           RepairSession& session,
                           std::uint64_t* fetched_bytes = nullptr,
                           std::vector<util::SharedBytes>* blocks = nullptr);

  /// Applies the injector's stored-payload fault schedule to every block in
  /// the store (order-independent, per-digest). Returns blocks corrupted.
  std::size_t InjectFaults(util::FaultInjector& faults) {
    return store_.InjectFaults(faults);
  }

  /// Arms crash/disk-full fault sites on this volume and its store: Receive/
  /// ReceiveFull run their crash points, and the store's commit-stage sites
  /// and allocation-refused accounting activate.
  /// Pass nullptr to disarm.
  void SetFaultInjector(util::FaultInjector* faults) {
    faults_ = faults;
    store_.SetFaultInjector(faults);
  }

  // --- accounting ----------------------------------------------------------

  VolumeStats Stats() const;
  const store::BlockStore& block_store() const { return store_; }
  /// Mutable store access for cache management (tenant-tagged warms,
  /// ARC resizes, store::CacheController construction over its cache).
  store::BlockStore& block_store() { return store_; }

  /// Test hook: corrupts the stored payload of the block backing file
  /// `name` at block `index` (flips one byte). Returns false for holes.
  /// Exists for scrub and failure-injection tests only.
  bool CorruptBlockForTesting(const std::string& name, std::uint64_t index);

  /// Test hook: truncates the stored payload of the block backing file
  /// `name` at block `index` with matching accounting (see
  /// BlockStore::CorruptTruncatePayloadForTesting) — the setup that makes a
  /// later Repair need a larger extent. Returns false for holes.
  bool TruncateBlockForTesting(const std::string& name, std::uint64_t index);

 private:
  class StoreTxn;

  void ReleaseTable(const FileTable& table);
  void RetainTable(const FileTable& table);
  /// Staged batch ingest: walks `data` in batches of ingest.batch_blocks,
  /// reads only the blocks the source does not report as holes
  /// (DataSource::RangeHasData), zero-detects those in parallel, and feeds
  /// the nonzero ones to BlockStore::PutBatch (parallel hash + compress,
  /// ordered commit).
  FileMeta IngestSource(const util::DataSource& data);
  /// Validate-before-mutate stage of Receive: checks the codec, stream
  /// structure, record checksums and by-reference records, and decodes
  /// every carried payload, touching no table or store state. A decoded
  /// payload must have its record's length and, with dedup on, hash to its
  /// record's digest. A by-reference record must name a digest a payload
  /// record carries in an earlier file or in its own file, or, when
  /// `store_references` is set (Receive, which keeps the store), one the
  /// store already holds. Throws StreamCorruptError / StreamMismatchError
  /// on damage.
  void ValidateStream(const SendStream& stream, bool store_references) const;
  /// Applies a validated stream to the staged `table`, putting carried
  /// payloads in their stored form and routing every store operation
  /// through the undo log of `txn`; the volume crash sites fire when an
  /// injector is armed.
  void ApplyStreamToTable(const SendStream& stream, FileTable& table,
                          StoreTxn& txn);
  /// Shared tail of Receive/ReceiveFull after validation: applies the
  /// stream to a staged copy of the file table, rolls back on any failure,
  /// and otherwise swaps the table in and records the `to` snapshot. The
  /// staged copy and the snapshot share block lists, so only the files the
  /// stream touches get lists of their own.
  void CommitReceive(const SendStream& stream);
  /// Shared scrub walk: unique digests referenced by the live table and all
  /// snapshots; dangling references are counted into *dangling_refs.
  std::vector<util::Digest> CollectScrubDigests(
      std::uint64_t* dangling_refs) const;
  /// File, mutable, for the writers of the live table.
  FileMeta& RequireFile(const std::string& name);
  /// File that also throws std::out_of_range unless [offset,
  /// offset + length) lies inside the file.
  const FileMeta& RequireRange(const std::string& name, std::uint64_t offset,
                               std::uint64_t length) const;
  /// Runs fn(i) for i in [0, count) on the store's ingest pool (inline when
  /// serial).
  void ForEachIngest(std::size_t count,
                     const std::function<void(std::size_t)>& fn);

  VolumeConfig config_;
  store::BlockStore store_;
  FileTable files_;
  // unique_ptr storage keeps Snapshot references stable across push_back.
  std::vector<std::unique_ptr<Snapshot>> snapshots_;
  std::uint64_t next_snapshot_id_ = 1;
  util::FaultInjector* faults_ = nullptr;  // crash sites; not owned
};

}  // namespace squirrel::zvol
