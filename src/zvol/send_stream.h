// Serialized snapshot-diff streams — the reproduction of `zfs send` /
// `zfs send -i` used to propagate cache volumes (Sections 3.2 and 3.5).
//
// A stream carries: the identity of the base and target snapshots, the file
// deletions and file (re)definitions between them, and the payloads of
// exactly those blocks the receiver cannot already have. Integrity is
// protected at two granularities: a SHA-256 trailer over the whole wire
// encoding (catches truncation and bit flips in flight), and — since wire
// version 2 — a per-record FNV checksum over each carried payload, validated
// again at apply time. The per-record checksums are what let a retrying
// replication layer keep the verified prefix of a partially transferred
// stream instead of restarting it. Version-1 streams (magic "SQSS", no
// record checksums) are refused as corrupt.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/error.h"
#include "util/hash.h"

namespace squirrel::zvol {

/// Thrown on wire-level damage to a serialized stream: truncation, bad
/// magic, whole-stream checksum mismatch, or malformed structure.
class StreamCorruptError : public Error {
 public:
  using Error::Error;
};

/// Thrown when a stream cannot apply: the receiver's base snapshot does not
/// match, or a record's payload no longer matches its checksum.
class StreamMismatchError : public Error {
 public:
  using Error::Error;
};

struct BlockRecord {
  std::uint64_t index = 0;       // block number within the file
  bool hole = false;
  util::Digest digest{};
  std::uint32_t logical_size = 0;
  bool has_payload = false;
  bool payload_compressed = false;  // payload is codec-compressed (send -c)
  util::Bytes payload;
  /// FNV-1a over `payload` as carried on the wire (compressed form if
  /// payload_compressed). Meaningful only when has_payload.
  std::uint64_t payload_checksum = 0;
};

struct FileRecord {
  std::string name;
  std::uint64_t logical_size = 0;
  /// For new files: every block. For modified files: only changed indices.
  std::vector<BlockRecord> blocks;
  bool whole_file = false;       // true => replaces the file table entry
};

struct SendStream {
  // Base snapshot (absent for full streams).
  bool incremental = false;
  std::uint64_t from_id = 0;
  std::string from_name;

  // Target snapshot identity, created on the receiver after applying.
  std::uint64_t to_id = 0;
  std::string to_name;
  std::uint64_t created_at = 0;
  std::uint32_t block_size = 0;  // receivers must match
  std::string codec;             // codec of compressed payloads

  std::vector<std::string> deleted_files;
  std::vector<FileRecord> files;

  /// Wire encoding (version 2: per-record payload checksums) with a SHA-256
  /// integrity trailer. A record's checksum is written as it stands (a
  /// payload altered after Send then fails Deserialize); only a record whose
  /// field is 0 gets one computed from its payload.
  util::Bytes Serialize() const;

  /// Parses and verifies the version-2 wire format. Throws
  /// StreamCorruptError on truncation, bad magic (a version-1 stream
  /// included) or trailer mismatch, StreamMismatchError when a carried
  /// payload fails its record checksum.
  static SendStream Deserialize(util::ByteSpan wire);

  /// Checksum of one carried payload as written to (and validated from) the
  /// wire. Exposed so senders can stamp records and receivers re-validate
  /// in-memory streams that never crossed the wire encoding.
  static std::uint64_t PayloadChecksum(util::ByteSpan payload) {
    return util::Fnv1a64(payload);
  }

  /// Size of the encoded stream in bytes — what registration actually pushes
  /// over the network (the paper's "diff of O(10 MB)").
  std::uint64_t WireSize() const;

  /// Sum of carried payload bytes (the dominant component of WireSize).
  std::uint64_t PayloadBytes() const;
};

}  // namespace squirrel::zvol
