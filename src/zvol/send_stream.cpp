#include "zvol/send_stream.h"

#include <cstring>

#include "util/wire.h"

namespace squirrel::zvol {
namespace {

constexpr std::uint32_t kMagic = 0x32515353;  // "SSQ2" — record checksums

}  // namespace

util::Bytes SendStream::Serialize() const {
  util::wire::Writer w;
  w.U32(kMagic);
  w.U8(incremental ? 1 : 0);
  w.U64(from_id);
  w.Str(from_name);
  w.U64(to_id);
  w.Str(to_name);
  w.U64(created_at);
  w.U32(block_size);
  w.Str(codec);

  w.U32(static_cast<std::uint32_t>(deleted_files.size()));
  for (const auto& name : deleted_files) w.Str(name);

  w.U32(static_cast<std::uint32_t>(files.size()));
  for (const FileRecord& f : files) {
    w.Str(f.name);
    w.U64(f.logical_size);
    w.U8(f.whole_file ? 1 : 0);
    w.U32(static_cast<std::uint32_t>(f.blocks.size()));
    for (const BlockRecord& b : f.blocks) {
      w.U64(b.index);
      w.U8(static_cast<std::uint8_t>((b.hole ? 1 : 0) | (b.has_payload ? 2 : 0) |
                                     (b.payload_compressed ? 4 : 0)));
      w.Blob(util::ByteSpan(b.digest.bytes.data(), b.digest.bytes.size()));
      w.U32(b.logical_size);
      if (b.has_payload) {
        // Volume::Send fills the checksum in; a hand-built record may leave
        // it 0 and gets one computed over the bytes going onto the wire.
        w.U64(b.payload_checksum != 0 ? b.payload_checksum
                                      : PayloadChecksum(b.payload));
        w.Blob(b.payload);
      }
    }
  }

  return w.TakeWithTrailer();
}

SendStream SendStream::Deserialize(util::ByteSpan wire) {
  util::wire::Reader<StreamCorruptError> r(
      util::wire::VerifyTrailer<StreamCorruptError>(
          wire, "send stream too short", "send stream checksum mismatch"),
      "send stream truncated");
  if (r.U32() != kMagic) throw StreamCorruptError("send stream bad magic");

  SendStream s;
  s.incremental = r.U8() != 0;
  s.from_id = r.U64();
  s.from_name = r.Str();
  s.to_id = r.U64();
  s.to_name = r.Str();
  s.created_at = r.U64();
  s.block_size = r.U32();
  s.codec = r.Str();

  const std::uint32_t deleted = r.U32();
  s.deleted_files.reserve(deleted);
  for (std::uint32_t i = 0; i < deleted; ++i) s.deleted_files.push_back(r.Str());

  const std::uint32_t file_count = r.U32();
  s.files.reserve(file_count);
  for (std::uint32_t i = 0; i < file_count; ++i) {
    FileRecord f;
    f.name = r.Str();
    f.logical_size = r.U64();
    f.whole_file = r.U8() != 0;
    const std::uint32_t block_count = r.U32();
    f.blocks.reserve(block_count);
    for (std::uint32_t j = 0; j < block_count; ++j) {
      BlockRecord b;
      b.index = r.U64();
      const std::uint8_t flags = r.U8();
      b.hole = (flags & 1) != 0;
      b.has_payload = (flags & 2) != 0;
      b.payload_compressed = (flags & 4) != 0;
      const util::Bytes digest = r.Blob();
      if (digest.size() != b.digest.bytes.size()) {
        throw StreamCorruptError("send stream bad digest size");
      }
      std::memcpy(b.digest.bytes.data(), digest.data(), digest.size());
      b.logical_size = r.U32();
      if (b.has_payload) {
        b.payload_checksum = r.U64();
        b.payload = r.Blob();
        if (PayloadChecksum(b.payload) != b.payload_checksum) {
          throw StreamMismatchError("send stream record checksum mismatch");
        }
      }
      f.blocks.push_back(std::move(b));
    }
    s.files.push_back(std::move(f));
  }
  return s;
}

std::uint64_t SendStream::WireSize() const {
  // Serialization is deterministic; size is measured, not estimated.
  return Serialize().size();
}

std::uint64_t SendStream::PayloadBytes() const {
  std::uint64_t total = 0;
  for (const FileRecord& f : files) {
    for (const BlockRecord& b : f.blocks) total += b.payload.size();
  }
  return total;
}

}  // namespace squirrel::zvol
