#include "vmi/boot_profile.h"

#include <algorithm>
#include <unordered_set>

#include "util/hash.h"
#include "util/wire.h"

namespace squirrel::vmi {
namespace {

constexpr std::uint32_t kMagic = 0x50425153;  // "SQBP"
constexpr std::uint32_t kVersion = 1;
/// Encoded touch record: u32 file + u64 block + u8 flags.
constexpr std::size_t kRecordBytes = 4 + 8 + 1;

}  // namespace

void BootProfile::Record(const std::string& file, std::uint64_t block,
                         bool hit) {
  touches_.push_back(ProfileTouch{InternFile(file), block, hit});
}

std::uint32_t BootProfile::InternFile(const std::string& file) {
  const auto [it, inserted] =
      file_ids_.emplace(file, static_cast<std::uint32_t>(files_.size()));
  if (inserted) files_.push_back(file);
  return it->second;
}

std::vector<std::uint64_t> BootProfile::BlocksForFile(const std::string& file,
                                                      bool misses_only) const {
  std::vector<std::uint64_t> blocks;
  const auto it = file_ids_.find(file);
  if (it == file_ids_.end()) return blocks;
  std::unordered_set<std::uint64_t> seen;
  for (const ProfileTouch& touch : touches_) {
    if (touch.file != it->second) continue;
    if (misses_only && touch.page_cache_hit) continue;
    if (seen.insert(touch.block).second) blocks.push_back(touch.block);
  }
  return blocks;
}

util::Bytes BootProfile::Serialize() const {
  util::wire::Writer w;
  w.U32(kMagic);
  w.U32(kVersion);
  w.U32(static_cast<std::uint32_t>(files_.size()));
  for (const std::string& file : files_) w.Str(file);
  w.U64(touches_.size());
  for (const ProfileTouch& touch : touches_) {
    const std::size_t record_start = w.size();
    w.U32(touch.file);
    w.U64(touch.block);
    w.U8(touch.page_cache_hit ? 1 : 0);
    // Per-record checksum over the encoded record (SendStream v2 discipline):
    // a bit flip inside one touch is caught without re-reading the trailer.
    w.U64(util::Fnv1a64(w.Tail(record_start)));
  }
  return w.TakeWithTrailer();
}

BootProfile BootProfile::Deserialize(util::ByteSpan wire) {
  const util::ByteSpan body = util::wire::VerifyTrailer<ProfileCorruptError>(
      wire, "boot profile shorter than its trailer",
      "boot profile trailer mismatch");
  util::wire::Reader<ProfileCorruptError> r(body, "boot profile truncated");
  if (r.U32() != kMagic) throw ProfileCorruptError("boot profile bad magic");
  const std::uint32_t version = r.U32();
  if (version != kVersion) {
    throw ProfileCorruptError("boot profile unsupported version " +
                              std::to_string(version));
  }
  BootProfile profile;
  const std::uint32_t file_count = r.U32();
  for (std::uint32_t i = 0; i < file_count; ++i) {
    const std::string name = r.Str();
    if (profile.file_ids_.contains(name)) {
      throw ProfileCorruptError("boot profile duplicate file name");
    }
    profile.InternFile(name);
  }
  const std::uint64_t touch_count = r.U64();
  profile.touches_.reserve(
      std::min<std::uint64_t>(touch_count, body.size() / kRecordBytes));
  for (std::uint64_t i = 0; i < touch_count; ++i) {
    const std::size_t record_start = r.pos();
    ProfileTouch touch;
    touch.file = r.U32();
    touch.block = r.U64();
    const std::uint8_t flags = r.U8();
    if (flags > 1) throw ProfileCorruptError("boot profile bad touch flags");
    touch.page_cache_hit = flags != 0;
    const std::uint64_t checksum = r.U64();
    if (checksum != util::Fnv1a64(r.Span(record_start, kRecordBytes))) {
      throw ProfileCorruptError("boot profile record checksum mismatch");
    }
    if (touch.file >= file_count) {
      throw ProfileCorruptError("boot profile file index out of range");
    }
    profile.touches_.push_back(touch);
  }
  return profile;
}

}  // namespace squirrel::vmi
