// Profile-guided prefetch: replays a recorded vmi::BootProfile ahead of the
// guest's read cursor.
//
// Device readahead (PR 4) is volume-local and strictly sequential — it only
// prefetches the blocks following the current read within one file. A boot,
// though, touches a stable list of blocks across files in a stable order,
// so a profile recorded from the first boot can pre-issue exactly that list:
//
//   pump      before every guest read, the prefetcher issues background
//             reads (IoContext::PrefetchDiskRead through the AsyncDiskQueue)
//             for the next miss-annotated profile touches, keeping at most
//             kLeadBlocks of them outstanding; prefetches never advance
//             the guest clock and are dropped when the queue is saturated;
//   consume   the guest's demand read finds the block in flight and joins
//             its completion (the existing InFlight/JoinInFlight barrier in
//             the devices) — disk service overlaps guest CPU;
//   warm      the profile's touched blocks are additionally pushed through
//             BlockStore::GetBatch before the boot (see
//             VolumeFileDevice::WarmCacheFromBlocks), so the decompressed-
//             block ARC serves them without decompression CPU.
//
// The prefetcher is strictly additive: with no prefetcher every path is
// bit-identical to a boot without a profile.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/io_context.h"
#include "vmi/boot_profile.h"

namespace squirrel::sim {

/// Outcome of one background prefetch attempt on a device.
enum class PrefetchOutcome {
  kIssued,   // submitted to the queue (or already on the wire)
  kSkipped,  // nothing to do: resident, a hole, or past EOF
  kDropped,  // queue full — the device is saturated, retry later
};

/// A device the prefetcher can issue background block reads on. Implemented
/// by LocalFileDevice and VolumeFileDevice; `device_id()` must be the id the
/// device keys its own page-cache and in-flight entries with, so the guest's
/// demand read joins the prefetched request.
class PrefetchTarget {
 public:
  virtual ~PrefetchTarget() = default;
  virtual PrefetchOutcome PrefetchBlock(std::uint64_t block) = 0;
  virtual std::uint64_t device_id() const = 0;
};

/// Maximum profile blocks kept in flight ahead of the guest's cursor.
/// Bounded so the prefetcher shares the disk queue with demand reads instead
/// of monopolizing it.
inline constexpr std::size_t kLeadBlocks = 32;

struct ProfilePrefetchStats {
  std::uint64_t issued = 0;           // background reads submitted
  std::uint64_t skipped_resident = 0; // plan entries already satisfied
  std::uint64_t skipped_unbound = 0;  // touches of files with no bound device
  std::uint64_t dropped = 0;          // submissions refused (queue full)
};

class ProfilePrefetcher {
 public:
  /// `profile` and `io` are borrowed and must outlive the prefetcher. With a
  /// null io Pump() is a no-op.
  ProfilePrefetcher(const vmi::BootProfile* profile, IoContext* io);

  /// Binds a profile file name to the device that serves it in this boot.
  /// Touches of unbound files are skipped (counted in the stats).
  void Bind(const std::string& file, PrefetchTarget* target);

  /// Issues prefetches for upcoming miss-annotated touches until
  /// kLeadBlocks are outstanding or the plan is exhausted. Never advances
  /// the guest clock; call before each demand read.
  void Pump();

  const ProfilePrefetchStats& stats() const { return stats_; }

 private:
  struct PlannedBlock {
    PrefetchTarget* target;
    std::uint64_t block;
  };

  void BuildPlan();

  const vmi::BootProfile* profile_;
  IoContext* io_;
  std::unordered_map<std::string, PrefetchTarget*> bindings_;
  bool built_ = false;
  std::vector<PlannedBlock> plan_;
  std::size_t cursor_ = 0;
  /// (device, block) keys issued and not yet observed consumed.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> outstanding_;
  ProfilePrefetchStats stats_;
};

}  // namespace squirrel::sim
