// Model-based randomized testing of zvol::Volume: a long random operation
// sequence runs against both the volume and a trivial in-memory reference
// model; after every step the observable state must match and the internal
// accounting invariants must hold.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "buffer_source.h"
#include "store/space_map.h"
#include "store_invariants.h"
#include "util/fault_injector.h"
#include "util/rng.h"
#include "vmi/boot_profile.h"
#include "zvol/volume.h"

namespace squirrel::zvol {
namespace {

using util::Bytes;

using test::BufferSource;

/// Reference model: plain byte buffers for live files, copies for snapshots.
struct Model {
  std::map<std::string, Bytes> files;
  std::map<std::string, std::map<std::string, Bytes>> snapshots;  // name->state
};

/// Counts expected block references (live + snapshots) for the invariant
/// check: total_refs in the store must equal the number of non-hole block
/// pointers across all tables.
std::uint64_t CountNonHoleRefs(const Volume& volume) {
  std::uint64_t refs = 0;
  auto count = [&](const FileTable& table) {
    for (const auto& [name, meta] : table) {
      for (const BlockPtr& ptr : meta.blocks) refs += !ptr.hole;
    }
  };
  // Live table is not directly exposed; reconstruct from FileNames+blocks.
  for (const std::string& name : volume.FileNames()) {
    const std::uint64_t blocks = volume.FileBlockCount(name);
    for (std::uint64_t b = 0; b < blocks; ++b) {
      refs += !volume.FileBlock(name, b).hole;
    }
  }
  for (const auto& snap : volume.snapshots()) count(snap->files);
  return refs;
}

class VolumeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VolumeFuzz, MatchesReferenceModel) {
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed);
  const std::uint32_t block_size = 1u << rng.Between(10, 13);  // 1-8 KiB
  Volume volume(VolumeConfig{.block_size = block_size,
                             .codec = rng.Chance(0.5) ? compress::CodecId::kGzip1
                                      : compress::CodecId::kNull,
                             .dedup = true,
                             .fast_hash = rng.Chance(0.5)});
  Model model;
  std::uint64_t now = 0;
  int snapshot_counter = 0;

  static const char* kNames[] = {"a", "b", "c", "d"};

  for (int step = 0; step < 300; ++step) {
    const std::uint64_t op = rng.Below(100);
    const std::string name = kNames[rng.Below(4)];

    if (op < 30) {
      // Whole-file write: random size, content with zero stretches and
      // duplicate-prone bytes.
      const std::uint64_t size = rng.Below(12 * block_size) + 1;
      Bytes content(size, 0);
      for (std::uint64_t i = 0; i < size; i += block_size) {
        const std::uint64_t len = std::min<std::uint64_t>(block_size, size - i);
        switch (rng.Below(3)) {
          case 0:
            break;  // zero block
          case 1: {  // low-entropy block (dedup-prone)
            const util::Byte fill = static_cast<util::Byte>(rng.Below(4) + 1);
            std::fill_n(content.begin() + static_cast<std::ptrdiff_t>(i), len, fill);
            break;
          }
          default:
            rng.Fill(util::MutableByteSpan(content.data() + i, len));
        }
      }
      volume.WriteFile(name, BufferSource(content));
      model.files[name] = std::move(content);
    } else if (op < 55) {
      // Range write into an existing file.
      if (!model.files.contains(name)) continue;
      Bytes& ref = model.files[name];
      const std::uint64_t offset = rng.Below(ref.size() + block_size);
      const std::uint64_t len = rng.Below(3 * block_size) + 1;
      Bytes patch(len);
      if (rng.Chance(0.3)) {
        // all zeros — may punch holes
      } else {
        rng.Fill(patch);
      }
      volume.WriteRange(name, offset, patch);
      if (offset + len > ref.size()) ref.resize(offset + len, 0);
      std::copy(patch.begin(), patch.end(),
                ref.begin() + static_cast<std::ptrdiff_t>(offset));
    } else if (op < 65) {
      if (!model.files.contains(name)) continue;
      volume.DeleteFile(name);
      model.files.erase(name);
    } else if (op < 80) {
      const std::string snap_name = "snap" + std::to_string(snapshot_counter++);
      volume.CreateSnapshot(snap_name, now += 10);
      model.snapshots[snap_name] = model.files;
    } else if (op < 90) {
      if (model.snapshots.empty()) continue;
      // Destroy a random held snapshot.
      auto it = model.snapshots.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(
                           rng.Below(model.snapshots.size())));
      volume.DestroySnapshot(it->first);
      model.snapshots.erase(it);
    } else {
      // Random read comparison.
      if (!model.files.contains(name)) continue;
      const Bytes& ref = model.files[name];
      const std::uint64_t offset = rng.Below(ref.size());
      const std::uint64_t len =
          std::min<std::uint64_t>(ref.size() - offset, rng.Below(4096) + 1);
      const Bytes got = volume.ReadRange(name, offset, len);
      ASSERT_TRUE(std::equal(got.begin(), got.end(),
                             ref.begin() + static_cast<std::ptrdiff_t>(offset)))
          << "step " << step;
    }

    // Invariants after every mutation.
    ASSERT_EQ(volume.FileNames().size(), model.files.size()) << "step " << step;
    ASSERT_EQ(volume.snapshots().size(), model.snapshots.size());
    ASSERT_EQ(volume.block_store().stats().total_refs, CountNonHoleRefs(volume))
        << "refcount conservation violated at step " << step;
  }

  // Final deep comparison: every live file byte-identical to the model.
  for (const auto& [name, ref] : model.files) {
    ASSERT_EQ(volume.FileSize(name), ref.size()) << name;
    EXPECT_EQ(volume.ReadRange(name, 0, ref.size()), ref) << name;
  }
  // Snapshots equal their recorded states.
  for (const auto& [snap_name, state] : model.snapshots) {
    const Snapshot* snap = volume.FindSnapshot(snap_name);
    ASSERT_NE(snap, nullptr) << snap_name;
    ASSERT_EQ(snap->files.size(), state.size());
  }
  // A scrub at the end finds no corruption.
  const auto scrub = volume.Scrub();
  EXPECT_EQ(scrub.errors, 0u);
  EXPECT_EQ(scrub.dangling_refs, 0u);
  // Deleting everything returns the store to empty.
  std::vector<std::string> names = volume.FileNames();
  for (const std::string& name : names) volume.DeleteFile(name);
  while (!volume.snapshots().empty()) {
    volume.DestroySnapshot(volume.snapshots().front()->name);
  }
  EXPECT_EQ(volume.Stats().unique_blocks, 0u);
  EXPECT_EQ(volume.block_store().space_map_stats().allocated_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VolumeFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- corruption fuzz ---------------------------------------------------------
// Damaged serialized artifacts (volume images, send streams) must always
// surface as a typed squirrel::Error — never a crash, hang, or silent
// success. Both integrity layers are exercised: bit flips (caught by the
// SHA-256 trailer or the per-record checksums) and truncation (caught by
// bounds-checked parsing).

/// A donor volume with mixed content: dedup-prone, random, and hole blocks,
/// plus a snapshot so both table sections are populated.
std::unique_ptr<Volume> MakeDonor(std::uint64_t seed) {
  auto volume = std::make_unique<Volume>(VolumeConfig{
      .block_size = 1024, .codec = compress::CodecId::kGzip1, .dedup = true});
  util::Rng rng(seed);
  for (const char* name : {"a", "b"}) {
    Bytes content(rng.Between(4, 16) * 1024);
    for (std::size_t i = 0; i < content.size(); i += 1024) {
      switch (rng.Below(3)) {
        case 0:
          break;  // hole
        case 1:
          std::fill_n(content.begin() + static_cast<std::ptrdiff_t>(i), 1024,
                      static_cast<util::Byte>(rng.Below(4) + 1));
          break;
        default:
          rng.Fill(util::MutableByteSpan(content.data() + i, 1024));
      }
    }
    volume->WriteFile(name, BufferSource(content));
  }
  volume->CreateSnapshot("s1", 10);
  return volume;
}

class CorruptionFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CorruptionFuzz, DamagedVolumeImagesRaiseTypedErrors) {
  const std::uint64_t seed = GetParam();
  const Bytes image = MakeDonor(seed)->Serialize();
  util::Rng rng(seed);
  util::FaultInjector faults(seed, util::FaultProfile{.image_corrupt_rate = 1.0});
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    Bytes damaged = image;
    if (rng.Chance(0.5)) {
      ASSERT_TRUE(faults.CorruptImage(damaged, trial));
    } else {
      faults.Truncate(damaged, trial);
    }
    try {
      Volume::Deserialize(damaged);
      FAIL() << "damaged image accepted at trial " << trial;
    } catch (const Error&) {
      // Typed rejection — the only acceptable outcome.
    } catch (const std::exception& e) {
      FAIL() << "untyped exception at trial " << trial << ": " << e.what();
    }
  }
}

TEST_P(CorruptionFuzz, DamagedSendStreamsRaiseTypedErrors) {
  const std::uint64_t seed = GetParam();
  const std::unique_ptr<Volume> donor = MakeDonor(seed);
  const Bytes wire = donor->Send("", "s1").Serialize();
  util::Rng rng(seed + 1);
  util::FaultInjector faults(seed, util::FaultProfile{.stream_corrupt_rate = 1.0});
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    Bytes damaged = wire;
    if (rng.Chance(0.5)) {
      ASSERT_TRUE(faults.CorruptStream(damaged, trial));
    } else {
      faults.Truncate(damaged, trial);
    }
    Volume replica(donor->config());
    try {
      replica.Receive(SendStream::Deserialize(damaged));
      FAIL() << "damaged stream accepted at trial " << trial;
    } catch (const Error&) {
      // Typed rejection; the replica must stay untouched.
      EXPECT_TRUE(replica.FileNames().empty());
      EXPECT_EQ(replica.Stats().unique_blocks, 0u);
    } catch (const std::exception& e) {
      FAIL() << "untyped exception at trial " << trial << ": " << e.what();
    }
  }
}

TEST_P(CorruptionFuzz, DamagedBootProfilesRaiseTypedErrors) {
  // Boot profiles follow the same wire discipline as send streams
  // (per-record checksums + whole-buffer trailer); damaged bytes must
  // surface as vmi::ProfileCorruptError, never a crash or silent success.
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed + 2);
  vmi::BootProfile donor;
  static const char* kFiles[] = {"cache/a", "cache/b", "base/a"};
  for (int i = 0; i < 60; ++i) {
    donor.Record(kFiles[rng.Below(3)], rng.Below(1 << 20), rng.Chance(0.5));
  }
  const Bytes wire = donor.Serialize();
  ASSERT_EQ(vmi::BootProfile::Deserialize(wire), donor);

  util::FaultInjector faults(seed,
                             util::FaultProfile{.image_corrupt_rate = 1.0});
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    Bytes damaged = wire;
    if (rng.Chance(0.5)) {
      ASSERT_TRUE(faults.CorruptImage(damaged, trial));
    } else {
      faults.Truncate(damaged, trial);
    }
    try {
      vmi::BootProfile::Deserialize(damaged);
      FAIL() << "damaged profile accepted at trial " << trial;
    } catch (const vmi::ProfileCorruptError&) {
      // Typed rejection — the only acceptable outcome.
    } catch (const std::exception& e) {
      FAIL() << "untyped exception at trial " << trial << ": " << e.what();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionFuzz, ::testing::Values(101, 202, 303));

// --- crash + disk-full interleaving fuzz -------------------------------------
// A replica ingests a random chain of snapshot streams while a seeded
// injector crashes it mid-apply and (on odd seeds) a tight capacity limit
// refuses allocations. Every unwind must leave the accounting invariants
// intact, and if the chain eventually lands in full the replica must be
// byte-identical to one that never saw a fault (DESIGN.md §15).

class VolumeFuzzFaults : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VolumeFuzzFaults, CrashAndDiskFullInterleavingsUnwindCleanly) {
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed * 977 + 5);
  const VolumeConfig donor_config{
      .block_size = 1024, .codec = compress::CodecId::kGzip1, .dedup = true};
  Volume donor(donor_config);
  static const char* kFiles[] = {"a", "b", "c"};
  std::set<std::string> live;

  // A chain of five snapshots with random edits (rewrites, range writes,
  // deletions) between them.
  std::vector<std::string> snaps;
  for (int s = 0; s < 5; ++s) {
    for (int edit = 0; edit < 3; ++edit) {
      const std::string name = kFiles[rng.Below(3)];
      const std::uint64_t op = rng.Below(3);
      if (op == 1 && live.contains(name)) {
        Bytes patch(1024);
        rng.Fill(patch);
        donor.WriteRange(name, rng.Below(4) * 1024, patch);
      } else if (op == 2 && live.contains(name)) {
        donor.DeleteFile(name);
        live.erase(name);
      } else {
        Bytes content(rng.Between(2, 10) * 1024);
        for (std::size_t i = 0; i < content.size(); i += 1024) {
          if (rng.Chance(0.3)) continue;  // hole
          rng.Fill(util::MutableByteSpan(content.data() + i, 1024));
        }
        donor.WriteFile(name, BufferSource(content));
        live.insert(name);
      }
    }
    const std::string snap = "s" + std::to_string(s + 1);
    donor.CreateSnapshot(snap, 10 * (s + 1));
    snaps.push_back(snap);
  }

  VolumeConfig replica_config = donor_config;
  replica_config.capacity_bytes = (seed % 2 == 1) ? 16 * 1024 : 8ull << 20;
  Volume replica(replica_config);
  util::FaultInjector faults(seed, util::FaultProfile{.crash_rate = 0.1});
  replica.SetFaultInjector(&faults);

  bool out_of_space = false;
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < snaps.size() && !out_of_space; ++i) {
    const SendStream stream =
        donor.Send(i == 0 ? "" : snaps[i - 1], snaps[i]);
    bool applied = false;
    for (int attempt = 0; attempt < 200 && !applied && !out_of_space;
         ++attempt) {
      try {
        replica.Receive(stream);
        applied = true;
      } catch (const util::CrashError& e) {
        // Re-delivery after a simulated death: rolled back or committed,
        // never torn.
        test::ExpectVolumeInvariants(replica, "after crash at " + e.site());
      } catch (const store::NoSpaceError&) {
        test::ExpectVolumeInvariants(replica, "after disk-full unwind");
        out_of_space = true;
      }
    }
    ASSERT_TRUE(applied || out_of_space) << "stream " << i << " never landed";
    delivered += applied;
  }

  test::ExpectVolumeInvariants(replica, "final");
  const auto scrub = replica.Scrub();
  EXPECT_EQ(scrub.errors, 0u);
  EXPECT_EQ(scrub.dangling_refs, 0u);
  // Every seed exercises at least one fault path: crash unwinds on ample
  // pools, a refused allocation (which aborts the chain early, before many
  // crash sites are even interrogated) on tight ones.
  if (!out_of_space) {
    EXPECT_GT(faults.stats().crashes_injected, 0u);
  }
  if (delivered == snaps.size()) {
    // Full chain landed despite the faults: bit-identical to a clean apply.
    Volume reference(donor_config);
    for (std::size_t i = 0; i < snaps.size(); ++i) {
      reference.Receive(donor.Send(i == 0 ? "" : snaps[i - 1], snaps[i]));
    }
    EXPECT_EQ(replica.Serialize(), reference.Serialize());
  } else {
    EXPECT_TRUE(out_of_space);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VolumeFuzzFaults,
                         ::testing::Values(7, 11, 42, 64));

}  // namespace
}  // namespace squirrel::zvol
