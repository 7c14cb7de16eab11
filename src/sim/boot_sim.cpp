#include "sim/boot_sim.h"

#include <algorithm>
#include <memory>

#include "sim/profile_prefetch.h"
#include "util/rng.h"

namespace squirrel::sim {

BootResult SimulateBoot(cow::Chain& chain,
                        const std::vector<vmi::BootRead>& trace,
                        IoContext& io, const BootSimConfig& config,
                        const std::vector<vmi::BootRead>* writes,
                        ProfilePrefetcher* prefetcher) {
  BootResult result;
  const double start_ns = io.elapsed_ns();
  const std::uint64_t hits0 = io.page_cache().hits();
  const std::uint64_t misses0 = io.page_cache().misses();
  const std::uint64_t base0 = chain.base_bytes_read();
  const std::uint64_t cache0 = chain.cache_bytes_read();

  const auto read_length = [&](const vmi::BootRead& read) {
    return std::min<std::uint64_t>(read.length, chain.size() - read.offset);
  };
  // One guest buffer for every read, sized once for the largest and never
  // zero-filled: ReadInto overwrites every byte it serves.
  std::uint64_t largest = 0;
  for (const vmi::BootRead& read : trace) {
    largest = std::max(largest, read_length(read));
  }
  const auto guest = std::make_unique_for_overwrite<util::Byte[]>(largest);
  for (const vmi::BootRead& read : trace) {
    const std::uint64_t len = read_length(read);
    if (len == 0) continue;
    // Keep profile-guided background reads ahead of the cursor; the demand
    // read below joins any that cover it.
    if (prefetcher != nullptr) prefetcher->Pump();
    chain.ReadInto(read.offset, util::MutableByteSpan(guest.get(), len));
    io.ChargeNs(config.guest_ns_per_byte * static_cast<double>(len));
    result.bytes_read += len;
  }

  if (writes != nullptr) {
    const auto fits = [&](const vmi::BootRead& write) {
      return write.offset + write.length <= chain.size();
    };
    // Log content: the bytes are irrelevant, the size is not. One payload
    // per thread, filled from one seed and refilled only to grow, gives
    // each write its prefix. Rng::Fill is prefix-stable, so every boot
    // writes the bytes a fill of its own would.
    std::uint64_t largest_write = 0;
    for (const vmi::BootRead& write : *writes) {
      if (fits(write)) {
        largest_write = std::max<std::uint64_t>(largest_write, write.length);
      }
    }
    thread_local util::Bytes payload;
    if (payload.size() < largest_write) {
      payload.resize(largest_write);
      util::Rng(0xb007).Fill(payload);
    }
    for (const vmi::BootRead& write : *writes) {
      if (!fits(write)) continue;
      chain.Write(write.offset, util::ByteSpan(payload.data(), write.length));
      // Writes are absorbed by the overlay and flushed in the background;
      // charge only the guest-side CPU.
      io.ChargeNs(config.guest_ns_per_byte * static_cast<double>(write.length));
      result.bytes_written += write.length;
    }
  }

  result.io_seconds =
      (io.elapsed_ns() - start_ns) / 1e9 * config.io_time_multiplier;
  result.seconds = config.os_cpu_seconds + result.io_seconds;
  result.base_bytes_read = chain.base_bytes_read() - base0;
  result.cache_bytes_read = chain.cache_bytes_read() - cache0;
  result.page_cache_hits = io.page_cache().hits() - hits0;
  result.page_cache_misses = io.page_cache().misses() - misses0;
  return result;
}

}  // namespace squirrel::sim
