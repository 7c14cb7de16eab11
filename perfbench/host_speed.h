// Host-speed reference for the benchmark's host-time metrics.
//
// On a shared machine the same work runs up to 50 % slower for minutes at a
// time, while CPU time stays equal to wall time (no steal, no system time):
// the host itself slows down. The benchmark therefore runs a fixed reference
// unit of its own, interleaved with the measured ops, and scales every
// host-time metric to the speed at which that unit takes kNominalNs. The
// unit is system zlib (deflate level 6, then inflate) on a fixed 64 KiB
// block built here; no library code runs in it, so a change to the library
// moves the scaled metrics by the same share as the wall-clock ones.
#pragma once

#include <zlib.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "trace.h"

namespace squirrel::perfbench {

class HostSpeed {
 public:
  /// Reference-unit time the scaled metrics assume: a round figure between
  /// the unit's fast (2.5 ms) and slow (3.4 ms) medians on the 4-vCPU Intel
  /// Xeon (2.0 GHz) VM the bounds were measured on.
  static constexpr double kNominalNs = 3.0e6;
  /// Share of a timed stretch's wall time given to reference samples.
  static constexpr double kShare = 0.05;

  HostSpeed() {
    // Text-like bytes with some noise, so deflate does the LZ77 and Huffman
    // work it does on image blocks (about 2.5x compression).
    static const char* const kWords[] = {"the ",   "kernel ", "module ",
                                         "init ",  "systemd ", "/usr/lib/",
                                         "0x7fff ", "ELF ",    "libc.so.6 "};
    std::mt19937_64 rng(0x5eed);
    while (input_.size() < kBlockBytes) {
      if (rng() % 4 == 0) {
        input_.push_back(static_cast<Bytef>(rng()));
      } else {
        const char* word = kWords[rng() % 9];
        while (*word != '\0') input_.push_back(static_cast<Bytef>(*word++));
      }
    }
    input_.resize(kBlockBytes);
    packed_.resize(compressBound(kBlockBytes));
    unpacked_.resize(kBlockBytes);
  }

  /// Starts a timed stretch (a set-up or a measured phase): forgets the
  /// samples taken so far.
  void Start() {
    samples_ns_.clear();
    start_ns_ = NowNs();
    reference_ns_ = 0;
  }

  /// Called after each op of the stretch: takes a sample while samples
  /// have used less than kShare of the stretch's wall time, so they spread
  /// evenly over it.
  void Tick() {
    if (static_cast<double>(reference_ns_) <
        kShare * static_cast<double>(NowNs() - start_ns_)) {
      reference_ns_ += Sample();
    }
  }

  /// Wall seconds since Start(), with and without the samples.
  double WallSeconds() const {
    return static_cast<double>(NowNs() - start_ns_) / 1e9;
  }
  double WorkSeconds() const {
    return static_cast<double>(NowNs() - start_ns_ - reference_ns_) / 1e9;
  }

  /// Host slowness: the median sampled unit time over kNominalNs (1.2 means
  /// the host runs the unit 20 % slower than nominal). 1 with no samples.
  double Slowness() const {
    if (samples_ns_.empty()) return 1.0;
    std::vector<std::int64_t> sorted = samples_ns_;
    const auto mid = sorted.begin() + static_cast<std::ptrdiff_t>(sorted.size() / 2);
    std::nth_element(sorted.begin(), mid, sorted.end());
    return static_cast<double>(*mid) / kNominalNs;
  }

  std::size_t samples() const { return samples_ns_.size(); }

 private:
  static constexpr std::size_t kBlockBytes = 64 * 1024;

  /// Runs the reference unit twice and records the second run's wall time;
  /// the first brings the unit's data back into the CPU caches, so that the
  /// sample does not depend on how much cache the workload's last op used.
  /// Returns the wall time of both runs.
  std::int64_t Sample() {
    const std::int64_t start = NowNs();
    Unit();
    const std::int64_t timed_start = NowNs();
    Unit();
    const std::int64_t end = NowNs();
    samples_ns_.push_back(end - timed_start);
    return end - start;
  }

  void Unit() {
    uLongf packed_size = packed_.size();
    uLongf unpacked_size = unpacked_.size();
    if (compress2(packed_.data(), &packed_size, input_.data(), input_.size(), 6) !=
            Z_OK ||
        uncompress(unpacked_.data(), &unpacked_size, packed_.data(), packed_size) !=
            Z_OK ||
        unpacked_ != input_) {
      throw std::runtime_error("host-speed reference unit failed");
    }
  }

  std::vector<Bytef> input_, packed_, unpacked_;
  std::vector<std::int64_t> samples_ns_;
  std::int64_t start_ns_ = 0;
  std::int64_t reference_ns_ = 0;
};

}  // namespace squirrel::perfbench
