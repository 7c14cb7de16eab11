#include "util/rng.h"

#include <bit>
#include <cmath>
#include <cstring>

namespace squirrel::util {
namespace {

std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// One xoshiro256** draw, advancing `s`.
inline std::uint64_t Xoshiro256(std::uint64_t (&s)[4]) {
  const std::uint64_t result = std::rotl(s[1] * 5, 7) * 9;
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = std::rotl(s[3], 45);
  return result;
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& lane : state_) lane = SplitMix64(sm);
}

std::uint64_t Rng::Next() { return Xoshiro256(state_); }

std::uint64_t Rng::Below(std::uint64_t bound) {
  if (bound == 0) return 0;
  // Rejection sampling to avoid modulo bias; at most a couple of retries.
  const std::uint64_t limit = bound * (UINT64_MAX / bound);
  std::uint64_t value = Next();
  while (value >= limit) value = Next();
  return value % bound;
}

std::uint64_t Rng::Between(std::uint64_t lo, std::uint64_t hi) {
  return lo + Below(hi - lo + 1);
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::Chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

Rng Rng::Fork(std::uint64_t salt) {
  // Mix the salt through splitmix so forks with adjacent salts diverge.
  std::uint64_t sm = Next() ^ (salt * 0x9e3779b97f4a7c15ULL);
  return Rng(SplitMix64(sm));
}

void Rng::Fill(MutableByteSpan out) {
  // Draw from a local copy of the state: a byte store through `out` may
  // alias `state_`, which would make every draw reload and store it.
  std::uint64_t s[4];
  std::memcpy(s, state_, sizeof s);
  std::size_t i = 0;
  if constexpr (std::endian::native == std::endian::little) {
    for (; i + 8 <= out.size(); i += 8) {
      const std::uint64_t value = Xoshiro256(s);
      std::memcpy(out.data() + i, &value, 8);
    }
  }
  // The tail, and every draw on a big-endian host: low byte first.
  for (; i < out.size(); i += 8) {
    const std::uint64_t value = Xoshiro256(s);
    for (std::size_t b = 0; b < 8 && i + b < out.size(); ++b) {
      out[i + b] = static_cast<Byte>(value >> (8 * b));
    }
  }
  std::memcpy(state_, s, sizeof s);
}

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  cdf_.reserve(n);
  double total = 0.0;
  for (std::size_t rank = 1; rank <= n; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  // Binary search for the first cdf entry >= u.
  std::size_t lo = 0, hi = cdf_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace squirrel::util
