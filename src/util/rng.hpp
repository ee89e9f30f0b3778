// Deterministic, seedable random number generation.  Every stochastic
// element of an experiment (message loss, delay jitter, workload phases)
// draws from an Rng that is seeded from the experiment config, so runs are
// reproducible bit-for-bit.
//
// The generator is xoshiro256** (public domain, Blackman & Vigna), seeded
// via SplitMix64 as its authors recommend.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "util/assert.hpp"

namespace rtpb {

/// SplitMix64: used for seeding and as a cheap stateless mixer.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Seed-splitting: the seed of sub-stream `stream` of a root seed.
///
/// Unlike Rng::fork(), derivation is stateless — stream k of a given root
/// is always the same generator no matter how many other streams exist or
/// in what order they are drawn.  Consumers that each own a numbered
/// stream therefore stay decoupled: adding or removing one (say, disabling
/// crash injection in a chaos schedule) cannot shift the draws any other
/// stream sees.
[[nodiscard]] constexpr std::uint64_t derive_stream_seed(std::uint64_t root,
                                                         std::uint64_t stream) {
  std::uint64_t s = root ^ (0xa0761d6478bd642fULL * (stream + 1));
  std::uint64_t mixed = splitmix64(s);
  // A second round keeps nearby (root, stream) pairs far apart.
  return splitmix64(mixed);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  /// Uniform over all 64-bit values.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Fill `out` with uniform bytes, one next_u64() per 8 bytes.  Each word
  /// is stored little-endian by shifts, so the bytes do not depend on the
  /// host; a partial last word uses its low-order bytes.
  void fill(std::span<std::uint8_t> out) {
    std::size_t i = 0;
    for (; i + 8 <= out.size(); i += 8) {
      const std::uint64_t x = next_u64();
      // Unrolled, the eight byte stores merge into one word store.
#pragma GCC unroll 8
      for (std::size_t k = 0; k < 8; ++k) out[i + k] = static_cast<std::uint8_t>(x >> (8 * k));
    }
    if (i < out.size()) {
      for (std::uint64_t x = next_u64(); i < out.size(); ++i, x >>= 8) {
        out[i] = static_cast<std::uint8_t>(x);
      }
    }
  }

  /// Uniform in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    RTPB_EXPECTS(lo <= hi);
    const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
    if (range == 0) return static_cast<std::int64_t>(next_u64());  // full range
    // Debiased modulo (Lemire-style rejection).
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * range;
    auto low = static_cast<std::uint64_t>(m);
    if (low < range) {
      const std::uint64_t threshold = (0 - range) % range;
      while (low < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * range;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return lo + static_cast<std::int64_t>(m >> 64);
  }

  /// Uniform real in [lo, hi).
  double uniform_real(double lo, double hi) {
    RTPB_EXPECTS(lo <= hi);
    return lo + (hi - lo) * next_double();
  }

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// Derive an independent child generator (for per-component streams).
  Rng fork() { return Rng{next_u64()}; }

  /// Stateless fork: derive sub-stream `stream` without consuming any
  /// randomness from this generator (see derive_stream_seed).  Two
  /// generators in identical states split identically.
  [[nodiscard]] Rng split(std::uint64_t stream) const {
    return Rng{derive_stream_seed(state_[0] ^ (state_[2] + 0x9e3779b97f4a7c15ULL), stream)};
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace rtpb
