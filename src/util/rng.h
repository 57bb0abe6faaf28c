// rng.h — deterministic, seedable random number generation.
//
// Every randomized component in minrej (the randomized rounding of §3 of the
// paper, workload generators, Monte-Carlo sweeps) draws from minrej::Rng so
// that every experiment is reproducible from a single 64-bit seed.  The
// engine is xoshiro256** (Blackman & Vigna), seeded via splitmix64; both are
// implemented here rather than taken from <random> because the standard
// distributions are not bit-reproducible across standard libraries, and
// cross-toolchain reproducibility is part of the bench contract.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/check.h"

namespace minrej {

/// splitmix64 step: used for seeding and as a cheap stateless mixer.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** PRNG with explicit, reproducible distributions.
///
/// Satisfies UniformRandomBitGenerator, so it can also feed <random> if a
/// caller insists, but all minrej code uses the member distributions below.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from one 64-bit seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x853C49E6748FEA9BULL) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64 random bits.
  result_type operator()() noexcept {
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

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [lo, hi] (inclusive).  Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform index in [0, n).  Requires n > 0.  Debiased via rejection.
  std::size_t index(std::size_t n);

  /// Bernoulli trial; p is clamped to [0, 1].
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Exponential variate with the given rate (> 0).
  double exponential(double rate);

  /// Geometric-ish "power-law" cost in [lo, hi]: lo * (hi/lo)^U.  Used by the
  /// weighted workload generators to spread request costs across the whole
  /// [1, g] range the paper's normalization argument is about.
  double log_uniform(double lo, double hi);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    if (v.size() < 2) return;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      std::size_t j = index(i + 1);
      using std::swap;
      swap(v[i], v[j]);
    }
  }

  /// Sample k distinct indices from [0, n) (k <= n), in random order;
  /// O(k) time and memory, independent of n.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

  /// The raw 256-bit generator state, for snapshot/restore (io/snapshot.h):
  /// restoring a saved state resumes the exact output stream, which is what
  /// makes restored randomized algorithms bit-identical to uninterrupted
  /// runs (DESIGN.md §9).
  std::array<std::uint64_t, 4> state() const noexcept { return state_; }
  void set_state(const std::array<std::uint64_t, 4>& s) noexcept {
    state_ = s;
  }

  /// Derive an independent child generator (for per-trial parallel streams).
  Rng split() noexcept {
    // Mix all four state words into a fresh seed; advancing *this keeps
    // successive splits independent.
    std::uint64_t s = (*this)() ^ rotl(state_[2], 13);
    return Rng(s);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace minrej
