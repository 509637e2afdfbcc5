// Deterministic pseudo-random number generation for simulations.
//
// The library deliberately avoids std::mt19937 / std::uniform_int_distribution
// because their outputs are not guaranteed to be identical across standard
// library implementations; reproducible Monte-Carlo experiments need
// bit-identical streams everywhere.  We implement xoshiro256** (Blackman &
// Vigna, 2018) seeded via splitmix64, together with the handful of
// distributions the voting processes need.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace divlib {

// splitmix64: used to expand a single 64-bit seed into generator state and to
// derive independent substream seeds (one per Monte-Carlo replica).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next();

 private:
  std::uint64_t state_;
};

// xoshiro256**: fast, high-quality 256-bit-state generator.
// Satisfies the C++ UniformRandomBitGenerator concept.
class Rng {
 public:
  using result_type = std::uint64_t;

  // Seeds the full 256-bit state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next(); }

  // next() and uniform_below() are the innermost operations of every engine
  // (two draws per scheduled step); they live in the header so the batch
  // engine's lane sweeps can inline and pipeline them across lanes instead
  // of serializing on an opaque call per draw.
  std::uint64_t next() {
    const std::uint64_t result = rotl_(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl_(state_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound), bound >= 1.  Unbiased (Lemire's nearly
  // divisionless rejection).
  std::uint64_t uniform_below(std::uint64_t bound) {
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) [[unlikely]] {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  // Uniform integer in [lo, hi] inclusive, lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  // Uniform double in [0, 1) with 53 bits of randomness.
  double uniform01();

  // Uniform double in [lo, hi).
  double uniform_real(double lo, double hi);

  // True with probability p (p clamped to [0,1]).
  bool bernoulli(double p);

  // Number of failures before the first success of independent Bernoulli(p)
  // trials (support {0, 1, 2, ...}).  One uniform draw via inversion:
  // floor(log(1-u)/log(1-p)).  p >= 1 returns 0 without a draw; p <= 0 or
  // NaN throws std::invalid_argument.  Results are capped at 2^62 so callers
  // comparing against a step budget never see overflow.  A caller drawing
  // repeatedly with a p that rarely changes should hold a GeometricSkip.
  std::uint64_t geometric(double p);

  // Standard normal via Marsaglia polar method.
  double normal();

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_below(i));
      std::swap(items[i - 1], items[j]);
    }
  }

  template <typename T>
  void shuffle(std::vector<T>& items) {
    shuffle(std::span<T>(items));
  }

  // Derives the seed of the `index`-th independent substream of `master`.
  // Deterministic and collision-resistant for practical replica counts.
  static std::uint64_t substream_seed(std::uint64_t master, std::uint64_t index);

  // Seed of the `attempt`-th retry of a Monte-Carlo replica.  Attempt 0 is
  // exactly substream_seed(master, replica), so retry-aware drivers are
  // bit-compatible with the plain driver when nothing fails; attempt > 0
  // yields fresh, reproducible streams keyed by (master, replica, attempt).
  static std::uint64_t retry_seed(std::uint64_t master, std::uint64_t replica,
                                  std::uint64_t attempt);

  // Exact stream position (the batch engine's block replay): state() captures
  // the four xoshiro256** words and set_state() resumes the stream
  // bit-identically from them.  The Marsaglia-polar cache for normal() is
  // deliberately NOT part of the captured state -- set_state() drops it, so
  // a restored generator may replay at most one normal() deviate
  // differently; the voting processes draw only uniform variates.
  std::array<std::uint64_t, 4> state() const { return state_; }
  // Throws std::invalid_argument on the all-zero state (invalid for
  // xoshiro256**).
  void set_state(const std::array<std::uint64_t, 4>& words);

 private:
  static constexpr std::uint64_t rotl_(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_;
  // Cached second normal deviate from the polar method.
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

// Rng::geometric(p) for a caller whose p often repeats from one draw to the
// next (the jump engines' active probability, which most moves leave
// unchanged): log1p(-p) is computed once per distinct p and reused.  Draw for
// draw identical to Rng::geometric(p), which is implemented on it.
class GeometricSkip {
 public:
  std::uint64_t draw(Rng& rng, double p);

 private:
  double p_ = 0.0;  // p of the cached log; 0 = none yet (a draw needs p > 0)
  double log1m_p_ = 0.0;  // log1p(-p_)
};

}  // namespace divlib
