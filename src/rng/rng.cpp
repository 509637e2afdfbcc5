#include "rng/rng.hpp"

#include <cmath>
#include <stdexcept>

namespace divlib {

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : state_) {
    word = sm.next();
  }
  // All-zero state is the only invalid state for xoshiro; splitmix64 cannot
  // produce four consecutive zeros from any seed, but be defensive anyway.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 0x9e3779b97f4a7c15ULL;
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  const auto span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  // span == 0 means the full 64-bit range [INT64_MIN, INT64_MAX].
  if (span == 0) {
    return static_cast<std::int64_t>(next());
  }
  return lo + static_cast<std::int64_t>(uniform_below(span));
}

double Rng::uniform01() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform_real(double lo, double hi) {
  return lo + (hi - lo) * uniform01();
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

std::uint64_t Rng::geometric(double p) {
  return GeometricSkip().draw(*this, p);
}

std::uint64_t GeometricSkip::draw(Rng& rng, double p) {
  if (!(p > 0.0)) {
    throw std::invalid_argument("Rng::geometric: p must be > 0");
  }
  if (p >= 1.0) {
    return 0;
  }
  if (p != p_) {
    p_ = p;
    log1m_p_ = std::log1p(-p);
  }
  constexpr std::uint64_t kCap = 1ULL << 62;
  // uniform01() < 1, so log1p(-u) is finite and <= 0; log1p(-p) < 0.
  const double value = std::floor(std::log1p(-rng.uniform01()) / log1m_p_);
  if (!(value < static_cast<double>(kCap))) {
    return kCap;
  }
  return static_cast<std::uint64_t>(value);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = uniform_real(-1.0, 1.0);
    v = uniform_real(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  has_cached_normal_ = true;
  return u * factor;
}

void Rng::set_state(const std::array<std::uint64_t, 4>& words) {
  if (words[0] == 0 && words[1] == 0 && words[2] == 0 && words[3] == 0) {
    throw std::invalid_argument(
        "Rng::set_state: the all-zero state is invalid for xoshiro256**");
  }
  state_ = words;
  has_cached_normal_ = false;
  cached_normal_ = 0.0;
}

std::uint64_t Rng::substream_seed(std::uint64_t master, std::uint64_t index) {
  // Mix the pair (master, index) through two rounds of splitmix64 so that
  // nearby indices yield uncorrelated seeds.
  SplitMix64 sm(master ^ (0x632be59bd9b4e019ULL * (index + 1)));
  sm.next();
  return sm.next();
}

std::uint64_t Rng::retry_seed(std::uint64_t master, std::uint64_t replica,
                              std::uint64_t attempt) {
  const std::uint64_t base = substream_seed(master, replica);
  if (attempt == 0) {
    return base;
  }
  return substream_seed(base ^ 0x9e3779b97f4a7c15ULL, attempt);
}

}  // namespace divlib
