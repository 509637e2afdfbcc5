// Fenwick-tree-backed dynamic discrete distribution: O(log n) weight updates
// and O(log n) sampling, where a static alias table would need a full O(n)
// rebuild per change.
//
// The jump-chain engine samples through it for the vertex scheme on an
// irregular graph, the one case whose conditional law is not uniform over
// discordant pairs: the per-vertex weights disc(v)/d(v) change on every
// effective step (a vertex move touches the weights of v and its
// neighbors), so the distribution must be mutable in place.  Weights are
// doubles; the tree stores partial sums which are updated by exact deltas
// and rebuilt from the stored weights every kRebuildInterval updates to keep
// floating-point drift bounded over billion-step runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "rng/rng.hpp"

namespace divlib {

class DynamicWeightedSampler {
 public:
  DynamicWeightedSampler() = default;

  // `size` categories, all weights zero (sample() is invalid until some
  // weight becomes positive).
  explicit DynamicWeightedSampler(std::size_t size);

  // Initial weights; each must be finite and >= 0.
  explicit DynamicWeightedSampler(std::span<const double> weights);

  std::size_t size() const { return weights_.size(); }
  bool empty() const { return weights_.empty(); }

  double weight(std::size_t index) const;
  // Sum of all weights (tree root; exact up to bounded fp drift).
  double total_weight() const { return total_; }

  // Replaces the weight of `index`.  Throws std::out_of_range on a bad index
  // and std::invalid_argument on a negative or non-finite weight.
  void set_weight(std::size_t index, double value);

  // Samples an index with probability weight(index)/total_weight().
  // Zero-weight categories are never returned.  Throws std::logic_error when
  // total_weight() == 0 (nothing to sample).
  std::size_t sample(Rng& rng) const;

  // Recomputes the partial-sum tree from the stored weights.  Called
  // automatically every kRebuildInterval updates; exposed for tests.
  void rebuild();

  static constexpr std::uint64_t kRebuildInterval = 1u << 22;

 private:
  std::size_t find_prefix(double target) const;

  std::vector<double> weights_;  // exact current weights, the source of truth
  std::vector<double> tree_;     // 1-based Fenwick partial sums
  double total_ = 0.0;
  std::size_t descent_mask_ = 0;  // largest power of two <= size()
  std::uint64_t updates_since_rebuild_ = 0;
};

}  // namespace divlib
