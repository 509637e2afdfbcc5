#include "core/opinion_plane.hpp"

#include <algorithm>

namespace divlib {

OpinionPlane::OpinionPlane(const Graph& graph, unsigned lanes)
    : graph_(&graph), n_(graph.num_vertices()) {
  if (lanes == 0) {
    throw std::invalid_argument("OpinionPlane: need at least one lane");
  }
  if (n_ == 0) {
    throw std::invalid_argument("OpinionPlane: empty graph");
  }
  values8_.assign(static_cast<std::size_t>(lanes) * n_, 0);
  lanes_.resize(lanes);
}

void OpinionPlane::promote_to_wide_() {
  values32_.assign(values8_.size(), 0);
  for (unsigned lane = 0; lane < num_lanes(); ++lane) {
    const Opinion lo = lanes_[lane].range_lo;
    const std::size_t off = static_cast<std::size_t>(lane) * n_;
    for (VertexId v = 0; v < n_; ++v) {
      values32_[off + v] =
          lo + static_cast<Opinion>(values8_[off + v]);
    }
  }
  values8_.clear();
  values8_.shrink_to_fit();
  wide_ = true;
}

void OpinionPlane::assign_lane(unsigned lane,
                               std::span<const Opinion> opinions) {
  if (lane >= lanes_.size()) {
    throw std::out_of_range("OpinionPlane::assign_lane: lane out of range");
  }
  if (opinions.size() != n_) {
    throw std::invalid_argument(
        "OpinionPlane::assign_lane: opinion vector size != n");
  }
  Lane& state = lanes_[lane];
  const auto [lo_it, hi_it] =
      std::minmax_element(opinions.begin(), opinions.end());
  state.range_lo = *lo_it;
  state.range_hi = *hi_it;
  const std::size_t width =
      static_cast<std::size_t>(state.range_hi - state.range_lo) + 1;
  // A range wider than a byte can express forces the whole plane to
  // full-width cells (a one-way, lanes-global transition).
  if (width > 256 && !wide_) {
    promote_to_wide_();
  }
  state.counts.assign(width, 0);
  state.degree_masses.assign(width, 0);
  state.sum = 0;
  state.degree_weighted_sum = 0;
  const std::size_t off = static_cast<std::size_t>(lane) * n_;
  for (VertexId v = 0; v < n_; ++v) {
    const Opinion value = opinions[v];
    if (wide_) {
      values32_[off + v] = value;
    } else {
      values8_[off + v] =
          static_cast<std::uint8_t>(value - state.range_lo);
    }
    const auto idx = static_cast<std::size_t>(value - state.range_lo);
    ++state.counts[idx];
    state.degree_masses[idx] += graph_->degree(v);
    state.sum += value;
    state.degree_weighted_sum +=
        static_cast<std::int64_t>(graph_->degree(v)) * value;
  }
  state.min_active = state.range_lo;
  state.max_active = state.range_hi;
  state.num_active = 0;
  for (const std::int64_t c : state.counts) {
    if (c > 0) {
      ++state.num_active;
    }
  }
  state.assigned = true;
  state.derived_fresh = true;
}

std::vector<Opinion> OpinionPlane::lane_opinions(unsigned lane) const {
  std::vector<Opinion> out(n_);
  const std::size_t off = static_cast<std::size_t>(lane) * n_;
  if (wide_) {
    std::copy_n(values32_.begin() + static_cast<std::ptrdiff_t>(off), n_,
                out.begin());
  } else {
    const Opinion lo = lanes_[lane].range_lo;
    for (VertexId v = 0; v < n_; ++v) {
      out[v] = lo + static_cast<Opinion>(values8_[off + v]);
    }
  }
  return out;
}

void OpinionPlane::refresh_derived_(unsigned lane) const {
  Lane& state = lanes_[lane];
  if (state.derived_fresh) {
    return;
  }
  state.num_active = 0;
  state.sum = 0;
  for (std::size_t idx = 0; idx < state.counts.size(); ++idx) {
    const std::int64_t c = state.counts[idx];
    if (c > 0) {
      ++state.num_active;
    }
    state.sum += c * (state.range_lo + static_cast<Opinion>(idx));
  }
  std::fill(state.degree_masses.begin(), state.degree_masses.end(), 0);
  state.degree_weighted_sum = 0;
  const std::size_t off = static_cast<std::size_t>(lane) * n_;
  for (VertexId v = 0; v < n_; ++v) {
    const auto deg = static_cast<std::uint64_t>(graph_->degree(v));
    const Opinion value =
        wide_ ? values32_[off + v]
              : static_cast<Opinion>(state.range_lo +
                                     static_cast<Opinion>(values8_[off + v]));
    state.degree_masses[static_cast<std::size_t>(value - state.range_lo)] +=
        deg;
    state.degree_weighted_sum +=
        static_cast<std::int64_t>(deg) * static_cast<std::int64_t>(value);
  }
  state.derived_fresh = true;
}

std::int64_t OpinionPlane::count(unsigned lane, Opinion value) const {
  const Lane& state = lanes_[lane];
  if (value < state.range_lo || value > state.range_hi) {
    return 0;
  }
  return state.counts[static_cast<std::size_t>(value - state.range_lo)];
}

std::uint64_t OpinionPlane::degree_mass(unsigned lane, Opinion value) const {
  refresh_derived_(lane);
  const Lane& state = lanes_[lane];
  if (value < state.range_lo || value > state.range_hi) {
    return 0;
  }
  return state.degree_masses[static_cast<std::size_t>(value - state.range_lo)];
}

double OpinionPlane::z_total(unsigned lane) const {
  refresh_derived_(lane);
  return static_cast<double>(n_) *
         (static_cast<double>(lanes_[lane].degree_weighted_sum) /
          static_cast<double>(graph_->total_degree()));
}

}  // namespace divlib
