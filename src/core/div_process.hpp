// Discrete incremental voting (DIV) -- the paper's contribution.
//
// At each step a pair (v, w) is selected (vertex or edge scheme) and v moves
// one unit toward w's opinion, eq. (1):
//
//   X_v < X_w  =>  X_v' = X_v + 1
//   X_v = X_w  =>  X_v' = X_v
//   X_v > X_w  =>  X_v' = X_v - 1
//
// On expanders the process converges w.h.p. to the rounded initial average
// (Theorem 2): the plain average for the edge process / regular graphs, the
// degree-weighted average for the vertex process.
#pragma once

#include "core/process.hpp"
#include "core/selection.hpp"

namespace divlib {

class DivProcess final : public Process {
 public:
  DivProcess(const Graph& graph, SelectionScheme scheme);

  void step(OpinionState& state, Rng& rng) override;
  std::string name() const override;

  const Graph& graph() const { return *graph_; }
  SelectionScheme scheme() const { return scheme_; }

  // The single-interaction update rule, exposed for direct testing.
  static Opinion updated_opinion(Opinion own, Opinion observed);

 private:
  const Graph* graph_;
  SelectionScheme scheme_;
};

}  // namespace divlib
