#include "core/discordance_tracker.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/div_process.hpp"
#include "engine/initial_config.hpp"
#include "graph/generators.hpp"
#include "graph/random_graphs.hpp"

namespace divlib {
namespace {

// Brute-force P(one scheduled step selects a discordant pair).
double brute_force_active_probability(const OpinionState& state,
                                      SelectionScheme scheme) {
  const Graph& graph = state.graph();
  double probability = 0.0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    for (const VertexId w : graph.neighbors(v)) {
      if (state.opinion(v) == state.opinion(w)) {
        continue;
      }
      if (scheme == SelectionScheme::kVertex) {
        probability += 1.0 / (static_cast<double>(graph.num_vertices()) *
                              graph.degree(v));
      } else {
        probability += 1.0 / static_cast<double>(graph.total_degree());
      }
    }
  }
  return probability;
}

TEST(DiscordanceTracker, InitialCountsMatchBruteForce) {
  Rng rng(1);
  const Graph graph = make_connected_random_regular(40, 6, rng);
  OpinionState state(graph, uniform_random_opinions(40, 1, 4, rng));
  const DiscordanceTracker tracker(state, SelectionScheme::kEdge);
  const auto fresh = tracker.recomputed_counts();
  std::uint64_t total = 0;
  for (VertexId v = 0; v < 40; ++v) {
    EXPECT_EQ(tracker.discordance(v), fresh[v]) << "vertex " << v;
    total += fresh[v];
  }
  EXPECT_EQ(tracker.total_discordant_pairs(), total);
}

// Both representations, both schemes: the vertex scheme runs on the
// discordant-edge array on the regular graph and on the Fenwick sampler on
// the irregular one.
TEST(DiscordanceTracker, CountsStayExactThroughRandomMoves) {
  Rng rng(2);
  const Graph regular = make_connected_random_regular(32, 4, rng);
  const Graph irregular = make_complete_bipartite(5, 9);
  for (const Graph* graph : {&regular, &irregular}) {
    for (const SelectionScheme scheme :
         {SelectionScheme::kVertex, SelectionScheme::kEdge}) {
      const VertexId n = graph->num_vertices();
      OpinionState state(*graph, uniform_random_opinions(n, 1, 5, rng));
      DiscordanceTracker tracker(state, scheme);
      EXPECT_EQ(tracker.scheme(), scheme);
      EXPECT_EQ(tracker.uniform_pairs(),
                scheme == SelectionScheme::kEdge || graph == &regular);
      for (int step = 0; step < 5000; ++step) {
        const SelectedPair pair = select_pair(*graph, scheme, rng);
        const Opinion own = state.opinion(pair.updater);
        state.set(pair.updater, DivProcess::updated_opinion(
                                    own, state.opinion(pair.observed)));
        tracker.apply_move(pair.updater, own);
      }
      const auto fresh = tracker.recomputed_counts();
      std::uint64_t total = 0;
      for (VertexId v = 0; v < n; ++v) {
        ASSERT_EQ(tracker.discordance(v), fresh[v])
            << to_string(scheme) << " n=" << n << " vertex " << v;
        total += fresh[v];
      }
      EXPECT_EQ(tracker.total_discordant_pairs(), total)
          << to_string(scheme) << " n=" << n;
      EXPECT_NEAR(tracker.active_probability(),
                  brute_force_active_probability(state, scheme), 1e-12)
          << to_string(scheme) << " n=" << n;
    }
  }
}

// On a d-regular graph 1/(n d(v)) = 1/2m, so the vertex scheme's tracker
// runs on the edge scheme's representation: from equal seeds the two draw
// the same pairs and report the same activity, move for move.
TEST(DiscordanceTracker, RegularVertexSchemeMatchesEdgeScheme) {
  Rng graph_rng(7);
  const Graph cycle = make_cycle(64);
  const Graph regular = make_connected_random_regular(512, 4, graph_rng);
  for (const Graph* graph : {&cycle, &regular}) {
    Rng init_rng(8);
    const std::vector<Opinion> start =
        uniform_random_opinions(graph->num_vertices(), 1, 6, init_rng);
    OpinionState vertex_state(*graph, start);
    OpinionState edge_state(*graph, start);
    DiscordanceTracker vertex(vertex_state, SelectionScheme::kVertex);
    DiscordanceTracker edge(edge_state, SelectionScheme::kEdge);
    EXPECT_EQ(vertex.scheme(), SelectionScheme::kVertex);
    EXPECT_TRUE(vertex.uniform_pairs());
    Rng vertex_rng(9);
    Rng edge_rng(9);
    int moves = 0;
    for (; moves < 1000 && !vertex.frozen(); ++moves) {
      ASSERT_EQ(vertex.active_probability(), edge.active_probability())
          << "move " << moves;
      ASSERT_EQ(vertex.total_discordant_pairs(),
                edge.total_discordant_pairs());
      const SelectedPair a = vertex.sample_discordant_pair(vertex_rng);
      const SelectedPair b = edge.sample_discordant_pair(edge_rng);
      ASSERT_EQ(a.updater, b.updater) << "move " << moves;
      ASSERT_EQ(a.observed, b.observed) << "move " << moves;
      const Opinion own = vertex_state.opinion(a.updater);
      const Opinion next =
          DivProcess::updated_opinion(own, vertex_state.opinion(a.observed));
      vertex_state.set(a.updater, next);
      edge_state.set(a.updater, next);
      vertex.apply_move(a.updater, own);
      edge.apply_move(a.updater, own);
    }
    EXPECT_EQ(moves, 1000);
    EXPECT_EQ(vertex_rng.next(), edge_rng.next());
  }
}

TEST(DiscordanceTracker, ActiveProbabilityMatchesBruteForceBothSchemes) {
  Rng rng(3);
  // Irregular graph so the two schemes genuinely differ.
  const Graph graph = make_complete_bipartite(5, 9);
  OpinionState state(
      graph, uniform_random_opinions(graph.num_vertices(), 0, 2, rng));
  for (const SelectionScheme scheme :
       {SelectionScheme::kVertex, SelectionScheme::kEdge}) {
    const DiscordanceTracker tracker(state, scheme);
    EXPECT_NEAR(tracker.active_probability(),
                brute_force_active_probability(state, scheme), 1e-12);
  }
}

TEST(DiscordanceTracker, SampledPairsAreAlwaysDiscordant) {
  Rng rng(4);
  const Graph graph = make_connected_random_regular(24, 4, rng);
  OpinionState state(graph, uniform_random_opinions(24, 1, 3, rng));
  const DiscordanceTracker tracker(state, SelectionScheme::kEdge);
  for (int i = 0; i < 5000; ++i) {
    const SelectedPair pair = tracker.sample_discordant_pair(rng);
    ASSERT_TRUE(graph.has_edge(pair.updater, pair.observed));
    ASSERT_NE(state.opinion(pair.updater), state.opinion(pair.observed));
  }
}

TEST(DiscordanceTracker, UpdaterMarginalMatchesConditionalLaw) {
  // On a fixed small state, the sampled updater must follow
  // P(v) proportional to disc(v)/d(v) (vertex) or disc(v) (edge).
  Rng rng(5);
  const Graph graph = make_complete_bipartite(3, 5);
  OpinionState state(
      graph, uniform_random_opinions(graph.num_vertices(), 0, 1, rng));
  for (const SelectionScheme scheme :
       {SelectionScheme::kVertex, SelectionScheme::kEdge}) {
    const DiscordanceTracker tracker(state, scheme);
    std::vector<double> expected(graph.num_vertices(), 0.0);
    double norm = 0.0;
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      expected[v] = scheme == SelectionScheme::kVertex
                        ? static_cast<double>(tracker.discordance(v)) /
                              graph.degree(v)
                        : static_cast<double>(tracker.discordance(v));
      norm += expected[v];
    }
    constexpr int kSamples = 100000;
    std::vector<int> counts(graph.num_vertices(), 0);
    for (int i = 0; i < kSamples; ++i) {
      ++counts[tracker.sample_discordant_pair(rng).updater];
    }
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      EXPECT_NEAR(static_cast<double>(counts[v]) / kSamples,
                  expected[v] / norm, 0.01)
          << to_string(scheme) << " vertex " << v;
    }
  }
}

TEST(DiscordanceTracker, ConsensusIsFrozenAndUnsampleable) {
  const Graph graph = make_cycle(6);
  OpinionState state(graph, std::vector<Opinion>(6, 2));
  DiscordanceTracker tracker(state, SelectionScheme::kEdge);
  EXPECT_TRUE(tracker.frozen());
  EXPECT_DOUBLE_EQ(tracker.active_probability(), 0.0);
  Rng rng(6);
  EXPECT_THROW(tracker.sample_discordant_pair(rng), std::logic_error);
}

TEST(DiscordanceTracker, RejectsGraphsTheSchemeCannotRun) {
  const Graph isolated(2, {});
  OpinionState state(isolated, {0, 1});
  EXPECT_THROW(DiscordanceTracker(state, SelectionScheme::kEdge),
               std::invalid_argument);
}

}  // namespace
}  // namespace divlib
