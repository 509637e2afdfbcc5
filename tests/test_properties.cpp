// Property-based (parameterized) suites: invariants that must hold for every
// process on every graph family.
//
//   P1. Opinions never leave the initial range.
//   P2. The active range [min_active, max_active] never expands.
//   P3. Consensus states are absorbing.
//   P4. Aggregate bookkeeping (counts, masses, sums) matches a full rescan.
//   P5. The total weight martingale has empirically negligible drift
//       (Lemma 3) for DIV: S(t) for the edge process, Z(t) for the vertex
//       process, on irregular graphs too.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>

#include "core/best_of_two.hpp"
#include "core/div_process.hpp"
#include "core/faulty_process.hpp"
#include "core/push_voting.hpp"
#include "core/step_size.hpp"
#include "core/load_balancing.hpp"
#include "core/median_voting.hpp"
#include "core/pull_voting.hpp"
#include "engine/initial_config.hpp"
#include "engine/montecarlo.hpp"
#include "graph/generators.hpp"
#include "graph/random_graphs.hpp"

namespace divlib {
namespace {

enum class ProcessKind {
  kDivVertex,
  kDivEdge,
  kPullVertex,
  kPullEdge,
  kPushVertex,
  kPushEdge,
  kMedian,
  kLoadBalance,
  kBestOfTwo,
  kSteppedTwo,   // clamped increment of size 2 (DIV generalization)
  kFaultyDiv,    // DIV behind 30% message loss
};

std::string process_kind_name(ProcessKind kind) {
  switch (kind) {
    case ProcessKind::kDivVertex:
      return "DivVertex";
    case ProcessKind::kDivEdge:
      return "DivEdge";
    case ProcessKind::kPullVertex:
      return "PullVertex";
    case ProcessKind::kPullEdge:
      return "PullEdge";
    case ProcessKind::kPushVertex:
      return "PushVertex";
    case ProcessKind::kPushEdge:
      return "PushEdge";
    case ProcessKind::kMedian:
      return "Median";
    case ProcessKind::kLoadBalance:
      return "LoadBalance";
    case ProcessKind::kBestOfTwo:
      return "BestOfTwo";
    case ProcessKind::kSteppedTwo:
      return "SteppedTwo";
    case ProcessKind::kFaultyDiv:
      return "FaultyDiv";
  }
  return "Unknown";
}

std::unique_ptr<Process> make_process(ProcessKind kind, const Graph& graph) {
  switch (kind) {
    case ProcessKind::kDivVertex:
      return std::make_unique<DivProcess>(graph, SelectionScheme::kVertex);
    case ProcessKind::kDivEdge:
      return std::make_unique<DivProcess>(graph, SelectionScheme::kEdge);
    case ProcessKind::kPullVertex:
      return std::make_unique<PullVoting>(graph, SelectionScheme::kVertex);
    case ProcessKind::kPullEdge:
      return std::make_unique<PullVoting>(graph, SelectionScheme::kEdge);
    case ProcessKind::kPushVertex:
      return std::make_unique<PushVoting>(graph, SelectionScheme::kVertex);
    case ProcessKind::kPushEdge:
      return std::make_unique<PushVoting>(graph, SelectionScheme::kEdge);
    case ProcessKind::kMedian:
      return std::make_unique<MedianVoting>(graph);
    case ProcessKind::kLoadBalance:
      return std::make_unique<LoadBalancing>(graph);
    case ProcessKind::kBestOfTwo:
      return std::make_unique<BestOfTwo>(graph);
    case ProcessKind::kSteppedTwo:
      return std::make_unique<SteppedIncrementalProcess>(
          graph, SelectionScheme::kEdge, 2);
    case ProcessKind::kFaultyDiv:
      return std::make_unique<FaultyProcess>(
          std::make_unique<DivProcess>(graph, SelectionScheme::kEdge), 0.3);
  }
  return nullptr;
}

enum class GraphKind {
  kComplete,
  kCycle,
  kStar,
  kBarbell,
  kHypercube,
  kRandomRegular,
  kGnp,
};

std::string graph_kind_name(GraphKind kind) {
  switch (kind) {
    case GraphKind::kComplete:
      return "Complete";
    case GraphKind::kCycle:
      return "Cycle";
    case GraphKind::kStar:
      return "Star";
    case GraphKind::kBarbell:
      return "Barbell";
    case GraphKind::kHypercube:
      return "Hypercube";
    case GraphKind::kRandomRegular:
      return "RandomRegular";
    case GraphKind::kGnp:
      return "Gnp";
  }
  return "Unknown";
}

Graph make_graph(GraphKind kind) {
  Rng rng(0xfeedULL);
  switch (kind) {
    case GraphKind::kComplete:
      return make_complete(20);
    case GraphKind::kCycle:
      return make_cycle(24);
    case GraphKind::kStar:
      return make_star(20);
    case GraphKind::kBarbell:
      return make_barbell(10);
    case GraphKind::kHypercube:
      return make_hypercube(5);
    case GraphKind::kRandomRegular:
      return make_connected_random_regular(24, 5, rng);
    case GraphKind::kGnp:
      return make_connected_gnp(24, 0.3, rng);
  }
  return Graph();
}

using ProcessGraphParam = std::tuple<ProcessKind, GraphKind>;

class ProcessInvariants : public ::testing::TestWithParam<ProcessGraphParam> {};

TEST_P(ProcessInvariants, OpinionsStayInInitialRange) {
  const auto [process_kind, graph_kind] = GetParam();
  const Graph graph = make_graph(graph_kind);
  Rng rng(1);
  OpinionState state(
      graph, uniform_random_opinions(graph.num_vertices(), 1, 6, rng));
  const auto process = make_process(process_kind, graph);
  for (int step = 0; step < 5000; ++step) {
    process->step(state, rng);
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      ASSERT_GE(state.opinion(v), 1);
      ASSERT_LE(state.opinion(v), 6);
    }
  }
}

TEST_P(ProcessInvariants, ActiveRangeNeverExpands) {
  const auto [process_kind, graph_kind] = GetParam();
  const Graph graph = make_graph(graph_kind);
  Rng rng(2);
  OpinionState state(
      graph, uniform_random_opinions(graph.num_vertices(), 1, 6, rng));
  const auto process = make_process(process_kind, graph);
  Opinion lo = state.min_active();
  Opinion hi = state.max_active();
  for (int step = 0; step < 5000; ++step) {
    process->step(state, rng);
    ASSERT_GE(state.min_active(), lo);
    ASSERT_LE(state.max_active(), hi);
    lo = state.min_active();
    hi = state.max_active();
  }
}

TEST_P(ProcessInvariants, ConsensusIsAbsorbing) {
  const auto [process_kind, graph_kind] = GetParam();
  const Graph graph = make_graph(graph_kind);
  OpinionState state(graph, std::vector<Opinion>(graph.num_vertices(), 4));
  const auto process = make_process(process_kind, graph);
  Rng rng(3);
  for (int step = 0; step < 500; ++step) {
    process->step(state, rng);
    ASSERT_TRUE(state.is_consensus());
    ASSERT_EQ(state.min_active(), 4);
  }
}

TEST_P(ProcessInvariants, AggregatesMatchFullRescan) {
  const auto [process_kind, graph_kind] = GetParam();
  const Graph graph = make_graph(graph_kind);
  Rng rng(4);
  OpinionState state(
      graph, uniform_random_opinions(graph.num_vertices(), 1, 5, rng));
  const auto process = make_process(process_kind, graph);
  for (int step = 0; step < 2000; ++step) {
    process->step(state, rng);
  }
  // Rescan everything from scratch.
  std::int64_t sum = 0;
  std::int64_t weighted = 0;
  Opinion lo = state.opinion(0);
  Opinion hi = state.opinion(0);
  std::vector<std::int64_t> counts(8, 0);
  std::vector<std::uint64_t> masses(8, 0);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    const Opinion o = state.opinion(v);
    sum += o;
    weighted += static_cast<std::int64_t>(graph.degree(v)) * o;
    lo = std::min(lo, o);
    hi = std::max(hi, o);
    ++counts[static_cast<std::size_t>(o)];
    masses[static_cast<std::size_t>(o)] += graph.degree(v);
  }
  EXPECT_EQ(state.sum(), sum);
  EXPECT_EQ(state.degree_weighted_sum(), weighted);
  EXPECT_EQ(state.min_active(), lo);
  EXPECT_EQ(state.max_active(), hi);
  int active = 0;
  for (Opinion value = 1; value <= 5; ++value) {
    EXPECT_EQ(state.count(value), counts[static_cast<std::size_t>(value)])
        << "value " << value;
    EXPECT_EQ(state.degree_mass(value), masses[static_cast<std::size_t>(value)])
        << "value " << value;
    active += counts[static_cast<std::size_t>(value)] > 0 ? 1 : 0;
  }
  EXPECT_EQ(state.num_active(), active);
}

INSTANTIATE_TEST_SUITE_P(
    AllProcessesAllGraphs, ProcessInvariants,
    ::testing::Combine(::testing::Values(ProcessKind::kDivVertex,
                                         ProcessKind::kDivEdge,
                                         ProcessKind::kPullVertex,
                                         ProcessKind::kPullEdge,
                                         ProcessKind::kPushVertex,
                                         ProcessKind::kPushEdge,
                                         ProcessKind::kMedian,
                                         ProcessKind::kLoadBalance,
                                         ProcessKind::kBestOfTwo,
                                         ProcessKind::kSteppedTwo,
                                         ProcessKind::kFaultyDiv),
                       ::testing::Values(GraphKind::kComplete, GraphKind::kCycle,
                                         GraphKind::kStar, GraphKind::kBarbell,
                                         GraphKind::kHypercube,
                                         GraphKind::kRandomRegular,
                                         GraphKind::kGnp)),
    [](const ::testing::TestParamInfo<ProcessGraphParam>& info) {
      return process_kind_name(std::get<0>(info.param)) + "_" +
             graph_kind_name(std::get<1>(info.param));
    });

// --- Lemma 3: martingale drift of the DIV total weight ---------------------

class DivMartingale : public ::testing::TestWithParam<GraphKind> {};

TEST_P(DivMartingale, EdgeProcessSumHasNoDrift) {
  const Graph graph = make_graph(GetParam());
  constexpr int kReplicas = 400;
  constexpr int kSteps = 400;
  const auto deltas = run_replicas<double>(
      kReplicas,
      [&graph](std::size_t, Rng& rng) {
        OpinionState state(
            graph, uniform_random_opinions(graph.num_vertices(), 1, 7, rng));
        const double initial = static_cast<double>(state.sum());
        DivProcess process(graph, SelectionScheme::kEdge);
        for (int step = 0; step < kSteps; ++step) {
          process.step(state, rng);
        }
        return static_cast<double>(state.sum()) - initial;
      },
      {.master_seed = 21});
  const double mean_drift =
      std::accumulate(deltas.begin(), deltas.end(), 0.0) / kReplicas;
  // Each step changes S by at most 1; over kSteps steps the per-replica
  // stddev is at most sqrt(kSteps) = 20, so the mean over 400 replicas has
  // stddev <= 1.  Allow 4 sigma.
  EXPECT_NEAR(mean_drift, 0.0, 4.0);
}

TEST_P(DivMartingale, VertexProcessZHasNoDrift) {
  const Graph graph = make_graph(GetParam());
  constexpr int kReplicas = 400;
  constexpr int kSteps = 400;
  const auto deltas = run_replicas<double>(
      kReplicas,
      [&graph](std::size_t, Rng& rng) {
        OpinionState state(
            graph, uniform_random_opinions(graph.num_vertices(), 1, 7, rng));
        const double initial = state.z_total();
        DivProcess process(graph, SelectionScheme::kVertex);
        for (int step = 0; step < kSteps; ++step) {
          process.step(state, rng);
        }
        return state.z_total() - initial;
      },
      {.master_seed = 22});
  const double mean_drift =
      std::accumulate(deltas.begin(), deltas.end(), 0.0) / kReplicas;
  // |dZ| <= n * pi_max per step; for these graphs n*pi_max <= ~10 (star).
  // stddev of the mean <= 10 * sqrt(kSteps) / sqrt(kReplicas) = 10.
  EXPECT_NEAR(mean_drift, 0.0, 40.0);
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, DivMartingale,
    ::testing::Values(GraphKind::kComplete, GraphKind::kCycle, GraphKind::kStar,
                      GraphKind::kBarbell, GraphKind::kRandomRegular),
    [](const ::testing::TestParamInfo<GraphKind>& info) {
      return graph_kind_name(info.param);
    });

// Counter-check: the *plain* sum S(t) is NOT a martingale for the vertex
// process on a sufficiently irregular graph -- the drift is visible.  This
// guards against implementing the two schemes identically.
TEST(DivMartingaleContrast, VertexProcessSumDriftsOnStar) {
  const Graph graph = make_star(20);
  constexpr int kReplicas = 600;
  constexpr int kSteps = 800;
  const auto deltas = run_replicas<double>(
      kReplicas,
      [&graph](std::size_t, Rng& rng) {
        // Center at 9, leaves at 1: leaves each pull toward 9 at rate
        // ~1/n each step while the center can only lose 1 per step.
        std::vector<Opinion> opinions(20, 1);
        opinions[0] = 9;
        OpinionState state(graph, std::move(opinions));
        const double initial = static_cast<double>(state.sum());
        DivProcess process(graph, SelectionScheme::kVertex);
        for (int step = 0; step < kSteps; ++step) {
          process.step(state, rng);
        }
        return static_cast<double>(state.sum()) - initial;
      },
      {.master_seed = 23});
  const double mean_drift =
      std::accumulate(deltas.begin(), deltas.end(), 0.0) / kReplicas;
  EXPECT_GT(mean_drift, 5.0);
}

}  // namespace
}  // namespace divlib
