#include "engine/batch_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "core/div_process.hpp"
#include "core/opinion_plane.hpp"
#include "engine/engine.hpp"
#include "engine/initial_config.hpp"
#include "engine/supervisor.hpp"
#include "graph/generators.hpp"
#include "graph/random_graphs.hpp"
#include "stats/chi_square.hpp"
#include "virtual_div.hpp"

namespace divlib {
namespace {

// Two-sample chi-square homogeneity test over winner categories (the
// test_jump_engine harness).
double two_sample_chi_square_p(const std::vector<std::uint64_t>& a,
                               const std::vector<std::uint64_t>& b) {
  double total_a = 0.0;
  double total_b = 0.0;
  for (const auto count : a) total_a += static_cast<double>(count);
  for (const auto count : b) total_b += static_cast<double>(count);
  const double total = total_a + total_b;
  double statistic = 0.0;
  int used = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double column = static_cast<double>(a[i] + b[i]);
    if (column == 0.0) {
      continue;
    }
    ++used;
    const double expected_a = column * total_a / total;
    const double expected_b = column * total_b / total;
    statistic += (a[i] - expected_a) * (a[i] - expected_a) / expected_a;
    statistic += (b[i] - expected_b) * (b[i] - expected_b) / expected_b;
  }
  return chi_square_survival(statistic, used - 1);
}

// Two-sample Kolmogorov-Smirnov statistic D = sup |F_a - F_b|.
double two_sample_ks_statistic(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  double d = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] <= b[j]) {
      ++i;
    } else {
      ++j;
    }
    d = std::max(d, std::abs(static_cast<double>(i) / a.size() -
                             static_cast<double>(j) / b.size()));
  }
  return d;
}

// Runs `replicas` replicas through `engine` in lock-step groups of 16
// lanes, replica r seeded Rng(retry_seed(master, r, 0)) and started from
// uniform_random_opinions(n, lo, hi) drawn on that stream.
template <typename Result, typename Engine>
std::vector<Result> run_in_groups(const Graph& graph, std::size_t replicas,
                                  std::uint64_t master, Opinion lo, Opinion hi,
                                  Engine&& engine) {
  constexpr std::size_t kGroup = 16;
  std::vector<Result> results;
  for (std::size_t first = 0; first < replicas; first += kGroup) {
    const auto width =
        static_cast<unsigned>(std::min(kGroup, replicas - first));
    OpinionPlane plane(graph, width);
    std::vector<Rng> rngs;
    rngs.reserve(width);
    for (unsigned lane = 0; lane < width; ++lane) {
      rngs.emplace_back(Rng::retry_seed(master, first + lane, 0));
      plane.assign_lane(lane, uniform_random_opinions(graph.num_vertices(), lo,
                                                      hi, rngs[lane]));
    }
    for (Result& result : engine(plane, rngs)) {
      results.push_back(std::move(result));
    }
  }
  return results;
}

void expect_same_result(const RunResult& scalar, const RunResult& lane,
                        const std::string& where) {
  EXPECT_EQ(scalar.status, lane.status) << where;
  EXPECT_EQ(scalar.completed, lane.completed) << where;
  EXPECT_EQ(scalar.steps, lane.steps) << where;
  EXPECT_EQ(scalar.min_active, lane.min_active) << where;
  EXPECT_EQ(scalar.max_active, lane.max_active) << where;
  EXPECT_EQ(scalar.num_active, lane.num_active) << where;
  EXPECT_EQ(scalar.final_sum, lane.final_sum) << where;
  EXPECT_DOUBLE_EQ(scalar.final_z, lane.final_z) << where;
  EXPECT_EQ(scalar.winner, lane.winner) << where;
}

// The core contract: lane L of run_batch, seeded like the scalar isolated
// driver's attempt 0, is BIT-identical to run()'s virtual loop (VirtualDiv)
// on its own OpinionState -- same result fields, same final opinion vector,
// and the rng streams line up draw for draw (checked by comparing the next
// raw output after the run).
TEST(BatchEngine, LanesBitIdenticalToScalarRun) {
  Rng graph_rng(0x6a7c);
  const Graph graph = make_connected_random_regular(48, 4, graph_rng);
  constexpr unsigned kLanes = 8;
  constexpr std::uint64_t kMaster = 0xabcd;
  RunOptions options;

  for (const SelectionScheme scheme :
       {SelectionScheme::kVertex, SelectionScheme::kEdge}) {
    // Scalar reference replicas.
    VirtualDiv process(graph, scheme);
    std::vector<RunResult> scalar(kLanes);
    std::vector<std::vector<Opinion>> scalar_final(kLanes);
    std::vector<std::uint64_t> scalar_next(kLanes);
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      Rng rng(Rng::retry_seed(kMaster, lane, 0));
      OpinionState state(
          graph, uniform_random_opinions(graph.num_vertices(), 1, 4, rng));
      scalar[lane] = run(process, state, rng, options);
      scalar_final[lane].assign(state.opinions().begin(),
                                state.opinions().end());
      scalar_next[lane] = rng.next();
    }

    // The same replicas as lanes of one plane.
    OpinionPlane plane(graph, kLanes);
    std::vector<Rng> rngs;
    rngs.reserve(kLanes);
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      rngs.emplace_back(Rng::retry_seed(kMaster, lane, 0));
      plane.assign_lane(
          lane, uniform_random_opinions(graph.num_vertices(), 1, 4,
                                        rngs[lane]));
    }
    const std::vector<RunResult> batch =
        run_batch(graph, scheme, plane, rngs, options);

    ASSERT_EQ(batch.size(), kLanes);
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      const std::string where =
          std::string(to_string(scheme)) + " lane " + std::to_string(lane);
      expect_same_result(scalar[lane], batch[lane], where);
      const auto lane_view = plane.lane_opinions(lane);
      ASSERT_EQ(lane_view.size(), scalar_final[lane].size()) << where;
      EXPECT_TRUE(std::equal(lane_view.begin(), lane_view.end(),
                             scalar_final[lane].begin()))
          << where;
      // Stream alignment: the lane consumed exactly the scalar draws.
      EXPECT_EQ(rngs[lane].next(), scalar_next[lane]) << where;
    }
  }
}

// Opinion ranges wider than a byte force the plane onto full-width cells
// (promote_to_wide_).  The promotion is exercised both ways: a plane whose
// first assignment is already wide, and a plane where narrow lanes are
// assigned first and a later wide lane re-encodes them in place.  Either
// way the lanes must stay bit-identical to scalar runs.
TEST(BatchEngine, WideRangeLanesMatchScalarRun) {
  Rng graph_rng(0x77de);
  const Graph graph = make_connected_random_regular(40, 4, graph_rng);
  constexpr unsigned kLanes = 6;
  constexpr std::uint64_t kMaster = 0x51de;
  RunOptions options;
  // Lanes alternate between a narrow range (fits a byte) and a wide one
  // (width 300 > 256); the first wide assignment triggers the promotion.
  const auto range_hi = [](unsigned lane) -> Opinion {
    return (lane % 2 == 0) ? 4 : 300;
  };

  for (const SelectionScheme scheme :
       {SelectionScheme::kVertex, SelectionScheme::kEdge}) {
    VirtualDiv process(graph, scheme);
    std::vector<RunResult> scalar(kLanes);
    std::vector<std::vector<Opinion>> scalar_final(kLanes);
    std::vector<std::uint64_t> scalar_next(kLanes);
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      Rng rng(Rng::retry_seed(kMaster, lane, 0));
      OpinionState state(graph,
                         uniform_random_opinions(graph.num_vertices(), 1,
                                                 range_hi(lane), rng));
      scalar[lane] = run(process, state, rng, options);
      scalar_final[lane].assign(state.opinions().begin(),
                                state.opinions().end());
      scalar_next[lane] = rng.next();
    }

    OpinionPlane plane(graph, kLanes);
    EXPECT_EQ(plane.cell_bytes(), 1u);
    std::vector<Rng> rngs;
    rngs.reserve(kLanes);
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      rngs.emplace_back(Rng::retry_seed(kMaster, lane, 0));
      plane.assign_lane(lane,
                        uniform_random_opinions(graph.num_vertices(), 1,
                                                range_hi(lane), rngs[lane]));
    }
    // The first wide lane (lane 1) promoted the whole plane.
    EXPECT_EQ(plane.cell_bytes(), sizeof(Opinion));
    const std::vector<RunResult> batch =
        run_batch(graph, scheme, plane, rngs, options);

    ASSERT_EQ(batch.size(), kLanes);
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      const std::string where = std::string(to_string(scheme)) +
                                " wide lane " + std::to_string(lane);
      expect_same_result(scalar[lane], batch[lane], where);
      const auto lane_view = plane.lane_opinions(lane);
      ASSERT_EQ(lane_view.size(), scalar_final[lane].size()) << where;
      EXPECT_TRUE(std::equal(lane_view.begin(), lane_view.end(),
                             scalar_final[lane].begin()))
          << where;
      EXPECT_EQ(rngs[lane].next(), scalar_next[lane]) << where;
    }
  }
}

TEST(BatchEngine, StepCapMatchesScalarPerLane) {
  Rng graph_rng(0x9b1);
  const Graph graph = make_connected_random_regular(32, 4, graph_rng);
  constexpr unsigned kLanes = 4;
  RunOptions options;
  options.max_steps = 17;

  VirtualDiv process(graph, SelectionScheme::kEdge);
  OpinionPlane plane(graph, kLanes);
  std::vector<Rng> rngs;
  std::vector<RunResult> scalar(kLanes);
  for (unsigned lane = 0; lane < kLanes; ++lane) {
    Rng rng(Rng::retry_seed(0x5eed, lane, 0));
    OpinionState state(
        graph, uniform_random_opinions(graph.num_vertices(), 1, 9, rng));
    scalar[lane] = run(process, state, rng, options);

    rngs.emplace_back(Rng::retry_seed(0x5eed, lane, 0));
    plane.assign_lane(lane, uniform_random_opinions(graph.num_vertices(), 1,
                                                    9, rngs[lane]));
  }
  const std::vector<RunResult> batch =
      run_batch(graph, SelectionScheme::kEdge, plane, rngs, options);
  for (unsigned lane = 0; lane < kLanes; ++lane) {
    EXPECT_EQ(batch[lane].status, RunStatus::kCapped);
    expect_same_result(scalar[lane], batch[lane],
                       "capped lane " + std::to_string(lane));
  }
}

TEST(BatchEngine, RejectsTracingAndMismatchedRngs) {
  const Graph graph = make_cycle(6);
  OpinionPlane plane(graph, 2);
  std::vector<Rng> rngs;
  for (unsigned lane = 0; lane < 2; ++lane) {
    rngs.emplace_back(Rng::retry_seed(7, lane, 0));
    plane.assign_lane(lane, uniform_random_opinions(6, 1, 3, rngs[lane]));
  }
  RunOptions traced;
  traced.trace_stride = 1;
  EXPECT_THROW(
      run_batch(graph, SelectionScheme::kEdge, plane, rngs, traced),
      std::invalid_argument);

  std::vector<Rng> short_rngs;
  short_rngs.emplace_back(1);
  EXPECT_THROW(
      run_batch(graph, SelectionScheme::kEdge, plane, short_rngs,
                RunOptions{}),
      std::invalid_argument);
}

// A fired per-lane token drains exactly that lane; its groupmates run to
// consensus untouched, and the drained lane's state is a valid step-boundary
// configuration (aggregates match a recount).
TEST(BatchEngine, PerLaneCancelDrainsOnlyThatLane) {
  Rng graph_rng(0x77);
  const Graph graph = make_connected_random_regular(32, 4, graph_rng);
  constexpr unsigned kLanes = 3;
  OpinionPlane plane(graph, kLanes);
  std::vector<Rng> rngs;
  for (unsigned lane = 0; lane < kLanes; ++lane) {
    rngs.emplace_back(Rng::retry_seed(0xc0de, lane, 0));
    plane.assign_lane(lane, uniform_random_opinions(graph.num_vertices(), 1,
                                                    5, rngs[lane]));
  }
  CancelToken mid_token;
  mid_token.request(CancelReason::kUser);
  const CancelToken* cancels[kLanes] = {nullptr, &mid_token, nullptr};
  const std::vector<RunResult> results = run_batch(
      graph, SelectionScheme::kEdge, plane, rngs, RunOptions{}, cancels);

  EXPECT_EQ(results[0].status, RunStatus::kCompleted);
  EXPECT_EQ(results[2].status, RunStatus::kCompleted);
  EXPECT_EQ(results[1].status, RunStatus::kCancelled);
  EXPECT_EQ(results[1].steps, 0u);  // pre-fired: drained before any step
  // Lane 1's aggregates still describe its (initial) configuration.
  std::int64_t sum = 0;
  for (const Opinion x : plane.lane_opinions(1)) sum += x;
  EXPECT_EQ(sum, results[1].final_sum);
}

TEST(BatchEngine, WinnerDistributionMatchesScalarEngine) {
  Rng graph_rng(0x23a);
  const Graph graph = make_connected_random_regular(32, 4, graph_rng);
  constexpr int kReplicas = 400;
  constexpr Opinion kLo = 1;
  constexpr Opinion kHi = 3;
  for (const SelectionScheme scheme :
       {SelectionScheme::kVertex, SelectionScheme::kEdge}) {
    // Scalar reference sample on one seed family.
    VirtualDiv process(graph, scheme);
    std::vector<std::uint64_t> scalar_winners(kHi - kLo + 1, 0);
    std::vector<double> scalar_steps;
    for (int replica = 0; replica < kReplicas; ++replica) {
      Rng rng(Rng::substream_seed(0xbeef, static_cast<std::uint64_t>(replica)));
      OpinionState state(
          graph,
          uniform_random_opinions(graph.num_vertices(), kLo, kHi, rng));
      const RunResult result = run(process, state, rng, RunOptions{});
      ASSERT_EQ(result.status, RunStatus::kCompleted);
      ++scalar_winners[static_cast<std::size_t>(*result.winner - kLo)];
      scalar_steps.push_back(static_cast<double>(result.steps));
    }

    // Batched sample on an independent seed family.
    const std::vector<RunResult> batch = run_in_groups<RunResult>(
        graph, kReplicas, 0xcafe, kLo, kHi,
        [&](OpinionPlane& plane, std::vector<Rng>& rngs) {
          return run_batch(graph, scheme, plane, rngs, RunOptions{});
        });
    std::vector<std::uint64_t> batch_winners(kHi - kLo + 1, 0);
    std::vector<double> batch_steps;
    for (const RunResult& result : batch) {
      ASSERT_EQ(result.status, RunStatus::kCompleted);
      ++batch_winners[static_cast<std::size_t>(*result.winner - kLo)];
      batch_steps.push_back(static_cast<double>(result.steps));
    }

    const double chi_p =
        two_sample_chi_square_p(scalar_winners, batch_winners);
    EXPECT_GT(chi_p, 1e-3) << "winner distributions diverge, scheme "
                           << to_string(scheme);
    const double d = two_sample_ks_statistic(scalar_steps, batch_steps);
    const double critical =
        1.95 * std::sqrt(2.0 / static_cast<double>(kReplicas));
    EXPECT_LT(d, critical) << "completion-time ECDFs diverge, scheme "
                           << to_string(scheme);
  }
}

// Every field a lane result carries, as one comparable string.
std::string result_payload(const RunResult& result,
                           std::uint64_t effective_steps) {
  return std::string(to_string(result.status)) + " " +
         std::to_string(result.steps) + " " +
         std::to_string(effective_steps) + " " +
         (result.winner ? std::to_string(*result.winner) : "-") + " " +
         std::to_string(result.final_sum) + " " +
         std::to_string(result.num_active) + " " +
         std::to_string(result.min_active) + " " +
         std::to_string(result.max_active);
}

// Thread-mode lock-step groups through the real batch engines: every
// payload is identical to the scalar engine's on the same attempt seed (the
// contract batch_task implementations must honor), for the step engine
// (run_batch vs run()'s virtual loop) and the jump engine (run_batch_jump
// vs run_jump), at a replica count deliberately unaligned to the lane
// width; every replica succeeds, and the report says groups actually formed.
TEST(SupervisorBatch, GroupsProduceScalarIdenticalPayloads) {
  Rng graph_rng(0x31);
  const Graph graph = make_connected_random_regular(24, 4, graph_rng);
  constexpr std::size_t kReplicas = 10;
  constexpr std::uint64_t kMaster = 0xd00d;
  std::vector<std::size_t> ids(kReplicas);
  for (std::size_t i = 0; i < kReplicas; ++i) ids[i] = i;

  for (const bool jump : {false, true}) {
    SCOPED_TRACE(jump ? "jump engine" : "step engine");
    const SupervisedTask scalar_task =
        [&](std::size_t, Rng& rng,
            const CancelToken& cancel) -> std::optional<std::string> {
      OpinionState state(
          graph, uniform_random_opinions(graph.num_vertices(), 1, 4, rng));
      RunOptions options;
      options.cancel = &cancel;
      if (jump) {
        DivProcess process(graph, SelectionScheme::kVertex);
        const JumpRunResult result = run_jump(process, state, rng, options);
        return result_payload(result, result.effective_steps);
      }
      VirtualDiv process(graph, SelectionScheme::kVertex);
      return result_payload(run(process, state, rng, options), 0);
    };

    // Scalar reference: no groups.
    std::map<std::size_t, std::string> scalar_payloads;
    {
      SupervisorOptions options;
      options.master_seed = kMaster;
      options.num_threads = 3;
      const SupervisorReport report = run_supervised_set(
          ids, scalar_task,
          [&](std::size_t replica, std::string&& payload) {
            scalar_payloads[replica] = std::move(payload);
          },
          options);
      ASSERT_EQ(report.succeeded, kReplicas);
      EXPECT_EQ(report.batch_groups, 0u);
      EXPECT_EQ(report.batched_attempts, 0u);
    }

    // Batched run: same payloads, and groups actually formed.
    std::map<std::size_t, std::string> batch_payloads;
    SupervisorOptions options;
    options.master_seed = kMaster;
    options.num_threads = 3;
    options.batch_lanes = 4;
    options.batch_task = [&](std::span<const BatchLane> lanes) {
      const auto width = static_cast<unsigned>(lanes.size());
      OpinionPlane plane(graph, width);
      std::vector<Rng> rngs;
      std::vector<const CancelToken*> cancels;
      rngs.reserve(width);
      for (unsigned lane = 0; lane < width; ++lane) {
        rngs.emplace_back(lanes[lane].seed);
        plane.assign_lane(lane, uniform_random_opinions(graph.num_vertices(),
                                                        1, 4, rngs[lane]));
        cancels.push_back(lanes[lane].cancel);
      }
      std::vector<std::optional<std::string>> verdicts;
      if (jump) {
        for (const JumpRunResult& result :
             run_batch_jump(graph, SelectionScheme::kVertex, plane, rngs,
                            RunOptions{}, cancels)) {
          verdicts.emplace_back(result_payload(result, result.effective_steps));
        }
      } else {
        for (const RunResult& result :
             run_batch(graph, SelectionScheme::kVertex, plane, rngs,
                       RunOptions{}, cancels)) {
          verdicts.emplace_back(result_payload(result, 0));
        }
      }
      return verdicts;
    };
    const SupervisorReport report = run_supervised_set(
        ids, scalar_task,
        [&](std::size_t replica, std::string&& payload) {
          batch_payloads[replica] = std::move(payload);
        },
        options);

    EXPECT_EQ(report.succeeded, kReplicas);
    EXPECT_GE(report.batch_groups, 1u);
    EXPECT_GE(report.batched_attempts, options.batch_lanes);
    EXPECT_EQ(batch_payloads, scalar_payloads);
  }
}

// A batch_task returning the wrong number of verdicts is a deterministic
// group failure: every lane fails fast into quarantine (no retry could
// change a logic error in the batch plumbing).
TEST(SupervisorBatch, VerdictCountMismatchQuarantinesTheGroup) {
  constexpr std::size_t kReplicas = 4;
  std::vector<std::size_t> ids(kReplicas);
  for (std::size_t i = 0; i < kReplicas; ++i) ids[i] = i;

  SupervisorOptions options;
  options.num_threads = 1;
  options.max_attempts = 1;
  options.batch_lanes = 4;
  options.batch_task =
      [](std::span<const BatchLane> lanes) {
        return std::vector<std::optional<std::string>>(lanes.size() - 1);
      };
  const SupervisorReport report = run_supervised_set(
      ids,
      [](std::size_t, Rng&, const CancelToken&) {
        return std::optional<std::string>("scalar");
      },
      [](std::size_t, std::string&&) {},
      options);

  EXPECT_EQ(report.succeeded, 0u);
  ASSERT_EQ(report.quarantined.size(), kReplicas);
  for (const QuarantineRecord& record : report.quarantined) {
    EXPECT_EQ(record.failure, FailureClass::kDeterministic);
    EXPECT_NE(record.message.find("verdicts"), std::string::npos);
  }
  EXPECT_EQ(report.fail_fasts, kReplicas);
}

// A throwing batch_task fails every lane with one shared classification;
// transient classes retry on the scalar-compatible retry seeds and the
// replicas still complete (here via a batch_task that succeeds on retry).
TEST(SupervisorBatch, GroupThrowRetriesEveryLane) {
  constexpr std::size_t kReplicas = 4;
  std::vector<std::size_t> ids(kReplicas);
  for (std::size_t i = 0; i < kReplicas; ++i) ids[i] = i;

  std::atomic<int> calls{0};
  SupervisorOptions options;
  options.num_threads = 1;
  options.max_attempts = 2;
  options.backoff_base = std::chrono::milliseconds{0};
  options.batch_lanes = 4;
  options.batch_task =
      [&](std::span<const BatchLane> lanes)
          -> std::vector<std::optional<std::string>> {
        if (calls.fetch_add(1) == 0) {
          throw std::runtime_error("transient group failure");
        }
        std::vector<std::optional<std::string>> verdicts;
        for (const BatchLane& lane : lanes) {
          verdicts.emplace_back(std::to_string(lane.replica));
        }
        return verdicts;
      };
  std::map<std::size_t, std::string> payloads;
  const SupervisorReport report = run_supervised_set(
      ids,
      [](std::size_t replica, Rng&, const CancelToken&) {
        return std::optional<std::string>(std::to_string(replica));
      },
      [&](std::size_t replica, std::string&& payload) {
        payloads[replica] = std::move(payload);
      },
      options);

  EXPECT_EQ(report.succeeded, kReplicas);
  EXPECT_EQ(report.retries, kReplicas);  // one retry per lane of the group
  ASSERT_EQ(payloads.size(), kReplicas);
  for (std::size_t replica = 0; replica < kReplicas; ++replica) {
    EXPECT_EQ(payloads[replica], std::to_string(replica));
  }
}

// ---------------------------------------------------------------------------
// Batched jump-chain engine (run_batch_jump) -- refusals, per-lane cancel
// and distributional equivalence.  The draw-for-draw bit-identity suite
// lives in test_jump_engine.cpp (BatchJump.LanesBitIdenticalToScalarJump
// and friends).

TEST(BatchJump, RejectsTracingAndMismatchedRngs) {
  const Graph graph = make_cycle(6);
  OpinionPlane plane(graph, 2);
  std::vector<Rng> rngs;
  for (unsigned lane = 0; lane < 2; ++lane) {
    rngs.emplace_back(Rng::retry_seed(7, lane, 0));
    plane.assign_lane(lane, uniform_random_opinions(6, 1, 3, rngs[lane]));
  }
  RunOptions traced;
  traced.trace_stride = 1;
  EXPECT_THROW(
      run_batch_jump(graph, SelectionScheme::kEdge, plane, rngs, traced),
      std::invalid_argument);

  std::vector<Rng> short_rngs;
  short_rngs.emplace_back(1);
  EXPECT_THROW(
      run_batch_jump(graph, SelectionScheme::kEdge, plane, short_rngs,
                     RunOptions{}),
      std::invalid_argument);

  const CancelToken* one_cancel[1] = {nullptr};
  EXPECT_THROW(
      run_batch_jump(graph, SelectionScheme::kEdge, plane, rngs, RunOptions{},
                     one_cancel),
      std::invalid_argument);
}

// A fired per-lane token drains exactly that lane at a scheduled-clock poll;
// its groupmates run to consensus untouched, and the drained lane's
// aggregates still describe its configuration.
TEST(BatchJump, PerLaneCancelDrainsOnlyThatLane) {
  Rng graph_rng(0x78);
  const Graph graph = make_connected_random_regular(32, 4, graph_rng);
  constexpr unsigned kLanes = 3;
  OpinionPlane plane(graph, kLanes);
  std::vector<Rng> rngs;
  for (unsigned lane = 0; lane < kLanes; ++lane) {
    rngs.emplace_back(Rng::retry_seed(0xc0df, lane, 0));
    plane.assign_lane(lane, uniform_random_opinions(graph.num_vertices(), 1,
                                                    5, rngs[lane]));
  }
  CancelToken mid_token;
  mid_token.request(CancelReason::kUser);
  const CancelToken* cancels[kLanes] = {nullptr, &mid_token, nullptr};
  const std::vector<JumpRunResult> results = run_batch_jump(
      graph, SelectionScheme::kEdge, plane, rngs, RunOptions{}, cancels);

  EXPECT_EQ(results[0].status, RunStatus::kCompleted);
  EXPECT_EQ(results[2].status, RunStatus::kCompleted);
  EXPECT_EQ(results[1].status, RunStatus::kCancelled);
  EXPECT_EQ(results[1].steps, 0u);  // pre-fired: drained before any step
  EXPECT_EQ(results[1].effective_steps, 0u);
  std::int64_t sum = 0;
  for (const Opinion x : plane.lane_opinions(1)) sum += x;
  EXPECT_EQ(sum, results[1].final_sum);
}

// Distributional equivalence on INDEPENDENT seed families (the bit-identity
// suite pins same-seed equality; this pins the ensemble): winner categories
// by chi-square homogeneity, completion times by Kolmogorov-Smirnov, and the
// batched lanes must still actually skip scheduled work.
TEST(BatchJump, WinnerDistributionMatchesScalarJumpEngine) {
  Rng graph_rng(0x23b);
  const Graph graph = make_connected_random_regular(32, 4, graph_rng);
  constexpr int kReplicas = 400;
  constexpr Opinion kLo = 1;
  constexpr Opinion kHi = 3;
  for (const SelectionScheme scheme :
       {SelectionScheme::kVertex, SelectionScheme::kEdge}) {
    DivProcess process(graph, scheme);
    std::vector<std::uint64_t> scalar_winners(kHi - kLo + 1, 0);
    std::vector<double> scalar_steps;
    for (int replica = 0; replica < kReplicas; ++replica) {
      Rng rng(
          Rng::substream_seed(0xbeef, static_cast<std::uint64_t>(replica)));
      OpinionState state(
          graph,
          uniform_random_opinions(graph.num_vertices(), kLo, kHi, rng));
      const JumpRunResult result =
          run_jump(process, state, rng, RunOptions{});
      ASSERT_EQ(result.status, RunStatus::kCompleted);
      ++scalar_winners[static_cast<std::size_t>(*result.winner - kLo)];
      scalar_steps.push_back(static_cast<double>(result.steps));
    }

    const std::vector<JumpRunResult> batch = run_in_groups<JumpRunResult>(
        graph, kReplicas, 0xcafe, kLo, kHi,
        [&](OpinionPlane& plane, std::vector<Rng>& rngs) {
          return run_batch_jump(graph, scheme, plane, rngs, RunOptions{});
        });
    std::vector<std::uint64_t> batch_winners(kHi - kLo + 1, 0);
    std::vector<double> batch_steps;
    double scheduled = 0.0;
    double effective = 0.0;
    for (const JumpRunResult& result : batch) {
      ASSERT_EQ(result.status, RunStatus::kCompleted);
      ++batch_winners[static_cast<std::size_t>(*result.winner - kLo)];
      batch_steps.push_back(static_cast<double>(result.steps));
      scheduled += static_cast<double>(result.steps);
      effective += static_cast<double>(result.effective_steps);
    }
    // The lanes must have spent lazy stretches asleep, not stepped naively
    // throughout.
    EXPECT_LT(effective, 0.8 * scheduled) << to_string(scheme);

    const double chi_p =
        two_sample_chi_square_p(scalar_winners, batch_winners);
    EXPECT_GT(chi_p, 1e-3) << "winner distributions diverge, scheme "
                           << to_string(scheme);
    const double d = two_sample_ks_statistic(scalar_steps, batch_steps);
    const double critical =
        1.95 * std::sqrt(2.0 / static_cast<double>(kReplicas));
    EXPECT_LT(d, critical) << "completion-time ECDFs diverge, scheme "
                           << to_string(scheme);
  }
}

// SupervisorOptions::batch_lanes gets the same loud range guard the CLI
// applies to --batch-lanes: 0 and anything above kMaxBatchLanes refuse up
// front instead of silently degenerating (0 used to disable batching, and
// oversized widths allocated planes nothing could have asked for).
TEST(SupervisorBatch, RejectsOutOfRangeLaneCounts) {
  const std::vector<std::size_t> ids = {0, 1};
  const auto task = [](std::size_t, Rng&, const CancelToken&) {
    return std::optional<std::string>("ok");
  };
  const auto commit = [](std::size_t, std::string&&) {};

  for (const unsigned lanes : {0u, kMaxBatchLanes + 1}) {
    SupervisorOptions options;
    options.num_threads = 1;
    options.batch_lanes = lanes;
    EXPECT_THROW(run_supervised_set(ids, task, commit, options),
                 std::invalid_argument)
        << "batch_lanes=" << lanes;
  }

  SupervisorOptions options;
  options.num_threads = 1;
  options.batch_lanes = kMaxBatchLanes;  // the boundary itself is legal
  const SupervisorReport report =
      run_supervised_set(ids, task, commit, options);
  EXPECT_EQ(report.succeeded, ids.size());
}

}  // namespace
}  // namespace divlib
