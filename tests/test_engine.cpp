#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "core/div_process.hpp"
#include "core/pull_voting.hpp"
#include "engine/initial_config.hpp"
#include "graph/generators.hpp"
#include "graph/random_graphs.hpp"
#include "virtual_div.hpp"

namespace divlib {
namespace {

TEST(StopCondition, Names) {
  EXPECT_EQ(to_string(StopKind::kConsensus), "consensus");
  EXPECT_EQ(to_string(StopKind::kTwoAdjacent), "two-adjacent");
}

TEST(StopCondition, ParseInvertsNamesAndRefusesUnknown) {
  for (const StopKind kind : {StopKind::kConsensus, StopKind::kTwoAdjacent}) {
    EXPECT_EQ(parse_stop_kind(to_string(kind)), kind);
  }
  EXPECT_THROW(parse_stop_kind("bogus"), std::invalid_argument);
  EXPECT_THROW(parse_stop_kind(""), std::invalid_argument);
  EXPECT_THROW(parse_stop_kind("Consensus"), std::invalid_argument);
}

TEST(StopCondition, Satisfaction) {
  const Graph g = make_cycle(4);
  const OpinionState spread(g, {1, 2, 3, 4});
  EXPECT_FALSE(is_satisfied(StopKind::kConsensus, spread));
  EXPECT_FALSE(is_satisfied(StopKind::kTwoAdjacent, spread));
  const OpinionState adjacent(g, {2, 3, 2, 3});
  EXPECT_FALSE(is_satisfied(StopKind::kConsensus, adjacent));
  EXPECT_TRUE(is_satisfied(StopKind::kTwoAdjacent, adjacent));
  const OpinionState consensus(g, {2, 2, 2, 2});
  EXPECT_TRUE(is_satisfied(StopKind::kConsensus, consensus));
  EXPECT_TRUE(is_satisfied(StopKind::kTwoAdjacent, consensus));
}

TEST(Engine, ImmediateStopWhenAlreadySatisfied) {
  const Graph g = make_complete(4);
  OpinionState state(g, {3, 3, 3, 3});
  DivProcess process(g, SelectionScheme::kVertex);
  Rng rng(1);
  const RunResult result = run(process, state, rng, {});
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.steps, 0u);
  ASSERT_TRUE(result.winner.has_value());
  EXPECT_EQ(*result.winner, 3);
}

TEST(Engine, StepCapReportsIncomplete) {
  const Graph g = make_complete(16);
  Rng init_rng(2);
  OpinionState state(g, uniform_random_opinions(16, 1, 8, init_rng));
  DivProcess process(g, SelectionScheme::kVertex);
  Rng rng(3);
  RunOptions options;
  options.max_steps = 3;
  const RunResult result = run(process, state, rng, options);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.steps, 3u);
  EXPECT_FALSE(result.winner.has_value());
}

TEST(Engine, TwoAdjacentStopPrecedesConsensus) {
  const Graph g = make_complete(20);
  Rng init_rng(4);
  OpinionState state(g, uniform_random_opinions(20, 1, 6, init_rng));
  DivProcess process(g, SelectionScheme::kVertex);
  Rng rng(5);
  RunOptions options;
  options.stop = StopKind::kTwoAdjacent;
  options.max_steps = 10'000'000;
  const RunResult first = run(process, state, rng, options);
  ASSERT_TRUE(first.completed);
  EXPECT_LE(first.max_active - first.min_active, 1);

  // Continue the same state to consensus.
  options.stop = StopKind::kConsensus;
  const RunResult second = run(process, state, rng, options);
  ASSERT_TRUE(second.completed);
  ASSERT_TRUE(second.winner.has_value());
  EXPECT_GE(*second.winner, first.min_active);
  EXPECT_LE(*second.winner, first.max_active);
}

TEST(Engine, FinalAggregatesMatchState) {
  const Graph g = make_complete(10);
  Rng init_rng(6);
  OpinionState state(g, uniform_random_opinions(10, 1, 4, init_rng));
  PullVoting process(g, SelectionScheme::kEdge);
  Rng rng(7);
  RunOptions options;
  options.max_steps = 1'000'000;
  const RunResult result = run(process, state, rng, options);
  EXPECT_EQ(result.final_sum, state.sum());
  EXPECT_DOUBLE_EQ(result.final_z, state.z_total());
  EXPECT_EQ(result.min_active, state.min_active());
  EXPECT_EQ(result.num_active, state.num_active());
}

TEST(Engine, TraceRecordsStartAndEnd) {
  const Graph g = make_complete(12);
  Rng init_rng(8);
  OpinionState state(g, uniform_random_opinions(12, 1, 4, init_rng));
  DivProcess process(g, SelectionScheme::kVertex);
  Rng rng(9);
  RunOptions options;
  options.trace_stride = 50;
  options.max_steps = 1'000'000;
  const RunResult result = run(process, state, rng, options);
  ASSERT_TRUE(result.completed);
  ASSERT_FALSE(result.trace.empty());
  EXPECT_EQ(result.trace.samples().front().step, 0u);
  EXPECT_EQ(result.trace.samples().back().step, result.steps);
  // Samples are strictly increasing in step.
  for (std::size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_LT(result.trace.samples()[i - 1].step, result.trace.samples()[i].step);
  }
}

TEST(Engine, NoTraceWhenStrideZero) {
  const Graph g = make_complete(8);
  OpinionState state(g, {1, 1, 1, 1, 2, 2, 2, 2});
  DivProcess process(g, SelectionScheme::kVertex);
  Rng rng(10);
  RunOptions options;
  options.max_steps = 1'000'000;
  const RunResult result = run(process, state, rng, options);
  EXPECT_TRUE(result.trace.empty());
  EXPECT_FALSE(result.trace.enabled());
}

// A process that throws midway through a run: exercises the watchdog's
// kFaulted classification and run_guarded's structured error capture.
class ExplodingProcess : public Process {
 public:
  explicit ExplodingProcess(std::uint64_t explode_after)
      : explode_after_(explode_after) {}
  void begin_run(const OpinionState&) override { ++begin_run_calls_; }
  void step(OpinionState&, Rng&) override {
    if (++steps_ > explode_after_) {
      throw std::runtime_error("simulated hardware fault");
    }
  }
  std::string name() const override { return "exploding"; }
  int begin_run_calls() const { return begin_run_calls_; }

 private:
  std::uint64_t explode_after_;
  std::uint64_t steps_ = 0;
  int begin_run_calls_ = 0;
};

TEST(Engine, RunStatusNames) {
  EXPECT_STREQ(to_string(RunStatus::kCompleted), "completed");
  EXPECT_STREQ(to_string(RunStatus::kCapped), "capped");
  EXPECT_STREQ(to_string(RunStatus::kFaulted), "faulted");
}

TEST(Engine, StatusClassifiesCompletedAndCapped) {
  const Graph g = make_complete(4);
  DivProcess process(g, SelectionScheme::kVertex);
  Rng rng(11);

  OpinionState done(g, {2, 2, 2, 2});
  const RunResult completed = run(process, done, rng, {});
  EXPECT_EQ(completed.status, RunStatus::kCompleted);
  EXPECT_TRUE(completed.completed);
  EXPECT_TRUE(completed.fault.empty());

  OpinionState split(g, {1, 1, 4, 4});
  RunOptions tight;
  tight.max_steps = 2;
  const RunResult capped = run(process, split, rng, tight);
  EXPECT_EQ(capped.status, RunStatus::kCapped);
  EXPECT_FALSE(capped.completed);
}

TEST(Engine, RunPropagatesProcessExceptions) {
  const Graph g = make_complete(4);
  OpinionState state(g, {1, 2, 3, 4});
  ExplodingProcess process(5);
  Rng rng(12);
  EXPECT_THROW(run(process, state, rng, {}), std::runtime_error);
}

TEST(Engine, RunGuardedCapturesFaults) {
  const Graph g = make_complete(4);
  OpinionState state(g, {1, 2, 3, 4});
  ExplodingProcess process(5);
  Rng rng(13);
  const RunResult result = run_guarded(process, state, rng, {});
  EXPECT_EQ(result.status, RunStatus::kFaulted);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.fault, "simulated hardware fault");
  EXPECT_EQ(result.steps, 5u);  // progress up to the failure is reported
  EXPECT_FALSE(result.winner.has_value());
}

TEST(Engine, RunGuardedMatchesRunWhenHealthy) {
  const Graph g = make_complete(8);
  Rng init_rng(14);
  const auto initial = uniform_random_opinions(8, 1, 4, init_rng);
  DivProcess process(g, SelectionScheme::kVertex);
  OpinionState a(g, initial);
  OpinionState b(g, initial);
  Rng rng_a(15);
  Rng rng_b(15);
  const RunResult plain = run(process, a, rng_a, {});
  const RunResult guarded = run_guarded(process, b, rng_b, {});
  EXPECT_EQ(guarded.status, RunStatus::kCompleted);
  EXPECT_EQ(guarded.steps, plain.steps);
  EXPECT_EQ(guarded.winner, plain.winner);
  EXPECT_TRUE(guarded.fault.empty());
}

TEST(Engine, BeginRunFiresOncePerRun) {
  const Graph g = make_complete(4);
  ExplodingProcess process(1'000'000);
  Rng rng(16);
  RunOptions options;
  options.max_steps = 10;
  OpinionState state(g, {1, 2, 3, 4});
  (void)run(process, state, rng, options);
  (void)run(process, state, rng, options);
  (void)run_guarded(process, state, rng, options);
  EXPECT_EQ(process.begin_run_calls(), 3);
}

// ---- run() / run_guarded() on a DivProcess: the one-lane kernel route ----
//
// Each check runs the same start and seed twice: once through a DivProcess
// (routed through run_batch at one lane) and once through VirtualDiv (the
// virtual Process loop), and demands every observable agree.

void expect_same_run(const RunResult& ref, const RunResult& got) {
  EXPECT_EQ(ref.status, got.status);
  EXPECT_EQ(ref.completed, got.completed);
  EXPECT_EQ(ref.steps, got.steps);
  EXPECT_EQ(ref.min_active, got.min_active);
  EXPECT_EQ(ref.max_active, got.max_active);
  EXPECT_EQ(ref.num_active, got.num_active);
  EXPECT_EQ(ref.final_sum, got.final_sum);
  EXPECT_EQ(ref.final_z, got.final_z);
  EXPECT_EQ(ref.winner, got.winner);
  EXPECT_EQ(ref.fault, got.fault);
  EXPECT_EQ(ref.trace.stride(), got.trace.stride());
  EXPECT_EQ(ref.trace.size(), got.trace.size());
}

void expect_same_state(const OpinionState& ref, const OpinionState& got) {
  EXPECT_EQ(ref.range_lo(), got.range_lo());
  EXPECT_EQ(ref.range_hi(), got.range_hi());
  EXPECT_EQ(ref.min_active(), got.min_active());
  EXPECT_EQ(ref.max_active(), got.max_active());
  EXPECT_EQ(ref.num_active(), got.num_active());
  EXPECT_EQ(ref.sum(), got.sum());
  EXPECT_EQ(ref.z_total(), got.z_total());
  EXPECT_EQ(ref.degree_weighted_sum(), got.degree_weighted_sum());
  for (Opinion x = ref.range_lo() - 1; x <= ref.range_hi() + 1; ++x) {
    EXPECT_EQ(ref.count(x), got.count(x)) << "value " << x;
    EXPECT_EQ(ref.degree_mass(x), got.degree_mass(x)) << "value " << x;
  }
  EXPECT_TRUE(std::ranges::equal(ref.opinions(), got.opinions()));
}

// Every RunMetrics field except the wall_* clocks.
void expect_same_metrics(const RunMetrics& ref, const RunMetrics& got) {
  ASSERT_EQ(ref.mode_timeline.size(), got.mode_timeline.size());
  for (std::size_t i = 0; i < ref.mode_timeline.size(); ++i) {
    EXPECT_EQ(ref.mode_timeline[i].step, got.mode_timeline[i].step);
    EXPECT_EQ(ref.mode_timeline[i].jump_mode, got.mode_timeline[i].jump_mode);
    EXPECT_EQ(ref.mode_timeline[i].active_probability,
              got.mode_timeline[i].active_probability);
    EXPECT_EQ(ref.mode_timeline[i].discordant_pairs,
              got.mode_timeline[i].discordant_pairs);
  }
  EXPECT_EQ(ref.activity.size(), got.activity.size());
  EXPECT_EQ(ref.mode_switches_dropped, got.mode_switches_dropped);
  EXPECT_EQ(ref.activity_dropped, got.activity_dropped);
  EXPECT_EQ(ref.scheduled_steps, got.scheduled_steps);
  EXPECT_EQ(ref.effective_steps, got.effective_steps);
  EXPECT_EQ(ref.lazy_steps_skipped, got.lazy_steps_skipped);
  EXPECT_EQ(ref.tracker_rebuilds, got.tracker_rebuilds);
  EXPECT_EQ(ref.frozen_tail_steps, got.frozen_tail_steps);
  EXPECT_EQ(ref.batch_lanes, got.batch_lanes);
}

// Runs `start` under both engines with one seed and compares everything,
// including where each rng stream stands afterwards.
void expect_route_matches_loop(const Graph& g, SelectionScheme scheme,
                               const std::vector<Opinion>& start,
                               std::uint64_t seed, RunOptions options,
                               bool guarded) {
  const auto execute = [&](Process& process, OpinionState& state, Rng& rng,
                           RunMetrics& metrics) {
    RunOptions with_metrics = options;
    with_metrics.metrics = &metrics;
    return guarded ? run_guarded(process, state, rng, with_metrics)
                   : run(process, state, rng, with_metrics);
  };
  VirtualDiv loop(g, scheme);
  OpinionState ref_state(g, start);
  Rng ref_rng(seed);
  RunMetrics ref_metrics;
  const RunResult ref = execute(loop, ref_state, ref_rng, ref_metrics);

  DivProcess div(g, scheme);
  OpinionState state(g, start);
  Rng rng(seed);
  RunMetrics metrics;
  const RunResult got = execute(div, state, rng, metrics);

  expect_same_run(ref, got);
  expect_same_state(ref_state, state);
  expect_same_metrics(ref_metrics, metrics);
  EXPECT_EQ(metrics.batch_lanes, 0u);
  EXPECT_EQ(ref_rng.next(), rng.next());
}

TEST(EngineRoute, DivRunMatchesVirtualLoop) {
  Rng graph_rng(0x40e7);
  const Graph g = make_connected_random_regular(40, 4, graph_rng);
  // Blocks are 32 steps: caps straddle one block boundary, and the last is
  // large enough that every run completes.
  const std::uint64_t caps[] = {0, 1, 31, 32, 33, 100'000'000};
  std::uint64_t seed = 1;
  // range_hi 5 keeps the lane byte-packed; 300 forces full-width cells.
  for (const Opinion range_hi : {5, 300}) {
    for (const SelectionScheme scheme :
         {SelectionScheme::kVertex, SelectionScheme::kEdge}) {
      for (const StopKind stop : {StopKind::kConsensus,
                                  StopKind::kTwoAdjacent}) {
        for (const std::uint64_t cap : caps) {
          for (const bool guarded : {false, true}) {
            ++seed;
            SCOPED_TRACE("range_hi " + std::to_string(range_hi) + " " +
                         std::string(to_string(scheme)) + " " +
                         std::string(to_string(stop)) + " cap " +
                         std::to_string(cap) +
                         (guarded ? " run_guarded" : " run"));
            Rng init_rng(seed);
            const auto start =
                uniform_random_opinions(40, 1, range_hi, init_rng);
            RunOptions options;
            options.stop = stop;
            options.max_steps = cap;
            expect_route_matches_loop(g, scheme, start, seed * 7919, options,
                                      guarded);
          }
        }
      }
    }
  }
}

TEST(EngineRoute, AlreadySatisfiedStartTakesNoSteps) {
  Rng graph_rng(0x5a7);
  const Graph g = make_connected_random_regular(16, 4, graph_rng);
  const std::vector<Opinion> consensus(16, 3);
  std::vector<Opinion> adjacent(16, 3);
  std::fill(adjacent.begin(), adjacent.begin() + 5, 4);
  for (const SelectionScheme scheme :
       {SelectionScheme::kVertex, SelectionScheme::kEdge}) {
    RunOptions options;
    expect_route_matches_loop(g, scheme, consensus, 21, options, false);
    options.stop = StopKind::kTwoAdjacent;
    expect_route_matches_loop(g, scheme, adjacent, 22, options, true);
  }
}

// Two-adjacent first, then on to consensus from the state the first phase
// left: the written-back lane must be a valid start for the second run.
TEST(EngineRoute, PhasedContinuationMatchesVirtualLoop) {
  Rng graph_rng(0x9a5e);
  const Graph g = make_connected_random_regular(48, 4, graph_rng);
  for (const SelectionScheme scheme :
       {SelectionScheme::kVertex, SelectionScheme::kEdge}) {
    Rng init_rng(31);
    const auto start = uniform_random_opinions(48, 1, 9, init_rng);
    VirtualDiv loop(g, scheme);
    DivProcess div(g, scheme);
    OpinionState ref_state(g, start);
    OpinionState state(g, start);
    Rng ref_rng(32);
    Rng rng(32);
    RunOptions options;
    options.stop = StopKind::kTwoAdjacent;
    const RunResult ref_first = run(loop, ref_state, ref_rng, options);
    const RunResult first = run(div, state, rng, options);
    ASSERT_TRUE(first.completed);
    expect_same_run(ref_first, first);
    expect_same_state(ref_state, state);

    options.stop = StopKind::kConsensus;
    const RunResult ref_second = run(loop, ref_state, ref_rng, options);
    const RunResult second = run(div, state, rng, options);
    ASSERT_TRUE(second.completed);
    expect_same_run(ref_second, second);
    expect_same_state(ref_state, state);
    EXPECT_EQ(ref_rng.next(), rng.next());
  }
}

TEST(EngineRoute, PreFiredTokenCancelsBeforeTheFirstStep) {
  Rng graph_rng(0xca7);
  const Graph g = make_connected_random_regular(32, 4, graph_rng);
  Rng init_rng(41);
  const auto start = uniform_random_opinions(32, 1, 6, init_rng);
  CancelToken token;
  token.request(CancelReason::kUser);
  RunOptions options;
  options.cancel = &token;
  DivProcess div(g, SelectionScheme::kEdge);
  for (const bool guarded : {false, true}) {
    OpinionState state(g, start);
    Rng rng(42);
    const RunResult result = guarded ? run_guarded(div, state, rng, options)
                                     : run(div, state, rng, options);
    EXPECT_EQ(result.status, RunStatus::kCancelled);
    EXPECT_EQ(result.steps, 0u);
    EXPECT_TRUE(std::ranges::equal(state.opinions(), start));
    EXPECT_EQ(rng.next(), Rng(42).next());
  }
}

// Traced and write-logged runs keep the virtual loop: the trace and the
// write log still see every step.
TEST(EngineRoute, ObservedRunsKeepTheVirtualLoop) {
  Rng graph_rng(0x0b5);
  const Graph g = make_connected_random_regular(24, 4, graph_rng);
  Rng init_rng(51);
  const auto start = uniform_random_opinions(24, 1, 5, init_rng);
  DivProcess div(g, SelectionScheme::kVertex);
  VirtualDiv loop(g, SelectionScheme::kVertex);

  RunOptions traced;
  traced.trace_stride = 10;
  OpinionState ref_state(g, start);
  OpinionState state(g, start);
  Rng ref_rng(52);
  Rng rng(52);
  const RunResult ref = run(loop, ref_state, ref_rng, traced);
  const RunResult got = run(div, state, rng, traced);
  expect_same_run(ref, got);
  ASSERT_EQ(ref.trace.size(), got.trace.size());
  for (std::size_t i = 0; i < ref.trace.size(); ++i) {
    EXPECT_EQ(ref.trace.samples()[i].step, got.trace.samples()[i].step);
    EXPECT_EQ(ref.trace.samples()[i].sum, got.trace.samples()[i].sum);
  }

  OpinionState logged(g, start);
  logged.enable_write_log();
  Rng log_rng(53);
  RunOptions capped;
  capped.max_steps = 200;
  (void)run(div, logged, log_rng, capped);
  OpinionState ref_logged(g, start);
  ref_logged.enable_write_log();
  Rng ref_log_rng(53);
  (void)run(loop, ref_logged, ref_log_rng, capped);
  EXPECT_FALSE(logged.recent_writes().empty());
  EXPECT_TRUE(std::ranges::equal(ref_logged.recent_writes(),
                                 logged.recent_writes()));
}

}  // namespace
}  // namespace divlib
