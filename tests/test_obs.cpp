// Tests for the telemetry subsystem (src/obs/): JSON building and JSONL
// emission, the lock-free metrics registry, per-run trajectory metrics and
// their determinism contract, and the campaign heartbeat.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <limits>
#include <thread>
#include <vector>

#include "core/div_process.hpp"
#include "engine/engine.hpp"
#include "engine/initial_config.hpp"
#include "engine/jump_engine.hpp"
#include "engine/montecarlo.hpp"
#include "graph/random_graphs.hpp"
#include "obs/heartbeat.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "obs/run_metrics.hpp"
#include "temp_path.hpp"

namespace divlib {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return unique_temp_path(name).string();
}

// ---------------------------------------------------------------- Jsonl ---

TEST(JsonlTest, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(JsonlTest, DoublesRenderFinitelyAndNonFiniteAsNull) {
  EXPECT_EQ(json_double(1.5), "1.5");
  EXPECT_EQ(json_double(0.0), "0");
  EXPECT_EQ(json_double(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_double(std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonlTest, ObjectPreservesInsertionOrderAndTypes) {
  JsonObject object;
  object.field("s", "x\"y")
      .field("u", std::uint64_t{7})
      .field("i", std::int64_t{-3})
      .field("d", 0.25)
      .field("b", true)
      .raw_field("nested", "[1,2]");
  EXPECT_EQ(object.str(),
            "{\"s\":\"x\\\"y\",\"u\":7,\"i\":-3,\"d\":0.25,\"b\":true,"
            "\"nested\":[1,2]}");
}

TEST(JsonlTest, WriterEmitsOneParseableLinePerRecord) {
  const std::string path = temp_path("divlib_jsonl_test.jsonl");
  {
    JsonlWriter writer(path);
    writer.emit("{\"a\":1}");
    writer.emit("{\"b\":2}");
    writer.sync();
    EXPECT_EQ(writer.lines_written(), 2u);
    EXPECT_EQ(writer.path(), path);
  }
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"a\":1}");
  EXPECT_EQ(lines[1], "{\"b\":2}");
  std::remove(path.c_str());
}

#ifndef _WIN32
// Streaming telemetry through a non-syncable target (a pipe, /dev/stdout,
// /dev/null) makes fsync fail with EINVAL; sync() must treat that as
// best-effort, not as a fatal I/O error on an otherwise healthy run.
TEST(JsonlTest, SyncToNonSyncableTargetIsBestEffort) {
  JsonlWriter writer("/dev/null");
  writer.emit("{\"type\":\"probe\"}");
  EXPECT_NO_THROW(writer.sync());
  EXPECT_EQ(writer.lines_written(), 1u);
}
#endif

TEST(JsonlTest, WriterSerializesConcurrentEmitters) {
  const std::string path = temp_path("divlib_jsonl_threads.jsonl");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  {
    JsonlWriter writer(path);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&writer, t] {
        for (int i = 0; i < kPerThread; ++i) {
          JsonObject object;
          object.field("thread", static_cast<std::uint64_t>(t))
              .field("i", static_cast<std::uint64_t>(i));
          writer.emit(object.str());
        }
      });
    }
    for (auto& thread : pool) {
      thread.join();
    }
    EXPECT_EQ(writer.lines_written(),
              static_cast<std::uint64_t>(kThreads * kPerThread));
  }
  // Every line must be whole (starts '{', ends '}'): emits never interleave.
  std::ifstream in(path);
  std::string line;
  std::size_t count = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++count;
  }
  EXPECT_EQ(count, static_cast<std::size_t>(kThreads * kPerThread));
  std::remove(path.c_str());
}

// -------------------------------------------------------------- Metrics ---

TEST(MetricsTest, CounterAndGaugeBasics) {
  Counter counter;
  counter.add();
  counter.add(4);
  EXPECT_EQ(counter.value(), 5u);

  Gauge gauge;
  gauge.set(-7);
  gauge.add(3);
  EXPECT_EQ(gauge.value(), -4);
}

TEST(MetricsTest, HistogramBucketsByUpperBoundWithOverflow) {
  FixedHistogram histogram({1.0, 10.0, 100.0});
  histogram.observe(0.5);    // bucket 0 (<= 1)
  histogram.observe(1.0);    // bucket 0
  histogram.observe(5.0);    // bucket 1
  histogram.observe(100.0);  // bucket 2
  histogram.observe(1e6);    // overflow
  EXPECT_EQ(histogram.num_buckets(), 4u);
  EXPECT_EQ(histogram.bucket_count(0), 2u);
  EXPECT_EQ(histogram.bucket_count(1), 1u);
  EXPECT_EQ(histogram.bucket_count(2), 1u);
  EXPECT_EQ(histogram.bucket_count(3), 1u);
  EXPECT_EQ(histogram.total(), 5u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 0.5 + 1.0 + 5.0 + 100.0 + 1e6);
}

TEST(MetricsTest, HistogramRejectsBadBounds) {
  EXPECT_THROW(FixedHistogram({}), std::invalid_argument);
  EXPECT_THROW(FixedHistogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(FixedHistogram({2.0, 1.0}), std::invalid_argument);
}

TEST(MetricsTest, GeometricBoundsGrowByTheFactor) {
  const auto bounds = FixedHistogram::geometric_bounds(2.0, 4.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 2.0);
  EXPECT_DOUBLE_EQ(bounds[1], 8.0);
  EXPECT_DOUBLE_EQ(bounds[2], 32.0);
  EXPECT_DOUBLE_EQ(bounds[3], 128.0);
}

TEST(MetricsTest, RegistryReturnsSameInstrumentForSameName) {
  MetricsRegistry registry;
  Counter& a = registry.counter("hits");
  Counter& b = registry.counter("hits");
  EXPECT_EQ(&a, &b);
  a.add();
  EXPECT_EQ(b.value(), 1u);
}

TEST(MetricsTest, RegistryKindMismatchThrows) {
  MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), std::logic_error);
  EXPECT_THROW(registry.histogram("x", {1.0}), std::logic_error);
}

TEST(MetricsTest, SnapshotReflectsRegistrationOrderAndValues) {
  MetricsRegistry registry;
  registry.counter("c").add(3);
  registry.gauge("g").set(-2);
  registry.histogram("h", {1.0, 2.0}).observe(1.5);
  const auto snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].name, "c");
  EXPECT_EQ(snapshot[0].kind, InstrumentKind::kCounter);
  EXPECT_EQ(snapshot[0].count, 3u);
  EXPECT_EQ(snapshot[0].to_json(), "3");
  EXPECT_EQ(snapshot[1].name, "g");
  EXPECT_EQ(snapshot[1].gauge, -2);
  EXPECT_EQ(snapshot[1].to_json(), "-2");
  EXPECT_EQ(snapshot[2].name, "h");
  EXPECT_EQ(snapshot[2].count, 1u);
  ASSERT_EQ(snapshot[2].buckets.size(), 3u);
  EXPECT_EQ(snapshot[2].buckets[1], 1u);
}

TEST(MetricsTest, ConcurrentUpdatesNeverLoseIncrements) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("work");
  FixedHistogram& histogram =
      registry.histogram("lat", FixedHistogram::geometric_bounds(1.0, 2.0, 8));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&counter, &histogram] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.add();
        histogram.observe(static_cast<double>(i % 300));
      }
    });
  }
  for (auto& thread : pool) {
    thread.join();
  }
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(histogram.total(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

// ----------------------------------------------------------- RunMetrics ---

TEST(RunMetricsTest, SampleCapCountsDropsInsteadOfGrowing) {
  RunMetrics metrics;
  metrics.max_samples = 2;
  metrics.record_mode_switch(0, true, 0.5, 10);
  metrics.record_mode_switch(5, false, 0.6, 12);
  metrics.record_mode_switch(9, true, 0.1, 2);
  EXPECT_EQ(metrics.mode_timeline.size(), 2u);
  EXPECT_EQ(metrics.mode_switches_dropped, 1u);
  metrics.record_activity(1, 0.5, 10);
  metrics.record_activity(2, 0.5, 10);
  metrics.record_activity(3, 0.5, 10);
  EXPECT_EQ(metrics.activity.size(), 2u);
  EXPECT_EQ(metrics.activity_dropped, 1u);
}

TEST(RunMetricsTest, ToJsonCarriesTimelineAndTotals) {
  RunMetrics metrics;
  metrics.scheduled_steps = 100;
  metrics.effective_steps = 25;
  metrics.record_mode_switch(0, true, 0.5, 10);
  const std::string json = metrics.to_json();
  EXPECT_NE(json.find("\"scheduled_steps\":100"), std::string::npos);
  EXPECT_NE(json.find("\"effective_ratio\":0.25"), std::string::npos);
  EXPECT_NE(json.find("\"mode\":\"jump\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds_total\""), std::string::npos);
}

TEST(RunMetricsTest, NaiveEngineFillsScheduledStepsAndOneSegment) {
  Rng graph_rng(11);
  const Graph graph = make_random_regular(128, 8, graph_rng);
  Rng rng(12);
  OpinionState state(graph, uniform_random_opinions(128, 1, 4, rng));
  DivProcess process(graph, SelectionScheme::kEdge);
  RunMetrics metrics;
  RunOptions options;
  options.max_steps = 1'000'000'000;
  options.metrics = &metrics;
  const RunResult result = run(process, state, rng, options);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(metrics.scheduled_steps, result.steps);
  ASSERT_EQ(metrics.mode_timeline.size(), 1u);
  EXPECT_FALSE(metrics.mode_timeline[0].jump_mode);
  EXPECT_GT(metrics.wall_seconds_total, 0.0);
  EXPECT_EQ(metrics.effective_steps, 0u);  // naive engine cannot tell
}

// The determinism contract: every non-wall field of two identical jump runs
// matches exactly, whatever machine or schedule produced them.
TEST(RunMetricsTest, JumpRunMetricsAreDeterministicInContent) {
  Rng graph_rng(21);
  const Graph graph = make_random_regular(256, 8, graph_rng);
  DivProcess process(graph, SelectionScheme::kEdge);

  const auto one_run = [&](RunMetrics& metrics) {
    Rng rng(22);
    OpinionState state(graph, uniform_random_opinions(256, 1, 5, rng));
    RunOptions options;
    options.max_steps = 1'000'000'000;
    options.metrics = &metrics;
    metrics.activity_stride = 64;
    return run_jump(process, state, rng, options);
  };

  RunMetrics first;
  RunMetrics second;
  const JumpRunResult result_a = one_run(first);
  const JumpRunResult result_b = one_run(second);
  ASSERT_TRUE(result_a.completed);
  ASSERT_EQ(result_a.steps, result_b.steps);

  EXPECT_EQ(first.scheduled_steps, second.scheduled_steps);
  EXPECT_EQ(first.effective_steps, second.effective_steps);
  EXPECT_EQ(first.lazy_steps_skipped, second.lazy_steps_skipped);
  EXPECT_EQ(first.tracker_rebuilds, second.tracker_rebuilds);
  EXPECT_EQ(first.frozen_tail_steps, second.frozen_tail_steps);
  ASSERT_EQ(first.mode_timeline.size(), second.mode_timeline.size());
  for (std::size_t i = 0; i < first.mode_timeline.size(); ++i) {
    EXPECT_EQ(first.mode_timeline[i].step, second.mode_timeline[i].step);
    EXPECT_EQ(first.mode_timeline[i].jump_mode,
              second.mode_timeline[i].jump_mode);
    EXPECT_EQ(first.mode_timeline[i].active_probability,
              second.mode_timeline[i].active_probability);
    EXPECT_EQ(first.mode_timeline[i].discordant_pairs,
              second.mode_timeline[i].discordant_pairs);
  }
  ASSERT_EQ(first.activity.size(), second.activity.size());
  for (std::size_t i = 0; i < first.activity.size(); ++i) {
    EXPECT_EQ(first.activity[i].step, second.activity[i].step);
    EXPECT_EQ(first.activity[i].active_probability,
              second.activity[i].active_probability);
  }
  // Cross-check the totals against the run result itself.
  EXPECT_EQ(first.scheduled_steps, result_a.steps);
  EXPECT_EQ(first.effective_steps, result_a.effective_steps);
  ASSERT_FALSE(first.mode_timeline.empty());
  EXPECT_EQ(first.mode_timeline[0].step, 0u);
  EXPECT_TRUE(first.mode_timeline[0].jump_mode);
  // Timeline entries beyond the first correspond to the counted switches.
  EXPECT_EQ(first.mode_timeline.size() - 1, result_a.mode_switches);
}

// ------------------------------------------------------------ Heartbeat ---

TEST(HeartbeatTest, ManualBeatsCarryReasonAndCounters) {
  BatchProgress progress;
  progress.total.store(10);
  progress.resumed.store(2);
  progress.completed.store(3);
  progress.retried.store(1);
  std::vector<HeartbeatRecord> records;
  {
    Heartbeat heartbeat(
        progress, [&](const HeartbeatRecord& r) { records.push_back(r); },
        std::chrono::milliseconds(0));  // no interval thread
    heartbeat.beat("flush");
    progress.completed.fetch_add(1);
    heartbeat.beat("flush");
  }  // destructor stops and emits "final"
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].seq, 0u);
  EXPECT_EQ(records[0].reason, "flush");
  EXPECT_EQ(records[0].total, 10u);
  EXPECT_EQ(records[0].done, 5u);  // 2 resumed + 3 completed
  EXPECT_EQ(records[0].pending, 5u);
  EXPECT_EQ(records[1].done, 6u);
  EXPECT_EQ(records[2].seq, 2u);
  EXPECT_EQ(records[2].reason, "final");
}

TEST(HeartbeatTest, IntervalThreadEmitsPeriodically) {
  BatchProgress progress;
  progress.total.store(1);
  std::atomic<int> interval_beats{0};
  Heartbeat heartbeat(
      progress,
      [&](const HeartbeatRecord& record) {
        if (record.reason == "interval") {
          interval_beats.fetch_add(1);
        }
      },
      std::chrono::milliseconds(5));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (interval_beats.load() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  heartbeat.stop();
  EXPECT_GE(interval_beats.load(), 2);
}

TEST(HeartbeatTest, StopIsIdempotentAndEmitsOneFinal) {
  BatchProgress progress;
  int finals = 0;
  Heartbeat heartbeat(
      progress,
      [&](const HeartbeatRecord& record) {
        if (record.reason == "final") {
          ++finals;
        }
      },
      std::chrono::milliseconds(0));
  heartbeat.stop();
  heartbeat.stop();
  EXPECT_EQ(finals, 1);
}

TEST(HeartbeatTest, RecordToJsonMarksWallClockFields) {
  HeartbeatRecord record;
  record.reason = "interval";
  record.total = 4;
  const std::string json = record.to_json();
  EXPECT_NE(json.find("\"reason\":\"interval\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_elapsed_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_per_second\""), std::string::npos);
}

// The Monte-Carlo driver feeds the progress counters: completed counts every
// verdict, retried counts attempts beyond each first, errored counts
// persistent failures.
TEST(HeartbeatTest, IsolatedDriverUpdatesBatchProgress) {
  BatchProgress progress;
  progress.total.store(8);
  MonteCarloOptions options;
  options.num_threads = 2;
  options.max_attempts = 2;
  options.progress = &progress;
  const BatchReport report = run_replicas_isolated_erased(
      8,
      [](std::size_t replica, Rng&) {
        if (replica == 3) {
          throw std::runtime_error("always fails");  // both attempts
        }
      },
      options);
  EXPECT_EQ(report.attempted, 8u);
  EXPECT_EQ(progress.completed.load(), 8u);
  EXPECT_EQ(progress.errored.load(), 1u);
  EXPECT_EQ(progress.retried.load(), 1u);
  EXPECT_EQ(progress.done(), 8u);
}

}  // namespace
}  // namespace divlib
