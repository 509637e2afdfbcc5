// layer_trace -- the benchmark's traced run.
//
// Replays one workload's generated inputs through the library's public
// functions and records a span (id, parent, name, start, end, ops) around
// every call into a layer: rng, graph, core, engine, io and queue.  Spans are
// recorded here, around the calls, never inside the library.  They stay in
// memory and are written as one JSON document at exit; divbench/trace.py
// turns them into the per-layer metrics (a layer's self time is its span
// minus the union of its children's spans).
//
//   layer_trace --spec regular:131072:16 --k 8 --scheme edge --engine step
//               --stop two-adjacent --replicas 64 --threads 4 --seed 7
//               --replay montecarlo --campaigns 2 --campaign-replicas 4
//               --dir WORK --out spans.json
//
// Fleet workers are forked processes, so their attempt spans cannot reach
// the parent's memory; a worker appends them to WORK/child-spans.jsonl and
// the parent merges that file.  All timestamps are CLOCK_MONOTONIC
// nanoseconds (std::chrono::steady_clock on Linux), one clock for every
// process on the host.
//
// Exit status: 0 when every output check passed, 1 when one missed (the
// document is still written), 2 on a usage or setup error.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "cli/graph_spec.hpp"
#include "cli/process_spec.hpp"
#include "core/discordance_tracker.hpp"
#include "core/div_process.hpp"
#include "core/opinion_plane.hpp"
#include "core/opinion_state.hpp"
#include "engine/adaptive/calibration.hpp"
#include "engine/batch_engine.hpp"
#include "engine/campaign.hpp"
#include "engine/engine.hpp"
#include "engine/initial_config.hpp"
#include "engine/jump_engine.hpp"
#include "engine/montecarlo.hpp"
#include "engine/supervisor.hpp"
#include "io/atomic_file.hpp"
#include "io/crc32.hpp"
#include "io/journal.hpp"
#include "io/wire.hpp"
#include "obs/run_metrics.hpp"
#include "queue/coordinator.hpp"
#include "queue/queue_service.hpp"
#include "rng/rng.hpp"

namespace {

using namespace divlib;
namespace fs = std::filesystem;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Keeps a value observable so a timed loop is not folded away.
template <typename T>
void escape(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint64_t ops = 1;
};

// In-memory span store.  Disabled, a Span reads no clock and stores nothing,
// which is what the untraced half of the overhead measurement runs.
class Tracer {
 public:
  Tracer() : pid_(::getpid()) {}

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  void set_spill_path(std::string path) { spill_path_ = std::move(path); }

  std::uint64_t next_id() {
    const std::uint64_t local = next_.fetch_add(1, std::memory_order_relaxed);
    const pid_t pid = ::getpid();
    // Forked workers share the parent's counter value, so their ids carry
    // the pid in the high half to stay unique.
    return pid == pid_ ? local
                       : (static_cast<std::uint64_t>(pid) << 32) |
                             (local & 0xffffffffULL);
  }

  void record(SpanRecord span) {
    if (::getpid() != pid_) {
      spill(span);  // a forked worker: the parent merges the file later
      return;
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }

  void merge_spill() {
    std::ifstream in(spill_path_);
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      SpanRecord span;
      if (fields >> span.id >> span.parent >> span.name >> span.start >>
          span.end >> span.ops) {
        const std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(std::move(span));
      }
    }
    in.close();
    fs::remove(spill_path_);
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  // One write(2) per line on an O_APPEND descriptor, so lines from
  // concurrent workers never interleave.  No lock: a worker forked while
  // another thread held mutex_ would deadlock on it.
  void spill(const SpanRecord& span) const {
    char line[512];
    const int length = std::snprintf(
        line, sizeof(line), "%llu %llu %s %lld %lld %llu\n",
        static_cast<unsigned long long>(span.id),
        static_cast<unsigned long long>(span.parent), span.name.c_str(),
        static_cast<long long>(span.start), static_cast<long long>(span.end),
        static_cast<unsigned long long>(span.ops));
    const int fd =
        ::open(spill_path_.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
    if (fd < 0 || length <= 0) {
      return;
    }
    const ssize_t wrote = ::write(fd, line, static_cast<std::size_t>(length));
    (void)wrote;
    ::close(fd);
  }

  const pid_t pid_;
  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> next_{1};
  std::string spill_path_;
  std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

Tracer g_tracer;
thread_local std::uint64_t t_current_span = 0;

// RAII span.  The parent defaults to the span open on this thread; work
// handed to pool threads passes its parent explicitly.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t ops = 1)
      : Span(name, t_current_span, ops) {}
  Span(const char* name, std::uint64_t parent, std::uint64_t ops)
      : active_(g_tracer.enabled()) {
    if (!active_) {
      return;
    }
    record_.id = g_tracer.next_id();
    record_.parent = parent;
    record_.name = name;
    record_.ops = ops;
    saved_current_ = t_current_span;
    t_current_span = record_.id;
    record_.start = now_ns();
  }
  ~Span() {
    if (!active_) {
      return;
    }
    record_.end = now_ns();
    t_current_span = saved_current_;
    g_tracer.record(std::move(record_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return active_ ? record_.id : 0; }
  void set_ops(std::uint64_t ops) { record_.ops = ops; }

 private:
  bool active_;
  SpanRecord record_;
  std::uint64_t saved_current_ = 0;
};

// Counts and check results reported next to the spans.
struct Report {
  std::map<std::string, double> counts;
  std::uint64_t checks = 0;
  std::uint64_t misses = 0;
  std::vector<std::string> notes;

  void check(bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      ++misses;
      notes.push_back(what);
    }
  }
};

struct Workload {
  std::string spec;
  Opinion k = 0;
  SelectionScheme scheme = SelectionScheme::kEdge;
  bool jump = false;
  RunOptions run;
  std::size_t replicas = 0;
  unsigned threads = 1;
  std::uint64_t seed = 0;
  std::string replay;  // "montecarlo" or "pipeline"
  std::size_t campaigns = 0;
  std::size_t campaign_replicas = 0;
  fs::path dir;
  Graph graph;
};

double seconds_since(std::int64_t start) {
  return static_cast<double>(now_ns() - start) * 1e-9;
}

// One replica exactly as `divsim run` executes it: uniform initial opinions
// in [1, k] from the replica stream, then the step or jump engine.
JumpRunResult run_replica(const Workload& w, Rng& rng,
                          const CancelToken* cancel) {
  OpinionState state(w.graph, uniform_random_opinions(w.graph.num_vertices(),
                                                      1, w.k, rng));
  DivProcess process(w.graph, w.scheme);
  RunOptions options = w.run;
  options.cancel = cancel;
  if (w.jump) {
    return run_jump_guarded(process, state, rng, options);
  }
  JumpRunResult result;
  static_cast<RunResult&>(result) = run_guarded(process, state, rng, options);
  return result;
}

// The payload `divsim` journals for a replica (tools/divsim.cpp,
// encode_replica_run): fault counters are zero in these workloads.
std::string encode_payload(const JumpRunResult& result) {
  std::ostringstream out;
  out << to_string(result.status) << " " << result.steps << " "
      << result.effective_steps << " ";
  if (result.winner) {
    out << *result.winner;
  } else {
    out << "-";
  }
  out << " " << result.final_sum << " " << result.num_active << " "
      << result.min_active << " " << result.max_active << " 0 0 0 0";
  if (!result.fault.empty()) {
    out << " " << result.fault;
  }
  return out.str();
}

// Parent span of the attempts a supervised call is about to dispatch.  Set
// before the call, read by pool threads and (copied at fork) fleet workers.
std::atomic<std::uint64_t> g_attempt_parent{0};

SupervisedTask attempt_task(const Workload& w) {
  return [&w](std::size_t, Rng& rng,
              const CancelToken& cancel) -> std::optional<std::string> {
    Span span("attempt", g_attempt_parent.load(std::memory_order_relaxed), 1);
    const JumpRunResult result = run_replica(w, rng, &cancel);
    if (result.status == RunStatus::kCancelled ||
        result.status == RunStatus::kDeadline) {
      return std::nullopt;
    }
    return encode_payload(result);
  };
}

void check_outcome(const Workload& w, const JumpRunResult& result,
                   Report& report, const std::string& where) {
  report.check(result.status == RunStatus::kCompleted,
               where + ": replica ended " + to_string(result.status));
  if (w.run.stop == StopKind::kTwoAdjacent) {
    report.check(result.max_active - result.min_active <= 1,
                 where + ": stopped with a range wider than two");
  } else {
    report.check(result.winner && *result.winner >= 1 && *result.winner <= w.k,
                 where + ": winner outside [1, k]");
  }
}

// ---- workload replay: the e2e run re-driven through the library ----------

double montecarlo_replay(const Workload& w, Report& report, bool check) {
  const std::int64_t start = now_ns();
  std::vector<JumpRunResult> results(w.replicas);
  {
    Span driver("engine.montecarlo");
    const std::uint64_t parent = driver.id();
    const MonteCarloOptions mc{.master_seed = w.seed, .num_threads = w.threads};
    const BatchReport batch = run_replicas_isolated_erased(
        w.replicas,
        [&](std::size_t replica, Rng& rng) {
          Span span("replica", parent, 1);
          results[replica] = run_replica(w, rng, nullptr);
          span.set_ops(results[replica].steps);
        },
        mc);
    if (check) {
      report.check(batch.ok(), "montecarlo replay: replica errors");
    }
  }
  const double wall = seconds_since(start);
  if (check) {
    for (const JumpRunResult& result : results) {
      check_outcome(w, result, report, "montecarlo replay");
    }
  }
  return wall;
}

std::string campaign_config(const Workload& w, std::size_t index,
                            std::uint64_t seed) {
  std::ostringstream config;
  config << "--graph=" << w.spec << " --k=" << w.k
         << " --replicas=" << w.campaign_replicas
         << " --stop=" << to_string(w.run.stop) << " --seed=" << seed;
  if (index % 2 == 1) {
    config << " --threads=" << w.threads;
  } else {
    config << " --isolation=process --workers=" << w.threads;
  }
  return config.str();
}

std::string campaign_meta(const Workload& w, std::uint64_t seed) {
  std::ostringstream meta;
  meta << "divsim-campaign 1\ngraph=" << w.spec << " k=" << w.k
       << " process=div scheme=" << to_string(w.scheme)
       << " engine=" << (w.jump ? "jump" : "step")
       << " stop=" << to_string(w.run.stop)
       << " max-steps=" << w.run.max_steps
       << " replicas=" << w.campaign_replicas << " seed=" << seed
       << " fault=\n";
  return meta.str();
}

// Supervision as `divsim run --supervise` arms it with default flags: the
// circuit breaker on (BreakerOptions' defaults are divsim's) and a
// completion estimator with default options.  The heartbeat stays off, as
// in divsim without --metrics-out or --progress.
SupervisorOptions supervision_for(const Workload& w, std::uint64_t seed,
                                  bool process,
                                  CompletionEstimator& estimator) {
  SupervisorOptions sup;
  sup.master_seed = seed;
  sup.num_threads = w.threads;
  sup.isolation = process ? Isolation::kProcess : Isolation::kThread;
  sup.fleet.workers = w.threads;
  sup.estimator = &estimator;
  sup.breaker_enabled = true;
  return sup;
}

std::vector<std::string> sorted_records(const fs::path& campaign_dir) {
  std::vector<std::string> records =
      read_journal((campaign_dir / "results.journal").string()).records;
  std::sort(records.begin(), records.end());
  return records;
}

// Closed loop of `campaigns` campaigns through the queue: submit, then one
// coordinator pass that leases it and runs it as a supervised campaign --
// odd campaigns on threads, even ones on the process fleet, pairs sharing a
// seed.  The runner does what `divsim queue run` does once cmd_run is
// re-entered with --supervise: supervision_for's options, plus a
// calibration log in the checkpoint directory that persists (one fsync'd
// append) each completion the estimator observes.  It skips divsim's
// process start and argument parsing, which divsim.exec_ms measures.
double pipeline_replay(const Workload& w, const fs::path& qdir, Report& report,
                       bool check) {
  fs::remove_all(qdir);
  const std::int64_t start = now_ns();
  QueueOptions qopts;
  qopts.directory = qdir.string();
  CampaignQueue queue(qopts);
  std::map<std::uint64_t, std::uint64_t> campaign_seed;
  const SupervisedTask task = attempt_task(w);
  for (std::size_t i = 1; i <= w.campaigns; ++i) {
    const std::uint64_t seed = w.seed * 1000 + (i + 1) / 2;
    const bool process = i % 2 == 0;
    {
      Span span("queue.submit");
      const SubmitOutcome outcome = queue.submit(campaign_config(w, i, seed));
      campaign_seed[outcome.campaign] = seed;
    }
    CoordinatorOptions copts;
    copts.max_campaigns = 1;
    copts.wait_for_leases = false;
    const CampaignRunner runner =
        [&](const CampaignEntry& entry,
            const std::string& checkpoint_dir) -> CampaignPhase {
      Span span("engine.campaign", w.campaign_replicas);
      g_attempt_parent.store(span.id(), std::memory_order_relaxed);
      CampaignOptions campaign;
      campaign.directory = checkpoint_dir;
      campaign.meta = campaign_meta(w, campaign_seed.at(entry.id));
      campaign.mc.master_seed = campaign_seed.at(entry.id);
      campaign.mc.num_threads = w.threads;
      fs::create_directories(checkpoint_dir);
      CompletionEstimator estimator{EstimatorOptions{}};
      CalibrationLog calibration(checkpoint_dir, crc32_of(campaign.meta));
      calibration.warm(estimator);
      estimator.set_observer(
          [&calibration](double seconds) { calibration.append(seconds); });
      const SupervisedCampaignResult result = run_supervised_campaign(
          w.campaign_replicas, task, campaign,
          supervision_for(w, campaign_seed.at(entry.id), process, estimator));
      return result.status == CampaignStatus::kComplete
                 ? CampaignPhase::kComplete
                 : CampaignPhase::kFailed;
    };
    CoordinatorReport coordinated;
    {
      Span span("queue.coordinator");
      coordinated = run_coordinator(queue, runner, copts);
    }
    if (check) {
      report.check(coordinated.completed == 1,
                   "pipeline: campaign " + std::to_string(i) +
                       " did not complete");
    }
  }
  const double wall = seconds_since(start);
  if (check) {
    const QueueSnapshot snap = queue.snapshot();
    report.counts["queue.replay_records"] = static_cast<double>(snap.records);
    for (std::size_t id = 1; id + 1 <= w.campaigns; id += 2) {
      report.check(sorted_records(queue.campaign_directory(id)) ==
                       sorted_records(queue.campaign_directory(id + 1)),
                   "pipeline: thread and process journals differ for "
                   "campaigns " +
                       std::to_string(id) + "/" + std::to_string(id + 1));
    }
    const fs::path journal =
        fs::path(queue.campaign_directory(1)) / "results.journal";
    report.counts["io.journal.bytes_per_replica"] =
        static_cast<double>(fs::file_size(journal)) /
        static_cast<double>(w.campaign_replicas);
  }
  return wall;
}

void replay_section(const Workload& w, Report& report) {
  // Untraced, traced, untraced again, on identical inputs: the traced pass
  // against the mean of the two around it is the recorder's own cost, with
  // warm-up and slow drift of the host cancelling out.
  const fs::path qdir = w.dir / "pipeline-queue";
  const auto replay = [&](bool traced) {
    g_tracer.set_enabled(traced);
    Span span("replay");
    return w.replay == "pipeline" ? pipeline_replay(w, qdir, report, traced)
                                  : montecarlo_replay(w, report, traced);
  };
  const double before = replay(false);
  const double traced = replay(true);
  const double after = replay(false);
  g_tracer.set_enabled(true);
  g_tracer.merge_spill();
  report.counts["replay.untraced_s"] = (before + after) / 2.0;
  report.counts["replay.traced_s"] = traced;
}

// ---- rng, graph and core kernels on the workload's graph -------------------

void kernel_section(const Workload& w, Report& report) {
  Rng rng(Rng::substream_seed(w.seed, 1u << 20));
  const VertexId n = w.graph.num_vertices();
  constexpr int kReps = 3;
  for (int rep = 0; rep < kReps; ++rep) {
    constexpr std::uint64_t kDraws = 10'000'000;
    std::uint64_t sum = 0;
    {
      Span span("rng.uniform_below", kDraws);
      for (std::uint64_t i = 0; i < kDraws; ++i) {
        sum += rng.uniform_below(n);
      }
      escape(sum);
    }
    // 1/416: the active-step probability of cycle-jump's lazy endgame.
    constexpr std::uint64_t kGeometric = 2'000'000;
    {
      Span span("rng.geometric", kGeometric);
      for (std::uint64_t i = 0; i < kGeometric; ++i) {
        sum += rng.geometric(1.0 / 416.0);
      }
      escape(sum);
    }
    constexpr std::uint64_t kPicks = 4'000'000;
    {
      Span span("graph.neighbor_pick", kPicks);
      for (std::uint64_t i = 0; i < kPicks; ++i) {
        const auto v = static_cast<VertexId>(rng.uniform_below(n));
        const auto row = w.graph.neighbors(v);
        sum += row[rng.uniform_below(row.size())];
      }
      escape(sum);
    }
  }

  // DivProcess::step and the stop probes on a live state.
  OpinionState state(w.graph, uniform_random_opinions(n, 1, w.k, rng));
  DivProcess process(w.graph, w.scheme);
  for (int rep = 0; rep < kReps; ++rep) {
    constexpr std::uint64_t kSteps = 2'000'000;
    {
      Span span("core.div_step", kSteps);
      for (std::uint64_t i = 0; i < kSteps; ++i) {
        process.step(state, rng);
      }
      escape(state);
    }
    constexpr std::uint64_t kProbes = 10'000'000;
    std::uint64_t stops = 0;
    {
      Span span("core.stop_probe", kProbes);
      for (std::uint64_t i = 0; i < kProbes; i += 2) {
        escape(state);
        stops += state.is_two_adjacent();
        escape(state);
        stops += state.is_consensus();
      }
      escape(stops);
    }
  }

  // The discordance tracker on a fresh random state.  apply_move is timed
  // as (sample + set + apply_move) minus sample, since a move needs a fresh
  // sample each time.
  std::uint64_t samples_done = 0;
  std::uint64_t moves_done = 0;
  constexpr std::uint64_t kSamples = 1'000'000;
  constexpr std::uint64_t kMoves = 400'000;
  while (moves_done < kMoves) {
    OpinionState live(w.graph, uniform_random_opinions(n, 1, w.k, rng));
    DiscordanceTracker tracker(live, w.scheme);
    if (samples_done < kSamples) {
      const std::uint64_t count = kSamples - samples_done;
      Span span("core.tracker.sample", count);
      std::uint64_t sum = 0;
      for (std::uint64_t i = 0; i < count; ++i) {
        sum += tracker.sample_discordant_pair(rng).updater;
      }
      escape(sum);
      samples_done += count;
    }
    for (int rep = 0; rep < 5 && moves_done == 0; ++rep) {
      Span span("core.tracker.rebuild");
      tracker.rebuild_counts();
    }
    std::uint64_t moved = 0;
    {
      Span span("core.tracker.move", 1);
      while (moved + moves_done < kMoves && !tracker.frozen()) {
        const SelectedPair pair = tracker.sample_discordant_pair(rng);
        const Opinion before = live.opinion(pair.updater);
        live.set(pair.updater, DivProcess::updated_opinion(
                                   before, live.opinion(pair.observed)));
        tracker.apply_move(pair.updater, before);
        ++moved;
      }
      span.set_ops(std::max<std::uint64_t>(moved, 1));
    }
    moves_done += moved;
    if (moved == 0) {
      break;
    }
  }
  report.check(moves_done > 0, "tracker: no discordant pair to move");
}

// ---- engine loops ----------------------------------------------------------

void engine_section(const Workload& w, Report& report) {
  const VertexId n = w.graph.num_vertices();
  // run() on one thread, capped so a cycle replica stays short.
  {
    Rng rng(Rng::substream_seed(w.seed, 0));
    OpinionState state(w.graph, uniform_random_opinions(n, 1, w.k, rng));
    DivProcess process(w.graph, w.scheme);
    RunOptions options = w.run;
    options.max_steps = std::min<std::uint64_t>(options.max_steps, 1u << 22);
    Span span("engine.run");
    const RunResult result = run(process, state, rng, options);
    span.set_ops(std::max<std::uint64_t>(result.steps, 1));
  }

  // run_jump() with a RunMetrics sink, to the workload's stopping rule.
  RunMetrics total;
  for (std::uint64_t replica = 0; replica < 4; ++replica) {
    Rng rng(Rng::substream_seed(w.seed, replica));
    OpinionState state(w.graph, uniform_random_opinions(n, 1, w.k, rng));
    DivProcess process(w.graph, w.scheme);
    RunMetrics metrics;
    RunOptions options = w.run;
    options.metrics = &metrics;
    JumpRunResult result;
    {
      Span span("engine.run_jump");
      result = run_jump(process, state, rng, options);
      span.set_ops(std::max<std::uint64_t>(result.effective_steps, 1));
    }
    report.check(result.status == RunStatus::kCompleted,
                 "run_jump: replica ended " +
                     std::string(to_string(result.status)));
    total.scheduled_steps += metrics.scheduled_steps;
    total.effective_steps += metrics.effective_steps;
    total.tracker_rebuilds += metrics.tracker_rebuilds;
    total.wall_seconds_total += metrics.wall_seconds_total;
    total.wall_seconds_jump += metrics.wall_seconds_jump;
    report.counts["engine.run_jump.mode_switches"] +=
        static_cast<double>(result.mode_switches);
  }
  report.counts["engine.run_jump.effective_ratio"] = total.effective_ratio();
  report.counts["engine.run_jump.tracker_rebuilds"] =
      static_cast<double>(total.tracker_rebuilds);
  report.counts["engine.run_jump.jump_wall_share"] =
      total.wall_seconds_total > 0.0
          ? total.wall_seconds_jump / total.wall_seconds_total
          : 0.0;

  // PERF-1: run_batch at one lane and at sixteen lanes against run(), on the
  // same replica streams, every lane capped at 2^20 steps.  Lanes must match
  // run() bit for bit (steps and final sum).
  RunOptions capped = w.run;
  capped.max_steps = std::min<std::uint64_t>(capped.max_steps, 1u << 20);
  constexpr unsigned kCompared = 4;
  constexpr unsigned kWide = 16;
  std::vector<RunResult> scalar(kCompared);
  for (int rep = 0; rep < 2; ++rep) {
    std::uint64_t steps = 0;
    {
      Span span("engine.perf1.run");
      for (unsigned i = 0; i < kCompared; ++i) {
        Rng rng(Rng::retry_seed(w.seed, i, 0));
        OpinionState state(w.graph, uniform_random_opinions(n, 1, w.k, rng));
        DivProcess process(w.graph, w.scheme);
        scalar[i] = run(process, state, rng, capped);
        steps += scalar[i].steps;
      }
      span.set_ops(steps);
    }
    for (unsigned width : {1u, kWide}) {
      const unsigned lanes_run = width == 1 ? kCompared : 1;
      std::uint64_t batch_steps = 0;
      std::vector<RunResult> lanes;
      Span span(width == 1 ? "engine.perf1.batch1" : "engine.perf1.batch16");
      for (unsigned group = 0; group < lanes_run; ++group) {
        OpinionPlane plane(w.graph, width);
        std::vector<Rng> rngs;
        rngs.reserve(width);
        for (unsigned lane = 0; lane < width; ++lane) {
          rngs.emplace_back(Rng::retry_seed(w.seed, group + lane, 0));
          plane.assign_lane(lane, uniform_random_opinions(n, 1, w.k,
                                                          rngs.back()));
        }
        for (RunResult& result :
             run_batch(w.graph, w.scheme, plane, rngs, capped)) {
          batch_steps += result.steps;
          lanes.push_back(std::move(result));
        }
      }
      span.set_ops(batch_steps);
      for (unsigned i = 0; i < kCompared; ++i) {
        report.check(lanes[i].steps == scalar[i].steps &&
                         lanes[i].final_sum == scalar[i].final_sum,
                     "perf1: run_batch lane " + std::to_string(i) + " at " +
                         std::to_string(width) +
                         " lane(s) differs from run()");
      }
    }
  }
}

// ---- supervisor and fleet on the workload's replicas -----------------------

void supervision_section(const Workload& w, Report& report) {
  std::vector<std::size_t> ids(w.campaign_replicas);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = i;
  }
  const SupervisedTask task = attempt_task(w);
  constexpr int kReps = 3;
  for (int rep = 0; rep < kReps; ++rep) {
    std::vector<std::string> payloads[2];
    for (const bool process : {false, true}) {
      std::vector<std::string>& collected = payloads[process];
      collected.resize(ids.size());
      SupervisorReport sup;
      {
        Span span(process ? "engine.fleet" : "engine.supervisor",
                  ids.size());
        g_attempt_parent.store(span.id(), std::memory_order_relaxed);
        CompletionEstimator estimator{EstimatorOptions{}};
        sup = run_supervised_set(
            ids, task,
            [&](std::size_t replica, std::string&& payload) {
              collected[replica] = std::move(payload);
            },
            supervision_for(w, w.seed, process, estimator));
      }
      report.check(sup.succeeded == ids.size(),
                   std::string(process ? "fleet" : "supervisor") +
                       ": replicas did not all succeed");
      // Per call, averaged over the repetitions.
      report.counts[process ? "engine.fleet.spawns"
                            : "engine.supervisor.retries"] +=
          static_cast<double>(process ? sup.worker_spawns : sup.retries) /
          kReps;
    }
    report.check(payloads[0] == payloads[1],
                 "supervision: thread and process payloads differ");
  }
  g_tracer.merge_spill();
}

// ---- queue mutations as the journal grows ----------------------------------

// Submit, lease and finish this many campaigns, so queue.journal replays a
// few hundred records by the end.
constexpr std::size_t kQueueOps = 100;

void queue_section(const Workload& w, Report& report) {
  const fs::path qdir = w.dir / "ops-queue";
  fs::remove_all(qdir);
  QueueOptions qopts;
  qopts.directory = qdir.string();
  CampaignQueue queue(qopts);
  for (std::size_t i = 1; i <= kQueueOps; ++i) {
    SubmitOutcome outcome;
    {
      Span span("queue.submit");
      outcome = queue.submit(campaign_config(w, i, w.seed * 1000 + i));
    }
    std::optional<CampaignEntry> leased;
    {
      Span span("queue.lease");
      leased = queue.lease_next();
    }
    if (!leased) {
      report.check(false, "queue: nothing to lease after a submit");
      return;
    }
    queue.mark_running(leased->id, leased->lease);
    {
      Span span("queue.finish");
      queue.finish(leased->id, leased->lease, CampaignPhase::kComplete,
                   "benchmark");
    }
  }
  report.check(queue.snapshot().view.count(CampaignPhase::kComplete) ==
                   kQueueOps,
               "queue: not every campaign reached complete");
}

// ---- io: journal, atomic file, wire ----------------------------------------

void io_section(const Workload& w, Report& report) {
  // Payloads with the workload's sizes: the journal of its first campaign.
  const fs::path source =
      fs::path(w.dir / "pipeline-queue" / "campaigns" / "1" /
               "results.journal");
  std::vector<std::string> records = read_journal(source.string()).records;
  if (records.empty()) {
    report.check(false, "io: no campaign records to replay");
    return;
  }
  const fs::path journal = w.dir / "io.journal";
  fs::remove(journal);
  {
    JournalWriter writer(journal.string());
    for (std::size_t i = 0; i < 200; ++i) {
      Span span("io.journal.append_fsync");
      writer.append(records[i % records.size()]);
      writer.flush();
    }
  }
  report.check(read_journal(journal.string()).records.size() == 200,
               "io: journal lost records");

  const std::string meta = campaign_meta(w, w.seed);
  const fs::path meta_path = w.dir / "campaign.meta";
  for (int i = 0; i < 50; ++i) {
    Span span("io.atomic_write");
    atomic_write_file(meta_path.string(), meta);
  }
  report.check(read_file(meta_path.string()) == meta,
               "io: atomic write lost content");

  int fds[2];
  if (::pipe2(fds, O_NONBLOCK) != 0) {
    report.check(false, "io: pipe2 failed");
    return;
  }
  WireReader reader(fds[0]);
  std::string frame;
  std::uint64_t mismatched = 0;
  for (std::size_t i = 0; i < 2000; ++i) {
    const std::string& payload = records[i % records.size()];
    Span span("io.wire.roundtrip");
    wire_write_frame(fds[1], payload);
    reader.pump();
    if (!reader.next(frame) || frame != payload) {
      ++mismatched;
    }
  }
  ::close(fds[0]);
  ::close(fds[1]);
  report.check(mismatched == 0, "io: wire frames did not round-trip");
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void write_document(const std::string& path, const Report& report) {
  std::ofstream out(path);
  out << "{\"checks\":" << report.checks << ",\"misses\":" << report.misses
      << ",\"notes\":[";
  for (std::size_t i = 0; i < report.notes.size(); ++i) {
    out << (i ? "," : "") << json_string(report.notes[i]);
  }
  out << "],\"counts\":{";
  bool first = true;
  for (const auto& [name, value] : report.counts) {
    out << (first ? "" : ",") << json_string(name) << ":"
        << (std::isfinite(value) ? value : 0.0);
    first = false;
  }
  out << "},\"spans\":[";
  first = true;
  for (const SpanRecord& span : g_tracer.spans()) {
    out << (first ? "" : ",") << "[" << span.id << "," << span.parent << ","
        << json_string(span.name) << "," << span.start << "," << span.end
        << "," << span.ops << "]";
    first = false;
  }
  out << "]}\n";
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
}

int trace_main(int argc, char** argv) {
  const Args args(argc, argv);
  Workload w;
  w.spec = args.get("spec", "");
  w.k = static_cast<Opinion>(args.get_int("k", 0));
  w.scheme = parse_scheme(args.get("scheme", "edge"));
  w.jump = args.get("engine", "step") == "jump";
  w.run.stop = args.get("stop", "consensus") == "two-adjacent"
                   ? StopKind::kTwoAdjacent
                   : StopKind::kConsensus;
  w.replicas = args.get_u64("replicas", 0);
  w.threads = static_cast<unsigned>(args.get_u64("threads", 1));
  w.seed = args.get_u64("seed", 1);
  w.replay = args.get("replay", "montecarlo");
  w.campaigns = args.get_u64("campaigns", 0);
  w.campaign_replicas = args.get_u64("campaign-replicas", 0);
  w.dir = args.get("dir", "");
  const std::string out = args.get("out", "");
  if (w.spec.empty() || w.k < 1 || w.dir.empty() || out.empty() ||
      w.campaigns < 2 || w.campaign_replicas < 1 ||
      (w.replay != "montecarlo" && w.replay != "pipeline")) {
    std::cerr << "layer_trace: need --spec, --k >= 1, --dir, --out, "
                 "--campaigns >= 2, --campaign-replicas >= 1 and --replay "
                 "montecarlo|pipeline\n";
    return 2;
  }
  fs::create_directories(w.dir);
  g_tracer.set_spill_path((w.dir / "child-spans.jsonl").string());
  fs::remove(w.dir / "child-spans.jsonl");

  Report report;
  {
    Span span("graph.build");
    Rng graph_rng(w.seed);
    w.graph = make_graph_from_spec(w.spec, graph_rng);
  }
  // `divsim run`'s default cap: n^2 * 1000 scheduled steps.
  w.run.max_steps = args.get_u64(
      "max-steps", static_cast<std::uint64_t>(w.graph.num_vertices()) *
                       w.graph.num_vertices() * 1000);

  replay_section(w, report);
  // Each workload reports every layer metric, so the replay the workload
  // did not use runs once more, traced, on the same inputs.
  if (w.replay == "pipeline") {
    montecarlo_replay(w, report, true);
  } else {
    {
      Span span("pipeline");
      pipeline_replay(w, w.dir / "pipeline-queue", report, true);
    }
    g_tracer.merge_spill();
  }
  kernel_section(w, report);
  engine_section(w, report);
  supervision_section(w, report);
  queue_section(w, report);
  io_section(w, report);
  write_document(out, report);
  return report.misses == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return trace_main(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "layer_trace: " << error.what() << "\n";
    return 2;
  }
}
