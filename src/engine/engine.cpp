#include "engine/engine.hpp"

#include <chrono>
#include <exception>
#include <span>

#include "core/div_process.hpp"
#include "core/opinion_plane.hpp"
#include "engine/batch_engine.hpp"

namespace divlib {

namespace {

// Plain DIV with no per-step observer (no trace, no write log) runs through
// run_batch at one lane; everything else needs the virtual loop below.
const DivProcess* kernel_route(const Process& process,
                               const OpinionState& state,
                               const RunOptions& options) {
  const auto* div = dynamic_cast<const DivProcess*>(&process);
  if (div == nullptr || options.trace_stride != 0 ||
      state.write_log_enabled() || &div->graph() != &state.graph()) {
    return nullptr;
  }
  return div;
}

// Runs `state` as the single lane of a plane, then writes the lane back
// through set() so the state keeps its initial range and every aggregate
// reads exactly as the virtual loop would have left it.  The kernel rewinds
// the rng to the last executed step, so the stream position matches too.
void run_lane(const DivProcess& div, OpinionState& state, Rng& rng,
              const RunOptions& options, RunResult& result) {
  const Graph& graph = state.graph();
  OpinionPlane plane(graph, 1);
  plane.assign_lane(0, state.opinions());
  RunMetrics* metrics = options.metrics;
  // run() is a scalar engine to its callers: batch_lanes stays untouched.
  const std::uint64_t batch_lanes = metrics ? metrics->batch_lanes : 0;
  const RunResult lane =
      run_batch(graph, div.scheme(), plane, std::span<Rng>(&rng, 1), options)
          .front();
  if (metrics != nullptr) {
    metrics->batch_lanes = batch_lanes;
  }
  result.status = lane.status;
  result.steps = lane.steps;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    const Opinion value = plane.opinion(0, v);
    if (value != state.opinion(v)) {
      state.set(v, value);
    }
  }
}

// Advances the loop, keeping result.steps current so a guarded caller can
// report partial progress after an exception.
void run_loop(Process& process, OpinionState& state, Rng& rng,
              const RunOptions& options, RunResult& result) {
  if (const DivProcess* div = kernel_route(process, state, options)) {
    run_lane(*div, state, rng, options, result);
    return;
  }
  process.begin_run(state);
  result.trace = Trace(options.trace_stride);
  result.trace.maybe_record(0, state);
  const auto wall_start = std::chrono::steady_clock::now();
  if (options.metrics != nullptr) {
    // The naive engine runs one all-scheduled segment; effective_steps stays
    // 0 here (the jump engine is the only one that can tell lazy steps
    // apart without paying for the discordance tracker).
    options.metrics->record_mode_switch(0, /*jump_mode=*/false, 0.0, 0);
  }

  bool satisfied = is_satisfied(options.stop, state);
  bool cancelled = false;
  while (!satisfied && result.steps < options.max_steps) {
    // A satisfied stopping rule always wins over cancellation (the run IS
    // done); otherwise drain at the step boundary before the next step.
    if (options.cancel != nullptr && options.cancel->requested()) {
      cancelled = true;
      break;
    }
    process.step(state, rng);
    ++result.steps;
    result.trace.maybe_record(result.steps, state);
    satisfied = is_satisfied(options.stop, state);
  }
  result.status = satisfied    ? RunStatus::kCompleted
                  : cancelled  ? drained_status(*options.cancel)
                               : RunStatus::kCapped;
  if (options.metrics != nullptr) {
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
    options.metrics->scheduled_steps = result.steps;
    options.metrics->wall_seconds_total = wall;
    options.metrics->wall_seconds_naive = wall;
  }
}

void finalize(const OpinionState& state, RunResult& result) {
  result.completed = result.status == RunStatus::kCompleted;
  result.min_active = state.min_active();
  result.max_active = state.max_active();
  result.num_active = state.num_active();
  result.final_sum = state.sum();
  result.final_z = state.z_total();
  if (state.is_consensus()) {
    result.winner = state.min_active();
  }
  if (result.trace.enabled() &&
      (result.trace.empty() ||
       result.trace.samples().back().step != result.steps)) {
    result.trace.record(result.steps, state);
  }
}

}  // namespace

const char* to_string(RunStatus status) {
  switch (status) {
    case RunStatus::kCompleted:
      return "completed";
    case RunStatus::kCapped:
      return "capped";
    case RunStatus::kFaulted:
      return "faulted";
    case RunStatus::kCancelled:
      return "cancelled";
    case RunStatus::kDeadline:
      return "deadline";
  }
  return "unknown";
}

RunStatus drained_status(const CancelToken& token) {
  return token.reason() == CancelReason::kDeadline ? RunStatus::kDeadline
                                                   : RunStatus::kCancelled;
}

RunResult run(Process& process, OpinionState& state, Rng& rng,
              const RunOptions& options) {
  RunResult result;
  run_loop(process, state, rng, options, result);
  finalize(state, result);
  return result;
}

RunResult run_guarded(Process& process, OpinionState& state, Rng& rng,
                      const RunOptions& options) {
  RunResult result;
  try {
    run_loop(process, state, rng, options, result);
  } catch (const std::exception& error) {
    result.status = RunStatus::kFaulted;
    result.fault = error.what();
  } catch (...) {
    result.status = RunStatus::kFaulted;
    result.fault = "unknown exception";
  }
  finalize(state, result);
  return result;
}

}  // namespace divlib
